"""Quantum series algebra over exact Laurent rationals.

All refined counting in this package happens in the variable v = -L^{1/2},
for which the frequently used motivic combinations read

    -L^{3/2}            = v^3
    -L^{1/2}            = v
    L^{-1/2}            = -v^{-1}
    -L^{1/2} + L^{-1/2} = v - v^{-1}
    L^{d}               = v^{2d}

and the bar involution L^{1/2} <-> L^{-1/2} becomes v <-> v^{-1}.  Series live
in a truncated quantum affine space: coefficients are VRational values,
dimension vectors are multiplied with the twist x^d x^{d'} = v^{<d,d'>}
x^{d+d'} for an antisymmetric integer form, and every operation truncates at a
fixed total degree.  A BpsTable is a table of coefficients over the same
vectors and up to its own bound, with no product; the bar involution acts
on tables only, coefficientwise, as `BpsTable.bar`.  Both are bounded term
tables, `_Table`, which holds their coefficient lookup, sums, scaling and
equality once.  Series and tables leave the module in one format,
`series_to_json`, which nothing in the package reads back.

Inside the kernels a dimension vector d over n nodes is one int, its key

    key(d) = |d| R^n + sum_c d_c R^(n-1-c),   R = bound + 1.

Every entry of a vector the series holds is at most the bound, so the key
is additive, key(d + d') = key(d) + key(d') and key(k d) = k key(d), and
ints sort in the term order (|d|, d).  A kernel adds keys, decodes each
distinct key of its result once and emits the terms in key order.
``framed_partition_function`` counts crystals by the same key.

Inverse, plethystic Exp and Log share one triangular recursion, `_solve`,
which takes a series a, a right-hand side h and a scale, and fills its
result b one total degree |d| at a time, d = 0 included:

    b_d = scale(|d|) * (h_d - sum over d' != 0 of a_{d'} b_{d-d'} v^{<d',d-d'>}).

With scale = c_0^{-1} for the constant term c_0 of a, b solves a b = h, so
b = a^{-1} h: `_divide`.  The inverse of a is h = 1.  Let D multiply x^d by
|d|; D is a derivation of the twisted product, since |d + d'| = |d| + |d'|.
On a pairwise commuting support, F = exp(s) is then exactly the solution of
D F = (D s) F: F_0 = 1 and F_d = |d|^{-1} sum_{d'} |d'| s_{d'} F_{d-d'}, the
recursion with a = -D s, h = 1 and scale 1/|d| (1 at d = 0).  Exp(f) takes
s = sum_k psi_k(f)/k, where psi_k sends c x^d to psi_k(c) x^{kd}.  Since
D psi_k = k psi_k D, the factor 1/k cancels: D s = sum_k psi_k(D f).  Log
undoes both steps: with log F = D^{-1}(F^{-1} D F) and
Log F = sum_k mu(k)/k psi_k(log F), the same identity
psi_k D^{-1} = k D^{-1} psi_k gives

    (Log F)_d = |d|^{-1} sum over k | d of mu(k) psi_k(F^{-1} D F)_{d/k},

with F^{-1} D F one division, a = F and h = D F, then integer Moebius
weights and one division by |d| per term.

The module has one twisted-product loop, `_products`, which qmul and
_solve share.  Both work on coefficients in one shape, (X, e),
meaning X v^e.  The twist v^<d',d''> adds to e; a product multiplies the
two X and adds the two e; two terms that meet at one d are summed after
the X of higher e is shifted down by the gap.  When the twist form is zero,
as for every symmetric quiver, the twist term is skipped, and so is the
pairwise commutation check of Exp and Log.  An encoding says what X is,
how to shift it and how to read it back as a VRational:

- packed: a Laurent coefficient sum_i c_i v^(e+i) is (P, e), where
  P = sum_i c_i 2^(K i) is one Python int and e the lowest exponent.  A
  shift by j moves P left by K j bits, and reading takes P's balanced
  base-2^K digits.  Products and sums are exact for every K.  Only reading
  back needs |c_i| < 2^(K-1), so K is fixed before packing from a bound on
  the L1 norm of every result coefficient.  Width rule, for a division:
  the largest g_n of the norm recursion g_n = h_n + sum_{j=1..n} m_j
  g_{n-j}, where m_j and h_n are the total norms of a at |d| = j and of h
  at |d| = n; g_n bounds the sum of the quotient's norms over all d with
  |d| = n.  For h = 1 it is g_0 = 1, g_n = sum_{j=1..n} m_j g_{n-j}.
- plain: X is a VRational and e starts at 0.  VRational.shift both shifts
  and reads.

qmul runs plain.  _divide chooses from its input: it packs when every
coefficient of a and h is Laurent and the constant term of a is +-v^k,
so qinv and Log pack for a Laurent F.  Everything else is plain:
qinv(1 + v + ...) and Exp, whose 1/|d| scale is a true fraction.  Log's
Moebius sum and its division by |d| act after the kernel, on VRational
coefficients.

No floating point is used anywhere; polynomial gcds run a primitive
pseudo-remainder sequence over the integers.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from fractions import Fraction
from itertools import combinations
from math import gcd
from operator import mul

from .errors import (
    NonCommutingSupport,
    NonUnitConstantTerm,
    NonzeroConstantTerm,
    ShapeMismatch,
    ValidationError,
    _check_int,
)

__all__ = [
    "VRational",
    "QSeries",
    "BpsTable",
    "qmul",
    "qinv",
    "exp_pleth",
    "log_pleth",
    "apply_symmetry",
    "series_to_json",
]


# ---------------------------------------------------------------------------
# dense integer polynomials (index = exponent), used only inside gcd reduction

def _ptrim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _pcontent(p):
    c = 0
    for x in p:
        c = gcd(c, x)
    return c or 1


def _pdiv_exact(a, b):
    """Exact division of integer polynomials; the caller guarantees b | a."""
    a = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for k in range(len(q) - 1, -1, -1):
        c = a[k + len(b) - 1]
        if c % b[-1]:
            raise ArithmeticError("division left a remainder")
        q[k] = c // b[-1]
        if q[k]:
            for j, y in enumerate(b):
                a[k + j] -= q[k] * y
    return _ptrim(q)


def _prem(a, b):
    # pseudo-remainder: lc(b)^(deg a - deg b + 1) * a mod b
    a = list(a)
    lb = b[-1]
    while len(a) >= len(b):
        la = a[-1]
        a = [lb * x for x in a]
        shift = len(a) - len(b)
        for j, y in enumerate(b):
            a[shift + j] -= la * y
        _ptrim(a)
        if not a:
            break
    return a


def _pprimitive(p):
    c = _pcontent(p)
    return [x // c for x in p]


def _pgcd(a, b):
    """Primitive PRS gcd, normalized primitive with positive leading term."""
    a = _pprimitive(_ptrim(list(a)))
    b = _pprimitive(_ptrim(list(b)))
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _pprimitive(_prem(a, b))
        a, b = b, r
    if a[-1] < 0:
        a = [-x for x in a]
    return a


# ---------------------------------------------------------------------------
# VRational: reduced fractions of integer Laurent polynomials in v

def _strip(d):
    return {e: c for e, c in d.items() if c}


def _dconv(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            out[e] = out.get(e, 0) + ca * cb
    return _strip(out)


def _dadd(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return _strip(out)


_DEN_ONE = {0: 1}  # the denominator of every Laurent VRational; never mutated


def _shared(den):
    """``den``, or ``_DEN_ONE`` itself if ``den`` is 1."""
    return _DEN_ONE if den == _DEN_ONE else den


def _check_poly(p, what):
    """p if it maps int exponents to int coefficients, else ValidationError;
    a bool is not an int here."""
    if not isinstance(p, Mapping) or any(type(x) is not int for x in [*p, *p.values()]):
        raise ValidationError("%s must map int exponents to ints, got %r" % (what, p))
    return p


def _check_adams(adams):
    if adams not in ("v", "-v"):
        raise ValidationError("adams must be 'v' or '-v', got %r" % (adams,))


def _reduce(num, den):
    """Canonical form: coprime integer polynomials, denominator with nonzero
    constant term and positive leading coefficient; v-powers live in the
    numerator's Laurent exponents."""
    num = _strip(num)
    den = _strip(den)
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return {}, _DEN_ONE
    nmin = min(num)
    dmin = min(den)
    offset = nmin - dmin
    pn = [0] * (max(num) - nmin + 1)
    for e, c in num.items():
        pn[e - nmin] = c
    pd = [0] * (max(den) - dmin + 1)
    for e, c in den.items():
        pd[e - dmin] = c
    cn, cd = _pcontent(pn), _pcontent(pd)
    pn = [x // cn for x in pn]
    pd = [x // cd for x in pd]
    if len(pd) > 1 and len(pn) > 1:
        g = _pgcd(pn, pd)
        if len(g) > 1:
            pn = _pdiv_exact(pn, g)
            pd = _pdiv_exact(pd, g)
    frac = Fraction(cn, cd)
    pn = [x * frac.numerator for x in pn]
    pd = [x * frac.denominator for x in pd]
    if pd[-1] < 0:
        pn = [-x for x in pn]
        pd = [-x for x in pd]
    return (
        {i + offset: c for i, c in enumerate(pn) if c},
        _shared({i: c for i, c in enumerate(pd) if c}),
    )


class VRational:
    """A rational function of v with integer coefficients, kept reduced.

    ``VRational(num, den)`` takes outside input: num and den must map int
    exponents to ints.  Arithmetic builds its results through `_reduced`,
    and ``_raw=True`` takes a reduced pair as it is; neither checks.

    A value's two dicts are never mutated once it is handed out, so values
    share them: every Laurent value holds the one module-level
    ``_DEN_ONE`` as its denominator, and ``-x`` and ``x.shift(j)`` hold
    x's."""

    __slots__ = ("_num", "_den")

    def __init__(self, num, den=None, *, _raw=False):
        if den is None:
            den = _DEN_ONE
        if _raw:
            self._num = num
            self._den = den
        else:
            self._num, self._den = _reduce(
                _check_poly(num, "numerator"), _check_poly(den, "denominator")
            )

    # -- constructors

    @classmethod
    def from_int(cls, n):
        _check_int(n, "VRational.from_int argument")
        return cls({0: n} if n else {}, _raw=True)

    @classmethod
    def laurent(cls, d):
        """The int d, or sum of c v^e over the items (e, c) of d."""
        if type(d) is int:
            return cls.from_int(d)
        return cls(_strip(_check_poly(d, "polynomial")), _raw=True)

    @classmethod
    def vpow(cls, j):
        _check_int(j, "VRational.vpow exponent")
        return cls({j: 1}, _raw=True)

    @classmethod
    def one(cls):
        return cls.from_int(1)

    @classmethod
    def zero(cls):
        return cls.from_int(0)

    # -- predicates and views

    @property
    def is_laurent(self):
        return self._den == _DEN_ONE

    def laurent_dict(self):
        if self._den != _DEN_ONE:
            raise ValidationError("not a Laurent polynomial: %r" % (self,))
        return dict(self._num)

    # -- arithmetic

    @staticmethod
    def _coerce(x):
        if isinstance(x, VRational):
            return x
        if isinstance(x, int):
            return VRational.from_int(int(x))  # int() reads a bool as 0 or 1
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self._den == _DEN_ONE and other._den == _DEN_ONE:
            return VRational(_dadd(self._num, other._num), _raw=True)
        return _reduced(
            _dadd(_dconv(self._num, other._den), _dconv(other._num, self._den)),
            _dconv(self._den, other._den),
        )

    __radd__ = __add__

    def __neg__(self):
        return VRational({e: -c for e, c in self._num.items()}, self._den, _raw=True)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is int:
            # num and den are coprime in content, so only gcd(other, den)
            # can cancel
            if not other:
                return VRational.zero()
            g = gcd(other, _pcontent(self._den.values()))
            return VRational(
                {e: c * (other // g) for e, c in self._num.items()},
                _shared({e: c // g for e, c in self._den.items()}) if g > 1 else self._den,
                _raw=True,
            )
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self._den == _DEN_ONE and other._den == _DEN_ONE:
            return VRational(_dconv(self._num, other._num), _raw=True)
        return _reduced(_dconv(self._num, other._num), _dconv(self._den, other._den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _reduced(_dconv(self._num, other._den), _dconv(self._den, other._num))

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return (VRational.one() / self) ** (-n)
        out = VRational.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def shift(self, j):
        """Multiply by v^j for an int j (exact, no renormalization needed)."""
        _check_int(j, "shift exponent")
        if not j or not self._num:
            return self
        return VRational({e + j: c for e, c in self._num.items()}, self._den, _raw=True)

    def bar(self):
        """The involution v -> v^{-1}."""
        return _reduced(
            {-e: c for e, c in self._num.items()},
            {-e: c for e, c in self._den.items()},
        )

    def adams(self, k, adams="v"):
        """psi_k for an int k >= 1.  With adams="v" substitute v -> v^k; with
        adams="-v" substitute v -> (-1)^{k+1} v^k, the rule for -v as line
        element."""
        if _check_int(k, "Adams index") < 1:
            raise ValidationError("Adams index must be at least 1, got %r" % (k,))
        _check_adams(adams)
        if k == 1:
            return self
        if adams == "-v" and k % 2 == 0:
            # v -> -v^k: odd exponents pick up a sign
            num = {e * k: (-c if e % 2 else c) for e, c in self._num.items()}
            den = {e * k: (-c if e % 2 else c) for e, c in self._den.items()}
        else:
            num = {e * k: c for e, c in self._num.items()}
            den = {e * k: c for e, c in self._den.items()}
        return VRational(num, _shared(den), _raw=True)

    # -- value semantics

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._num == other._num and self._den == other._den

    def __hash__(self):
        # a Laurent constant equals its int, so it hashes as that int
        if self._den == _DEN_ONE and self._num.keys() <= {0}:
            return hash(self._num.get(0, 0))
        return hash((frozenset(self._num.items()), frozenset(self._den.items())))

    def __bool__(self):
        return bool(self._num)

    def __repr__(self):
        def poly(d):
            if not d:
                return "0"
            bits = []
            for e in sorted(d, reverse=True):
                c = d[e]
                if e == 0:
                    bits.append("%+d" % c)
                elif c == 1:
                    bits.append("+v^%d" % e if e != 1 else "+v")
                elif c == -1:
                    bits.append("-v^%d" % e if e != 1 else "-v")
                else:
                    bits.append("%+d*v^%d" % (c, e) if e != 1 else "%+d*v" % c)
            s = "".join(bits)
            return s[1:] if s.startswith("+") else s

        if self._den == _DEN_ONE:
            return poly(self._num)
        return "(%s)/(%s)" % (poly(self._num), poly(self._den))


# ---------------------------------------------------------------------------
# QSeries and BpsTable: bounded tables of VRational coefficients


def _reduced(num, den):
    """The VRational num / den of polynomials this module computed, reduced
    and unchecked."""
    return VRational(*_reduce(num, den), _raw=True)


def _check_twist(twist):
    if not isinstance(twist, Sequence) or not all(isinstance(r, Sequence) for r in twist):
        raise ValidationError("twist must be a square int matrix, got %r" % (twist,))
    rows = tuple(tuple(_check_int(x, "twist entry") for x in row) for row in twist)
    if any(len(row) != len(rows) for row in rows):
        raise ValidationError("twist form is not square")
    if any(x != -y for row, col in zip(rows, zip(*rows)) for x, y in zip(row, col)):
        raise ValidationError("twist form is not antisymmetric")
    return rows


def _twist_vec(twist, d):
    """The row d^T T = -T d, so that <d, d'> = _twist_vec(twist, d) . d'."""
    return tuple([-sum(map(mul, row, d)) for row in twist])


def _twisted(twist):
    return any(map(any, twist))


def _sorted_terms(terms):
    return dict(sorted(terms.items(), key=lambda kv: (sum(kv[0]), kv[0])))


def _dim_key(d, radix):
    """key(d) of the module docstring, R = radix."""
    k = sum(d)
    for x in d:
        k = k * radix + x
    return k


def _dim(k, n, radix):
    """The vector d over n nodes with key(d) = k."""
    d = [0] * n
    for i in range(n - 1, -1, -1):
        k, d[i] = divmod(k, radix)
    return tuple(d)


def _series(bound, twist, terms):
    """The series of these terms, which are in term order and have no zero
    coefficient; nothing is checked."""
    out = QSeries.__new__(QSeries)
    out.bound, out.twist, out.terms = bound, twist, terms
    return out


def _keyed(bound, twist, coeffs):
    """The series with coefficient coeffs[k] at the vector of key k, in key
    order, zero coefficients dropped and nothing checked; each key is
    decoded once."""
    n, radix = len(twist), bound + 1
    return _series(
        bound, twist, {_dim(k, n, radix): coeffs[k] for k in sorted(coeffs) if coeffs[k]}
    )


def _check_vector(d, nvars):
    """d as a tuple of nvars nonnegative ints, else ValidationError."""
    if not isinstance(d, Sequence) or len(d) != nvars:
        raise ValidationError("dimension vector %r needs %d entries" % (d, nvars))
    d = tuple(_check_int(x, "dimension vector entry") for x in d)
    if any(x < 0 for x in d):
        raise ValidationError("dimension vector %r has a negative entry" % (d,))
    return d


def _clean_terms(nvars, terms):
    """Checked outside input: a coefficient table with merged duplicates."""
    if not isinstance(terms, Mapping):
        raise ValidationError("terms must be a mapping, got %r" % (terms,))
    clean = {}
    for d, c in terms.items():
        d = _check_vector(d, nvars)
        c = VRational._coerce(c)
        if c is NotImplemented:
            raise ValidationError("coefficient of %r is not VRational or int" % (d,))
        clean[d] = clean.get(d, VRational.zero()) + c
    return clean


class _Table:
    """A bounded table of dimension vector -> VRational, the part that
    QSeries and BpsTable share.  ``terms`` holds nonzero coefficients in
    term order, none at a total degree beyond ``bound``.  A subclass adds
    one more slot, named by ``_SHAPE``, to the table's shape; two tables
    meet in ``==``, ``+`` and ``-`` only when they are of one type, and in
    ``+`` and ``-`` only when their shapes agree."""

    __slots__ = ("bound", "terms")

    def __init__(self, bound, terms):
        """Checked outside input; the subclass has set its shape slot."""
        self.bound = _check_int(bound, "bound")
        if self.bound < 0:
            raise ValidationError("bound must be nonnegative")
        clean = _clean_terms(self.nvars, {} if terms is None else terms)
        self.terms = _sorted_terms(
            {d: c for d, c in clean.items() if c and sum(d) <= self.bound}
        )

    def _with(self, terms):
        """A table of this type and shape from terms this module computed
        in term order: zero coefficients are dropped, nothing else is
        checked.  Outside input goes through the constructor."""
        out = object.__new__(type(self))
        out.bound, out.terms = self.bound, {d: c for d, c in terms.items() if c}
        setattr(out, self._SHAPE, getattr(self, self._SHAPE))
        return out

    def _shape(self):
        return self.bound, getattr(self, self._SHAPE)

    def _check_shape(self, other):
        if self._shape() != other._shape():
            raise ShapeMismatch(
                "%s shapes differ: bound, %s %r/%r"
                % (type(self).__name__, self._SHAPE, self._shape(), other._shape())
            )

    def coeff(self, d):
        return self.terms.get(_check_vector(d, self.nvars), VRational.zero())

    def support(self):
        return list(self.terms)

    def items(self):
        return self.terms.items()

    def scale(self, c):
        return self._with({d: v * c for d, v in self.terms.items()})

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._check_shape(other)
        terms = dict(self.terms)
        for d, c in other.terms.items():
            terms[d] = terms.get(d, VRational.zero()) + c
        return self._with(_sorted_terms(terms))

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self._with({d: -c for d, c in self.terms.items()})

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._shape() == other._shape() and self.terms == other.terms


class QSeries(_Table):
    """Truncated series over the quantum affine space of dimension vectors."""

    __slots__ = ("twist",)
    _SHAPE = "twist"

    def __init__(self, bound, twist, terms=None):
        self.twist = _check_twist(twist)
        super().__init__(bound, terms)

    @property
    def nvars(self):
        return len(self.twist)

    @classmethod
    def unit(cls, bound, twist):
        return cls(bound, twist, {(0,) * len(twist): 1})

    @classmethod
    def monomial(cls, bound, twist, d, c=1):
        return cls(bound, twist, {_check_vector(d, len(_check_twist(twist))): c})

    def constant_part(self):
        z = (0,) * self.nvars
        return self._with({z: self.coeff(z)})

    def __repr__(self):
        if not self.terms:
            return "QSeries(0; bound=%d)" % self.bound
        bits = ["(%r) x^%s" % (c, list(d)) for d, c in self.terms.items()]
        return "QSeries(%s; bound=%d)" % (" + ".join(bits), self.bound)


class BpsTable(_Table):
    """A table of dimension vector -> VRational over nvars nodes, up to a
    total degree bound.

    Unlike QSeries there is no product structure, so the bar involution acts
    coefficientwise unconditionally.
    """

    __slots__ = ("nvars",)
    _SHAPE = "nvars"

    def __init__(self, nvars, bound, terms=None):
        self.nvars = _check_int(nvars, "nvars")
        if nvars < 0:
            raise ValidationError("nvars must be nonnegative")
        super().__init__(bound, terms)

    def bar(self):
        return self._with({d: c.bar() for d, c in self.terms.items()})

    def __repr__(self):
        return "BpsTable(%d vars, %d entries)" % (self.nvars, len(self.terms))


def _operand(x, kind=QSeries):
    """x if it is a ``kind``, else ValidationError; the kernels take a
    QSeries only."""
    if not isinstance(x, kind):
        raise ValidationError("unsupported operand %r" % type(x).__name__)
    return x


def _rows(series, encode, left):
    """The terms of ``series`` as (key(d), w, X, e) by total degree
    |d| = 0..bound, each coefficient as X v^e in ``encode``'s encoding.
    w is what ``_products`` reads of a twisted factor: d^T T on the left
    and d on the right."""
    twist = series.twist if left and _twisted(series.twist) else None
    radix = series.bound + 1
    rows = [[] for _ in range(series.bound + 1)]
    for d, (X, e) in encode(series.terms).items():
        w = _twist_vec(twist, d) if twist else d
        rows[sum(d)].append((_dim_key(d, radix), w, X, e))
    return rows


# ---------------------------------------------------------------------------
# coefficients as (X, e), meaning X v^e, in two encodings; see the module
# docstring.  An encoding is (encode, shift, read): encode turns a term
# table into {d: (X, e)}, shift(X, j) is X v^j in X's own encoding, and
# read(X, e) is the VRational X v^e.


def _laurent_nums(terms):
    """The numerators of ``terms`` if every coefficient is Laurent, else None."""
    nums = {}
    for d, c in terms.items():
        if c._den != _DEN_ONE:
            return None
        nums[d] = c._num
    return nums


def _norm(num):
    return sum(map(abs, num.values()))


def _quotient_width(a, h, bound):
    """K for a^-1 h, given the numerators of a, whose constant term is a
    unit, and of h: the norm recursion of the module docstring, then the
    least K whose balanced base-2^K digits hold every coefficient of
    absolute value at most its largest g_n, g_n < 2^(K-1).  a's constant
    term lands in m_0, which the recursion never reads."""
    m, g = [0] * (bound + 1), [0] * (bound + 1)
    for d, num in a.items():
        m[sum(d)] += _norm(num)
    for d, num in h.items():
        g[sum(d)] += _norm(num)
    for n in range(1, bound + 1):
        g[n] += sum(m[j] * g[n - j] for j in range(1, n + 1))
    return max(g).bit_length() + 1


def _unpack(P, e, K):
    """The Laurent numerator whose balanced base-2^K digits make P."""
    num = {}
    half, mask = 1 << K - 1, (1 << K) - 1
    while P:
        c = ((P + half) & mask) - half
        if c:
            num[e] = c
        P = (P - c) >> K
        e += 1
    return num


def _packed(K):
    """The packed encoding at width K, for Laurent coefficients."""

    def encode(terms):
        table = {}
        for d, c in terms.items():
            e = min(c._num)
            table[d] = sum(x << K * (i - e) for i, x in c._num.items()), e
        return table

    def read(P, e):
        return VRational(_unpack(P, e, K), _DEN_ONE, _raw=True)

    return encode, lambda P, j: P << K * j, read


def _plain(terms):
    return {d: (c, 0) for d, c in terms.items()}


_PLAIN = _plain, VRational.shift, VRational.shift


def _products(acc, left, right, shift, twisted):
    """acc[k + k'] += X X' v^(e + e' + <d, d'>) for every left term
    (k, u, X, e) and right term (k', d', X', e'), keys k = key(d) and
    k' = key(d'), u = d^T T.  Two terms that meet at one key are summed
    after the X of higher e is shifted down to the lower."""
    for k1, u, X1, e1 in left:
        for k2, d, X2, e2 in right:
            k = k1 + k2
            X = X1 * X2
            e = e1 + e2 + sum(map(mul, u, d)) if twisted else e1 + e2
            prev = acc.get(k)
            if prev is None:
                acc[k] = X, e
            else:
                X0, e0 = prev
                if e < e0:
                    acc[k] = X + shift(X0, e0 - e), e
                else:
                    acc[k] = X0 + shift(X, e - e0), e0


def qmul(a, b):
    """Twisted product: (ab)_d = sum over d'+d''=d of a_{d'} b_{d''} v^{<d',d''>},
    on plain coefficients."""
    _operand(a)._check_shape(_operand(b))
    twisted = _twisted(a.twist)
    right = _rows(b, _plain, False)
    out = {}
    for s, row in enumerate(_rows(a, _plain, True)):
        fits = [t for r in right[: a.bound - s + 1] for t in r]
        _products(out, row, fits, VRational.shift, twisted)
    return _keyed(a.bound, a.twist, {k: X.shift(e) for k, (X, e) in out.items()})


def _solve(a, h, encoding, scale):
    """The triangular recursion of the module docstring, by total degree,
    on the terms of a and h in ``encoding``; scale(n) is an (X, e) pair."""
    encode, shift, read = encoding
    nvars, radix = a.nvars, a.bound + 1
    twisted = _twisted(a.twist)
    # a enters negated, so that each degree's accumulator, seeded with h's
    # row, sums to h_d - sum a_{d'} b_{d-d'} v^<d',d-d'>
    steps = [[(k, u, -X, e) for k, u, X, e in row] for row in _rows(a, encode, True)]
    rows = []
    for n, seed in enumerate(_rows(h, encode, False)):
        acc = {k: (X, e) for k, _, X, e in seed}
        for s in range(1, n + 1):
            _products(acc, steps[s], rows[n - s], shift, twisted)
        Xs, es = scale(n)
        # each new key is decoded once; sorted rows list b in term order
        rows.append(sorted(
            (k, _dim(k, nvars, radix), X * Xs, e + es)
            for k, (X, e) in acc.items()
            if X
        ))
    return _series(a.bound, a.twist, {d: read(X, e) for r in rows for _, d, X, e in r})


def _divide(a, h):
    """a^-1 h, the b with a b = h, by one solve; a needs an invertible
    constant term."""
    z = (0,) * a.nvars
    c0 = a.coeff(z)
    if not c0:
        raise NonUnitConstantTerm("constant term is zero")
    na, nh = _laurent_nums(a.terms), _laurent_nums(h.terms)
    if na is not None and nh is not None and list(map(abs, na[z].values())) == [1]:
        # c0 = s v^k with s = +-1, so c0^-1 = s v^-k
        ((k, s),) = na[z].items()
        encoding, inv = _packed(_quotient_width(na, nh, a.bound)), (s, -k)
    else:
        encoding, inv = _PLAIN, (VRational.one() / c0, 0)
    return _solve(a, h, encoding, lambda n: inv)


def qinv(a):
    """Two-sided inverse; needs an invertible constant term."""
    _operand(a)
    return _divide(a, _series(a.bound, a.twist, {(0,) * a.nvars: VRational.one()}))


def _check_commuting(series):
    if not _twisted(series.twist):
        return
    supp = [d for d in series.support() if any(d)]
    for d1, d2 in combinations(supp, 2):
        if sum(map(mul, _twist_vec(series.twist, d1), d2)):
            raise NonCommutingSupport(
                "support vectors %r and %r do not twist-commute" % (d1, d2)
            )


def _mobius(k):
    out = 1
    p = 2
    while p * p <= k:
        if k % p == 0:
            k //= p
            if k % p == 0:
                return 0
            out = -out
        p += 1
    if k > 1:
        out = -out
    return out


def _adams_sum(series, weight, adams):
    """sum over k >= 1 of weight(k) psi_k(series) for int weights, where
    psi_k sends c x^d to c.adams(k) x^{kd}, of key k key(d); terms beyond
    the bound are dropped."""
    radix = series.bound + 1
    coeffs = {}
    for d, c in series.terms.items():
        key, size = _dim_key(d, radix), sum(d)
        for k in range(1, series.bound + 1):
            if k * size > series.bound:
                break
            w = weight(k)
            if w:
                kk = k * key
                coeffs[kk] = coeffs.get(kk, VRational.zero()) + c.adams(k, adams) * w
    return _keyed(series.bound, series.twist, coeffs)


def _grade(series):
    """D: multiply the coefficient of x^d by |d|."""
    return series._with({d: c * sum(d) for d, c in series.terms.items()})


def exp_pleth(f, adams="v"):
    """Plethystic exponential on a pairwise commuting support."""
    _operand(f)
    _check_adams(adams)
    if f.coeff((0,) * f.nvars):
        raise NonzeroConstantTerm("Exp needs a zero constant term")
    _check_commuting(f)
    # a = -D s = -sum_k psi_k(D f); see the module docstring
    return _solve(
        _adams_sum(_grade(f), lambda k: -1, adams),
        QSeries.unit(f.bound, f.twist),
        _PLAIN,
        lambda n: (VRational({0: 1}, {0: max(n, 1)}), 0),
    )


def log_pleth(F, adams="v"):
    """Inverse of exp_pleth; needs constant term 1."""
    _operand(F)
    _check_adams(adams)
    if F.coeff((0,) * F.nvars) != VRational.one():
        raise NonzeroConstantTerm("Log needs constant term 1")
    _check_commuting(F)
    # |d| (Log F)_d = sum over k | d of mu(k) psi_k(F^-1 D F)_{d/k}
    s = _adams_sum(_divide(F, _grade(F)), _mobius, adams)
    return s._with({d: c / sum(d) for d, c in s.terms.items()})


def apply_symmetry(obj, which, node):
    """S_{+i} ("S+") or S_{-i} ("S-") at node i: v^{+-d_i} on the coefficient
    of x^d, on a QSeries or a BpsTable.  The bar involution is
    ``BpsTable.bar``."""
    _operand(obj, _Table)
    if which not in ("S+", "S-"):
        raise ValidationError("unknown symmetry %r" % (which,))
    _check_int(node, "node index")
    if not 0 <= node < obj.nvars:
        raise ValidationError("node index %r out of range" % (node,))
    sign = 1 if which == "S+" else -1
    return obj._with({d: c.shift(sign * d[node]) for d, c in obj.terms.items()})


# ---------------------------------------------------------------------------
# JSON views


def _coeff_json(c):
    num, den = c._num, c._den
    if den == _DEN_ONE:
        return {str(e): num[e] for e in sorted(num)}, None
    if len(den) == 1 and 0 in den:
        m = den[0]
        poly = {}
        for e in sorted(num):
            q = Fraction(num[e], m)
            poly[str(e)] = (
                int(q) if q.denominator == 1 else "%d/%d" % (q.numerator, q.denominator)
            )
        return poly, None
    return (
        {str(e): num[e] for e in sorted(num)},
        {str(e): den[e] for e in sorted(den)},
    )


def series_to_json(obj):
    """Series JSON: {"bound": N, "terms": [{"d": [...], "poly": {...}}]}, for
    a QSeries or a BpsTable; N is the object's own bound.

    Coefficients that are Laurent over the rationals are emitted per
    v-exponent (integers, or "num/den" strings); a genuinely non-Laurent
    coefficient carries numerator in "poly" and an extra "den" object.
    """
    _operand(obj, _Table)
    terms = []
    for d, c in obj.terms.items():
        poly, den = _coeff_json(c)
        entry = {"d": list(d), "poly": poly}
        if den is not None:
            entry["den"] = den
        terms.append(entry)
    return {"bound": obj.bound, "terms": terms}
