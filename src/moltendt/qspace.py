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
fixed total degree.

Inverse, plethystic Exp and Log share one triangular recursion, `_solve`,
which fills its result b one total degree |d| at a time:

    b_0 = first,
    b_d = scale(|d|) * sum over d' != 0 of a_{d'} b_{d-d'} v^{<d',d-d'>}.

The inverse of a solves a b = 1, so b_0 = c_0^{-1} and scale = -c_0^{-1} for
the constant term c_0 of a.  Let D multiply x^d by |d|; D is a derivation of
the twisted product, since |d + d'| = |d| + |d'|.  On a pairwise commuting
support, F = exp(s) is then exactly the solution of D F = (D s) F: F_0 = 1
and F_d = |d|^{-1} sum_{d'} |d'| s_{d'} F_{d-d'}.  Exp(f) takes
s = sum_k psi_k(f)/k.  Log undoes both steps: log F = D^{-1}(F^{-1} D F) and
Log F = sum_k mu(k)/k psi_k(log F).

No floating point is used anywhere; polynomial gcds run a primitive
pseudo-remainder sequence over the integers.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from .errors import (
    NonCentralSigma,
    NonCommutingSupport,
    NonUnitConstantTerm,
    NonzeroConstantTerm,
    ParseError,
    ShapeMismatch,
    ValidationError,
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
    "series_from_json",
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


_DEN_ONE = {0: 1}


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
        return {}, dict(_DEN_ONE)
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
        {i: c for i, c in enumerate(pd) if c},
    )


class VRational:
    """A rational function of v with integer coefficients, kept reduced."""

    __slots__ = ("_num", "_den")

    def __init__(self, num, den=None, *, _raw=False):
        if den is None:
            den = _DEN_ONE
        if _raw:
            self._num = num
            self._den = den
        else:
            self._num, self._den = _reduce(num, den)

    # -- constructors

    @classmethod
    def from_int(cls, n):
        return cls({0: n} if n else {}, _raw=True, den=dict(_DEN_ONE))

    @classmethod
    def laurent(cls, d):
        if isinstance(d, int):
            return cls.from_int(d)
        return cls(_strip(d), _raw=True, den=dict(_DEN_ONE))

    @classmethod
    def fraction(cls, num, den):
        return cls(num, den)

    @classmethod
    def vpow(cls, j):
        return cls({j: 1}, _raw=True, den=dict(_DEN_ONE))

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
            return VRational.from_int(x)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self._den == _DEN_ONE and other._den == _DEN_ONE:
            return VRational(_dadd(self._num, other._num), _raw=True, den=dict(_DEN_ONE))
        return VRational(
            _dadd(_dconv(self._num, other._den), _dconv(other._num, self._den)),
            _dconv(self._den, other._den),
        )

    __radd__ = __add__

    def __neg__(self):
        return VRational(
            {e: -c for e, c in self._num.items()}, _raw=True, den=dict(self._den)
        )

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self._den == _DEN_ONE and other._den == _DEN_ONE:
            return VRational(_dconv(self._num, other._num), _raw=True, den=dict(_DEN_ONE))
        return VRational(
            _dconv(self._num, other._num), _dconv(self._den, other._den)
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return VRational(
            _dconv(self._num, other._den), _dconv(self._den, other._num)
        )

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
        """Multiply by v^j (exact, no renormalization needed)."""
        if not j or not self._num:
            return self
        return VRational(
            {e + j: c for e, c in self._num.items()}, _raw=True, den=dict(self._den)
        )

    def bar(self):
        """The involution v -> v^{-1}."""
        return VRational(
            {-e: c for e, c in self._num.items()},
            {-e: c for e, c in self._den.items()},
        )

    def adams(self, k, adams="v"):
        """psi_k.  With adams="v" substitute v -> v^k; with adams="-v"
        substitute v -> (-1)^{k+1} v^k, the rule for -v as line element."""
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
        return VRational(num, _raw=True, den=den)

    # -- value semantics

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._num == other._num and self._den == other._den

    def __hash__(self):
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
# QSeries: truncated twisted series with VRational coefficients


def _check_twist(twist):
    rows = tuple(tuple(int(x) for x in row) for row in twist)
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise ValidationError("twist form is not square")
    for i in range(n):
        for j in range(n):
            if rows[i][j] != -rows[j][i]:
                raise ValidationError("twist form is not antisymmetric")
    return rows


def _twist_vec(twist, d):
    return tuple(sum(row[j] * d[j] for j in range(len(d))) for row in twist)


def _dot(d, w):
    return sum(a * b for a, b in zip(d, w))


def _sorted_terms(terms):
    return dict(sorted(terms.items(), key=lambda kv: (sum(kv[0]), kv[0])))


def _clean_terms(nvars, terms):
    """Checked outside input: a coefficient table with merged duplicates."""
    clean = {}
    for d, c in (terms or {}).items():
        d = tuple(int(x) for x in d)
        if len(d) != nvars:
            raise ValidationError("dimension vector %r has wrong length" % (d,))
        if any(x < 0 for x in d):
            raise ValidationError("dimension vector %r has a negative entry" % (d,))
        c = VRational._coerce(c)
        if c is NotImplemented:
            raise ValidationError("coefficient of %r is not VRational or int" % (d,))
        clean[d] = clean.get(d, VRational.zero()) + c
    return clean


def _merge_terms(a, b):
    """Termwise sum of two coefficient tables, without zero coefficients."""
    merged = dict(a)
    for d, c in b.items():
        s = merged.get(d, VRational.zero()) + c
        if s:
            merged[d] = s
        else:
            merged.pop(d, None)
    return merged


class QSeries:
    """Truncated series over the quantum affine space of dimension vectors."""

    __slots__ = ("bound", "twist", "terms")

    def __init__(self, bound, twist, terms=None):
        self.bound = int(bound)
        if self.bound < 0:
            raise ValidationError("bound must be nonnegative")
        self.twist = _check_twist(twist)
        clean = _clean_terms(self.nvars, terms)
        self.terms = _sorted_terms(
            {d: c for d, c in clean.items() if c and sum(d) <= self.bound}
        )

    def _with(self, terms):
        """A series of this bound and twist from terms this module computed:
        zero coefficients are dropped and the rest sorted, nothing else is
        checked.  Outside input goes through ``QSeries(...)``."""
        out = QSeries.__new__(QSeries)
        out.bound = self.bound
        out.twist = self.twist
        out.terms = _sorted_terms({d: c for d, c in terms.items() if c})
        return out

    @property
    def nvars(self):
        return len(self.twist)

    @classmethod
    def unit(cls, bound, twist):
        return cls(bound, twist, {(0,) * len(twist): 1})

    @classmethod
    def monomial(cls, bound, twist, d, c=1):
        return cls(bound, twist, {tuple(d): c})

    def coeff(self, d):
        return self.terms.get(tuple(d), VRational.zero())

    def constant_part(self):
        z = (0,) * self.nvars
        return self._with({z: self.coeff(z)})

    def support(self):
        return list(self.terms)

    def scale(self, c):
        return self._with({d: v * c for d, v in self.terms.items()})

    def __add__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        _shape_check(self, other)
        return self._with(_merge_terms(self.terms, other.terms))

    def __sub__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self._with({d: -c for d, c in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return (
            self.bound == other.bound
            and self.twist == other.twist
            and self.terms == other.terms
        )

    def __repr__(self):
        if not self.terms:
            return "QSeries(0; bound=%d)" % self.bound
        bits = ["(%r) x^%s" % (c, list(d)) for d, c in self.terms.items()]
        return "QSeries(%s; bound=%d)" % (" + ".join(bits), self.bound)


class BpsTable:
    """A plain table of dimension vector -> VRational.

    Unlike QSeries there is no product structure, so the bar involution acts
    coefficientwise unconditionally.
    """

    __slots__ = ("nvars", "terms", "bound")

    def __init__(self, nvars, terms=None, bound=None):
        self.nvars = int(nvars)
        self.bound = bound
        clean = _clean_terms(self.nvars, terms)
        self.terms = _sorted_terms({d: c for d, c in clean.items() if c})

    def coeff(self, d):
        return self.terms.get(tuple(d), VRational.zero())

    def support(self):
        return list(self.terms)

    def items(self):
        return self.terms.items()

    def bar(self):
        return BpsTable(self.nvars, {d: c.bar() for d, c in self.terms.items()}, self.bound)

    def __add__(self, other):
        if not isinstance(other, BpsTable):
            return NotImplemented
        if self.nvars != other.nvars:
            raise ShapeMismatch("tables over different node sets")
        return BpsTable(self.nvars, _merge_terms(self.terms, other.terms), self.bound)

    def __sub__(self, other):
        if not isinstance(other, BpsTable):
            return NotImplemented
        return self + BpsTable(
            other.nvars, {d: -c for d, c in other.terms.items()}, other.bound
        )

    def __eq__(self, other):
        if not isinstance(other, BpsTable):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __repr__(self):
        return "BpsTable(%d vars, %d entries)" % (self.nvars, len(self.terms))


def _shape_check(a, b):
    if a.bound != b.bound or a.twist != b.twist:
        raise ShapeMismatch(
            "series shapes differ: bound %d/%d, twist %s/%s"
            % (a.bound, b.bound, a.twist, b.twist)
        )


def qmul(a, b):
    """Twisted product: (ab)_d = sum over d'+d''=d of a_{d'} b_{d''} v^{<d',d''>}."""
    _shape_check(a, b)
    out = {}
    bitems = [
        (d2, sum(d2), _twist_vec(a.twist, d2), c2) for d2, c2 in b.terms.items()
    ]
    for d1, c1 in a.terms.items():
        s1 = sum(d1)
        for d2, s2, td2, c2 in bitems:
            if s1 + s2 > a.bound:
                continue
            tw = _dot(d1, td2)
            d = tuple(x + y for x, y in zip(d1, d2))
            c = (c1 * c2).shift(tw)
            acc = out.get(d)
            out[d] = c if acc is None else acc + c
    return a._with(out)


def _solve(a, first, scale):
    """The triangular recursion of the module docstring, by total degree."""
    z = (0,) * a.nvars
    # <d', e> = -e . (T d') for the antisymmetric twist T
    steps = [
        (d1, sum(d1), _twist_vec(a.twist, d1), c1)
        for d1, c1 in a.terms.items()
        if any(d1)
    ]
    out = {z: first}
    by_degree = [[z]]
    for n in range(1, a.bound + 1):
        acc = {}
        for d1, s1, t1, c1 in steps:
            if s1 > n:
                continue
            for d2 in by_degree[n - s1]:
                d = tuple(x + y for x, y in zip(d1, d2))
                c = (c1 * out[d2]).shift(-_dot(d2, t1))
                prev = acc.get(d)
                acc[d] = c if prev is None else prev + c
        k = scale(n)
        for d, c in acc.items():
            out[d] = c * k
        by_degree.append(list(acc))
    return a._with(out)


def qinv(a):
    """Two-sided inverse; needs an invertible constant term."""
    c0 = a.coeff((0,) * a.nvars)
    if not c0:
        raise NonUnitConstantTerm("constant term is zero")
    inv = VRational.one() / c0
    return _solve(a, inv, lambda n: -inv)


def _check_commuting(series):
    supp = [d for d in series.support() if any(d)]
    for d1, d2 in combinations(supp, 2):
        if _dot(d1, _twist_vec(series.twist, d2)):
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
    """sum over k >= 1 of weight(k) psi_k(series), where psi_k sends c x^d to
    c.adams(k) x^{kd}; terms beyond the bound are dropped."""
    terms = {}
    for k in range(1, series.bound + 1):
        w = weight(k)
        if not w:
            continue
        for d, c in series.terms.items():
            if k * sum(d) <= series.bound:
                kd = tuple(k * x for x in d)
                terms[kd] = terms.get(kd, VRational.zero()) + w * c.adams(k, adams)
    return series._with(terms)


def _grade(series):
    """D: multiply the coefficient of x^d by |d|."""
    return series._with({d: c * sum(d) for d, c in series.terms.items()})


def exp_pleth(f, adams="v"):
    """Plethystic exponential on a pairwise commuting support."""
    _check_adams(adams)
    if f.coeff((0,) * f.nvars):
        raise NonzeroConstantTerm("Exp needs a zero constant term")
    _check_commuting(f)
    s = _adams_sum(f, lambda k: VRational.fraction({0: 1}, {0: k}), adams)
    return _solve(
        _grade(s), VRational.one(), lambda n: VRational.fraction({0: 1}, {0: n})
    )


def log_pleth(F, adams="v"):
    """Inverse of exp_pleth; needs constant term 1."""
    _check_adams(adams)
    if F.coeff((0,) * F.nvars) != VRational.one():
        raise NonzeroConstantTerm("Log needs constant term 1")
    _check_commuting(F)
    dlog = qmul(qinv(F), _grade(F))
    logF = F._with({d: c / sum(d) for d, c in dlog.terms.items()})
    return _adams_sum(
        logF, lambda k: VRational.fraction({0: _mobius(k)}, {0: k}), adams
    )


def apply_symmetry(obj, which, node=None):
    """S_{+i}, S_{-i} (v^{+-d_i} on the coefficient of x^d) or the bar
    anti-involution Sigma.  On a QSeries, Sigma requires central support."""
    if which in ("S+", "S-"):
        if node is None:
            raise ValidationError("S symmetries need a node index")
        sign = 1 if which == "S+" else -1
        if isinstance(obj, QSeries):
            if not 0 <= node < obj.nvars:
                raise ValidationError("node index %r out of range" % (node,))
            return obj._with({d: c.shift(sign * d[node]) for d, c in obj.terms.items()})
        if isinstance(obj, BpsTable):
            if not 0 <= node < obj.nvars:
                raise ValidationError("node index %r out of range" % (node,))
            return BpsTable(
                obj.nvars,
                {d: c.shift(sign * d[node]) for d, c in obj.terms.items()},
                obj.bound,
            )
        raise ValidationError("unsupported operand %r" % type(obj).__name__)
    if which == "sigma":
        if isinstance(obj, QSeries):
            for d in obj.support():
                if any(_twist_vec(obj.twist, d)):
                    raise NonCentralSigma(
                        "support vector %r is not central for the twist" % (d,)
                    )
            return obj._with({d: c.bar() for d, c in obj.terms.items()})
        if isinstance(obj, BpsTable):
            return obj.bar()
        raise ValidationError("unsupported operand %r" % type(obj).__name__)
    raise ValidationError("unknown symmetry %r" % (which,))


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
    """Series JSON: {"bound": N, "terms": [{"d": [...], "poly": {...}}]}.

    Coefficients that are Laurent over the rationals are emitted per
    v-exponent (integers, or "num/den" strings); a genuinely non-Laurent
    coefficient carries numerator in "poly" and an extra "den" object.
    """
    if isinstance(obj, QSeries):
        bound = obj.bound
    elif isinstance(obj, BpsTable):
        bound = obj.bound
        if bound is None:
            bound = max((sum(d) for d in obj.terms), default=0)
    else:
        raise ValidationError("unsupported operand %r" % type(obj).__name__)
    terms = []
    for d, c in obj.terms.items():
        poly, den = _coeff_json(c)
        entry = {"d": list(d), "poly": poly}
        if den is not None:
            entry["den"] = den
        terms.append(entry)
    return {"bound": bound, "terms": terms}


_DIGITS = re.compile(r"-?[0-9]+")


def _json_int(value):
    if type(value) is not int:
        raise ParseError("%r is not an integer" % (value,))
    return value


def _json_digits(text):
    """The integer that ``series_to_json`` writes as ``text``: an optional
    minus sign and ASCII digits.  ``int()`` alone would also take
    underscores, spaces, a plus sign and non-ASCII digits."""
    if not isinstance(text, str) or not _DIGITS.fullmatch(text):
        raise ParseError("%r is not an integer string" % (text,))
    return int(text)


def _coeff_from_json(poly, den):
    if den is not None:
        return VRational.fraction(
            {_json_digits(e): _json_int(c) for e, c in poly.items()},
            {_json_digits(e): _json_int(c) for e, c in den.items()},
        )
    fracs = {}
    for e, val in poly.items():
        if isinstance(val, str):
            p, q = val.split("/")
            fracs[_json_digits(e)] = Fraction(_json_digits(p), _json_digits(q))
        else:
            fracs[_json_digits(e)] = Fraction(_json_int(val))
    den = lcm(*(f.denominator for f in fracs.values()))
    return VRational.fraction({e: int(f * den) for e, f in fracs.items()}, {0: den})


def series_from_json(obj, twist):
    """Inverse of series_to_json.  A malformed document raises ParseError:
    a missing key, a bound, ``d`` entry or coefficient that is not an
    integer, an exponent key or fraction part other than ``-?[0-9]+``, or
    two terms with one ``d``.  A term the series cannot hold
    (wrong length, negative entry) raises ValidationError."""
    try:
        bound = _json_int(obj["bound"])
        terms = {}
        for entry in obj["terms"]:
            d = tuple(_json_int(x) for x in entry["d"])
            if d in terms:
                raise ParseError("two terms with d = %r" % (list(d),))
            terms[d] = _coeff_from_json(entry["poly"], entry.get("den"))
    except (KeyError, TypeError, ValueError, AttributeError, ZeroDivisionError) as exc:
        raise ParseError("malformed series object: %r" % (exc,)) from exc
    return QSeries(bound, twist, terms)
