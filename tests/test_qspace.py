"""Exact coefficient arithmetic and twisted series algebra.

Expected values here are frozen from hand expansions done independently of the
implementation: the twisted inverse through degree 2, the geometric series,
and the discriminating plethystic exponentials for both Adams conventions.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import product
from operator import add, neg, sub

import pytest
from hypothesis import given, settings, strategies as st

from moltendt.errors import (
    NonCommutingSupport,
    NonUnitConstantTerm,
    NonzeroConstantTerm,
    ShapeMismatch,
    ValidationError,
)
from moltendt.qspace import (
    BpsTable,
    QSeries,
    VRational,
    apply_symmetry,
    exp_pleth,
    log_pleth,
    qinv,
    qmul,
    series_to_json,
)
from moltendt import qspace
from moltendt.crystal import framing_d6
from moltendt.geometry import load_geometry, reference_grading
from moltendt.localization import framed_partition_function, make_slope
from moltendt.matchings import toric_diagram
from moltendt.qspace import _dim, _dim_key, _divide, _keyed, _sorted_terms
from tests.test_golden import BOUND, FIXTURE, digest

ONE = VRational.one()
V = VRational.vpow(1)

# Two-variable twist with <e0, e1> = -1, as realized by a quiver with a single
# extra arrow 0 -> 1; the zero twist models a symmetric quiver.
TWISTED = ((0, -1), (1, 0))
FLAT = ((0, 0), (0, 0))


def lau(d):
    return VRational.laurent(d)


class TestVRational:
    def test_quantum_dimension_cancels(self):
        # (v^3 - v) / (v - v^-1) = v^2
        q = lau({3: 1, 1: -1}) / lau({1: 1, -1: -1})
        assert q == lau({2: 1})
        assert q.is_laurent

    def test_cyclotomic_quotient(self):
        assert lau({4: 1, 0: -1}) / lau({2: 1, 0: -1}) == lau({2: 1, 0: 1})

    def test_unit_denominator_is_shared(self):
        # every Laurent result holds the one _DEN_ONE; -x and x.shift(j)
        # hold x's denominator
        x = lau({1: 2, -1: 1})
        third = VRational({0: 1}, {0: 3})
        for y in (
            x, -x, x.shift(3), x * 3, x + x, x - x, x * x, x.bar(),
            x.adams(2), x.adams(2, "-v"), VRational.from_int(0), ONE,
            VRational.vpow(2), lau(5), third * 3, third + third * 2,
            VRational({0: 2}, {0: 2}), VRational({1: 4}, {0: 2}),
            lau({3: 1, 1: -1}) / lau({1: 1, -1: -1}),
        ):
            assert y.is_laurent and y._den is qspace._DEN_ONE, y
        f = VRational({0: 1}, {0: 1, 1: 1})
        assert (-f)._den is f._den and f.shift(2)._den is f._den
        assert (f * 1)._den is f._den
        assert qspace._DEN_ONE == {0: 1}

    def test_monomial_denominator_stays_laurent(self):
        assert ONE / lau({1: 1}) == lau({-1: 1})

    def test_wall_crossing_denominator_is_not_laurent(self):
        w = ONE / lau({1: 1, -1: -1})
        assert not w.is_laurent
        assert w * lau({1: 1, -1: -1}) == ONE
        assert w.bar() == -w

    def test_bar_negates_odd_laurent(self):
        assert lau({1: 1, -1: -1}).bar() == lau({-1: 1, 1: -1})
        assert lau({3: 1}).bar() == lau({-3: 1})

    def test_adams_conventions_diverge_at_even_k(self):
        f = lau({1: 1, -1: -1})
        assert f.adams(2) == lau({2: 1, -2: -1})
        assert f.adams(2, adams="-v") == lau({-2: 1, 2: -1})
        assert f.adams(3) == f.adams(3, adams="-v") == lau({3: 1, -3: -1})

    def test_rational_constants(self):
        half = VRational({0: 1}, {0: 2})
        assert half + half == ONE
        assert half * VRational.from_int(2) == ONE
        assert not half.is_laurent

    def test_normalization_is_canonical(self):
        a = VRational({2: 2, 0: -2}, {1: 2, -1: -2})
        assert a == V
        assert a.is_laurent
        b = VRational({0: 1}, {1: -1, -1: 1})
        assert b == -(ONE / lau({1: 1, -1: -1}))

    def test_hashable_value_semantics(self):
        assert len({lau({2: 1}), lau({3: 1, 1: -1}) / lau({1: 1, -1: -1})}) == 1

    def test_constants_hash_as_their_ints(self):
        assert {2: "a"}[VRational.from_int(2)] == "a"
        assert len({0, VRational.zero()}) == 1
        assert len({1, ONE, lau({0: 1})}) == 1

    @settings(max_examples=300)
    @given(st.data())
    def test_equal_values_hash_equal(self, data):
        values = st.one_of(
            st.integers(-2, 2),
            st.dictionaries(st.integers(-1, 1), st.integers(-2, 2), max_size=2).map(lau),
            st.tuples(st.integers(-2, 2), st.integers(1, 2)).map(
                lambda f: VRational({0: f[0]}, {0: f[1]})
            ),
        )
        a, b = data.draw(values), data.draw(values)
        if a == b:
            assert hash(a) == hash(b)

    def test_laurent_dict_rejects_non_laurent(self):
        with pytest.raises(ValidationError, match="Laurent") as err:
            VRational({0: 1}, {0: 1, 1: 1}).laurent_dict()
        assert err.value.exit_code == 1

    def test_pow(self):
        assert V**3 == lau({3: 1})
        assert V**-2 == lau({-2: 1})
        w = ONE / lau({1: 1, -1: -1})
        assert w**2 * lau({1: 1, -1: -1}) ** 2 == ONE

    def test_int_on_the_left(self):
        assert 2 / V == lau({-1: 2})
        assert 1 - V == lau({0: 1, 1: -1})
        assert 1 / lau({1: 1, -1: -1}) == VRational({1: 1}, {2: 1, 0: -1})

    @pytest.mark.parametrize(
        "op",
        [
            lambda x: x + "v",
            lambda x: "v" - x,
            lambda x: x - "v",
            lambda x: x * "v",
            lambda x: x / "v",
            lambda x: "v" / x,
            lambda x: x ** 0.5,
        ],
        ids=["add", "rsub", "sub", "mul", "truediv", "rtruediv", "pow"],
    )
    def test_foreign_operand_is_a_type_error(self, op):
        with pytest.raises(TypeError):
            op(V)

    def test_foreign_operand_is_unequal(self):
        assert V != "v"

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            VRational({0: 1}, {})
        with pytest.raises(ZeroDivisionError):
            V / 0

    @pytest.mark.parametrize(
        "value, text",
        [
            (lau({}), "0"),
            (lau({0: 3}), "3"),
            (lau({1: 1}), "v"),
            (lau({1: -1}), "-v"),
            (lau({2: 1, -1: -1}), "v^2-v^-1"),
            (lau({2: -2, 1: 3}), "-2*v^2+3*v"),
            (VRational({1: 1}, {2: 1, 0: -1}), "(v)/(v^2-1)"),
        ],
    )
    def test_repr(self, value, text):
        assert repr(value) == text


def mono(bound, twist, d, c=1):
    return QSeries.monomial(bound, twist, d, c)


class TestQSeries:
    def test_twisted_product(self):
        x0 = mono(2, TWISTED, (1, 0))
        x1 = mono(2, TWISTED, (0, 1))
        assert qmul(x0, x1) == mono(2, TWISTED, (1, 1), lau({-1: 1}))
        assert qmul(x1, x0) == mono(2, TWISTED, (1, 1), lau({1: 1}))

    def test_flat_twist_commutes(self):
        x0 = mono(3, FLAT, (1, 0))
        x1 = mono(3, FLAT, (0, 1))
        assert qmul(x0, x1) == qmul(x1, x0)

    def test_unit(self):
        a = mono(2, TWISTED, (1, 0), V) + mono(2, TWISTED, (0, 1))
        one = QSeries.unit(2, TWISTED)
        assert qmul(a, one) == a
        assert qmul(one, a) == a

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            qmul(QSeries.unit(2, TWISTED), QSeries.unit(3, TWISTED))
        with pytest.raises(ShapeMismatch):
            qmul(QSeries.unit(2, TWISTED), QSeries.unit(2, FLAT))

    def test_truncation_respected(self):
        x0 = mono(1, FLAT, (1, 0))
        assert qmul(x0, x0).support() == []

    def test_repr(self):
        assert repr(QSeries(2, FLAT)) == "QSeries(0; bound=2)"
        a = QSeries(2, FLAT, {(1, 0): V, (0, 1): 2})
        assert repr(a) == "QSeries((2) x^[0, 1] + (v) x^[1, 0]; bound=2)"

    def test_foreign_operand(self):
        a = QSeries.unit(2, FLAT)
        with pytest.raises(TypeError):
            a + 1
        with pytest.raises(TypeError):
            a - 1
        assert a != 1


class TestConstructorsRefuseNonInts:
    # int() truncated 2.9 to 2, 1.7 to 1 and -0.5 to 0, and read True as 1
    @pytest.mark.parametrize("bound", [2.9, True, "2"])
    def test_series_bound(self, bound):
        with pytest.raises(ValidationError, match="bound must be an int"):
            QSeries(bound, TWISTED)

    @pytest.mark.parametrize("d", [(1.7, 0), (True, 0), (1, 0.0)])
    def test_series_dimension_entry(self, d):
        with pytest.raises(ValidationError, match="dimension vector entry"):
            QSeries(2, TWISTED, {d: 1})

    @pytest.mark.parametrize(
        "twist", [((0, -0.5), (0.5, 0)), ((0, -1.0), (1.0, 0)), ((False, 0), (0, 0))]
    )
    def test_series_twist_entry(self, twist):
        with pytest.raises(ValidationError, match="twist entry"):
            QSeries(2, twist)

    @pytest.mark.parametrize("nvars", [2.0, True])
    def test_table_nvars(self, nvars):
        with pytest.raises(ValidationError, match="nvars must be an int"):
            BpsTable(nvars, 2, {})

    def test_table_dimension_entry(self):
        with pytest.raises(ValidationError, match="dimension vector entry"):
            BpsTable(2, 2, {(1.2, 0): 1})

    def test_table_bound(self):
        with pytest.raises(ValidationError, match="bound must be an int"):
            BpsTable(2, 2.5, {(1, 0): 1})

    @pytest.mark.parametrize(
        "make",
        [lambda t: QSeries(2, FLAT, t), lambda t: BpsTable(2, 2, t)],
        ids=["series", "table"],
    )
    def test_negative_dimension_entry(self, make):
        with pytest.raises(ValidationError, match="has a negative entry"):
            make({(-1, 0): 1})

    def test_series_negative_bound(self):
        with pytest.raises(ValidationError, match="bound must be nonnegative"):
            QSeries(-1, FLAT)

    @pytest.mark.parametrize(
        "twist, match",
        [
            (((0, 1),), "twist form is not square"),
            (((0, 1), (1, 0)), "twist form is not antisymmetric"),
        ],
    )
    def test_series_twist_form(self, twist, match):
        with pytest.raises(ValidationError, match=match):
            QSeries(2, twist)

    @pytest.mark.parametrize(
        "make",
        [lambda t: QSeries(2, FLAT, t), lambda t: BpsTable(2, 2, t)],
        ids=["series", "table"],
    )
    def test_coefficient_type(self, make):
        with pytest.raises(ValidationError, match="is not VRational or int"):
            make({(1, 0): 1.5})

    def test_table_negative_bound(self):
        with pytest.raises(ValidationError, match="bound must be nonnegative"):
            BpsTable(2, -3, {(1, 0): 1})

    # a dimension vector, twist or term table of the wrong shape raised
    # TypeError or AttributeError
    @pytest.mark.parametrize(
        "twist, terms, match",
        [
            (FLAT, {5: 1}, "dimension vector 5 needs 2 entries"),
            (5, {}, "twist must be a square int matrix"),
            (FLAT, [(0, 0)], "terms must be a mapping"),
        ],
    )
    def test_series_shape(self, twist, terms, match):
        with pytest.raises(ValidationError, match=match):
            QSeries(2, twist, terms)

    @pytest.mark.parametrize(
        "terms, match",
        [
            ({5: 1}, "dimension vector 5 needs 2 entries"),
            (5, "terms must be a mapping"),
            ([(0, 0)], "terms must be a mapping"),
        ],
    )
    def test_table_shape(self, terms, match):
        with pytest.raises(ValidationError, match=match):
            BpsTable(2, 2, terms)

    def test_json_twist_shape(self):
        with pytest.raises(ValidationError, match="twist must be a square int matrix"):
            QSeries(2, 5)

    # laurent({0: 1.5}) + 1 printed 2 but was not equal to 2, and
    # laurent({0.5: 1}) printed v^0
    @pytest.mark.parametrize(
        "poly", [{0: 1.5}, {0.5: 1}, {True: 1}, {0: False}, {0: 1.0}, 1.5, True]
    )
    def test_laurent(self, poly):
        with pytest.raises(ValidationError, match="polynomial must map int exponents"):
            VRational.laurent(poly)

    @pytest.mark.parametrize(
        "num, den, what",
        [
            ({0: 1.5}, {0: 1}, "numerator"),
            ({0.5: 1}, {0: 1}, "numerator"),
            ({0: 1}, {0: 2.0}, "denominator"),
            ({0: 1}, {True: 1}, "denominator"),
            ([1], {0: 1}, "numerator"),
        ],
    )
    def test_fraction(self, num, den, what):
        # the two-argument form num / den checks both polynomials
        with pytest.raises(ValidationError, match=what + " must map int exponents"):
            VRational(num, den)

    @pytest.mark.parametrize(
        "num, den, what",
        [
            ({0.5: 1}, None, "numerator"),
            ({0: 1.5}, None, "numerator"),
            ({0: 1}, {0: 2.0}, "denominator"),
            ({0: 1}, [1], "denominator"),
        ],
    )
    def test_constructor(self, num, den, what):
        # VRational({0.5: 1}) printed v^0
        with pytest.raises(ValidationError, match=what + " must map int exponents"):
            VRational(num, den)

    # vpow(0.5) printed v^0, from_int(1.5) printed 1, and shift(0.5) and
    # adams(1.5) kept the exponent 1.5; adams(0) returned 1
    @pytest.mark.parametrize(
        "call, match",
        [
            (lambda: VRational.vpow(0.5), "vpow exponent must be an int"),
            (lambda: VRational.vpow(True), "vpow exponent must be an int"),
            (lambda: VRational.from_int(1.5), "from_int argument must be an int"),
            (lambda: VRational.from_int(True), "from_int argument must be an int"),
            (lambda: VRational.vpow(1).shift(0.5), "shift exponent must be an int"),
            (lambda: VRational.vpow(1).adams(1.5), "Adams index must be an int"),
            (lambda: VRational.vpow(1).adams(0), "Adams index must be at least 1"),
            (lambda: VRational.vpow(1).adams(-2, "-v"), "Adams index must be at least 1"),
        ],
    )
    def test_vrational_methods(self, call, match):
        with pytest.raises(ValidationError, match=match):
            call()

    def test_int_operands_still_mix(self):
        # arithmetic reads an int operand, a bool as 0 or 1
        assert VRational.vpow(1) + 1 == VRational.laurent({1: 1, 0: 1})
        assert VRational.one() + True == 2
        assert VRational.vpow(1).shift(2) == VRational.vpow(3)
        assert VRational.vpow(1).adams(3) == VRational.vpow(3)

    # each raised TypeError: 'int' object is not iterable
    @pytest.mark.parametrize(
        "call",
        [
            lambda: QSeries.monomial(2, ((0,),), 5),
            lambda: QSeries.unit(2, ((0,),)).coeff(5),
            lambda: BpsTable(1, 2).coeff(5),
        ],
    )
    def test_vector_arguments(self, call):
        with pytest.raises(ValidationError, match="dimension vector 5 needs 1 entries"):
            call()

    @pytest.mark.parametrize("node", [1.0, True, "1"])
    @pytest.mark.parametrize("table", [False, True])
    def test_symmetry_node(self, node, table):
        a = BpsTable(2, 2, {(1, 0): 1}) if table else mono(2, TWISTED, (1, 0))
        with pytest.raises(ValidationError, match="node index must be an int"):
            apply_symmetry(a, "S+", node=node)


class TestQinv:
    def test_geometric_series(self):
        n = 5
        a = QSeries.unit(n, ((0,),)) - mono(n, ((0,),), (1,))
        inv = qinv(a)
        assert inv == sum(
            (mono(n, ((0,),), (k,)) for k in range(1, n + 1)),
            QSeries.unit(n, ((0,),)),
        )

    def test_twisted_inverse_hand_expansion(self):
        # A = 1 + v x^{e0} + x^{e1} over <e0,e1> = -1; the inverse through
        # total degree 2 was expanded by hand with x^{e1} x^{e0} = v x^{e0+e1}.
        a = QSeries.unit(2, TWISTED) + mono(2, TWISTED, (1, 0), V) + mono(2, TWISTED, (0, 1))
        expected = (
            QSeries.unit(2, TWISTED)
            - mono(2, TWISTED, (1, 0), V)
            - mono(2, TWISTED, (0, 1))
            + mono(2, TWISTED, (2, 0), lau({2: 1}))
            + mono(2, TWISTED, (1, 1), lau({0: 1, 2: 1}))
            + mono(2, TWISTED, (0, 2))
        )
        assert qinv(a) == expected

    def test_zero_constant_term_rejected(self):
        with pytest.raises(NonUnitConstantTerm):
            qinv(mono(2, FLAT, (1, 0)))

    def test_unit_constant_term_accepted(self):
        a = QSeries.unit(2, FLAT).scale(V) + mono(2, FLAT, (1, 0))
        assert qmul(a, qinv(a)) == QSeries.unit(2, FLAT)


class TestPleth:
    def test_exp_of_monomial_is_geometric(self):
        f = mono(4, ((0,),), (1,))
        assert exp_pleth(f) == sum(
            (mono(4, ((0,),), (k,)) for k in range(1, 5)), QSeries.unit(4, ((0,),))
        )

    def test_exp_of_minus_monomial_terminates(self):
        f = mono(4, ((0,),), (1,), -1)
        assert exp_pleth(f) == QSeries.unit(4, ((0,),)) - mono(4, ((0,),), (1,))

    def test_line_element_conventions_differ(self):
        # With v the line element, Exp(v x) = sum v^n x^n; with -v the line
        # element, Exp(v x) = Exp(-(-v) x) = 1 + v x exactly.
        f = mono(3, ((0,),), (1,), V)
        assert exp_pleth(f) == sum(
            (mono(3, ((0,),), (k,), lau({k: 1})) for k in range(1, 4)),
            QSeries.unit(3, ((0,),)),
        )
        assert exp_pleth(f, adams="-v") == QSeries.unit(3, ((0,),)) + f

    def test_log_exp_roundtrip(self):
        f = mono(4, ((0,),), (1,), V) + mono(4, ((0,),), (2,), lau({2: 1}))
        for conv in ("v", "-v"):
            assert log_pleth(exp_pleth(f, adams=conv), adams=conv) == f

    def test_exp_is_additive_on_central_support(self):
        f = mono(3, FLAT, (1, 0), V)
        g = mono(3, FLAT, (0, 1), lau({-1: 2}))
        assert exp_pleth(f + g) == qmul(exp_pleth(f), exp_pleth(g))

    def test_noncommuting_support_rejected(self):
        f = mono(2, TWISTED, (1, 0)) + mono(2, TWISTED, (0, 1))
        with pytest.raises(NonCommutingSupport):
            exp_pleth(f)

    @pytest.mark.parametrize("bound", [1, 3])
    def test_unknown_adams_convention_rejected(self, bound):
        f = mono(bound, ((0,),), (1,), V)
        with pytest.raises(ValidationError, match="adams") as err:
            exp_pleth(f, adams="w")
        assert err.value.exit_code == 1
        with pytest.raises(ValidationError, match="adams"):
            log_pleth(QSeries.unit(bound, ((0,),)) + f, adams="w")
        with pytest.raises(ValidationError, match="adams"):
            V.adams(1, adams="w")

    def test_constant_terms_guarded(self):
        with pytest.raises(NonzeroConstantTerm):
            exp_pleth(QSeries.unit(2, FLAT))
        with pytest.raises(NonzeroConstantTerm):
            log_pleth(mono(2, FLAT, (1, 0)))


class TestSymmetries:
    def test_s_plus_scales_by_component(self):
        a = mono(3, FLAT, (2, 1), V)
        assert apply_symmetry(a, "S+", node=0) == mono(3, FLAT, (2, 1), lau({3: 1}))
        assert apply_symmetry(a, "S-", node=0) == mono(3, FLAT, (2, 1), lau({-1: 1}))
        assert apply_symmetry(a, "S+", node=1) == mono(3, FLAT, (2, 1), lau({2: 1}))

    def test_symmetry_operand(self):
        with pytest.raises(ValidationError, match="unsupported operand 'dict'"):
            apply_symmetry({(1, 0): 1}, "S+", 0)

    # the bar involution is BpsTable.bar, not a symmetry apply_symmetry takes
    @pytest.mark.parametrize("which", ["sigma", "S", None])
    @pytest.mark.parametrize("table", [False, True])
    def test_unknown_symmetry(self, which, table):
        a = BpsTable(2, 2, {(1, 0): V}) if table else mono(2, TWISTED, (1, 0), V)
        with pytest.raises(ValidationError, match="unknown symmetry"):
            apply_symmetry(a, which, 0)

    @pytest.mark.parametrize("node", [-1, 2])
    @pytest.mark.parametrize("table", [False, True])
    def test_symmetry_node_out_of_range(self, node, table):
        a = BpsTable(2, 2, {(1, 0): V}) if table else mono(2, TWISTED, (1, 0), V)
        with pytest.raises(ValidationError, match="node index %d out of range" % node):
            apply_symmetry(a, "S-", node)

    def test_symmetry_needs_a_node(self):
        with pytest.raises(TypeError):
            apply_symmetry(BpsTable(2, 2, {(1, 0): V}), "S+")

    def test_sigma_intertwines_s_plus_minus_on_tables(self):
        t = BpsTable(2, 2, {(1, 0): lau({3: 1}), (1, 1): lau({1: 1, -1: 2})})
        lhs = apply_symmetry(t, "S+", node=0).bar()
        rhs = apply_symmetry(t.bar(), "S-", node=0)
        assert lhs == rhs

    def test_bps_table_bar_is_always_coefficientwise(self):
        t = BpsTable(2, 2, {(1, 0): V})
        assert t.bar() == BpsTable(2, 2, {(1, 0): lau({-1: 1})})


class TestBpsTable:
    def test_sum_and_difference(self):
        t = BpsTable(2, 2, {(1, 0): V, (0, 1): 2})
        u = BpsTable(2, 2, {(1, 0): -V, (1, 1): ONE})
        assert t + u == BpsTable(2, 2, {(0, 1): 2, (1, 1): ONE})
        assert t - u == BpsTable(2, 2, {(1, 0): lau({1: 2}), (0, 1): 2, (1, 1): -1})
        assert (t - t).support() == []
        assert (t + u).support() == [(0, 1), (1, 1)]
        assert list((t + u).items()) == [((0, 1), lau(2)), ((1, 1), ONE)]

    def test_tables_over_different_node_sets(self):
        t, u = BpsTable(2, 2, {(1, 0): V}), BpsTable(3, 2, {(1, 0, 0): V})
        mismatch = r"BpsTable shapes differ: bound, nvars \(2, 2\)/\(2, 3\)"
        with pytest.raises(ShapeMismatch, match=mismatch):
            t + u
        with pytest.raises(ShapeMismatch, match=mismatch):
            t - u
        with pytest.raises(TypeError):
            t + mono(2, FLAT, (1, 0))
        with pytest.raises(TypeError):
            t - 1
        assert t != 1

    def test_repr(self):
        assert repr(BpsTable(2, 2, {(1, 0): V, (0, 0): 0})) == "BpsTable(2 vars, 1 entries)"

    # a table writes its own bound, which it needs: one built without a
    # bound wrote its largest entry size
    @pytest.mark.parametrize("bound, written", [(3, 3), (5, 5)])
    def test_json(self, bound, written):
        t = BpsTable(2, bound, {(2, 1): VRational({0: 1}, {0: 2}), (1, 0): V})
        assert series_to_json(t) == {
            "bound": written,
            "terms": [
                {"d": [1, 0], "poly": {"1": 1}},
                {"d": [2, 1], "poly": {"0": "1/2"}},
            ],
        }

    def test_json_of_an_empty_table(self):
        assert series_to_json(BpsTable(2, 4)) == {"bound": 4, "terms": []}

    def test_json_operand(self):
        with pytest.raises(ValidationError, match="unsupported operand 'dict'"):
            series_to_json({"bound": 2, "terms": []})

    def test_nvars_must_be_nonnegative(self):
        # BpsTable(-1, 2) was built and wrote {"bound": 2, "terms": []}
        with pytest.raises(ValidationError, match="nvars must be nonnegative"):
            BpsTable(-1, 2)

    def test_bound_is_required(self):
        with pytest.raises(TypeError):
            BpsTable(2, terms={(1, 0): V})

    def test_entries_beyond_the_bound_are_dropped(self):
        # a table of bound 2 kept its entry at (5,)
        t = BpsTable(1, bound=2, terms={(5,): 1, (2,): V})
        assert t.support() == [(2,)] and t.coeff((5,)) == 0
        assert series_to_json(t) == {"bound": 2, "terms": [{"d": [2], "poly": {"1": 1}}]}

    def test_bound_is_compared(self):
        # empty tables of bounds 2 and 5 were equal but wrote different JSON
        assert BpsTable(1, bound=2, terms={}) != BpsTable(1, bound=5, terms={})
        assert BpsTable(1, bound=2, terms={(1,): V}) == BpsTable(1, bound=2, terms={(1,): V})

    @pytest.mark.parametrize("op", [add, sub])
    def test_tables_of_different_bounds(self, op):
        # the sum of tables of bounds 1 and 3 kept bound 1 and held (3,)
        t, u = BpsTable(1, bound=1, terms={(1,): V}), BpsTable(1, bound=3, terms={(3,): V})
        with pytest.raises(ShapeMismatch, match=r"bound, nvars \(1, 1\)/\(3, 1\)"):
            op(t, u)

    def test_results_keep_the_shape(self):
        t = BpsTable(2, 4, {(1, 0): V, (2, 2): lau({2: 1, 0: 3})})
        for r in (
            t.bar(), -t, t + t, t - t, t.scale(V), apply_symmetry(t, "S+", 0),
            apply_symmetry(t, "S-", 1),
        ):
            assert type(r) is BpsTable and (r.nvars, r.bound) == (2, 4)
        assert (t - t).support() == [] and t.scale(0).support() == []
        assert t.bar().bar() == t == -(-t)


class TestOperands:
    # qmul(s, 5), qinv(table) and exp_pleth(None) raised AttributeError, and
    # Log of a table NonzeroConstantTerm
    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda: qmul(mono(2, FLAT, (1, 0)), 5), "int"),
            (lambda: qmul(5, mono(2, FLAT, (1, 0))), "int"),
            (lambda: qmul(BpsTable(1, 2, {(1,): 1}), BpsTable(1, 2, {(1,): 1})), "BpsTable"),
            (lambda: qinv(BpsTable(1, 1, {(0,): 1})), "BpsTable"),
            (lambda: exp_pleth(None), "NoneType"),
            (lambda: exp_pleth(BpsTable(1, 2, {(1,): 1})), "BpsTable"),
            (lambda: log_pleth(BpsTable(1, 1, {(1,): 1})), "BpsTable"),
            (lambda: log_pleth(BpsTable(1, 1, {(0,): 1})), "BpsTable"),
        ],
        ids=["qmul-int", "int-qmul", "qmul-tables", "qinv", "exp-none", "exp", "log", "log-unit"],
    )
    def test_kernels_take_series_only(self, call, name):
        with pytest.raises(ValidationError, match="^unsupported operand '%s'$" % name):
            call()


class TestJson:
    def test_integral_series_round_trip(self):
        a = mono(3, TWISTED, (1, 0), lau({1: 1, -1: -2})) + mono(3, TWISTED, (0, 2), ONE)
        obj = series_to_json(a)
        assert obj["bound"] == 3
        assert obj["terms"][0] == {"d": [1, 0], "poly": {"-1": -2, "1": 1}}
        assert obj["terms"][1] == {"d": [0, 2], "poly": {"0": 1}}

    def test_rational_coefficients_use_fraction_strings(self):
        a = mono(2, FLAT, (1, 0), VRational({1: 1}, {0: 2}))
        obj = series_to_json(a)
        assert obj["terms"][0]["poly"] == {"1": "1/2"}

    def test_nonlaurent_coefficients_carry_denominator(self):
        c = VRational({1: 1}, {2: 1, 0: -1})  # 1/(v - v^-1)
        a = mono(2, FLAT, (1, 0), c)
        obj = series_to_json(a)
        term = obj["terms"][0]
        assert term["poly"] == {"1": 1}
        assert term["den"] == {"0": -1, "2": 1}

    def test_serialization_is_order_stable(self):
        a = mono(2, FLAT, (1, 0)) + mono(2, FLAT, (0, 1), V)
        b = mono(2, FLAT, (0, 1), V) + mono(2, FLAT, (1, 0))
        assert json.dumps(series_to_json(a)) == json.dumps(series_to_json(b))


# Desk-scale fuzzing.  Coefficients are small Laurent polynomials; series live
# over two nodes with the twisted form, bound 3.

coeffs = st.dictionaries(st.integers(-2, 2), st.integers(-3, 3), max_size=2).map(
    VRational.laurent
)
dims = st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(lambda d: sum(d) <= 3)


def _series(twist, bound=3):
    return st.dictionaries(dims, coeffs, max_size=4).map(
        lambda terms: QSeries(bound, twist, terms)
    )


# Commuting supports: anything over the flat twist, or multiples of one
# vector over the twisted form.  Bound 4 reaches mu(4) = 0 in Log.
rays = st.tuples(
    st.sampled_from([(1, 0), (0, 1), (1, 1)]),
    st.dictionaries(st.integers(1, 4), coeffs, max_size=3),
).map(
    lambda ray: QSeries(
        4, TWISTED, {tuple(k * x for x in ray[0]): c for k, c in ray[1].items()}
    )
)
commuting = st.one_of(_series(FLAT, bound=4), rays)

# Constant terms for qinv, with non-monomials whose inverse is not Laurent.
units = st.one_of(
    st.sampled_from([ONE, V, lau({0: 1, 1: 1}), lau({0: 2, -1: -1}), lau({0: 3})]),
    coeffs.filter(bool),
)

# The loops below are the series definitions of the product, inverse, Exp
# and Log.  qspace solves the same series degree by degree on packed or
# plain coefficients; these loops multiply VRational pairs one by one and
# share no product code with it, so they are its oracles.

MOBIUS = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1, 7: -1, 8: 0}


def _frac(p, q):
    return VRational({0: p}, {0: q})


def qmul_reference(a, b):
    """(ab)_d = sum over d' + d'' = d of a_{d'} b_{d''} v^{<d',d''>}, one
    VRational pair at a time, with <d', d''> = d' . (T d'')."""
    assert a.bound == b.bound and a.twist == b.twist
    out = {}
    for d1, c1 in a.terms.items():
        for d2, c2 in b.terms.items():
            if sum(d1) + sum(d2) > a.bound:
                continue
            td2 = [sum(t * y for t, y in zip(row, d2)) for row in a.twist]
            tw = sum(x * t for x, t in zip(d1, td2))
            d = tuple(x + y for x, y in zip(d1, d2))
            out[d] = out.get(d, VRational.zero()) + (c1 * c2).shift(tw)
    return QSeries(a.bound, a.twist, out)


def neumann_inverse(a):
    """c0^{-1} sum_n (-c0^{-1} r)^n for a = c0 + r."""
    inv_c0 = ONE / a.coeff((0,) * a.nvars)
    step = (a - a.constant_part()).scale(-inv_c0)
    out = term = QSeries.unit(a.bound, a.twist)
    for _ in range(a.bound):
        term = qmul_reference(term, step)
        out = out + term
    return out.scale(inv_c0)


def adams_sum(f, weight, adams):
    out = QSeries(f.bound, f.twist)
    for k in range(1, f.bound + 1):
        out = out + QSeries(
            f.bound,
            f.twist,
            {
                tuple(k * x for x in d): c.adams(k, adams) * weight(k)
                for d, c in f.terms.items()
            },
        )
    return out


def exp_by_definition(f, adams):
    """sum_n s^n / n! for s = sum_k psi_k(f) / k."""
    s = adams_sum(f, lambda k: _frac(1, k), adams)
    out = term = QSeries.unit(f.bound, f.twist)
    for n in range(1, f.bound + 1):
        term = qmul_reference(term, s).scale(_frac(1, n))
        out = out + term
    return out


def log_by_definition(F, adams):
    """sum_k mu(k)/k psi_k(L) for L = sum_n (-1)^{n+1} r^n / n, F = 1 + r."""
    r = F - F.constant_part()
    log = QSeries(F.bound, F.twist)
    term = QSeries.unit(F.bound, F.twist)
    for n in range(1, F.bound + 1):
        term = qmul_reference(term, r)
        log = log + term.scale(_frac((-1) ** (n + 1), n))
    return adams_sum(log, lambda k: _frac(MOBIUS[k], k), adams)


class TestFuzz:
    @settings(max_examples=60, deadline=None)
    @given(_series(TWISTED), _series(TWISTED), _series(TWISTED))
    def test_qmul_associative(self, a, b, c):
        assert qmul(qmul(a, b), c) == qmul_reference(a, qmul_reference(b, c))

    @settings(max_examples=60, deadline=None)
    @given(_series(TWISTED), _series(TWISTED), _series(TWISTED))
    def test_qmul_bilinear(self, a, b, c):
        assert qmul(a, b + c) == qmul(a, b) + qmul(a, c)
        assert qmul(a + b, c) == qmul(a, c) + qmul(b, c)

    @settings(max_examples=40, deadline=None)
    @given(_series(TWISTED))
    def test_qinv_two_sided(self, a):
        u = QSeries.unit(3, TWISTED) + a - a.constant_part()
        assert qmul_reference(u, qinv(u)) == QSeries.unit(3, TWISTED)
        assert qmul_reference(qinv(u), u) == QSeries.unit(3, TWISTED)

    @settings(max_examples=60, deadline=None)
    @given(_series(TWISTED), units)
    def test_qinv_matches_neumann_series(self, a, c0):
        u = a - a.constant_part() + QSeries.unit(3, TWISTED).scale(c0)
        assert qinv(u) == neumann_inverse(u)

    @settings(max_examples=40, deadline=None)
    @given(commuting, st.sampled_from(["v", "-v"]))
    def test_exp_matches_definition(self, a, adams):
        f = a - a.constant_part()
        assert exp_pleth(f, adams=adams) == exp_by_definition(f, adams)

    @settings(max_examples=40, deadline=None)
    @given(commuting, st.sampled_from(["v", "-v"]))
    def test_log_matches_definition(self, a, adams):
        F = QSeries.unit(a.bound, a.twist) + a - a.constant_part()
        assert log_pleth(F, adams=adams) == log_by_definition(F, adams)

    @settings(max_examples=40, deadline=None)
    @given(_series(FLAT))
    def test_exp_log_roundtrip(self, a):
        f = a - a.constant_part()
        assert log_pleth(exp_pleth(f)) == f

    @settings(max_examples=40, deadline=None)
    @given(st.dictionaries(dims, coeffs, max_size=3))
    def test_sigma_s_intertwine_on_tables(self, terms):
        t = BpsTable(2, 3, terms)
        for i in (0, 1):
            lhs = apply_symmetry(t, "S+", node=i).bar()
            rhs = apply_symmetry(t.bar(), "S-", node=i)
            assert lhs == rhs


# QSeries and BpsTable share one bounded term table: a series of zero twist
# and a table of the same terms and bound agree on everything but the product.

ALL_DIMS = list(product(range(3), repeat=2))


class TestSharedTable:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 4),
        st.dictionaries(dims, coeffs, max_size=4),
        st.dictionaries(dims, coeffs, max_size=4),
        coeffs,
    )
    def test_series_and_table_agree(self, bound, terms, other, c):
        s, t = QSeries(bound, FLAT, terms), BpsTable(2, bound, terms)
        s2, t2 = QSeries(bound, FLAT, other), BpsTable(2, bound, other)
        pairs = [(s, t), (s + s2, t + t2), (s - s2, t - t2), (neg(s), neg(t))]
        pairs.append((s.scale(c), t.scale(c)))
        for a, b in pairs:
            assert a.support() == b.support()
            assert list(a.items()) == list(b.items())
            assert [a.coeff(d) for d in ALL_DIMS] == [b.coeff(d) for d in ALL_DIMS]
            assert series_to_json(a) == series_to_json(b)


# Packed coefficients: integers far beyond one machine word, exponents far
# apart, and the constant terms +-v^k that send qinv and Log down the packed
# path.  Products of several 2^70 factors need widths of hundreds of bits.
# qmul runs plain on the same inputs.

big_coeffs = st.dictionaries(
    st.integers(-40, 40), st.integers(-(2**70), 2**70), min_size=1, max_size=3
).map(VRational.laurent)
unit_monomials = st.builds(
    lambda sign, k: VRational.laurent({k: sign}),
    st.sampled_from([1, -1]),
    st.integers(-40, 40),
)


def _big_series(twist, bound=3):
    return st.dictionaries(dims, big_coeffs, max_size=4).map(
        lambda terms: QSeries(bound, twist, terms)
    )


big_rays = st.tuples(
    st.sampled_from([(1, 0), (0, 1), (1, 1)]),
    st.dictionaries(st.integers(1, 4), big_coeffs, max_size=3),
).map(
    lambda ray: QSeries(
        4, TWISTED, {tuple(k * x for x in ray[0]): c for k, c in ray[1].items()}
    )
)


class TestPackedPath:
    @settings(max_examples=40, deadline=None)
    @given(_big_series(TWISTED), _big_series(TWISTED))
    def test_qmul_matches_reference(self, a, b):
        assert qmul(a, b) == qmul_reference(a, b)

    @settings(max_examples=40, deadline=None)
    @given(_big_series(TWISTED), unit_monomials)
    def test_qinv_matches_neumann_series(self, a, c0):
        u = a - a.constant_part() + QSeries.unit(3, TWISTED).scale(c0)
        assert qinv(u) == neumann_inverse(u)

    @settings(max_examples=40, deadline=None)
    @given(_big_series(FLAT), _big_series(FLAT))
    def test_flat_qmul_matches_reference(self, a, b):
        assert qmul(a, b) == qmul_reference(a, b)

    @settings(max_examples=40, deadline=None)
    @given(_big_series(FLAT), unit_monomials)
    def test_flat_qinv_matches_neumann_series(self, a, c0):
        u = a - a.constant_part() + QSeries.unit(3, FLAT).scale(c0)
        assert qinv(u) == neumann_inverse(u)

    @settings(max_examples=25, deadline=None)
    @given(
        st.one_of(_big_series(FLAT, bound=4), big_rays), st.sampled_from(["v", "-v"])
    )
    def test_log_matches_definition(self, a, adams):
        F = QSeries.unit(a.bound, a.twist) + a - a.constant_part()
        assert log_pleth(F, adams=adams) == log_by_definition(F, adams)

    def test_inverse_width_grows_with_degree(self):
        # a = 1 - 2^70 v^-3 x has the inverse sum_k 2^(70k) v^(-3k) x^k, whose
        # coefficient 2^280 at k = 4 needs 4 times the input's width
        one_var = ((0,),)
        a = QSeries(4, one_var, {(0,): 1, (1,): lau({-3: -(2**70)})})
        want = QSeries(
            4, one_var, {(k,): lau({-3 * k: 2 ** (70 * k)}) for k in range(5)}
        )
        assert qinv(a) == want
        assert qmul(a, want) == QSeries.unit(4, one_var)

    def test_norm_bound_sums_over_pairs(self):
        # 1/(1 - c x - c y) has 2 c^2 at xy, from two pairs of norm c^2 each.
        # A width that bounded the largest term at each degree instead of
        # their sum would hold c^2 but not 2 c^2 and read a wrong digit.
        for n in range(1, 160):
            c = 2**n
            a = QSeries(2, FLAT, {(0, 0): 1, (1, 0): -c, (0, 1): -c})
            assert qinv(a) == QSeries(
                2,
                FLAT,
                {
                    (0, 0): 1,
                    (1, 0): c,
                    (0, 1): c,
                    (2, 0): c * c,
                    (1, 1): 2 * c * c,
                    (0, 2): c * c,
                },
            )

    def test_cancelling_digits_unpack_to_zero(self):
        # (1 + x)(1 - x) = 1 - x^2 over the flat twist: the x terms cancel,
        # in the product and in the packed quotient's x^2 term
        a = QSeries(2, FLAT, {(0, 0): 1, (1, 0): lau({5: 2**66, -5: -1})})
        b = QSeries(2, FLAT, {(0, 0): 1, (1, 0): lau({5: -(2**66), -5: 1})})
        ab = QSeries(
            2, FLAT, {(0, 0): 1, (2, 0): lau({10: -(2**132), 0: 2**67, -10: -1})}
        )
        assert qmul(a, b) == ab
        assert _divide(a, ab) == b


# Plain coefficients: Laurent polynomials divided by 2, by 1 + v and by
# v - v^-1.  A true fraction off the constant term keeps qinv on VRational
# coefficients.

plain_coeffs = st.builds(
    lambda c, den: c / den,
    coeffs.filter(bool),
    st.sampled_from([lau({0: 2}), lau({0: 1, 1: 1}), lau({1: 1, -1: -1})]),
)


def _plain_series(twist, bound=3):
    return (
        st.dictionaries(dims, st.one_of(coeffs, plain_coeffs), min_size=1, max_size=5)
        .filter(lambda terms: any(not c.is_laurent for d, c in terms.items() if any(d)))
        .map(lambda terms: QSeries(bound, twist, terms))
    )


class TestPlainPath:
    @settings(max_examples=40, deadline=None)
    @given(_plain_series(TWISTED), st.one_of(_series(TWISTED), _plain_series(TWISTED)))
    def test_qmul_matches_reference(self, a, b):
        assert qmul(a, b) == qmul_reference(a, b)
        assert qmul(b, a) == qmul_reference(b, a)

    @settings(max_examples=40, deadline=None)
    @given(_plain_series(TWISTED), units)
    def test_qinv_matches_neumann_series(self, a, c0):
        u = a - a.constant_part() + QSeries.unit(3, TWISTED).scale(c0)
        assert qinv(u) == neumann_inverse(u)

    @settings(max_examples=40, deadline=None)
    @given(_plain_series(FLAT), st.one_of(_series(FLAT), _plain_series(FLAT)))
    def test_flat_qmul_matches_reference(self, a, b):
        assert qmul(a, b) == qmul_reference(a, b)
        assert qmul(b, a) == qmul_reference(b, a)

    @settings(max_examples=40, deadline=None)
    @given(_plain_series(FLAT), units)
    def test_flat_qinv_matches_neumann_series(self, a, c0):
        u = a - a.constant_part() + QSeries.unit(3, FLAT).scale(c0)
        assert qinv(u) == neumann_inverse(u)

    def test_terms_with_different_shifts_meet(self):
        # x0 x1 = v^-1 x^(1,1) and x1 x0 = v x^(1,1), so both (x0 + x1)^2 / 4
        # and the degree-2 part of 1 / (1 + (x0 + x1) / 2) sum a v^-1 term
        # and a v term at (1, 1)
        half, quarter = _frac(1, 2), _frac(1, 4)
        a = QSeries(2, TWISTED, {(1, 0): half, (0, 1): half})
        meet = lau({-1: 1, 1: 1}) * quarter
        assert qmul(a, a) == QSeries(
            2, TWISTED, {(2, 0): quarter, (1, 1): meet, (0, 2): quarter}
        )
        assert qinv(QSeries.unit(2, TWISTED) + a) == QSeries(
            2,
            TWISTED,
            {
                (0, 0): 1,
                (1, 0): -half,
                (0, 1): -half,
                (2, 0): quarter,
                (1, 1): meet,
                (0, 2): quarter,
            },
        )


# Division: a^-1 h is one solve whose accumulator at each total degree
# starts from h's row.  qinv divides 1 and Log divides D F by F.


def _rhs(coeff, twist):
    """h over two nodes at bound 3 with a nonzero term at every total degree."""
    spine = st.tuples(*(
        st.tuples(st.sampled_from([(i, n - i) for i in range(n + 1)]), coeff)
        for n in range(4)
    ))
    return st.tuples(spine, st.dictionaries(dims, coeff, max_size=3)).map(
        lambda h: QSeries(3, twist, {**h[1], **dict(h[0])})
    )


def _refuse(*args):
    raise AssertionError("log_pleth went through qmul or qinv")


@pytest.fixture(scope="module")
def conifold_z():
    """The golden Z of conifold D6 at node 0 under the slope of corner 0."""
    q = load_geometry("conifold")
    slope = make_slope(toric_diagram(q), corner=0)
    z = framed_partition_function(
        q, reference_grading(q), framing_d6(q, q.nodes[0]), slope, BOUND
    )
    golden = json.loads(FIXTURE.read_text())["cases"][f"conifold d6:{q.nodes[0]} +"]
    assert digest(z) == golden
    return z


class TestDivision:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([TWISTED, FLAT]), st.data())
    def test_packed_quotient(self, twist, data):
        a, c0 = data.draw(_big_series(twist)), data.draw(unit_monomials)
        u = a - a.constant_part() + QSeries.unit(3, twist).scale(c0)
        h = data.draw(_rhs(big_coeffs.filter(bool), twist))
        assert qmul_reference(u, _divide(u, h)) == h

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([TWISTED, FLAT]), st.data())
    def test_plain_quotient(self, twist, data):
        a, c0 = data.draw(_plain_series(twist)), data.draw(units)
        u = a - a.constant_part() + QSeries.unit(3, twist).scale(c0)
        h = data.draw(_rhs(st.one_of(coeffs, plain_coeffs).filter(bool), twist))
        assert qmul_reference(u, _divide(u, h)) == h

    @pytest.mark.parametrize("case", ["packed", "plain", "conifold"])
    def test_log_is_one_division(self, case, monkeypatch, request):
        if case == "conifold":
            F = request.getfixturevalue("conifold_z")
        else:
            c = 2**70 if case == "packed" else _frac(1, 3)
            F = QSeries(4, FLAT, {(0, 0): 1, (1, 0): c, (1, 1): -3 * c, (0, 2): V})
        want = log_by_definition(F, "v")
        monkeypatch.setattr(qspace, "qmul", _refuse)
        monkeypatch.setattr(qspace, "qinv", _refuse)
        assert log_pleth(F) == want

    @pytest.mark.parametrize("m", [3, 70, 200])
    def test_width_holds_the_right_hand_side(self, m):
        # at bound 2, F^-1 D F = 2 c x^2 for c = 2^m; a width from the
        # norms of F alone holds c but not 2 c and reads a wrong digit
        F = QSeries(2, ((0,),), {(0,): 1, (2,): 2**m})
        assert log_pleth(F) == log_by_definition(F, "v")


# The dimension key of the kernels, over 1 to 5 nodes.


@st.composite
def vectors(draw):
    """(nodes, bound, distinct dimension vectors of total degree <= bound)."""
    n, bound = draw(st.integers(1, 5)), draw(st.integers(0, 8))

    def vector():
        d, left = [], bound
        for _ in range(n):
            d.append(draw(st.integers(0, left)))
            left -= d[-1]
        return tuple(draw(st.permutations(d)))

    ds = list(dict.fromkeys(vector() for _ in range(draw(st.integers(1, 8)))))
    return n, bound, ds


class TestDimensionKey:
    @settings(max_examples=100, deadline=None)
    @given(vectors())
    def test_additive_and_round_trips(self, case):
        n, bound, ds = case
        radix = bound + 1
        keys = {d: _dim_key(d, radix) for d in ds}
        for d, k in keys.items():
            assert _dim(k, n, radix) == d
            for m in range(2, bound + 1):
                if m * sum(d) <= bound:
                    assert _dim_key(tuple(m * x for x in d), radix) == m * k
            for d2, k2 in keys.items():
                if sum(d) + sum(d2) <= bound:
                    assert _dim_key(tuple(map(add, d, d2)), radix) == k + k2

    @settings(max_examples=100, deadline=None)
    @given(vectors())
    def test_key_order_is_term_order(self, case):
        n, bound, ds = case
        radix = bound + 1
        flat = ((0,) * n,) * n
        coeffs = {d: lau({len(ds) - i: i + 1}) for i, d in enumerate(ds)}
        series = _keyed(bound, flat, {_dim_key(d, radix): c for d, c in coeffs.items()})
        assert list(series.terms) == list(_sorted_terms(coeffs))
        assert series == QSeries(bound, flat, coeffs)


# VRational's int shortcuts against the polynomial gcd, which is the only
# reduction: a common factor 1 + v on both sides gives the gcd a factor to
# cancel, and a monomial denominator skips it.


def _times_one_plus_v(p):
    out = {}
    for e, c in p.items():
        for f in (e, e + 1):
            out[f] = out.get(f, 0) + c
    return out


polys = st.dictionaries(st.integers(-4, 4), st.integers(-12, 12), max_size=3).filter(
    lambda p: any(p.values())
)
monomials = st.builds(
    lambda e, c: {e: c}, st.integers(-4, 4), st.integers(-12, 12).filter(bool)
)


class TestIntShortcuts:
    @settings(max_examples=100, deadline=None)
    @given(polys, st.one_of(polys, monomials), st.integers(-12, 12))
    def test_scale_by_int(self, num, den, n):
        c = VRational(num, den)
        want = VRational(
            _times_one_plus_v({e: n * x for e, x in num.items()}),
            _times_one_plus_v(den),
        )
        assert c * n == n * c == want

    @settings(max_examples=100, deadline=None)
    @given(polys, monomials)
    def test_monomial_denominator(self, num, den):
        want = VRational(_times_one_plus_v(num), _times_one_plus_v(den))
        assert VRational(num, den) == want

    @settings(max_examples=200, deadline=None)
    @given(polys, st.integers(-4, 4), st.integers(-12, 12).filter(bool))
    def test_monomial_denominator_against_fractions(self, num, k, c):
        # num / (c v^k) read back per exponent as series_to_json writes it,
        # against Fraction
        table = BpsTable(1, 0, {(0,): VRational(num, {k: c})})
        (term,) = series_to_json(table)["terms"]
        assert "den" not in term
        got = {int(e): Fraction(x) for e, x in term["poly"].items()}
        assert got == {e - k: Fraction(x, c) for e, x in num.items() if x}
