"""Exact coefficient arithmetic and twisted series algebra.

Expected values here are frozen from hand expansions done independently of the
implementation: the twisted inverse through degree 2, the geometric series,
and the discriminating plethystic exponentials for both Adams conventions.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from moltendt.errors import (
    NonCentralSigma,
    NonCommutingSupport,
    NonUnitConstantTerm,
    NonzeroConstantTerm,
    ParseError,
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
    series_from_json,
    series_to_json,
)

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
        half = VRational.fraction({0: 1}, {0: 2})
        assert half + half == ONE
        assert half * VRational.from_int(2) == ONE
        assert not half.is_laurent

    def test_normalization_is_canonical(self):
        a = VRational.fraction({2: 2, 0: -2}, {1: 2, -1: -2})
        assert a == V
        assert a.is_laurent
        b = VRational.fraction({0: 1}, {1: -1, -1: 1})
        assert b == -(ONE / lau({1: 1, -1: -1}))

    def test_hashable_value_semantics(self):
        assert len({lau({2: 1}), lau({3: 1, 1: -1}) / lau({1: 1, -1: -1})}) == 1

    def test_laurent_dict_rejects_non_laurent(self):
        with pytest.raises(ValidationError, match="Laurent") as err:
            VRational.fraction({0: 1}, {0: 1, 1: 1}).laurent_dict()
        assert err.value.exit_code == 1

    def test_pow(self):
        assert V**3 == lau({3: 1})
        assert V**-2 == lau({-2: 1})
        w = ONE / lau({1: 1, -1: -1})
        assert w**2 * lau({1: 1, -1: -1}) ** 2 == ONE


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

    def test_sigma_bar_on_central_support(self):
        # (1,1) is not central for TWISTED (T maps it to (-1,1)), so the flat
        # twist carries the allowed case and TWISTED exercises the guard.
        a = QSeries.unit(2, TWISTED).scale(V) + mono(2, TWISTED, (1, 1), lau({1: 1, -1: -1}))
        b = QSeries.unit(2, FLAT).scale(V) + mono(2, FLAT, (1, 1), lau({1: 1, -1: -1}))
        bb = apply_symmetry(b, "sigma")
        assert bb == QSeries.unit(2, FLAT).scale(lau({-1: 1})) + mono(
            2, FLAT, (1, 1), lau({-1: 1, 1: -1})
        )
        with pytest.raises(NonCentralSigma):
            apply_symmetry(a, "sigma")

    def test_sigma_intertwines_s_plus_minus_on_tables(self):
        t = BpsTable(2, {(1, 0): lau({3: 1}), (1, 1): lau({1: 1, -1: 2})})
        lhs = apply_symmetry(apply_symmetry(t, "S+", node=0), "sigma")
        rhs = apply_symmetry(apply_symmetry(t, "sigma"), "S-", node=0)
        assert lhs == rhs

    def test_bps_table_bar_is_always_coefficientwise(self):
        t = BpsTable(2, {(1, 0): V})
        assert apply_symmetry(t, "sigma") == BpsTable(2, {(1, 0): lau({-1: 1})})


class TestJson:
    def test_integral_series_round_trip(self):
        a = mono(3, TWISTED, (1, 0), lau({1: 1, -1: -2})) + mono(3, TWISTED, (0, 2), ONE)
        obj = series_to_json(a)
        assert obj["bound"] == 3
        assert obj["terms"][0] == {"d": [1, 0], "poly": {"-1": -2, "1": 1}}
        assert obj["terms"][1] == {"d": [0, 2], "poly": {"0": 1}}
        assert series_from_json(obj, TWISTED) == a

    def test_rational_coefficients_use_fraction_strings(self):
        a = mono(2, FLAT, (1, 0), VRational.fraction({1: 1}, {0: 2}))
        obj = series_to_json(a)
        assert obj["terms"][0]["poly"] == {"1": "1/2"}
        assert series_from_json(obj, FLAT) == a

    def test_nonlaurent_coefficients_carry_denominator(self):
        c = VRational.fraction({1: 1}, {2: 1, 0: -1})  # 1/(v - v^-1)
        a = mono(2, FLAT, (1, 0), c)
        obj = series_to_json(a)
        term = obj["terms"][0]
        assert term["poly"] == {"1": 1}
        assert term["den"] == {"0": -1, "2": 1}
        assert series_from_json(obj, FLAT) == a

    @pytest.mark.parametrize(
        "obj",
        [
            {"bound": 2},
            {"terms": []},
            {"bound": 2, "terms": [{"poly": {"0": 1}}]},
            {"bound": 2, "terms": [{"d": [1]}]},
            {"bound": 2, "terms": [{"d": [1], "poly": "x"}]},
        ],
        ids=["no-terms", "no-bound", "no-d", "no-poly", "poly-not-object"],
    )
    def test_malformed_document_raises_parse_error(self, obj):
        with pytest.raises(ParseError):
            series_from_json(obj, ((0,),))

    @pytest.mark.parametrize(
        "obj",
        [
            {"bound": 2.9, "terms": []},
            {"bound": "2", "terms": []},
            {"bound": True, "terms": []},
            {"bound": 2, "terms": [{"d": [1.5], "poly": {"0": 1}}]},
            {"bound": 2, "terms": [{"d": ["1"], "poly": {"0": 1}}]},
            {"bound": 2, "terms": [{"d": [True], "poly": {"0": 1}}]},
            {"bound": 2, "terms": [{"d": [1], "poly": {"0": 1.5}}]},
            {"bound": 2, "terms": [{"d": [1], "poly": {"0": False}}]},
            {"bound": 2, "terms": [{"d": [1], "poly": {"0": 1}, "den": {"0": 2.0}}]},
        ],
        ids=[
            "float-bound",
            "string-bound",
            "bool-bound",
            "float-d",
            "string-d",
            "bool-d",
            "float-poly",
            "bool-poly",
            "float-den",
        ],
    )
    def test_non_integer_field_raises_parse_error(self, obj):
        # int() would truncate 2.9 to 2 and 1.5 to 1, and accept "2" and True
        with pytest.raises(ParseError, match="not an integer"):
            series_from_json(obj, ((0,),))

    @pytest.mark.parametrize(
        "poly",
        [{"1_0": 1}, {" 2": 1}, {"0": "1_1/2"}, {"+1": 1}, {"0": "1/ 2"}, {"٣": 1}],
        ids=[
            "underscore-exponent",
            "space-exponent",
            "underscore-fraction",
            "plus-exponent",
            "space-denominator",
            "non-ascii-exponent",
        ],
    )
    def test_integer_string_not_as_written_raises_parse_error(self, poly):
        # int() reads "1_0" as 10, " 2" as 2 and "1_1/2" as 11/2
        obj = {"bound": 2, "terms": [{"d": [1], "poly": poly}]}
        with pytest.raises(ParseError, match="not an integer string"):
            series_from_json(obj, ((0,),))

    def test_nonlaurent_exponent_keys_are_checked_too(self):
        obj = {"bound": 2, "terms": [{"d": [1], "poly": {"0": 1}, "den": {"1_0": 1}}]}
        with pytest.raises(ParseError, match="not an integer string"):
            series_from_json(obj, ((0,),))

    def test_negative_exponents_and_fractions_still_parse(self):
        obj = {"bound": 2, "terms": [{"d": [1], "poly": {"-2": "-3/4", "10": 5}}]}
        c = series_from_json(obj, ((0,),)).terms[(1,)]
        assert c == VRational.fraction({-2: -3, 10: 20}, {0: 4})

    def test_repeated_dimension_vector_raises_parse_error(self):
        obj = {
            "bound": 2,
            "terms": [{"d": [1], "poly": {"0": 1}}, {"d": [1], "poly": {"0": 5}}],
        }
        with pytest.raises(ParseError, match="two terms"):
            series_from_json(obj, ((0,),))

    @pytest.mark.parametrize(
        "d", [[1, 1], [-1]], ids=["wrong-length", "negative"]
    )
    def test_invalid_dimension_vector_raises_validation_error(self, d):
        obj = {"bound": 2, "terms": [{"d": d, "poly": {"0": 1}}]}
        with pytest.raises(ValidationError, match="dimension vector"):
            series_from_json(obj, ((0,),))

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

# The loops below are the series definitions of the inverse, Exp and Log;
# qspace solves the same series degree by degree, so they are its oracles.

MOBIUS = {1: 1, 2: -1, 3: -1, 4: 0}


def _frac(p, q):
    return VRational.fraction({0: p}, {0: q})


def neumann_inverse(a):
    """c0^{-1} sum_n (-c0^{-1} r)^n for a = c0 + r."""
    inv_c0 = ONE / a.coeff((0,) * a.nvars)
    step = (a - a.constant_part()).scale(-inv_c0)
    out = term = QSeries.unit(a.bound, a.twist)
    for _ in range(a.bound):
        term = qmul(term, step)
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
        term = qmul(term, s).scale(_frac(1, n))
        out = out + term
    return out


def log_by_definition(F, adams):
    """sum_k mu(k)/k psi_k(L) for L = sum_n (-1)^{n+1} r^n / n, F = 1 + r."""
    r = F - F.constant_part()
    log = QSeries(F.bound, F.twist)
    term = QSeries.unit(F.bound, F.twist)
    for n in range(1, F.bound + 1):
        term = qmul(term, r)
        log = log + term.scale(_frac((-1) ** (n + 1), n))
    return adams_sum(log, lambda k: _frac(MOBIUS[k], k), adams)


class TestFuzz:
    @settings(max_examples=60, deadline=None)
    @given(_series(TWISTED), _series(TWISTED), _series(TWISTED))
    def test_qmul_associative(self, a, b, c):
        assert qmul(qmul(a, b), c) == qmul(a, qmul(b, c))

    @settings(max_examples=60, deadline=None)
    @given(_series(TWISTED), _series(TWISTED), _series(TWISTED))
    def test_qmul_bilinear(self, a, b, c):
        assert qmul(a, b + c) == qmul(a, b) + qmul(a, c)
        assert qmul(a + b, c) == qmul(a, c) + qmul(b, c)

    @settings(max_examples=40, deadline=None)
    @given(_series(TWISTED))
    def test_qinv_two_sided(self, a):
        u = QSeries.unit(3, TWISTED) + a - a.constant_part()
        assert qmul(u, qinv(u)) == QSeries.unit(3, TWISTED)
        assert qmul(qinv(u), u) == QSeries.unit(3, TWISTED)

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
        t = BpsTable(2, terms)
        for i in (0, 1):
            lhs = apply_symmetry(apply_symmetry(t, "S+", node=i), "sigma")
            rhs = apply_symmetry(apply_symmetry(t, "sigma"), "S-", node=i)
            assert lhs == rhs
