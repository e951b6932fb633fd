"""Slopes, tangent-weight indices, and framed partition functions.

Frozen index values below were derived by hand-enumerating the tangent
weight multisets of the smallest crystals and classifying them against
the explicit slope; the degree-1 coefficient is additionally pinned by
the known one-side-nilpotent answer for the three-loop geometry.
"""

import itertools

import pytest
from hypothesis import assume, given, settings, strategies as st

from moltendt.crystal import build_erc, enumerate_crystals, framing_d4, framing_d6
from moltendt.errors import (
    InconsistentPoset,
    InfeasiblePattern,
    InvalidInterval,
    ValidationError,
)
from moltendt.geometry import (
    Arrow,
    PeriodicQuiver,
    ReferenceGrading,
    builtin_names,
    euler_form,
    load_geometry,
    reference_grading,
)
from moltendt.localization import (
    Slope,
    framed_partition_function,
    index,
    make_slope,
    parse_interval,
)
from moltendt.matchings import toric_diagram
from moltendt.qspace import QSeries, VRational, series_to_json


def setting(name):
    q = load_geometry(name)
    return q, reference_grading(q), toric_diagram(q)


def nil_slope(name, sides):
    q, grading, d = setting(name)
    return q, grading, d, make_slope(d, interval=sides)


class TestSlope:
    def test_sign_axioms(self):
        s = Slope((-1, 0), (0, -1))
        assert s.sign((0, 0)) == 0
        for w in itertools.product(range(-3, 4), repeat=2):
            if w == (0, 0):
                continue
            assert s.sign(w) in (-1, 1)
            assert s.sign((-w[0], -w[1])) == -s.sign(w)

    def test_rejects_degenerate(self):
        with pytest.raises(ValidationError):
            Slope((0, 0), (1, 0))
        with pytest.raises(ValidationError):
            Slope((2, -4), (-1, 2))

    def test_negated(self):
        s = Slope((-1, 0), (0, -1))
        n = s.negated()
        assert (n.s, n.sp) == ((1, 0), (0, 1))


class TestMakeSlope:
    def test_c3_one_side(self):
        q, grading, d, s = nil_slope("c3", ("z1",))
        assert (s.s, s.sp) == ((-1, 0), (0, -1))
        assert [s.sign(side.l) for side in d.sides] == [1, -1, 1]

    def test_c3_all_sides_infeasible(self):
        q, grading, d = setting("c3")
        with pytest.raises(InfeasiblePattern):
            make_slope(d, interval=("z0", "z1", "z2"))

    def test_d4_corner_positive_pair(self):
        for name in ["c3", "conifold"]:
            q, grading, d = setting(name)
            n = len(d.corners)
            for corner in range(n):
                s = make_slope(d, corner=corner)
                before = d.sides[(corner - 1) % n]
                after = d.sides[corner]
                assert s.sign(before.l) == 1
                assert s.sign(after.l) == 1

    @pytest.mark.parametrize(
        "name", ["c3", "conifold", "spp", "pdp3a", "local-p2", "c3-z2z2", "c2z2-x-c"]
    )
    def test_every_contiguous_interval_matches_feasibility(self, name):
        # a contiguous run of sides is realizable iff some direction puts
        # its normals strictly negative and the rest strictly positive;
        # certify feasibility by dense scan instead of trusting the search
        q, grading, d = setting(name)
        names = [side.name for side in d.sides]
        n = len(names)
        for start in range(n):
            for length in range(1, n):
                sides = tuple(names[(start + k) % n] for k in range(length))
                wanted = set(sides)
                vectors = [
                    (side.l, -1 if side.name in wanted else 1) for side in d.sides
                ]
                feasible = any(
                    all(want * (a * lx + b * ly) > 0 for (lx, ly), want in vectors)
                    for a in range(-40, 41)
                    for b in range(-40, 41)
                    if (a, b) != (0, 0)
                )
                if not feasible:
                    with pytest.raises(InfeasiblePattern):
                        make_slope(d, interval=sides)
                    continue
                s = make_slope(d, interval=sides)
                for side in d.sides:
                    expect = -1 if side.name in wanted else 1
                    assert s.sign(side.l) == expect

    def test_conifold_opposite_normals(self):
        # the square's parallel sides force any realizable run to take one
        # side from each opposite pair
        q, grading, d = setting("conifold")
        for single in ("z0", "z1", "z2", "z3"):
            with pytest.raises(InfeasiblePattern):
                make_slope(d, interval=(single,))
        for pair in (("z0", "z1"), ("z1", "z2"), ("z2", "z3"), ("z3", "z0")):
            s = make_slope(d, interval=pair)
            for side in d.sides:
                assert s.sign(side.l) == (-1 if side.name in pair else 1)

    def test_interval_validation(self):
        q, grading, d = setting("spp")
        with pytest.raises(InvalidInterval):
            make_slope(d, interval=())
        with pytest.raises(InvalidInterval):
            make_slope(d, interval=("z0", "z2"))
        with pytest.raises(InvalidInterval):
            make_slope(d, interval=("z0", "nope"))

    def test_parse_interval(self):
        q, grading, d = setting("spp")
        assert parse_interval(d, "z3..z1") == ("z3", "z0", "z1")
        assert parse_interval(d, "z2..z2") == ("z2",)
        with pytest.raises(InvalidInterval):
            parse_interval(d, "z0")


class TestIndex:
    def test_c3_single_atom(self):
        q, grading, d = setting("c3")
        fr = framing_d6(q, 0)
        erc = build_erc(q, grading, fr, 3)
        crystals = enumerate_crystals(erc, 1)
        one = crystals[1]
        s = Slope((-1, -2), (2, -1))
        rep = index(q, fr, grading, one, s)
        assert (rep.d1_plus, rep.d1_minus) == (2, 1)
        assert rep.index == 1
        neg = index(q, fr, grading, one, s.negated())
        assert (neg.d1_plus, neg.d1_minus) == (1, 2)
        assert neg.index == -1
        # the framing arrow contributes its one zero weight at the root
        assert rep.d1_zero == 1
        assert rep.d0_zero == 1

    @pytest.mark.parametrize("name", ["c3", "conifold"])
    def test_negated_slope_negates_index(self, name):
        q, grading, d = setting(name)
        fr = framing_d6(q, q.nodes[0])
        erc = build_erc(q, grading, fr, 6)
        run = 1 if len(d.sides) == 3 else 2
        s = make_slope(d, interval=tuple(z.name for z in d.sides[:run]))
        for c in enumerate_crystals(erc, 4):
            a = index(q, fr, grading, c, s)
            b = index(q, fr, grading, c, s.negated())
            assert b.index == -a.index
            assert a.d0_plus == a.d0_minus

    def test_index_report_identity(self):
        q, grading, d = setting("spp")
        fr = framing_d6(q, q.nodes[0])
        erc = build_erc(q, grading, fr, 5)
        s = make_slope(d, interval=("z0",))
        for c in enumerate_crystals(erc, 3):
            rep = index(q, fr, grading, c, s)
            assert rep.index == -rep.d0_plus + rep.d1_plus - rep.d1_minus + rep.d0_minus


class TestPartitionFunction:
    def test_c3_low_degrees(self):
        q, grading, d, s = nil_slope("c3", ("z1",))
        fr = framing_d6(q, 0)
        z = framed_partition_function(q, grading, fr, s, 3)
        assert z.coeff((0,)) == VRational.one()
        assert z.coeff((1,)) == VRational.vpow(1)
        assert z.coeff((2,)) == VRational.laurent({2: 2, 0: 1})

    def test_same_chamber_same_series(self):
        q, grading, d = setting("c3")
        fr = framing_d6(q, 0)
        za = framed_partition_function(q, grading, fr, Slope((-1, 0), (0, -1)), 4)
        zb = framed_partition_function(q, grading, fr, Slope((-1, -2), (2, -1)), 4)
        assert za.terms == zb.terms

    @pytest.mark.parametrize("name", ["c3", "conifold"])
    def test_dual_slope_is_bar_dual(self, name):
        q, grading, d = setting(name)
        fr = framing_d6(q, q.nodes[0])
        run = 1 if len(d.sides) == 3 else 2
        s = make_slope(d, interval=tuple(z.name for z in d.sides[:run]))
        za = framed_partition_function(q, grading, fr, s, 4)
        zb = framed_partition_function(q, grading, fr, s.negated(), 4)
        assert set(za.terms) == set(zb.terms)
        for dvec, c in za.terms.items():
            assert zb.coeff(dvec) == c.bar()

    def test_v_equals_one_counts_crystals(self):
        q, grading, d, s = nil_slope("conifold", ("z0", "z1"))
        fr = framing_d6(q, 1)
        z = framed_partition_function(q, grading, fr, s, 4)
        erc = build_erc(q, grading, fr, 6)
        counts = {}
        for c in enumerate_crystals(erc, 4):
            counts[c.d] = counts.get(c.d, 0) + 1
        for dvec, coeff in z.terms.items():
            assert sum(coeff.laurent_dict().values()) == counts[dvec]
        assert set(z.terms) == {dv for dv, k in counts.items() if k}

    def test_d4_partition_function_runs(self):
        q, grading, d = setting("c3")
        fr = framing_d4(q, d, 0)
        s = make_slope(d, corner=0)
        z = framed_partition_function(q, grading, fr, s, 4)
        assert z.coeff((0,)) == VRational.one()
        # one crystal per partition size
        for n in range(5):
            assert z.coeff((n,)).is_laurent

    def test_twist_matches_euler_bracket(self):
        q, grading, d, s = nil_slope("conifold", ("z0", "z1"))
        fr = framing_d6(q, 1)
        z = framed_partition_function(q, grading, fr, s, 2)
        assert z.twist == euler_form(q)[1]



def reference_crystals(q, grading, framing, bound):
    return enumerate_crystals(build_erc(q, grading, framing, bound), bound)


def reference_z(q, grading, framing, slope, crystals, bound):
    """Z summed crystal by crystal from the full sign census."""

    terms = {}
    for c in crystals:
        rep = index(q, framing, grading, c, slope)
        terms[c.d] = terms.get(c.d, VRational.zero()) + VRational.vpow(rep.index)
    return QSeries(bound, euler_form(q)[1], terms)


def framings(q, d):
    return [framing_d6(q, v) for v in q.nodes] + [
        framing_d4(q, d, k) for k in range(len(d.corners))
    ]


class TestWalkMatchesReference:
    @pytest.mark.parametrize("name", builtin_names())
    def test_every_framing_slope_and_orientation(self, name):
        # the weight orientation is the sign of the slope: each slope runs
        # together with its negation
        q, grading, d = setting(name)
        for fr in framings(q, d):
            if fr.kind == "d6":
                s, bound = make_slope(d, corner=0), 6
            else:
                s, bound = make_slope(d, corner=fr.corner), 8
            crystals = reference_crystals(q, grading, fr, bound)
            for slope in (s, s.negated()):
                got = framed_partition_function(q, grading, fr, slope, bound)
                want = reference_z(q, grading, fr, slope, crystals, bound)
                assert series_to_json(got) == series_to_json(want)

    @pytest.fixture(scope="class")
    def small(self):
        out = {}
        for name in ("conifold", "spp"):
            q, grading, d = setting(name)
            out[name] = [
                (q, grading, fr, reference_crystals(q, grading, fr, 5))
                for fr in framings(q, d)
            ]
        return out

    @settings(max_examples=40, deadline=None)
    @given(
        name=st.sampled_from(["conifold", "spp"]),
        pick=st.integers(0, 10),
        s=st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
        sp=st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
    )
    def test_random_generic_slopes(self, small, name, pick, s, sp):
        assume(s != (0, 0) and s[0] * sp[1] - s[1] * sp[0] != 0)
        slope = Slope(s, sp)
        q, grading, fr, crystals = small[name][pick % len(small[name])]
        got = framed_partition_function(q, grading, fr, slope, 5)
        want = reference_z(q, grading, fr, slope, crystals, 5)
        assert series_to_json(got) == series_to_json(want)


def atom(k):
    return (0, (k, 0), 0)


class StubErc:
    """An ERC stand-in on hand-written successor lists of C3 atoms."""

    def __init__(self, q, succs, max_atoms):
        self.q, self.max_atoms, self.root = q, max_atoms, atom(0)
        self._succs = {a: tuple(bs) for a, bs in succs.items()}
        self._preds = {a: () for a in succs}
        for a, bs in succs.items():
            for b in bs:
                self._preds[b] += (a,)

    def atoms(self):
        return sorted(self._succs)

    def successors(self, a):
        return self._succs[a]

    def predecessors(self, a):
        return self._preds[a]

    def sort_key(self, a):
        return a


class ShiftingErc(StubErc):
    """Atom 1 gains atom 2 as a predecessor once its list has been read."""

    reads = 0

    def predecessors(self, a):
        preds = super().predecessors(a)
        if a == atom(1):
            self.reads += 1
            if self.reads > 1:
                return preds + (atom(2),)
        return preds


class TestInconsistentPoset:
    def test_erc_rejects_disagreeing_grades(self):
        # with no arrow counted in the depth, the three C3 arrows close a
        # loop back to the root at grade 3
        q = load_geometry("c3")
        grading = ReferenceGrading(frozenset(), {a.id: 0 for a in q.arrows})
        with pytest.raises(InconsistentPoset, match="build_erc") as err:
            build_erc(q, grading, framing_d6(q, 0), 6)
        assert err.value.exit_code == 2

    def test_enumeration_rejects_non_ideal(self):
        q = load_geometry("c3")
        erc = ShiftingErc(q, {atom(0): [atom(1)], atom(1): [], atom(2): []}, 4)
        with pytest.raises(InconsistentPoset, match="enumerate_crystals") as err:
            enumerate_crystals(erc, 2)
        assert err.value.exit_code == 2


class TestNoCutArrow:
    def test_walk_names_arrow_in_no_cut(self):
        # every cut holds one of a, b and one of c, d, so none holds e
        loops = {"a": (1, 0), "b": (-1, 0), "e": (0, 0), "c": (0, 1), "d": (0, -1)}
        q = PeriodicQuiver(
            [0],
            [Arrow(k, 0, 0, disp) for k, disp in loops.items()],
            [
                (1, ("a", "b", "e")),
                (1, ("c", "d")),
                (-1, ("a", "b")),
                (-1, ("e", "c", "d")),
            ],
        )
        assert q.cuts and not any("e" in c.arrows for c in q.cuts)
        with pytest.raises(ValidationError, match="'e'") as err:
            framed_partition_function(
                q, reference_grading(q), framing_d6(q, 0), Slope((1, 0), (0, 1)), 4
            )
        assert err.value.exit_code == 1
