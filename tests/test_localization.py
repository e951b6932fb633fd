"""Slopes, tangent-weight indices, and framed partition functions.

Frozen index values below were derived by hand-enumerating the tangent
weight multisets of the smallest crystals and classifying them against
the explicit slope; the degree-1 coefficient is additionally pinned by
the known one-side-nilpotent answer for the three-loop geometry.
"""

import dataclasses
import gc
import itertools

import pytest
from hypothesis import assume, given, settings, strategies as st

from bench.workloads import orbifold_quiver
from moltendt.crystal import (
    build_erc,
    enumerate_crystals,
    framing_d4,
    framing_d6,
    valid_seed_arrows,
)
from moltendt.errors import (
    InconsistentPoset,
    InfeasiblePattern,
    InvalidInterval,
    ValidationError,
)
from moltendt.geometry import (
    Arrow,
    PeriodicQuiver,
    _parse_quiver,
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


def make_slope_by_grid(diagram, interval=None, corner=None):
    """The former ``make_slope``: sort the whole candidate square, then scan."""

    if interval is not None:
        negative = set(interval)
        constraints = [
            (side.l, -1 if side.name in negative else 1) for side in diagram.sides
        ]
    else:
        n = len(diagram.corners)
        constraints = [
            (diagram.sides[(corner - 1) % n].l, 1),
            (diagram.sides[corner].l, 1),
        ]
    radius = 2 * max(max(abs(l[0]), abs(l[1])) for l, _ in constraints) ** 2 + 2
    candidates = sorted(
        (
            (x, y)
            for x in range(-radius, radius + 1)
            for y in range(-radius, radius + 1)
            if (x, y) != (0, 0)
        ),
        key=lambda s: (s[0] * s[0] + s[1] * s[1], s),
    )
    for s in candidates:
        slope = Slope(s, (-s[1], s[0]))
        if all(slope.sign(l) == want for l, want in constraints):
            return slope
    return None


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

    @pytest.mark.parametrize("name", builtin_names())
    def test_disc_scan_matches_grid_scan(self, name):
        # every contiguous run, the whole ring included, and every corner
        q, grading, d = setting(name)
        names = [side.name for side in d.sides]
        n = len(names)
        asks = [{"corner": k} for k in range(len(d.corners))]
        asks += [
            {"interval": tuple(names[(start + k) % n] for k in range(length))}
            for start in range(n)
            for length in range(1, n + 1)
        ]
        for ask in asks:
            want = make_slope_by_grid(d, **ask)
            if want is None:
                with pytest.raises(InfeasiblePattern):
                    make_slope(d, **ask)
            else:
                assert make_slope(d, **ask) == want, ask

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

    @pytest.mark.parametrize("text", ["z0..z1", "z0"])
    def test_interval_is_not_a_string(self, text):
        # a string was read one character at a time: "'z' is not a side"
        q, grading, d = setting("spp")
        with pytest.raises(InvalidInterval, match="is a string.*parse_interval"):
            make_slope(d, interval=text)

    # 5 raised TypeError, b"z0" said "122 is not a side", and a dict was
    # read as its keys
    @pytest.mark.parametrize("interval", [5, b"z0", {"z0": 1}])
    def test_interval_is_a_list_or_tuple(self, interval):
        q, grading, d = setting("spp")
        with pytest.raises(InvalidInterval, match="is not a list or tuple of side names$"):
            make_slope(d, interval=interval)

    def test_interval_list_or_tuple(self):
        q, grading, d = setting("spp")
        assert make_slope(d, interval=["z0"]) == make_slope(d, interval=("z0",))

    def test_parse_interval(self):
        q, grading, d = setting("spp")
        assert parse_interval(d, "z3..z1") == ("z3", "z0", "z1")
        assert parse_interval(d, "z2..z2") == ("z2",)
        with pytest.raises(InvalidInterval):
            parse_interval(d, "z0")

    def test_parse_interval_unknown_side(self):
        q, grading, d = setting("spp")
        with pytest.raises(InvalidInterval, match="names an unknown side"):
            parse_interval(d, "z0..z9")

    @pytest.mark.parametrize(
        "ask", [{}, {"interval": ("z0",), "corner": 0}], ids=["neither", "both"]
    )
    def test_interval_or_corner(self, ask):
        q, grading, d = setting("spp")
        with pytest.raises(ValidationError, match="exactly one of interval or corner"):
            make_slope(d, **ask)

    @pytest.mark.parametrize("corner", [-1, 4])
    def test_corner_out_of_range(self, corner):
        q, grading, d = setting("spp")
        with pytest.raises(ValidationError, match=f"corner index {corner} out of range 0..3"):
            make_slope(d, corner=corner)

    @pytest.mark.parametrize("text", [None, 3, ("z0", "z1"), b"z0..z1"])
    def test_parse_interval_needs_text(self, text):
        # these raised TypeError or AttributeError
        q, grading, d = setting("spp")
        with pytest.raises(InvalidInterval, match="is not a string"):
            parse_interval(d, text)


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
        # together with its negation.  Bound 1 counts the root alone; from
        # bound 2 on, the root's own loop counts the last level
        q, grading, d = setting(name)
        for fr in framings(q, d):
            if fr.kind == "d6":
                s, top = make_slope(d, corner=0), 6
            else:
                s, top = make_slope(d, corner=fr.corner), 8
            for bound in (0, 1, 2, 3, top):
                crystals = reference_crystals(q, grading, fr, bound)
                for slope in (s, s.negated()):
                    got = framed_partition_function(q, grading, fr, slope, bound)
                    want = reference_z(q, grading, fr, slope, crystals, bound)
                    assert series_to_json(got) == series_to_json(want)

    def test_every_seed_of_every_d4_corner(self):
        # the companion arrow starts at the seed's target, so each valid
        # seed of a corner is a framing of its own: the walk must match the
        # census at every one, not only at the default seed min(valid)
        seen = 0
        for name in builtin_names():
            q, grading, d = setting(name)
            for k in range(len(d.corners)):
                s = make_slope(d, corner=k)
                for seed in sorted(valid_seed_arrows(d, k)):
                    fr = framing_d4(q, d, k, seed)
                    seen += 1
                    crystals = reference_crystals(q, grading, fr, 8)
                    for bound in range(9):
                        below = [c for c in crystals if c.size <= bound]
                        for slope in (s, s.negated()):
                            got = framed_partition_function(q, grading, fr, slope, bound)
                            want = reference_z(q, grading, fr, slope, below, bound)
                            assert series_to_json(got) == series_to_json(want), (
                                name, k, seed, bound, slope,
                            )
        assert seen == 58

    def test_c3_deep_matches_census(self):
        # at bound 10 the walk holds up to nine atoms while it counts a
        # newly addable one, each paired with every held atom
        q, grading, d = setting("c3")
        fr, s = framing_d6(q, 0), make_slope(d, corner=0)
        crystals = reference_crystals(q, grading, fr, 10)
        assert max(len(c.atoms) for c in crystals) == 10
        for slope in (s, s.negated()):
            got = framed_partition_function(q, grading, fr, slope, 10)
            want = reference_z(q, grading, fr, slope, crystals, 10)
            assert series_to_json(got) == series_to_json(want)

    def test_orbifold_matches_census(self):
        # C3 / Z3 x Z3: nine colours, so most pairs the walk sums join atoms
        # of two colours, by arrows one way or by none
        q = _parse_quiver(orbifold_quiver(3))
        grading, d = reference_grading(q), toric_diagram(q)
        assert len(q.nodes) == 9
        for fr in framings(q, d):
            s = make_slope(d, corner=0 if fr.kind == "d6" else fr.corner)
            crystals = reference_crystals(q, grading, fr, 5)
            for slope in (s, s.negated()):
                got = framed_partition_function(q, grading, fr, slope, 5)
                want = reference_z(q, grading, fr, slope, crystals, 5)
                assert series_to_json(got) == series_to_json(want)

    def test_c3_deep_counts_plane_partitions(self):
        # at v = 1, Z of C3 framed at its node counts plane partitions:
        # n M(n) = sum over k of sigma_2(k) M(n - k), MacMahon's recursion
        bound = 11
        macmahon = [1]
        for size in range(1, bound + 1):
            total = sum(
                sum(j * j for j in range(1, k + 1) if k % j == 0) * macmahon[size - k]
                for k in range(1, size + 1)
            )
            macmahon.append(total // size)
        q, grading, d = setting("c3")
        s = make_slope(d, corner=0)
        for slope in (s, s.negated()):
            z = framed_partition_function(q, grading, framing_d6(q, 0), slope, bound)
            got = [sum(z.coeff((k,)).laurent_dict().values()) for k in range(bound + 1)]
            assert got == macmahon

    @pytest.fixture(scope="class")
    def small(self):
        out = {}
        for name in ("conifold", "spp", "local-p2", "pdp3a"):
            q, grading, d = setting(name)
            out[name] = [
                (q, grading, fr, reference_crystals(q, grading, fr, 5))
                for fr in framings(q, d)
            ]
        return out

    @settings(max_examples=40, deadline=None)
    @given(
        name=st.sampled_from(["conifold", "spp", "local-p2", "pdp3a"]),
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


class TestWalkOutput:
    @pytest.mark.parametrize("name", builtin_names())
    def test_z_is_canonical(self, name):
        # the walk builds Z without the constructor's checks: rebuilding it
        # through them must change nothing, not even the term order
        q, grading, d = setting(name)
        s = make_slope(d, corner=0)
        for fr in framings(q, d):
            z = framed_partition_function(q, grading, fr, s, 6)
            again = QSeries(z.bound, z.twist, dict(z.terms))
            assert z == again
            assert list(z.terms) == list(again.terms)

    def test_bound_zero_is_the_empty_crystal(self):
        q, grading, d, s = nil_slope("c3", ("z1",))
        z = framed_partition_function(q, grading, framing_d6(q, 0), s, 0)
        assert z == QSeries.unit(0, z.twist)

    def test_walk_leaves_no_cycle_behind(self):
        # pdp3a has many colours, so many pair rows and arrow lists
        for name, kind, at, bound in [
            ("c3", "d6", 0, 8),
            ("pdp3a", "d6", 0, 6),
            ("pdp3a", "d4", 0, 10),
        ]:
            q, grading, d = setting(name)
            if kind == "d6":
                fr, s = framing_d6(q, q.nodes[at]), make_slope(d, corner=0)
            else:
                fr, s = framing_d4(q, d, at), make_slope(d, corner=at)
            gc.collect()
            gc.disable()
            try:
                framed_partition_function(q, grading, fr, s, bound)
                assert gc.collect() == 0, (name, kind, at)
            finally:
                gc.enable()


class TestIntegerArguments:
    # each was an untyped error, a truncation or a bool read as 1; a
    # ValidationError names the stage and the value before any work is done

    @pytest.mark.parametrize("bound", [-1, 2.5, "3", True])
    def test_walk_bound(self, bound):
        q, grading, d, s = nil_slope("c3", ("z1",))
        with pytest.raises(ValidationError, match="^build_erc: max_atoms") as err:
            framed_partition_function(q, grading, framing_d6(q, 0), s, bound)
        assert err.value.exit_code == 1
        assert repr(bound) in str(err.value)

    @pytest.mark.parametrize("corner", [1.5, True])
    def test_make_slope_corner(self, corner):
        _, _, d = setting("conifold")
        with pytest.raises(ValidationError, match="^make_slope: corner must be an int"):
            make_slope(d, corner=corner)

    @pytest.mark.parametrize("corner", [1.5, True])
    def test_framing_d4_corner(self, corner):
        q, _, d = setting("conifold")
        with pytest.raises(ValidationError, match="^framing_d4: corner must be an int"):
            framing_d4(q, d, corner)

    @pytest.mark.parametrize("node", [True, 1.0, 3])
    def test_framing_d6_node(self, node):
        # conifold's nodes are 1 and 2, and True == 1.0 == 1
        q, _, _ = setting("conifold")
        with pytest.raises(ValidationError, match="^framing_d6: node") as err:
            framing_d6(q, node)
        assert err.value.exit_code == 1
        assert repr(node) in str(err.value)

    @pytest.mark.parametrize("max_atoms", [-1, 2.5, "3", True])
    def test_enumerate_crystals_max_atoms(self, max_atoms):
        q, grading, _ = setting("conifold")
        erc = build_erc(q, grading, framing_d6(q, 1), 3)
        with pytest.raises(
            ValidationError, match="^enumerate_crystals: max_atoms"
        ) as err:
            enumerate_crystals(erc, max_atoms)
        assert err.value.exit_code == 1
        assert repr(max_atoms) in str(err.value)

    @pytest.mark.parametrize(
        "s, sp",
        [((1, 0, 5), (0, 1)), ("ab", (0, 1)), ((1.0, 0), (0, 1)), ((1, 0), (0, 1.5))],
    )
    def test_slope_vectors(self, s, sp):
        with pytest.raises(ValidationError, match="^Slope: "):
            Slope(s, sp)


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
        grading = {a.id: 0 for a in q.arrows}
        with pytest.raises(InconsistentPoset, match="build_erc") as err:
            build_erc(q, grading, framing_d6(q, 0), 6)
        assert err.value.exit_code == 2

    def test_enumeration_rejects_non_ideal(self):
        q = load_geometry("c3")
        erc = ShiftingErc(q, {atom(0): [atom(1)], atom(1): [], atom(2): []}, 4)
        with pytest.raises(InconsistentPoset, match="enumerate_crystals") as err:
            enumerate_crystals(erc, 2)
        assert err.value.exit_code == 2


class TestGradingAndFraming:
    """``build_erc`` checks the grading and framing it is given; with either
    wrong it returned a wrong Z and raised nothing."""

    def test_unequal_term_totals(self):
        # every arrow graded 1: spp's cubic and quartic terms total 3 and 4,
        # and Z came out with 26 terms where the reference grading gives 22
        q, grading, d = setting("spp")
        ones = {a.id: 1 for a in q.arrows}
        with pytest.raises(ValidationError, match=r"total \[3, 4\] in the grading") as err:
            framed_partition_function(q, ones, framing_d6(q, 1), make_slope(d, corner=0), 5)
        assert err.value.exit_code == 1

    def test_grading_misses_an_arrow(self):
        # a bare KeyError before
        q, grading, _ = setting("spp")
        del grading[q.arrows[0].id]
        with pytest.raises(ValidationError, match=rf"no int to arrows \[{q.arrows[0].id!r}\]"):
            build_erc(q, grading, framing_d6(q, 1), 3)

    def test_grading_is_not_a_mapping(self):
        # a TypeError before
        q, grading, _ = setting("spp")
        with pytest.raises(ValidationError, match="is not a mapping"):
            build_erc(q, list(grading.values()), framing_d6(q, 1), 3)

    @pytest.mark.parametrize("name", ["c3", "spp", "local-p2"])
    def test_every_equal_total_grading_gives_one_z(self, name):
        # a grading by another cut, or the reference grading doubled, puts
        # the same total on every term and names the same atoms
        q, grading, d = setting(name)
        by_cut = {a.id: int(a.id in q.cuts[1].arrows) for a in q.arrows}
        doubled = {k: 2 * g for k, g in grading.items()}
        fr, s = framing_d6(q, q.nodes[0]), make_slope(d, corner=0)
        z = framed_partition_function(q, grading, fr, s, 5)
        for other in (by_cut, doubled):
            assert framed_partition_function(q, other, fr, s, 5) == z

    def test_framing_of_another_quiver(self):
        # C3's framing on local P2: no allowed arrow is local P2's, and Z
        # came out as 1 + x^(1,0,0)
        q, grading, d = setting("local-p2")
        fr = framing_d6(load_geometry("c3"), 0)
        with pytest.raises(ValidationError, match=r"allows non-arrows \['a', 'b', 'c'\]"):
            framed_partition_function(q, grading, fr, make_slope(d, corner=0), 4)

    def test_framing_is_not_a_framing(self):
        # an AttributeError: 'str' object has no attribute 'node'
        q, grading, _ = setting("c3")
        with pytest.raises(ValidationError, match="^build_erc: framing 'd6:0' is not a Framing"):
            build_erc(q, grading, "d6:0", 3)

    @pytest.mark.parametrize("slope", [None, ((1, 0), (0, 1))])
    def test_slope_is_not_a_slope(self, slope):
        # an AttributeError: ... has no attribute 's'
        q, grading, _ = setting("c3")
        with pytest.raises(
            ValidationError, match="^framed_partition_function: slope .* is not a Slope"
        ) as err:
            framed_partition_function(q, grading, framing_d6(q, 0), slope, 3)
        assert repr(slope) in str(err.value)

    def test_framing_node_of_another_quiver(self):
        q, grading, _ = setting("conifold")
        fr = framing_d6(load_geometry("c3"), 0)
        fr = dataclasses.replace(fr, allowed=frozenset(a.id for a in q.arrows))
        with pytest.raises(ValidationError, match="framing node 0 not in the quiver"):
            build_erc(q, grading, fr, 3)


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
