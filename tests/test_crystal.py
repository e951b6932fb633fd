"""Atom posets and molten-crystal enumeration.

Count oracles are independent of the module under test: the three-loop
geometry's D6 counts are the 3d partition numbers and its D4 counts the
ordinary partition numbers, both extracted here from their product
generating functions by plain integer convolution.
"""

import itertools

import pytest

from moltendt.crystal import (
    Crystal,
    build_erc,
    enumerate_crystals,
    framing_d4,
    framing_d6,
    parse_framing,
)
from moltendt.errors import BoundTooSmall, InvalidSeedArrow, ValidationError
from moltendt.geometry import load_geometry, reference_grading
from moltendt.matchings import toric_diagram


def series_counts(exponent_of, nmax):
    """Coefficients of prod_k (1-q^k)^(-e_k) up to q^nmax."""

    coeffs = [1] + [0] * nmax
    for k in range(1, nmax + 1):
        for _ in range(exponent_of(k)):
            # multiply by 1/(1-q^k): running prefix sums with stride k
            for n in range(k, nmax + 1):
                coeffs[n] += coeffs[n - k]
    return coeffs


def test_count_oracles_self_check():
    assert series_counts(lambda k: 1, 6) == [1, 1, 2, 3, 5, 7, 11]
    assert series_counts(lambda k: k, 4) == [1, 1, 3, 6, 13]


def setup(name, radius, framing_spec="d6:first"):
    q = load_geometry(name)
    grading = reference_grading(q)
    if framing_spec == "d6:first":
        fr = framing_d6(q, q.nodes[0])
    else:
        fr = parse_framing(q, framing_spec)
    return q, grading, build_erc(q, grading, fr, radius)


class TestErc:
    def test_c3_root_successors(self):
        q, grading, erc = setup("c3", 4)
        root = (0, (0, 0), 0)
        assert erc.root == root
        assert set(erc.successors(root)) == {
            (0, (1, 0), 0),
            (0, (0, 1), 0),
            (0, (-1, -1), 1),
        }

    def test_c3_atoms_shifted_quadrant(self):
        q, grading, erc = setup("c3", 9)
        for node, (x, y), n in erc.atoms():
            assert node == 0 and x >= -n and y >= -n

    def test_predecessors_inverse_of_successors(self):
        for name in ["c3", "conifold", "spp"]:
            q, grading, erc = setup(name, 5)
            for a in erc.atoms():
                for b in erc.successors(a):
                    assert a in erc.predecessors(b)
                for b in erc.predecessors(a):
                    assert a in erc.successors(b)

    def test_successors_are_every_built_step(self):
        # the outermost layer adds no atoms, but its arrows into atoms
        # already built must be listed, or those atoms lose predecessors
        outer = 0
        for name in ["c3", "conifold", "spp", "pdp3a", "local-p2"]:
            q, grading, erc = setup(name, 5)
            built = set(erc.atoms())
            for atom in built:
                node, (tx, ty), n = atom
                steps = [
                    (a.tgt, (tx + a.disp[0], ty + a.disp[1]), n + grading.count[a.id])
                    for a in q.arrows
                    if a.src == node
                ]
                want = [b for b in steps if b in built]
                assert list(erc.successors(atom)) == want
                if erc.distance(atom) == erc.radius:
                    outer += len(want)
        assert outer

    def test_conifold_layers_alternate_colors(self):
        q, grading, erc = setup("conifold", 6)
        layers = {}
        for a in erc.atoms():
            layers.setdefault(erc.distance(a), set()).add(a)
        assert layers[0] == {erc.root}
        for dist, atoms in layers.items():
            colors = {a[0] for a in atoms}
            assert colors == {q.nodes[dist % 2]}

    def test_pyramid_slices_nested(self):
        # the fixed-depth slices of the D6 pyramid grow outward: inside a
        # window well within the build radius, slice(n) is contained in
        # slice(n+1) as (color, translation) sets
        for name in ["c3", "conifold"]:
            q, grading, erc = setup(name, 16)
            slices = {}
            for node, t, n in erc.atoms():
                slices.setdefault(n, set()).add((node, t))
            for n in (0, 1):
                window = {
                    (node, t)
                    for node, t in slices[n]
                    if abs(t[0]) <= 2 and abs(t[1]) <= 2
                }
                assert window and window <= slices[n + 1]


class TestD4:
    def test_c3_quadrant(self):
        q = load_geometry("c3")
        grading = reference_grading(q)
        fr = framing_d4(q, toric_diagram(q), 0)
        assert fr.seed == "c"
        assert fr.allowed == frozenset({"a", "b"})
        erc = build_erc(q, grading, fr, 7)
        assert {(x, y) for _, (x, y), _ in erc.atoms()} == {
            (x, y) for x in range(8) for y in range(8) if x + y <= 7
        }
        assert {n for _, _, n in erc.atoms()} == {0}

    def test_seed_validation(self):
        q = load_geometry("c3")
        d = toric_diagram(q)
        with pytest.raises(InvalidSeedArrow):
            framing_d4(q, d, 0, seed="a")
        with pytest.raises(InvalidSeedArrow):
            framing_d4(q, d, 0, seed="nope")
        with pytest.raises(ValidationError):
            framing_d4(q, d, 9)

    def test_conifold_default_seed_per_corner(self):
        q = load_geometry("conifold")
        d = toric_diagram(q)
        # each conifold cut is a single arrow, always a valid seed
        for k, corner in enumerate(d.corners):
            fr = framing_d4(q, d, k)
            (cut_arrow,) = d.points[corner][0].arrows
            assert fr.seed == cut_arrow
            assert cut_arrow not in fr.allowed

    def test_parse_framing(self):
        q = load_geometry("conifold")
        fr = parse_framing(q, "d6:2")
        assert fr.kind == "d6" and fr.node == 2
        fr = parse_framing(q, "d4:0")
        assert fr.kind == "d4" and fr.corner == 0
        fr2 = parse_framing(q, f"d4:0:{fr.seed}")
        assert fr2 == fr
        with pytest.raises(ValidationError):
            parse_framing(q, "d5:0")
        with pytest.raises(ValidationError):
            parse_framing(q, "d6:77")


class TestEnumeration:
    def test_c3_d6_counts_match_3d_partitions(self):
        q, grading, erc = setup("c3", 8)
        crystals = enumerate_crystals(erc, 6)
        by_size = [0] * 7
        for c in crystals:
            by_size[c.size] += 1
        assert by_size == series_counts(lambda k: k, 6)

    def test_c3_d4_counts_match_partitions(self):
        q, grading, erc = setup("c3", 7, "d4:0")
        crystals = enumerate_crystals(erc, 5)
        by_size = [0] * 6
        for c in crystals:
            by_size[c.size] += 1
        assert by_size == series_counts(lambda k: 1, 5)

    def test_single_atom_bound(self):
        for name in ["c3", "conifold", "spp", "pdp3a", "local-p2"]:
            q, grading, erc = setup(name, 3)
            crystals = enumerate_crystals(erc, 1)
            assert [c.size for c in crystals] == [0, 1]
            root_crystal = crystals[1]
            assert root_crystal.atoms == (erc.root,)
            expected = tuple(
                1 if node == q.nodes[0] else 0 for node in q.nodes
            )
            assert root_crystal.d == expected

    def test_ideal_closure_and_dedup(self):
        for name, spec in [("conifold", "d6:first"), ("spp", "d6:first")]:
            q, grading, erc = setup(name, 7, spec)
            crystals = enumerate_crystals(erc, 5)
            seen = set()
            for c in crystals:
                assert c.atoms not in seen
                seen.add(c.atoms)
                atomset = set(c.atoms)
                for a in atomset:
                    assert set(erc.predecessors(a)) <= atomset
                assert sum(c.d) == c.size == len(c.atoms)

    def test_union_intersection_of_ideals(self):
        q, grading, erc = setup("conifold", 6)
        crystals = enumerate_crystals(erc, 4)
        idealset = {frozenset(c.atoms) for c in crystals}
        small = [s for s in idealset if len(s) <= 3]
        for s1, s2 in itertools.product(small, repeat=2):
            if len(s1 | s2) <= 4:
                assert s1 | s2 in idealset
            assert s1 & s2 in idealset

    def test_deterministic_order(self):
        q, grading, erc = setup("spp", 6)
        crystals = enumerate_crystals(erc, 4)
        again = enumerate_crystals(erc, 4)
        assert crystals == again
        sizes = [c.size for c in crystals]
        assert sizes == sorted(sizes)
        for size, group in itertools.groupby(crystals, key=lambda c: c.size):
            keys = [c.atoms for c in group]
            assert keys == sorted(keys)

    def test_brute_force_subsets_agree(self):
        # second, dumber oracle: filter every subset of the near atoms
        q, grading, erc = setup("c3", 8)
        near = [a for a in erc.atoms() if erc.distance(a) <= 3]
        valid = set()
        for r in range(5):
            for combo in itertools.combinations(near, r):
                s = set(combo)
                if all(set(erc.predecessors(a)) <= s for a in s):
                    valid.add(frozenset(s))
        crystals = enumerate_crystals(erc, 4)
        assert {frozenset(c.atoms) for c in crystals} == valid

    def test_bound_too_small(self):
        q, grading, erc = setup("c3", 3)
        with pytest.raises(BoundTooSmall):
            enumerate_crystals(erc, 4)

    def test_grouping_by_dimension(self):
        q, grading, erc = setup("conifold", 6)
        crystals = enumerate_crystals(erc, 4)
        groups = {}
        for c in crystals:
            groups[c.d] = groups.get(c.d, 0) + 1
        assert groups[(0, 0)] == 1
        assert groups[(1, 0)] == 1
        # two depth-1 atoms hang below the conifold root
        assert groups[(1, 2)] == 1
