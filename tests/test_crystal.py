"""Atom posets and molten-crystal enumeration.

Count oracles are independent of the module under test: the three-loop
geometry's D6 counts are the 3d partition numbers and its D4 counts the
ordinary partition numbers, both extracted here from their product
generating functions by plain integer convolution.
"""

import itertools
from fractions import Fraction

import pytest

from bench.workloads import orbifold_quiver
from moltendt.crystal import (
    Crystal,
    Framing,
    build_erc,
    enumerate_crystals,
    framing_d4,
    framing_d6,
    parse_framing,
)
from moltendt.errors import BoundTooSmall, InvalidSeedArrow, ValidationError
from moltendt.geometry import (
    _parse_quiver as quiver,
    builtin_names,
    load_geometry,
    reference_grading,
    tiling_to_quiver,
)
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


def setup(name, max_atoms, framing_spec="d6:first"):
    q = load_geometry(name)
    grading = reference_grading(q)
    if framing_spec == "d6:first":
        fr = framing_d6(q, q.nodes[0])
    else:
        fr = parse_framing(q, framing_spec)
    return q, grading, build_erc(q, grading, fr, max_atoms)


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
        # every arrow between built atoms is listed and raises the grade by
        # its cut count; an arrow out of the build lands above the top
        # grade, or the sweep stopped short
        beyond = 0
        for name in ["c3", "conifold", "spp", "pdp3a", "local-p2"]:
            q, grading, erc = setup(name, 5)
            weight = {a.id: sum(a.id in c.arrows for c in q.cuts) for a in q.arrows}
            top = max(weight.values()) * 4
            built = set(erc.atoms())
            for atom in built:
                node, (tx, ty), n = atom
                want = []
                for a in q.arrows:
                    if a.src != node:
                        continue
                    (dx, dy), m = a.disp, grading[a.id]
                    b = (a.tgt, (tx + dx, ty + dy), n + m)
                    g = erc.grade(atom) + weight[a.id]
                    if b in built:
                        want.append(b)
                        assert erc.grade(b) == g
                    else:
                        assert g > top
                        beyond += 1
                assert list(erc.successors(atom)) == want
        assert beyond

    def test_atoms_listed_by_grade(self):
        # grade order lists every predecessor before its successors
        for name in builtin_names():
            q, grading, erc = setup(name, 6)
            atoms = erc.atoms()
            grades = [erc.grade(a) for a in atoms]
            assert grades == sorted(grades)
            rank = {a: r for r, a in enumerate(atoms)}
            for a in atoms:
                assert all(rank[p] < rank[a] for p in erc.predecessors(a))

    def test_conifold_layers_alternate_colors(self):
        q, grading, erc = setup("conifold", 6)
        layers = {}
        for a in erc.atoms():
            layers.setdefault(erc.grade(a), set()).add(a)
        assert layers[0] == {erc.root}
        for grade, atoms in layers.items():
            colors = {a[0] for a in atoms}
            assert colors == {q.nodes[grade % 2]}

    def test_pyramid_slices_nested(self):
        # the fixed-depth slices of the D6 pyramid grow outward: inside a
        # window well below the top grade, slice(n) is contained in
        # slice(n+1) as (color, translation) sets
        for name in ["c3", "conifold"]:
            q, grading, erc = setup(name, 17)
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

    @pytest.mark.parametrize("source", builtin_names() + (3, 4))
    def test_cut_weight_counts_cuts(self, source):
        # an int source n stands for the orbifold C^3 / Z_n x Z_n; n = 4
        # counts 139 of 417 cuts an arrow, eight bit planes
        q = quiver(orbifold_quiver(source)) if isinstance(source, int) else load_geometry(source)
        assert q.cut_weight == {
            a.id: sum(a.id in cut.arrows for cut in q.cuts) for a in q.arrows
        }

    def test_arrow_in_no_cut_is_rejected(self):
        # r repeats inside its positive term, so no cut holds it
        q = quiver({
            "nodes": [0],
            "arrows": [
                {"id": aid, "src": 0, "tgt": 0, "disp": d}
                for aid, d in [("a", [1, 0]), ("b", [-1, 0]), ("c", [0, 1]),
                               ("d", [0, -1]), ("r", [0, 0])]
            ],
            "potential": [
                {"sign": 1, "cycle": ["a", "b", "r", "r"]},
                {"sign": 1, "cycle": ["c", "d"]},
                {"sign": -1, "cycle": ["r", "c", "d"]},
                {"sign": -1, "cycle": ["a", "b"]},
            ],
        })
        assert q.cut_weight == {"a": 2, "b": 2, "c": 2, "d": 2, "r": 0}
        with pytest.raises(ValidationError, match="arrow 'r' lies in no cut"):
            build_erc(q, reference_grading(q), framing_d6(q, 0), 3)


def check_whole_predecessors(q, fr, b):
    """A build for b atoms agrees with one for 2b on everything it holds."""

    grading = reference_grading(q)
    small = build_erc(q, grading, fr, b)
    large = build_erc(q, grading, fr, 2 * b)
    for a in small.atoms():
        assert sorted(small.predecessors(a)) == sorted(large.predecessors(a)), a
    assert enumerate_crystals(small, b) == enumerate_crystals(large, b)


def reference_erc(q, grading, framing, max_atoms):
    """(grades, successors, predecessors) of every atom ``build_erc`` must
    return, as dicts keyed by atom, by a sweep that numbers nothing: the
    layers of each grade are visited in order, and an atom's links are
    listed in the order the sweep finds them."""

    steps = {}
    for a in q.arrows:
        if a.id in framing.allowed:
            w = q.cut_weight[a.id]
            steps.setdefault(a.src, []).append((a.tgt, a.disp, grading[a.id], w))
    top = max((w for ss in steps.values() for *_, w in ss), default=0) * (max_atoms - 1)
    root = (framing.node, (0, 0), 0)
    grades = {root: 0}
    succs = {}
    preds = {root: []}
    layers = [[root]] + [[] for _ in range(top)]
    for g, layer in enumerate(layers):
        for atom in layer:
            node, (tx, ty), n = atom
            out = []
            for tgt, (dx, dy), m, w in steps.get(node, ()):
                nxt = (tgt, (tx + dx, ty + dy), n + m)
                if nxt not in grades:
                    if g + w > top:
                        continue
                    grades[nxt] = g + w
                    layers[g + w].append(nxt)
                assert grades[nxt] == g + w
                out.append(nxt)
                preds.setdefault(nxt, []).append(atom)
            succs[atom] = tuple(out)
    return grades, succs, {atom: tuple(ps) for atom, ps in preds.items()}


def check_against_reference(q, fr, b):
    grading = reference_grading(q)
    erc = build_erc(q, grading, fr, b)
    grades, succs, preds = reference_erc(q, grading, fr, b)
    assert erc.atoms() == sorted(grades, key=lambda a: (grades[a], erc.sort_key(a)))
    for a in grades:
        assert erc.grade(a) == grades[a]
        assert erc.successors(a) == succs[a]
        assert erc.predecessors(a) == preds[a]


class TestReferenceSweep:
    # the numbered lists must give back, through the atom views, exactly
    # the dicts and the orders of a sweep keyed by atom
    @pytest.mark.parametrize("source", builtin_names() + (3,))
    def test_every_framing(self, source):
        # an int source n stands for the orbifold C^3 / Z_n x Z_n
        q = quiver(orbifold_quiver(source)) if isinstance(source, int) else load_geometry(source)
        d = toric_diagram(q)
        for v in q.nodes:
            check_against_reference(q, framing_d6(q, v), 7)
        for k in range(len(d.corners)):
            check_against_reference(q, framing_d4(q, d, k), 7)


class TestWholePredecessors:
    @pytest.mark.parametrize("name", builtin_names())
    def test_every_framing(self, name):
        q = load_geometry(name)
        d = toric_diagram(q)
        for v in q.nodes:
            check_whole_predecessors(q, framing_d6(q, v), 8)
        for k in range(len(d.corners)):
            check_whole_predecessors(q, framing_d4(q, d, k), 10)

    @pytest.mark.parametrize("node", [2, 3])
    def test_spp_d6(self, node):
        # arrow steps from the root misjudge what a bound needs here: at
        # node 2, atom (1, (6, 1), 0) lies 8 steps out and its predecessor
        # (2, (7, 0), 0) lies 14 steps out
        q = load_geometry("spp")
        check_whole_predecessors(q, framing_d6(q, node), 8)


class TestD4:
    def test_c3_quadrant(self):
        q = load_geometry("c3")
        grading = reference_grading(q)
        fr = framing_d4(q, toric_diagram(q), 0)
        assert fr.seed == "c"
        assert fr.allowed == frozenset({"a", "b"})
        # partitions of at most 8 boxes reach the cells with x + y <= 7
        erc = build_erc(q, grading, fr, 8)
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

    # a diagram of another quiver raised a bare KeyError ('b2', 'c'); a
    # diagram of a fresh copy of the quiver holds equal cuts and is taken
    @pytest.mark.parametrize("name, other", [("c3", "conifold"), ("conifold", "c3")])
    def test_diagram_of_another_quiver(self, name, other):
        q = load_geometry(name)
        with pytest.raises(
            ValidationError, match="^framing_d4: the diagram's cuts are not those of the quiver$"
        ):
            framing_d4(q, toric_diagram(load_geometry(other)), 0)
        assert framing_d4(q, toric_diagram(load_geometry(name)), 0) == framing_d4(
            q, toric_diagram(q), 0
        )

    # the framing node, None, joins the quiver by the framing arrow into the
    # framed node and, for D4, by the companion arrow from the seed's
    # target, of displacement -seed.disp
    @pytest.mark.parametrize(
        "name, d6, d4",
        [
            (
                "c3",
                {0: ((None, 0, (0, 0)),)},
                {
                    (0, "c"): ((None, 0, (0, 0)), (0, None, (1, 1))),
                    (1, "b"): ((None, 0, (0, 0)), (0, None, (0, -1))),
                    (2, "a"): ((None, 0, (0, 0)), (0, None, (-1, 0))),
                },
            ),
            (
                "conifold",
                {1: ((None, 1, (0, 0)),), 2: ((None, 2, (0, 0)),)},
                {
                    (0, "b2"): ((None, 2, (0, 0)), (1, None, (1, 1))),
                    (1, "a2"): ((None, 1, (0, 0)), (2, None, (0, -1))),
                    (2, "b1"): ((None, 2, (0, 0)), (1, None, (0, 0))),
                    (3, "a1"): ((None, 1, (0, 0)), (2, None, (-1, 0))),
                },
            ),
        ],
    )
    def test_framing_arrows(self, name, d6, d4):
        q = load_geometry(name)
        d = toric_diagram(q)
        assert {v: framing_d6(q, v).arrows for v in q.nodes} == d6
        got = {}
        for k in range(len(d.corners)):
            fr = framing_d4(q, d, k)
            got[k, fr.seed] = fr.arrows
        assert got == d4

    def test_framing_needs_arrows(self):
        # without its arrows a framing used to fail only inside the walk,
        # with KeyError: None
        with pytest.raises(TypeError, match="arrows"):
            Framing("d4", 0, frozenset({"a", "b"}), corner=0, seed="c")

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

    def test_parse_framing_names_a_tiling_face(self):
        # a quiver converted from a tiling names its nodes f0, f1, ...
        q = tiling_to_quiver({
            "nodes": [
                {"id": "w", "color": "white", "pos": [0, 0]},
                {"id": "b", "color": "black", "pos": [Fraction(1, 2), Fraction(1, 2)]},
            ],
            "edges": [
                {"white": "w", "black": "b", "shift": s}
                for s in ([0, 0], [-1, 0], [0, -1], [-1, -1])
            ],
        })
        assert q.nodes == ("f0", "f1")
        assert parse_framing(q, "d6:f0") == framing_d6(q, "f0")
        assert parse_framing(q, "d6:f1").node == "f1"

    # int() read a space, a sign, an underscore and non-ASCII digits, and
    # text that is not a string raised AttributeError
    @pytest.mark.parametrize(
        "text, match",
        [
            ("d6: 1", "framing node ' 1' is not a quiver node"),
            ("d6:+1", "framing node '\\+1' is not a quiver node"),
            ("d6:\u0661", "is not a quiver node"),
            ("d4:0_0", "corner index '0_0' is not an integer"),
            ("d4: 0", "corner index ' 0' is not an integer"),
            ("d4:\u0660", "is not an integer"),
            ("d4:-1", "corner index -1 out of range"),
            (6, "framing 6 is not a string"),
            (b"d6:1", "is not a string"),
        ],
    )
    def test_parse_framing_is_strict(self, text, match):
        q = load_geometry("conifold")
        assert parse_framing(q, "d6:1").node == 1
        with pytest.raises(ValidationError, match=match):
            parse_framing(q, text)


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
        near = [a for a in erc.atoms() if erc.grade(a) <= 3]
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
