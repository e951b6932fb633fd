"""Cut enumeration, toric diagrams, and zig-zag strip data.

Cut lists are cross-checked against two other searches: an exhaustive
combination search for the cut sets, and an exact-cover search, which
shares only the homology chains with the matching search, for the ordered
cuts and their points.  The strip fixtures for the six-node orbifold and
the suspended pinch point are frozen arrow-by-arrow; they pin the global
zig/zag orientation convention, so a sign slip anywhere in the diagram
code shows up here.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from bench.workloads import orbifold_quiver
from moltendt.errors import NoCutError, StripCountMismatch
from moltendt.geometry import _parse_quiver as quiver, builtin_names, euler_form, load_geometry
from moltendt.matchings import (
    _shortest_chain,
    perfect_matchings,
    toric_diagram,
    zigzag_analysis,
)


def brute_cuts(q):
    cycles = [c for _, c in q.potential]
    size = len(cycles) // 2
    ids = sorted(a.id for a in q.arrows)
    found = set()
    for combo in itertools.combinations(ids, size):
        s = set(combo)
        if all(sum(1 for x in cyc if x in s) == 1 for cyc in cycles):
            found.add(frozenset(s))
    return found


def exact_cover_cuts(q):
    """Ordered (arrows, point) of every cut, by an exact-cover search that
    covers the open term with the fewest candidate arrows first."""

    cycles = [list(c) for _, c in q.potential]
    nterms = len(cycles)
    # an arrow repeated inside one of its terms can never belong to a cut
    candidates = []
    terms_of = {}
    for a in q.arrows:
        hits = [(t, cyc.count(a.id)) for t, cyc in enumerate(cycles) if a.id in cyc]
        if all(c == 1 for _, c in hits):
            candidates.append(a.id)
            terms_of[a.id] = [t for t, _ in hits]
    pool = [set() for _ in range(nterms)]
    for aid in candidates:
        for t in terms_of[aid]:
            pool[t].add(aid)
    solutions, chosen, covered, removed = [], [], [False] * nterms, set()

    def search():
        open_terms = [t for t in range(nterms) if not covered[t]]
        if not open_terms:
            solutions.append(frozenset(chosen))
            return
        t = min(open_terms, key=lambda t: (len(pool[t] - removed), t))
        for aid in sorted(pool[t] - removed):
            hit = terms_of[aid]
            if any(covered[u] for u in hit):
                continue
            blocked = [
                x
                for x in candidates
                if x not in removed and x != aid and set(terms_of[x]) & set(hit)
            ]
            chosen.append(aid)
            for u in hit:
                covered[u] = True
            removed.add(aid)
            removed.update(blocked)
            search()
            chosen.pop()
            for u in hit:
                covered[u] = False
            removed.discard(aid)
            removed.difference_update(blocked)

    search()
    chains = [_shortest_chain(q, (1, 0)), _shortest_chain(q, (0, 1))]
    out = [
        (s, tuple(sum(sign for aid, sign in c if aid in s) for c in chains))
        for s in solutions
    ]
    return sorted(out, key=lambda c: (c[1], tuple(sorted(c[0]))))


def loops(disps, potential):
    """A one-node quiver of loops with the given displacements."""

    return quiver({
        "nodes": [0],
        "arrows": [
            {"id": aid, "src": 0, "tgt": 0, "disp": d} for aid, d in disps.items()
        ],
        "potential": [{"sign": s, "cycle": c} for s, c in potential],
    })


def analyze(name):
    q = load_geometry(name)
    diagram = toric_diagram(q)
    return q, diagram, zigzag_analysis(q, diagram)


def side_with_cuts(diagram, a, b):
    for side in diagram.sides:
        if {side.start_cut.arrows, side.end_cut.arrows} == {frozenset(a), frozenset(b)}:
            return side
    raise AssertionError("no side with those corner cuts")


class TestCuts:
    def test_c3_cuts_and_points(self):
        q = load_geometry("c3")
        cuts = perfect_matchings(q)
        assert [(c.arrows, c.point) for c in cuts] == [
            (frozenset({"c"}), (0, 0)),
            (frozenset({"b"}), (0, 1)),
            (frozenset({"a"}), (1, 0)),
        ]

    def test_conifold_unit_square(self):
        q = load_geometry("conifold")
        cuts = perfect_matchings(q)
        assert {c.point for c in cuts} == {(0, 0), (1, 0), (0, 1), (1, 1)}
        assert len(cuts) == 4

    @pytest.mark.parametrize(
        "name", ["c3", "conifold", "spp", "c2z2-x-c", "local-p2", "c3-z2z2", "pdp3a"]
    )
    def test_against_exhaustive_search(self, name):
        q = load_geometry(name)
        assert {c.arrows for c in perfect_matchings(q)} == brute_cuts(q)

    @pytest.mark.parametrize("source", builtin_names() + (2, 3, 4))
    def test_against_exact_cover_search(self, source):
        # an int source n stands for the orbifold C^3 / Z_n x Z_n
        q = quiver(orbifold_quiver(source)) if isinstance(source, int) else load_geometry(source)
        expected = exact_cover_cuts(q)
        assert [(c.arrows, c.point) for c in perfect_matchings(q)] == expected
        assert len(expected) == {2: 9, 3: 42, 4: 417}.get(source, len(expected))

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(builtin_names()), st.data())
    def test_arrow_and_term_order_do_not_matter(self, name, data):
        q = load_geometry(name)
        obj = q.to_json_dict()
        obj["arrows"] = data.draw(st.permutations(obj["arrows"]))
        obj["potential"] = data.draw(st.permutations(obj["potential"]))
        for term in obj["potential"]:
            k = data.draw(st.integers(0, len(term["cycle"]) - 1))
            term["cycle"] = term["cycle"][k:] + term["cycle"][:k]
        got = perfect_matchings(quiver(obj))
        assert [(c.arrows, c.point) for c in got] == [
            (c.arrows, c.point) for c in perfect_matchings(q)
        ]

    def test_enumeration_is_deterministic(self):
        q = load_geometry("pdp3a")
        a = perfect_matchings(q)
        b = perfect_matchings(q)
        assert [(c.arrows, c.point) for c in a] == [(c.arrows, c.point) for c in b]

    def test_no_cut(self, tmp_path):
        import json

        obj = {
            "nodes": [0],
            "arrows": [
                {"id": "u", "src": 0, "tgt": 0, "disp": [1, 0]},
                {"id": "w", "src": 0, "tgt": 0, "disp": [-1, 0]},
            ],
            "potential": [
                {"sign": 1, "cycle": ["u", "w", "u", "w"]},
                {"sign": -1, "cycle": ["u", "u", "w", "w"]},
            ],
        }
        p = tmp_path / "g.json"
        p.write_text(json.dumps(obj))
        with pytest.raises(NoCutError):
            perfect_matchings(load_geometry(p))

    def test_no_cut_names_unequal_term_counts(self):
        q = loops(
            {"a": [1, 0], "b": [-1, 0], "c": [0, 1], "d": [0, -1]},
            [(1, ["a", "b", "c", "d"]), (-1, ["a", "b"]), (-1, ["c", "d"])],
        )
        with pytest.raises(NoCutError, match="^perfect_matchings: .*1 positive and 2 negative"):
            perfect_matchings(q)

    def test_no_cut_names_the_term_without_usable_arrow(self):
        # u and w each repeat inside a negative term, so the positive term
        # [u, w] has nothing to give a cut
        q = loops(
            {"u": [1, 0], "w": [-1, 0], "y": [0, 1], "z": [0, -1]},
            [(1, ["u", "w"]), (1, ["y", "z"]), (-1, ["u", "u", "w", "w"]), (-1, ["z", "y"])],
        )
        with pytest.raises(NoCutError, match=r"^perfect_matchings: term \+1 \['u', 'w'\] has no"):
            perfect_matchings(q)

    def test_no_cut_when_no_matching_exists(self):
        # every term has a usable arrow, but the positive terms [a, r, r] and
        # [b, s, s] can only take a and b, which both lie in the negative
        # term [a, b]; the y, z block lets the chains reach (0, 1)
        q = loops(
            {"a": [-2, 0], "b": [2, 0], "c": [-1, 0], "d": [1, 0],
             "r": [1, 0], "s": [-1, 0], "y": [0, 1], "z": [0, -1]},
            [(1, ["a", "r", "r"]), (1, ["b", "s", "s"]), (1, ["c", "d"]), (1, ["y", "z"]),
             (-1, ["a", "b"]), (-1, ["c", "r"]), (-1, ["d", "s"]), (-1, ["z", "y"])],
        )
        assert exact_cover_cuts(q) == []
        with pytest.raises(NoCutError, match="^perfect_matchings: no perfect matching"):
            perfect_matchings(q)


class TestDiagram:
    def test_c3_triangle(self):
        _, d, _ = analyze("c3")
        assert d.corners == ((0, 0), (0, 1), (1, 0))
        assert [s.K for s in d.sides] == [1, 1, 1]
        assert [s.l for s in d.sides] == [(-1, 0), (1, 1), (0, -1)]
        assert d.b == 3
        assert d.i_int == 0
        assert [s.name for s in d.sides] == ["z0", "z1", "z2"]

    def test_pdp3a_counts(self):
        q, d, _ = analyze("pdp3a")
        assert sorted(s.K for s in d.sides) == [1, 2, 3]
        assert d.b == 6
        assert d.i_int == 1
        fam = {
            p: frozenset(a.id for a in q.arrows if a.id.startswith(p))
            for p in ("phi0", "phi1", "phi2")
        }
        k3 = next(s for s in d.sides if s.K == 3)
        assert (k3.start_cut.arrows, k3.end_cut.arrows) == (fam["phi1"], fam["phi2"])
        k2 = next(s for s in d.sides if s.K == 2)
        assert (k2.start_cut.arrows, k2.end_cut.arrows) == (fam["phi2"], fam["phi0"])
        k1 = next(s for s in d.sides if s.K == 1)
        assert (k1.start_cut.arrows, k1.end_cut.arrows) == (fam["phi0"], fam["phi1"])

    def test_spp_counts(self):
        _, d, _ = analyze("spp")
        assert sorted(s.K for s in d.sides) == [1, 1, 1, 2]
        assert d.b == 5
        assert d.i_int == 0
        # the doubled point sits strictly inside the K=2 side
        mult = {p: len(cs) for p, cs in d.points.items()}
        assert sorted(mult.values()) == [1, 1, 1, 1, 2]
        side_with_cuts(d, {"phi11", "phi32"}, {"phi11", "phi23"})

    @pytest.mark.parametrize(
        "name", ["c3", "conifold", "spp", "c2z2-x-c", "local-p2", "c3-z2z2", "pdp3a"]
    )
    def test_boundary_identities(self, name):
        _, d, _ = analyze(name)
        assert sum(s.K for s in d.sides) == d.b
        lx = sum(s.K * s.l[0] for s in d.sides)
        ly = sum(s.K * s.l[1] for s in d.sides)
        assert (lx, ly) == (0, 0)
        # Pick: 2 Area = 2 i + b - 2, with the area from the shoelace formula
        cs = d.corners
        twice_area = sum(
            cs[i][0] * cs[(i + 1) % len(cs)][1] - cs[(i + 1) % len(cs)][0] * cs[i][1]
            for i in range(len(cs))
        )
        assert abs(twice_area) == 2 * d.i_int + d.b - 2

    def test_gl2_changes_of_frame(self, tmp_path):
        import json

        for name in ("c3", "conifold"):
            base = load_geometry(name)
            ref = toric_diagram(base)
            for g in (((1, 1), (0, 1)), ((0, 1), (1, 0)), ((-1, 0), (0, 1))):
                obj = base.to_json_dict()
                for a in obj["arrows"]:
                    x, y = a["disp"]
                    a["disp"] = [g[0][0] * x + g[0][1] * y, g[1][0] * x + g[1][1] * y]
                p = tmp_path / "t.json"
                p.write_text(json.dumps(obj))
                d = toric_diagram(load_geometry(p))
                assert sorted(s.K for s in d.sides) == sorted(s.K for s in ref.sides)
                assert d.b == ref.b
                assert d.i_int == ref.i_int


class TestZigZag:
    def test_c3_sides(self):
        q, d, zz = analyze("c3")
        for sz in zz.sides:
            assert len(sz.strips) == 1
            assert sz.alphas == ((1,),)
        assert zz.delta == (1,)
        # three paths of two loops each, every arrow on exactly two
        seen = {}
        for sz in zz.sides:
            for path in sz.paths:
                for a in path:
                    seen[a] = seen.get(a, 0) + 1
        assert seen == {"a": 2, "b": 2, "c": 2}

    def test_pdp3a_k3_side_fixture(self):
        q, d, zz = analyze("pdp3a")
        sz = next(s for s in zz.sides if s.side.K == 3)
        assert [sorted(s) for s in sz.strips] == [[0, 3], [1, 4], [2, 5]]
        assert sz.alphas == (
            (1, 0, 0, 1, 0, 0),
            (0, 1, 0, 0, 1, 0),
            (0, 0, 1, 0, 0, 1),
        )
        assert sz.zig == (
            frozenset({"phi1_13", "phi1_40"}),
            frozenset({"phi1_24", "phi1_51"}),
            frozenset({"phi1_02", "phi1_35"}),
        )
        assert sz.zag == (
            frozenset({"phi2_01", "phi2_34"}),
            frozenset({"phi2_12", "phi2_45"}),
            frozenset({"phi2_23", "phi2_50"}),
        )

    def test_pdp3a_k2_side_fixture(self):
        q, d, zz = analyze("pdp3a")
        sz = next(s for s in zz.sides if s.side.K == 2)
        assert [sorted(s) for s in sz.strips] == [[0, 2, 4], [1, 3, 5]]
        assert sz.zig == (
            frozenset({"phi2_12", "phi2_34", "phi2_50"}),
            frozenset({"phi2_01", "phi2_23", "phi2_45"}),
        )
        assert sz.zag == (
            frozenset({"phi0_03", "phi0_25", "phi0_41"}),
            frozenset({"phi0_14", "phi0_30", "phi0_52"}),
        )

    def test_pdp3a_k1_side_fixture(self):
        q, d, zz = analyze("pdp3a")
        sz = next(s for s in zz.sides if s.side.K == 1)
        fam = {
            p: frozenset(a.id for a in q.arrows if a.id.startswith(p))
            for p in ("phi0", "phi1")
        }
        assert sz.alphas == ((1,) * 6,)
        assert sz.zig == (fam["phi0"],)
        assert sz.zag == (fam["phi1"],)

    def test_spp_fixture(self):
        q, d, zz = analyze("spp")
        side = side_with_cuts(d, {"phi11", "phi32"}, {"phi11", "phi23"})
        sz = next(s for s in zz.sides if s.side is side)
        assert sz.side.start_cut.arrows == frozenset({"phi11", "phi32"})
        assert sz.alphas == ((1, 1, 1),)
        assert sz.zig == (frozenset({"phi32"}),)
        assert sz.zag == (frozenset({"phi23"}),)
        assert sz.jsets == (frozenset({"phi11"}),)
        assert sz.vcycles[1] == ("phi12", "phi21")
        assert sz.vcycles[2] == ("phi21", "phi12")
        assert sz.vcycles[3] == ("phi31", "phi13")

    @pytest.mark.parametrize(
        "name", ["c3", "conifold", "spp", "c2z2-x-c", "local-p2", "c3-z2z2", "pdp3a"]
    )
    def test_path_invariants(self, name):
        q, d, zz = analyze(name)
        byid = {a.id: a for a in q.arrows}
        counts = {}
        for sz in zz.sides:
            assert len(sz.paths) == sz.side.K
            union = set()
            for path in sz.paths:
                dx = sum(byid[a].disp[0] for a in path)
                dy = sum(byid[a].disp[1] for a in path)
                assert (dx, dy) == sz.side.l
                union |= set(path)
                for a in path:
                    counts[a] = counts.get(a, 0) + 1
            # paths of a side are the symmetric difference of its corner cuts
            assert union == set(
                sz.side.start_cut.arrows ^ sz.side.end_cut.arrows
            )
        assert counts == {a.id: 2 for a in q.arrows}

    @pytest.mark.parametrize(
        "name", ["c3", "conifold", "spp", "c2z2-x-c", "local-p2", "c3-z2z2", "pdp3a"]
    )
    def test_alpha_identities(self, name):
        q, d, zz = analyze(name)
        chi, bracket = euler_form(q)
        n = len(q.nodes)
        idx = q.node_index
        byid = {a.id: a for a in q.arrows}
        for sz in zz.sides:
            total = [0] * n
            for alpha in sz.alphas:
                total = [t + a for t, a in zip(total, alpha)]
                # alpha is in the kernel of the antisymmetrized Euler form
                for j in range(n):
                    assert sum(alpha[i] * bracket[i][j] for i in range(n)) == 0
            assert tuple(total) == zz.delta
            # chi_Q(alpha, d) cancels against the corner-cut correction term
            for cut in (sz.side.start_cut, sz.side.end_cut):
                for alpha in sz.alphas:
                    for k in range(n):
                        d_vec = [0] * n
                        d_vec[k] = 1
                        lhs = sum(
                            alpha[i] * chi[i][j] * d_vec[j]
                            for i in range(n)
                            for j in range(n)
                        )
                        corr = 0
                        for aid in cut.arrows:
                            i, j = idx[byid[aid].src], idx[byid[aid].tgt]
                            corr += d_vec[i] * alpha[j] + d_vec[j] * alpha[i]
                        assert lhs + corr == 0

    @pytest.mark.parametrize(
        "name", ["c3", "conifold", "spp", "c2z2-x-c", "local-p2", "c3-z2z2", "pdp3a"]
    )
    def test_strip_cycles(self, name):
        q, d, zz = analyze(name)
        byid = {a.id: a for a in q.arrows}
        grading = d.cuts[0].arrows
        for sz in zz.sides:
            weights = set()
            for node, cyc in sz.vcycles.items():
                forbidden = sz.side.start_cut.arrows | sz.side.end_cut.arrows
                assert not (set(cyc) & forbidden)
                dx = sum(byid[a].disp[0] for a in cyc)
                dy = sum(byid[a].disp[1] for a in cyc)
                # strip cycles wind against the boundary paths: their class
                # is the inward normal, the negative of the side vector
                assert (dx, dy) == (-sz.side.l[0], -sz.side.l[1])
                depth = sum(1 for a in cyc if a in grading)
                weights.add(((dx, dy), depth))
            assert len(weights) == 1

    def test_c3z2z2_strip_pairings(self):
        q, d, zz = analyze("c3-z2z2")
        pairings = set()
        for sz in zz.sides:
            assert len(sz.strips) == 2
            pairings.add(frozenset(frozenset(s) for s in sz.strips))
        assert pairings == {
            frozenset({frozenset({0, 1}), frozenset({2, 3})}),
            frozenset({frozenset({0, 3}), frozenset({1, 2})}),
            frozenset({frozenset({0, 2}), frozenset({1, 3})}),
        }

    def test_arc_vectors(self):
        q, d, zz = analyze("pdp3a")
        sz = next(s for s in zz.sides if s.side.K == 3)
        assert sz.arc(0, 1) == (1, 0, 0, 1, 0, 0)
        assert sz.arc(1, 0) == (0, 1, 1, 0, 1, 1)
        assert sz.arc(2, 1) == tuple(
            a + b for a, b in zip(sz.alphas[2], sz.alphas[0])
        )
        assert sz.arc(1, 1) == zz.delta

    def test_strip_mismatch_guard(self, tmp_path):
        # feeding a diagram whose K was tampered with trips the consistency check
        q = load_geometry("pdp3a")
        d = toric_diagram(q)
        import dataclasses

        bad_sides = tuple(
            dataclasses.replace(s, K=s.K + 1) if s.K == 3 else s for s in d.sides
        )
        bad = dataclasses.replace(d, sides=bad_sides)
        with pytest.raises(StripCountMismatch):
            zigzag_analysis(q, bad)
