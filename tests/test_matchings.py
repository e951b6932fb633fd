"""Cut enumeration, toric diagrams, and zig-zag strip data.

Cut lists are cross-checked against two other searches: an exhaustive
combination search for the cut sets, and an exact-cover search, which
shares only the homology chains with the matching search, for the ordered
cuts and their points; the chains are checked against a search that scans
every arrow at each step.  The strip fixtures for the six-node orbifold and
the suspended pinch point are frozen arrow-by-arrow; they pin the global
zig/zag orientation convention, so a sign slip anywhere in the diagram
code shows up here.  ``fixtures/zigzag.json`` pins the paths, strips,
alphas, zig and zag sets and arcs of every side of every builtin and of
C^3/Z_n x Z_n for n = 2..5 by digest.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import itertools
import json
from collections import Counter
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bench.workloads import orbifold_quiver
from moltendt.errors import (
    AmbiguousCornerError,
    NoCutError,
    StripCountMismatch,
    ValidationError,
)
from moltendt.geometry import (
    _parse_quiver as quiver,
    builtin_names,
    euler_form,
    load_geometry,
    reference_grading,
)
from moltendt.matchings import (
    CutList,
    _shortest_chain,
    perfect_matchings,
    toric_diagram,
    zigzag_analysis,
)


ZIGZAG_FIXTURE = Path(__file__).parent / "fixtures" / "zigzag.json"
ZIGZAG_SOURCES = [*builtin_names(), 2, 3, 4, 5]


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


def full_scan_chain(q, goal):
    """``_shortest_chain`` as it was first written: each state of the
    breadth-first search scans every arrow of the quiver for one that
    starts or ends at its node."""

    base = q.nodes[0]
    start = (base, (0, 0))
    target = (base, goal)
    best = {start: ()}
    frontier = [start]
    for _ in range(4 * len(q.arrows) + 8):
        if target in best:
            return best[target]
        grown = {}
        for state in frontier:
            node, t = state
            path = best[state]
            for a in q.arrows:
                if a.src == node:
                    ns = (a.tgt, (t[0] + a.disp[0], t[1] + a.disp[1]))
                    if ns not in best:
                        cand = path + ((a.id, 1),)
                        if ns not in grown or cand < grown[ns]:
                            grown[ns] = cand
                if a.tgt == node:
                    ns = (a.src, (t[0] - a.disp[0], t[1] - a.disp[1]))
                    if ns not in best:
                        cand = path + ((a.id, -1),)
                        if ns not in grown or cand < grown[ns]:
                            grown[ns] = cand
        best.update(grown)
        frontier = list(grown)
    raise AssertionError("no chain")


CHAIN_GOALS = ((1, 0), (0, 1), (-1, 1))

# every 2x2 integer matrix with entries in [-3, 3] and determinant +-1
UNIMODULAR = [
    m for m in itertools.product(range(-3, 4), repeat=4) if abs(m[0] * m[3] - m[1] * m[2]) == 1
]


def loops(disps, potential):
    """A one-node quiver of loops with the given displacements."""

    return quiver({
        "nodes": [0],
        "arrows": [
            {"id": aid, "src": 0, "tgt": 0, "disp": d} for aid, d in disps.items()
        ],
        "potential": [{"sign": s, "cycle": c} for s, c in potential],
    })


def load(source):
    """A builtin by name, or for an int n the orbifold C^3 / Z_n x Z_n."""

    return quiver(orbifold_quiver(source)) if isinstance(source, int) else load_geometry(source)


def analyze(name):
    q = load_geometry(name)
    diagram = toric_diagram(q)
    return q, diagram, zigzag_analysis(q, diagram)


def zigzag_digests():
    """(case key, digest) for every side of every geometry in
    ``ZIGZAG_SOURCES``; the key is the geometry and the side name, e.g.
    "spp z1" or "c3/z5xz5 z0".  The digest is the SHA-256 of the canonical
    JSON of the side's paths, strips, alphas, zig and zag sets and every
    arc(k, k').

    To re-record the fixture after a deliberate change of output, run this
    from the repository root with ``PYTHONPATH=src:.``::

        import json
        from tests.test_matchings import ZIGZAG_FIXTURE, zigzag_digests
        ZIGZAG_FIXTURE.write_text(json.dumps(
            {"cases": dict(zigzag_digests())}, indent=1, sort_keys=True
        ) + "\\n")
    """

    for source in ZIGZAG_SOURCES:
        q = load(source)
        zz = zigzag_analysis(q, toric_diagram(q))
        name = f"c3/z{source}xz{source}" if isinstance(source, int) else source
        for sz in zz:
            K = len(sz.alphas)
            data = {
                "paths": sz.paths,
                "strips": [sorted(s) for s in sz.strips],
                "alphas": sz.alphas,
                "zig": [sorted(s) for s in sz.zig],
                "zag": [sorted(s) for s in sz.zag],
                "arcs": [[sz.arc(k, kp) for kp in range(K)] for k in range(K)],
            }
            text = json.dumps(data, sort_keys=True, separators=(",", ":"))
            yield f"{name} {sz.side.name}", hashlib.sha256(text.encode()).hexdigest()


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

    @pytest.mark.parametrize("source", builtin_names() + (2, 3, 4, 5))
    def test_against_exact_cover_search(self, source):
        # C^3 / Z_5 x Z_5 is the one size here whose search reads many
        # completions from its table more than once
        q = load(source)
        expected = exact_cover_cuts(q)
        assert [(c.arrows, c.point) for c in perfect_matchings(q)] == expected
        assert len(expected) == {2: 9, 3: 42, 4: 417, 5: 7623}.get(source, len(expected))

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(builtin_names() + (3, 4)), st.data())
    def test_arrow_and_term_order_do_not_matter(self, name, data):
        # term order changes the sweep, and with it which masks share a
        # table entry
        q = load(name)
        obj = q.to_json_dict()
        obj["arrows"] = data.draw(st.permutations(obj["arrows"]))
        obj["potential"] = data.draw(st.permutations(obj["potential"]))
        for term in obj["potential"]:
            k = data.draw(st.integers(0, len(term["cycle"]) - 1))
            term["cycle"] = term["cycle"][k:] + term["cycle"][:k]
        permuted = quiver(obj)
        for goal in CHAIN_GOALS:
            assert _shortest_chain(permuted, goal) == full_scan_chain(permuted, goal)
        assert [(c.arrows, c.point) for c in permuted.cuts] == [
            (c.arrows, c.point) for c in q.cuts
        ]
        assert permuted.cut_weight == q.cut_weight

    @pytest.mark.parametrize("source", ZIGZAG_SOURCES)
    def test_shortest_chain_matches_full_scan(self, source):
        # exact_cover_cuts reads its points through the same chains, so
        # only this compares them with a search written another way
        q = load(source)
        for goal in CHAIN_GOALS:
            assert _shortest_chain(q, goal) == full_scan_chain(q, goal)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(builtin_names() + (3, 4)), st.sampled_from(UNIMODULAR))
    def test_frame_change_keeps_the_cuts(self, source, m):
        # the new frame moves the points to negative and larger
        # coordinates, which the search's int code must still separate
        q = load(source)
        obj = q.to_json_dict()
        for arrow in obj["arrows"]:
            x, y = arrow["disp"]
            arrow["disp"] = [m[0] * x + m[1] * y, m[2] * x + m[3] * y]
        moved = quiver(obj)
        cuts = perfect_matchings(moved)
        assert [(c.arrows, c.point) for c in cuts] == exact_cover_cuts(moved)
        assert {c.arrows for c in cuts} == {c.arrows for c in q.cuts}

    @pytest.mark.parametrize("source", ["c3", "pdp3a", 4])
    def test_search_leaves_no_cycle_behind(self, source):
        q = load(source)
        gc.collect()
        gc.disable()
        try:
            perfect_matchings(q)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_enumeration_is_deterministic(self):
        q = load_geometry("pdp3a")
        a = perfect_matchings(q)
        b = perfect_matchings(q)
        assert [(c.arrows, c.point) for c in a] == [(c.arrows, c.point) for c in b]

    def test_c3_z6z6_cut_list_is_pinned(self):
        # 263,640 cuts, with the count and digest of the search that stored
        # each cut as a frozenset of arrows.  Each cut hashes as its sorted
        # arrow ids, each followed by a space, then "x y" and a newline.
        # The codes' masks are decoded a byte at a time here, since
        # decoding every cut through ``arrows`` takes seconds.
        cuts = perfect_matchings(load(6))
        ids = cuts._ids
        size = -(-len(ids) // 8)
        padded = ("",) * (8 * size - len(ids)) + ids
        table = [
            ["".join(padded[8 * i + b] + " " for b in range(8) if byte >> 7 - b & 1)
             for byte in range(256)]
            for i in range(size)
        ]
        digest = hashlib.sha256()
        for k, code in enumerate(cuts._codes):
            mask = ~code & cuts._low
            line = "".join([table[i][byte] for i, byte in enumerate(mask.to_bytes(size, "big"))])
            x, y = cuts._point(code >> len(ids))
            if k % 10_000 == 0:
                c = cuts[k]
                assert line == "".join(a + " " for a in sorted(c.arrows))
                assert (x, y) == c.point
            digest.update(f"{line}{x} {y}\n".encode())
        assert len(cuts) == 263_640
        assert digest.hexdigest() == (
            "df484b7a1f54bab8429edc3505aa0a4a13b684dd02a67cbb2c176fb911c5ad38"
        )

    def test_search_memory(self):
        # one uncached call returns the search's CutList of codes; a list of
        # decoded Cuts peaked at 2.0 MiB and held 0.9 MiB, with a
        # (mask, x, y) tuple per partial cut 2.7 and 1.0 MiB, and with a
        # frozenset per cut 14.4 and 9.9 MiB
        q = load(5)
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            cuts = perfect_matchings(q)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(cuts) == 7623
        assert peak - base < 5 << 20
        assert held - base < 2 << 20

    @pytest.mark.parametrize("source", builtin_names() + (2, 3, 4, 5))
    def test_cut_list_decodes_to_the_oracle(self, source):
        # q.cuts keeps the search's codes; decoded one by one, they are the
        # exact-cover search's cuts, and indexing, slices and the diagram's
        # point runs read the same cuts as iteration
        q = load(source)
        cuts = q.cuts
        assert isinstance(cuts, CutList)
        want = list(cuts)
        oracle = exact_cover_cuts(q)
        assert [(c.arrows, c.point) for c in want] == oracle
        assert [cuts[i] for i in range(len(want))] == want
        assert cuts[-1] == want[-1] and cuts[-len(want)] == want[0]
        with pytest.raises(IndexError):
            cuts[len(want)]
        for part in (slice(1, None), slice(None, -1), slice(None, None, -1),
                     slice(1, None, 2), slice(3, 1), slice(-2, None)):
            assert isinstance(cuts[part], CutList)
            assert list(cuts[part]) == want[part]
        runs: dict = {}
        for c in want:
            runs.setdefault(c.point, []).append(c)
        diagram = toric_diagram(q)
        assert diagram.cuts is cuts
        assert list(diagram.points) == list(runs)
        for p, part in diagram.points.items():
            assert isinstance(part, CutList) and list(part) == runs[p]
        count = Counter(a for arrows, _ in oracle for a in arrows)
        assert q.cut_weight == {a.id: count[a.id] for a in q.arrows}

    def test_set_up_decodes_only_the_cuts_it_reads(self, monkeypatch):
        # the corner cuts and the reference cut, cuts[0]
        decoded = []
        real = CutList._cut

        def counting(self, code):
            decoded.append(code)
            return real(self, code)

        monkeypatch.setattr(CutList, "_cut", counting)
        q = load(5)
        diagram = toric_diagram(q)
        zigzag_analysis(q, diagram)
        reference_grading(q)
        assert len(decoded) == len(diagram.corners) + 1

    def test_cut_list_memory(self):
        # the 7,623 codes hold 0.39 MiB and the search peaks at 1.1 MiB; a
        # list of their decoded Cuts holds 0.9 MiB, and a search that
        # decodes them peaks at 2.0 MiB
        q = load(5)
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            cuts = q.cuts
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(cuts) == 7623
        assert held - base < 0.5 * 2**20
        assert peak - base < 1.5 * 2**20

    def test_cut_is_a_value(self):
        x, y = perfect_matchings(load("spp")), perfect_matchings(load("spp"))
        assert x == y and x is not y and x[1:] != x and x[1:] == y[1:]
        with pytest.raises(TypeError):
            hash(x)
        a, b = list(x), list(y)
        assert a == b and a[0] is not b[0]
        assert [hash(c) for c in a] == [hash(c) for c in b]
        assert len(set(a + b)) == len(a)
        with pytest.raises(AttributeError):
            a[0].arrows = frozenset()
        with pytest.raises(AttributeError):
            a[0].point = (0, 0)
        (corner,) = [c for c in a if c.arrows == {"phi11", "phi23"}]
        assert repr(corner) == "Cut(arrows=('phi11', 'phi23'), point=(1, -1))"

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

    def test_displacements_never_reach_the_class(self):
        # every arrow is vertical, so no chain from the base node reaches
        # its translate by (1, 0)
        q = loops({"a": [0, 1], "b": [0, -1]}, [(1, ["a", "b"]), (-1, ["a", "b"])])
        with pytest.raises(ValidationError, match="do not reach the requested homology class"):
            perfect_matchings(q)


class TestDiagram:
    def test_two_cuts_at_a_corner(self):
        # {c} and {d} both sit at (0, 0), a corner of the triangle that
        # {a} at (1, 0) and {b} at (0, 1) complete
        q = loops(
            {"a": [1, 0], "b": [0, 1], "c": [-1, 0], "d": [0, -1]},
            [(1, ["a", "b", "c", "d"]), (-1, ["a", "d", "c", "b"])],
        )
        assert [(c.arrows, c.point) for c in perfect_matchings(q)] == [
            (frozenset({"c"}), (0, 0)),
            (frozenset({"d"}), (0, 0)),
            (frozenset({"b"}), (0, 1)),
            (frozenset({"a"}), (1, 0)),
        ]
        with pytest.raises(
            AmbiguousCornerError,
            match=r"^2 matchings at hull corner \(0, 0\), expected a unique one$",
        ):
            toric_diagram(q)

    @pytest.mark.parametrize(
        "a, b, points",
        [
            # three distinct points on the x axis: the hull has no area
            ((-2, 0), (3, 0), [(0, 0), (1, 0), (2, 0)]),
            # two distinct points
            ((-3, 0), (-2, 0), [(0, 0), (1, 0)]),
        ],
    )
    def test_degenerate_diagram(self, a, b, points):
        # the terms over a, b, w, x and y have the three matchings {a, b},
        # {b, y} and {w, x}, all displaced along x; c repeats in both of
        # its terms, so every cut holds d and y stays 0
        (ax, _), (bx, _) = a, b
        q = loops(
            {"a": a, "b": b, "w": [-bx, 0], "x": [-bx, 0], "y": [bx - ax, 0],
             "c": [0, 1], "d": [0, -2]},
            [(1, ["a", "x", "y"]), (1, ["b", "w"]), (1, ["c", "c", "d"]),
             (-1, ["a", "w", "y"]), (-1, ["b", "x"]), (-1, ["c", "d", "c"])],
        )
        assert sorted({c.point for c in perfect_matchings(q)}) == points
        with pytest.raises(ValidationError, match="^toric diagram is degenerate$"):
            toric_diagram(q)

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
    # a diagram of another quiver raised a bare KeyError: 'b2'; a diagram
    # of a fresh copy of the quiver holds equal cuts and is taken
    def test_diagram_of_another_quiver(self):
        q = load_geometry("c3")
        with pytest.raises(
            ValidationError,
            match="^zigzag_analysis: the diagram's cuts are not those of the quiver$",
        ):
            zigzag_analysis(q, toric_diagram(load_geometry("conifold")))
        fresh = toric_diagram(load_geometry("c3"))
        assert zigzag_analysis(q, fresh) == zigzag_analysis(q, toric_diagram(q))

    def test_arrow_repeating_in_a_term(self):
        # e repeats in the positive term [a, e, b, e], which has cuts but no
        # successor map
        q = loops(
            {"a": [1, 0], "b": [-1, 0], "c": [0, 1], "d": [0, -1], "e": [0, 0]},
            [(1, ["a", "e", "b", "e"]), (1, ["c", "d"]), (-1, ["a", "b"]),
             (-1, ["c", "d", "e", "e"])],
        )
        diagram = toric_diagram(q)
        assert len(diagram.corners) == 4
        with pytest.raises(ValidationError, match="^arrow 'e' repeats in a potential term"):
            zigzag_analysis(q, diagram)

    def test_c3_sides(self):
        q, d, zz = analyze("c3")
        for sz in zz:
            assert len(sz.strips) == 1
            assert sz.alphas == ((1,),)
        # three paths of two loops each, every arrow on exactly two
        seen = {}
        for sz in zz:
            for path in sz.paths:
                for a in path:
                    seen[a] = seen.get(a, 0) + 1
        assert seen == {"a": 2, "b": 2, "c": 2}

    def test_pdp3a_k3_side_fixture(self):
        q, d, zz = analyze("pdp3a")
        sz = next(s for s in zz if s.side.K == 3)
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
        sz = next(s for s in zz if s.side.K == 2)
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
        sz = next(s for s in zz if s.side.K == 1)
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
        sz = next(s for s in zz if s.side is side)
        assert sz.side.start_cut.arrows == frozenset({"phi11", "phi32"})
        assert sz.alphas == ((1, 1, 1),)
        assert sz.zig == (frozenset({"phi32"}),)
        assert sz.zag == (frozenset({"phi23"}),)

    @pytest.mark.parametrize(
        "name", ["c3", "conifold", "spp", "c2z2-x-c", "local-p2", "c3-z2z2", "pdp3a"]
    )
    def test_path_invariants(self, name):
        q, d, zz = analyze(name)
        byid = {a.id: a for a in q.arrows}
        counts = {}
        for sz in zz:
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
        for sz in zz:
            total = [0] * n
            for alpha in sz.alphas:
                total = [t + a for t, a in zip(total, alpha)]
                # alpha is in the kernel of the antisymmetrized Euler form
                for j in range(n):
                    assert sum(alpha[i] * bracket[i][j] for i in range(n)) == 0
            assert total == [1] * n
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

    def test_c3z2z2_strip_pairings(self):
        q, d, zz = analyze("c3-z2z2")
        pairings = set()
        for sz in zz:
            assert len(sz.strips) == 2
            pairings.add(frozenset(frozenset(s) for s in sz.strips))
        assert pairings == {
            frozenset({frozenset({0, 1}), frozenset({2, 3})}),
            frozenset({frozenset({0, 3}), frozenset({1, 2})}),
            frozenset({frozenset({0, 2}), frozenset({1, 3})}),
        }

    def test_arc_vectors(self):
        q, d, zz = analyze("pdp3a")
        sz = next(s for s in zz if s.side.K == 3)
        assert sz.arc(0, 1) == (1, 0, 0, 1, 0, 0)
        assert sz.arc(1, 0) == (0, 1, 1, 0, 1, 1)
        assert sz.arc(2, 1) == tuple(
            a + b for a, b in zip(sz.alphas[2], sz.alphas[0])
        )
        assert sz.arc(1, 1) == (1,) * 6
        assert sz.arc(0, 3) == sz.arc(3, 3) == (1,) * 6

    @pytest.mark.parametrize("name", builtin_names())
    def test_arc_reads_indices_mod_k(self, name):
        q, d, zz = analyze(name)
        for sz in zz:
            K = sz.side.K
            for k in range(-2 * K, 2 * K + 1):
                for kp in range(-2 * K, 2 * K + 1):
                    assert sz.arc(k, kp) == sz.arc(k % K, kp % K), (k, kp)

    def test_every_side_matches_the_fixture(self):
        want = json.loads(ZIGZAG_FIXTURE.read_text())["cases"]
        got = dict(zigzag_digests())
        assert sorted(got) == sorted(want)
        differ = [key for key in got if got[key] != want[key]]
        assert not differ, f"zig-zag data differ from {ZIGZAG_FIXTURE.name}: {differ}"

    @pytest.mark.parametrize("source", ZIGZAG_SOURCES)
    def test_full_arc_is_delta(self, source):
        q = load(source)
        delta = (1,) * len(q.nodes)
        for sz in zigzag_analysis(q, toric_diagram(q)):
            for k in range(len(sz.alphas)):
                assert sz.arc(k, k) == delta

    @pytest.mark.parametrize("name", builtin_names())
    def test_reversed_side_vector_has_no_path(self, name):
        # a path of the strip's arrows must wind along the side vector l
        q = load_geometry(name)
        d = toric_diagram(q)
        for i, side in enumerate(d.sides):
            flipped = dataclasses.replace(side, l=(-side.l[0], -side.l[1]))
            sides = d.sides[:i] + (flipped,) + d.sides[i + 1:]
            with pytest.raises(StripCountMismatch, match="no zig-zag path matches"):
                zigzag_analysis(q, dataclasses.replace(d, sides=sides))

    def test_empty_strip_has_no_path(self):
        # a side whose two corner cuts coincide leaves its strip no arrows
        q = load_geometry("c3")
        d = toric_diagram(q)
        side = dataclasses.replace(d.sides[0], end_cut=d.sides[0].start_cut)
        bad = dataclasses.replace(d, sides=(side, *d.sides[1:]))
        with pytest.raises(StripCountMismatch, match="no zig-zag path matches strip 0"):
            zigzag_analysis(q, bad)

    def test_strip_mismatch_guard(self, tmp_path):
        # feeding a diagram whose K was tampered with trips the consistency check
        q = load_geometry("pdp3a")
        d = toric_diagram(q)
        bad_sides = tuple(
            dataclasses.replace(s, K=s.K + 1) if s.K == 3 else s for s in d.sides
        )
        bad = dataclasses.replace(d, sides=bad_sides)
        with pytest.raises(StripCountMismatch):
            zigzag_analysis(q, bad)

    @pytest.mark.parametrize(
        "K, message",
        [(1, "side z.: 3 strips for K = 1"), (2, "breaks the strip cyclic order")],
    )
    def test_tampered_k_trips_a_strip_check(self, K, message):
        # pdp3a's K = 3 side has three strips: read mod 1 their heights all
        # agree, so only the count differs; read mod 2 a zag arrow breaks
        q = load_geometry("pdp3a")
        d = toric_diagram(q)
        bad_sides = tuple(
            dataclasses.replace(s, K=K) if s.K == 3 else s for s in d.sides
        )
        bad = dataclasses.replace(d, sides=bad_sides)
        with pytest.raises(StripCountMismatch, match=message):
            zigzag_analysis(q, bad)
