"""Cuts, the toric diagram, and zig-zag strip decompositions.

A cut picks exactly one arrow out of every potential term.  Each arrow lies
in one positive and one negative term, so a cut is a perfect matching of
the bipartite graph whose two sides are the positive and the negative
terms and whose edges are the arrows; an arrow repeated inside one of its
terms is no edge.  Evaluating the cut indicator on two fixed homology
cycles places each cut at a lattice point; the convex hull of these points
is the toric diagram, and each boundary side carries its own zig-zag
combinatorics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import (
    AmbiguousCornerError,
    NoCutError,
    StripCountMismatch,
    ValidationError,
)
from .geometry import PeriodicQuiver

Vec = tuple[int, int]


@dataclass(frozen=True)
class Cut:
    arrows: frozenset
    point: Vec


@dataclass(frozen=True)
class Side:
    name: str
    start: Vec
    end: Vec
    l: Vec
    K: int
    start_cut: Cut
    end_cut: Cut


@dataclass(frozen=True)
class ToricDiagramData:
    cuts: tuple[Cut, ...]
    points: dict
    corners: tuple[Vec, ...]
    sides: tuple[Side, ...]
    b: int
    i_int: int


# ---------------------------------------------------------------------------
# reference cycles and cut enumeration


def _shortest_chain(q: PeriodicQuiver, goal: Vec):
    """Lex-least shortest undirected chain from the base node back to its
    translate by ``goal`` in the universal cover.  Steps are (arrow id, ±1)
    with -1 for a backward traversal."""

    base = q.nodes[0]
    start = (base, (0, 0))
    target = (base, goal)
    best = {start: ()}
    frontier = [start]
    for _ in range(4 * len(q.arrows) + 8):
        if target in best:
            return best[target]
        grown: dict = {}
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
    raise ValidationError("arrow displacements do not reach the requested homology class")


def perfect_matchings(q: PeriodicQuiver) -> list[Cut]:
    """All cuts with their diagram points, canonically sorted by point and
    then by sorted arrow ids.

    A depth-first search matches the positive terms one by one, in a sweep
    order that next takes the term sharing the most negative terms
    (columns) with the terms already taken.  A state is the set of used
    columns as a bit mask, with the running point carried alongside.  It
    is dropped when a free column lies out of reach of every remaining
    term, or when it is known to be dead (to have no completion).  Only
    dead states are remembered, as bare masks.  Remembering the cut list
    below each live state as well would visit every state once, but it
    keeps all those lists until the search ends: on C^3/Z_5 x Z_5 (7,623
    cuts) that at least doubles the peak memory of the enumeration.

    NoCutError names the cause: unequal positive and negative term counts,
    a term whose every arrow repeats inside one of its terms, or no
    perfect matching at all.
    """

    pos = [cyc for sign, cyc in q.potential if sign == 1]
    neg = [cyc for sign, cyc in q.potential if sign == -1]
    n = len(pos)
    if n != len(neg):
        raise NoCutError(
            f"perfect_matchings: the potential has {n} positive and {len(neg)}"
            " negative terms; a cut needs as many of each"
        )
    repeated = {aid for _, cyc in q.potential for aid in cyc if cyc.count(aid) > 1}
    for sign, cyc in q.potential:
        if repeated.issuperset(cyc):
            raise NoCutError(
                f"perfect_matchings: term {sign:+d} {list(cyc)} has no usable"
                " arrow; each of its arrows repeats inside one of its terms"
            )
    column = {aid: 1 << j for j, cyc in enumerate(neg) for aid in cyc}
    chi = {a.id: [0, 0] for a in q.arrows}
    for k, goal in enumerate(((1, 0), (0, 1))):
        for aid, sign in _shortest_chain(q, goal):
            chi[aid][k] += sign
    # A cut's sort key is the sum of its arrows' weights, the least id on the
    # highest bit.  Equal-size arrow sets compare as their sorted id tuples
    # do exactly when their keys compare in reverse: the first place two
    # sorted tuples differ holds the least arrow in only one of the sets.
    ids = sorted(chi)
    weight = {aid: 1 << (len(ids) - 1 - r) for r, aid in enumerate(ids)}
    options = [
        [(column[a], weight[a], a, *chi[a]) for a in sorted(set(cyc) - repeated)]
        for cyc in pos
    ]
    reach = [0] * n  # the columns each term can take
    for t, opts in enumerate(options):
        for bit, *_ in opts:
            reach[t] |= bit
    order, taken, left = [], 0, list(range(n))
    while left:
        t = max(left, key=lambda t: ((reach[t] & taken).bit_count(), -t))
        order.append(t)
        taken |= reach[t]
        left.remove(t)
    # out_of_reach[d]: the columns that no term from depth d on can take
    out_of_reach = [(1 << n) - 1] * (n + 1)
    for d in range(n - 1, -1, -1):
        out_of_reach[d] = out_of_reach[d + 1] & ~reach[order[d]]
    sweep = [options[t] for t in order]
    found: list = []
    chosen = [""] * n
    dead: set[int] = set()  # the depth of a mask is its bit count

    def grow(depth: int, mask: int, key: int, x: int, y: int) -> bool:
        alive = False
        out = out_of_reach[depth + 1]
        for bit, w, aid, dx, dy in sweep[depth]:
            m = mask | bit
            if m == mask or out & ~m or m in dead:
                continue
            chosen[depth] = aid
            if depth + 1 == n:
                found.append((x + dx, y + dy, -(key | w), frozenset(chosen)))
                alive = True
            elif grow(depth + 1, m, key | w, x + dx, y + dy):
                alive = True
            else:
                dead.add(m)
        return alive

    alive = grow(0, 0, 0, 0, 0)
    # grow holds itself through its closure; dropping the name frees it, and
    # with it dead and the search's references, now rather than at the next
    # cycle collection
    del grow
    if not alive:
        raise NoCutError(
            "perfect_matchings: no perfect matching exists; the usable arrows"
            f" cannot pair the {n} positive terms one to one with the negative terms"
        )
    found.sort()
    return [Cut(arrows, (x, y)) for x, y, _, arrows in found]


# ---------------------------------------------------------------------------
# toric diagram


def _hull(points: list[Vec]) -> list[Vec]:
    pts = sorted(set(points))
    if len(pts) < 3:
        raise ValidationError("toric diagram is degenerate")

    def half(seq):
        out: list[Vec] = []
        for p in seq:
            while len(out) >= 2:
                ox, oy = out[-2]
                ax, ay = out[-1]
                if (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox) <= 0:
                    out.pop()
                else:
                    break
            out.append(p)
        return out

    lower = half(pts)
    upper = half(pts[::-1])
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        raise ValidationError("toric diagram is degenerate")
    return hull  # counterclockwise, starting at the lex-least point


def toric_diagram(q: PeriodicQuiver) -> ToricDiagramData:
    points: dict[Vec, list[Cut]] = {}
    for c in q.cuts:
        points.setdefault(c.point, []).append(c)
    ccw = _hull(list(points))
    corners = tuple([ccw[0]] + ccw[:0:-1])  # clockwise from the lex-least corner
    corner_cut = {}
    for p in corners:
        at = points[p]
        if len(at) != 1:
            raise AmbiguousCornerError(
                f"{len(at)} matchings at hull corner {p}, expected a unique one"
            )
        corner_cut[p] = at[0]
    sides = []
    for i, p in enumerate(corners):
        nxt = corners[(i + 1) % len(corners)]
        ex, ey = nxt[0] - p[0], nxt[1] - p[1]
        k = math.gcd(abs(ex), abs(ey))
        sides.append(
            Side(
                name=f"z{i}",
                start=p,
                end=nxt,
                l=(-ey // k, ex // k),
                K=k,
                start_cut=corner_cut[p],
                end_cut=corner_cut[nxt],
            )
        )
    b = sum(s.K for s in sides)
    xs = [p[0] for p in corners]
    ys = [p[1] for p in corners]
    i_int = 0
    for x in range(min(xs) + 1, max(xs)):
        for y in range(min(ys) + 1, max(ys)):
            inside = True
            for s in sides:
                ex, ey = s.end[0] - s.start[0], s.end[1] - s.start[1]
                cross = ex * (y - s.start[1]) - ey * (x - s.start[0])
                if cross >= 0:  # interior lies strictly right of clockwise edges
                    inside = False
                    break
            if inside:
                i_int += 1
    return ToricDiagramData(
        cuts=q.cuts,
        points={p: tuple(cs) for p, cs in points.items()},
        corners=corners,
        sides=tuple(sides),
        b=b,
        i_int=i_int,
    )


# ---------------------------------------------------------------------------
# zig-zag paths and strips


@dataclass(frozen=True)
class SideZigZag:
    side: Side
    paths: tuple
    strips: tuple
    alphas: tuple
    zig: tuple
    zag: tuple
    jsets: tuple
    vcycles: dict
    delta: tuple = field(repr=False, default=())

    def arc(self, k: int, kp: int) -> tuple:
        """Sum of strip vectors over the cyclic interval [k, kp[; the empty
        interval notation k == kp stands for the full turn delta."""
        if k == kp:
            return self.delta
        n = len(self.alphas)
        total = [0] * len(self.delta)
        j = k % n
        while j != kp % n:
            total = [t + a for t, a in zip(total, self.alphas[j])]
            j = (j + 1) % n
        return tuple(total)


@dataclass(frozen=True)
class ZigZagData:
    delta: tuple
    sides: tuple


def _successor(q: PeriodicQuiver, sign: int) -> dict[str, str]:
    nxt = {}
    for s, cycle in q.potential:
        if s != sign:
            continue
        for i, aid in enumerate(cycle):
            if aid in nxt:
                raise ValidationError(
                    f"arrow {aid!r} repeats in a potential term; zig-zag paths undefined"
                )
            nxt[aid] = cycle[(i + 1) % len(cycle)]
    return nxt


def zigzag_analysis(q: PeriodicQuiver, diagram: ToricDiagramData) -> ZigZagData:
    n = len(q.nodes)
    idx = q.node_index
    byid = q.arrow_by_id
    delta = (1,) * n
    plus_next = _successor(q, 1)
    minus_next = _successor(q, -1)

    # orbits of the alternating successor map; state = (arrow, next step sign)
    orbits = []
    seen = set()
    for aid in sorted(byid):
        for role in (1, -1):
            if (aid, role) in seen:
                continue
            orbit = []
            cur, r = aid, role
            while (cur, r) not in seen:
                seen.add((cur, r))
                orbit.append(cur)
                cur = plus_next[cur] if r == 1 else minus_next[cur]
                r = -r
            orbits.append(tuple(orbit))

    by_l: dict[Vec, list] = {}
    for orbit in orbits:
        dx = sum(byid[a].disp[0] for a in orbit)
        dy = sum(byid[a].disp[1] for a in orbit)
        by_l.setdefault((dx, dy), []).append(orbit)

    sides = []
    for side in diagram.sides:
        start, end = side.start_cut.arrows, side.end_cut.arrows
        forbidden = start | end
        # undirected components over the remaining arrows
        comp = {v: None for v in q.nodes}
        adj: dict = {v: set() for v in q.nodes}
        for a in q.arrows:
            if a.id not in forbidden:
                adj[a.src].add(a.tgt)
                adj[a.tgt].add(a.src)
        comps = []
        for v in q.nodes:
            if comp[v] is not None:
                continue
            label = len(comps)
            stack = [v]
            comp[v] = label
            nodes = {v}
            while stack:
                for w in adj[stack.pop()]:
                    if comp[w] is None:
                        comp[w] = label
                        nodes.add(w)
                        stack.append(w)
            comps.append(nodes)
        if len(comps) != side.K:
            raise StripCountMismatch(
                f"side {side.name}: {len(comps)} strips for K = {side.K}"
            )
        k_of = [None] * len(comps)
        k_of[comp[q.nodes[0]]] = 0
        order = [comp[q.nodes[0]]]
        for step in range(1, side.K):
            here = order[-1]
            targets = {
                comp[byid[a].tgt]
                for a in end - start
                if comp[byid[a].src] == here
            }
            if len(targets) != 1:
                raise StripCountMismatch(
                    f"side {side.name}: zag arrows out of strip {step - 1} "
                    f"reach {len(targets)} strips"
                )
            (tgt,) = targets
            if k_of[tgt] is not None:
                raise StripCountMismatch(
                    f"side {side.name}: zag arrows close the strip cycle early"
                )
            k_of[tgt] = step
            order.append(tgt)

        def strip(node):
            return k_of[comp[node]]

        for a in q.arrows:
            if a.id in start and a.id in end:
                ok = strip(a.src) == strip(a.tgt)
            elif a.id in start:
                ok = strip(a.tgt) == (strip(a.src) - 1) % side.K
            elif a.id in end:
                ok = strip(a.tgt) == (strip(a.src) + 1) % side.K
            else:
                ok = strip(a.src) == strip(a.tgt)
            if not ok:
                raise StripCountMismatch(
                    f"side {side.name}: arrow {a.id!r} breaks the strip cyclic order"
                )

        strips = tuple(
            frozenset(v for v in q.nodes if strip(v) == k) for k in range(side.K)
        )
        alphas = tuple(
            tuple(1 if v in strips[k] else 0 for v in q.nodes)
            for k in range(side.K)
        )
        zig = tuple(
            frozenset(a for a in start - end if strip(byid[a].tgt) == k)
            for k in range(side.K)
        )
        zag = tuple(
            frozenset(a for a in end - start if strip(byid[a].src) == k)
            for k in range(side.K)
        )
        jsets = tuple(
            frozenset(a for a in start & end if strip(byid[a].src) == k)
            for k in range(side.K)
        )

        paths = []
        pool = list(by_l.get(side.l, []))
        for k in range(side.K):
            want = zig[k] | zag[k]
            match = next((o for o in pool if set(o) == want), None)
            if match is None:
                raise StripCountMismatch(
                    f"side {side.name}: no zig-zag path matches strip {k}"
                )
            i = match.index(min(match))
            paths.append(match[i:] + match[:i])
            pool.remove(match)

        vcycles = {}
        allowed = [a for a in q.arrows if a.id not in forbidden]
        out_of: dict = {}
        for a in allowed:
            out_of.setdefault(a.src, []).append(a)
        for v in q.nodes:
            best = {v: ()}
            frontier = {v: ()}
            cycle = None
            for _ in range(len(q.arrows) + 1):
                grown: dict = {}
                for node, path in sorted(frontier.items(), key=lambda kv: kv[1]):
                    for a in sorted(out_of.get(node, []), key=lambda a: a.id):
                        cand = path + (a.id,)
                        if a.tgt == v:
                            if cycle is None or cand < cycle:
                                cycle = cand
                            continue
                        if a.tgt in best:
                            continue
                        if a.tgt not in grown or cand < grown[a.tgt]:
                            grown[a.tgt] = cand
                if cycle is not None:
                    break
                best.update(grown)
                frontier = grown
                if not frontier:
                    break
            if cycle is None:
                raise StripCountMismatch(
                    f"side {side.name}: no strip cycle through node {v!r}"
                )
            vcycles[v] = cycle

        sides.append(
            SideZigZag(
                side=side,
                paths=tuple(paths),
                strips=strips,
                alphas=alphas,
                zig=zig,
                zag=zag,
                jsets=jsets,
                vcycles=vcycles,
                delta=delta,
            )
        )
    return ZigZagData(delta=delta, sides=tuple(sides))
