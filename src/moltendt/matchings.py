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
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

from .errors import (
    AmbiguousCornerError,
    NoCutError,
    StripCountMismatch,
    ValidationError,
)

Vec = tuple[int, int]


class Cut(NamedTuple):
    """A cut: the frozenset of its arrow ids and its lattice point.

    The repr lists the arrows sorted, since a frozenset's own order
    follows string hashing."""

    arrows: frozenset
    point: Vec

    def __repr__(self) -> str:
        return f"Cut(arrows={tuple(sorted(self.arrows))!r}, point={self.point!r})"


class CutList(Sequence):
    """The cuts of a quiver, kept as the sorted int codes of their search
    and decoded into a ``Cut`` only when one is read.

    The code is this class's private storage: ``perfect_matchings`` writes
    it and only this class reads it.  Length, int and negative indexing
    and iteration behave as on a tuple of the decoded cuts, and a slice is
    a CutList.  Two CutLists are equal when they hold the same codes of
    the same search; like a list, a CutList is not hashable.
    """

    __slots__ = ("_codes", "_ids", "_low", "_radix", "_offset")

    def __init__(self, codes: list, ids: tuple, radix: int, offset: int):
        self._codes = codes
        self._ids = ids
        self._low = (1 << len(ids)) - 1
        self._radix = radix
        self._offset = offset

    def __len__(self) -> int:
        return len(self._codes)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return CutList(self._codes[i], self._ids, self._radix, self._offset)
        return self._cut(self._codes[i])

    def __iter__(self):
        return map(self._cut, self._codes)

    def __eq__(self, other):
        if not isinstance(other, CutList):
            return NotImplemented
        return (self._ids, self._radix, self._offset, self._codes) == (
            other._ids, other._radix, other._offset, other._codes
        )

    __hash__ = None

    def _point(self, field: int) -> Vec:
        r, s = self._radix, self._offset
        return field // r - s, field % r - s

    def _cut(self, code: int) -> Cut:
        # the low bits hold the complement of the arrow mask, the least id
        # on the highest bit (see perfect_matchings)
        ids, mask, top = self._ids, ~code & self._low, len(self._ids) - 1
        arrows = []
        while mask:
            b = mask.bit_length() - 1
            arrows.append(ids[top - b])
            mask ^= 1 << b
        return Cut(frozenset(arrows), self._point(code >> len(ids)))

    def _runs(self):
        """(point, CutList of the cuts there) for each lattice point, in
        order: the codes are sorted, so one point field is one run."""

        codes, width, i = self._codes, len(self._ids), 0
        while i < len(codes):
            field = codes[i] >> width
            j = bisect_left(codes, field + 1 << width, i)
            yield self._point(field), self[i:j]
            i = j


@dataclass(frozen=True)
class Side:
    """A side of the toric diagram, clockwise from the corner of
    ``start_cut`` to that of ``end_cut``: ``l`` is the primitive outward
    normal and ``K`` the lattice length."""

    name: str
    l: Vec
    K: int
    start_cut: Cut
    end_cut: Cut


@dataclass(frozen=True)
class ToricDiagramData:
    cuts: CutList
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

    moves = q.moves  # the lex-least candidate wins whatever the scan order
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
            node, (x, y) = state
            path = best[state]
            for aid, sign, far, dx, dy in moves[node]:
                ns = (far, (x + dx, y + dy))
                if ns not in best:
                    cand = path + ((aid, sign),)
                    if ns not in grown or cand < grown[ns]:
                        grown[ns] = cand
        best.update(grown)
        frontier = list(grown)
    raise ValidationError("arrow displacements do not reach the requested homology class")


def perfect_matchings(q: PeriodicQuiver) -> CutList:
    """Every cut, canonically sorted by point and then by sorted arrow
    ids, in a ``CutList``: the cut search, which ``PeriodicQuiver.cuts``
    runs once per quiver.

    NoCutError names the cause: unequal positive and negative term counts,
    a term whose every arrow repeats inside one of its terms, or no
    perfect matching at all.

    The positive terms are matched one by one, in a sweep order that next
    takes the term sharing the most negative terms (columns) with the
    terms already taken.  A state is the set of used columns as a bit
    mask; its bit count is its depth.  A state is dropped when a free
    column lies out of reach of every remaining term.

    Each partial cut is one int, its code, which only ``CutList`` reads
    back.  With L arrows, the arrow of sorted rank r on bit L - 1 - r of
    the arrow mask, and the point (x, y) the sum of the arrows' chain
    counts chi = (chi_0, chi_1),

        code = ((x + s) * R + (y + s)) * 2^L + (2^L - 1 - mask),

    where s = sum over all arrows of |chi_0| + |chi_1| bounds |x| and |y|,
    and R = 2s + 1.  So the low L bits never borrow from the point, and
    y + s never carries into x.  An arrow adds ((chi_0 * R + chi_1) << L)
    minus its bit to a code.  A prefix and its completion use disjoint
    arrows, whose bits are distinct, so their sum of bits is the or of
    their masks, and a cut's code is its prefix's code plus its
    completion's summed arrow ints.  Sorting the codes sorts the cuts by
    point and then by mask descending.  Equal-size arrow sets compare as
    their sorted id tuples do exactly when their masks compare in
    reverse: the first place two sorted tuples differ holds the least
    arrow in only one of the sets, on the higher bit.

    The search splits at depth h = min(n, n // 2 + 1) of the n terms.
    Above h it runs depth first, carrying the running mask of used columns
    and code.  From h on it reads a table that holds, once per mask, every
    completion as one summed int.  Many prefixes share few masks near the
    end: on C^3/Z_5 x Z_5 the plain depth-first search made 80,166 calls
    for 7,623 cuts, 6,636 to 7,626 at each of the depths 19 to 24, where
    at most 25 masks exist at depth 24.  The split search makes 10,198
    calls above h and 9,822 table reads, and on C^3/Z_6 x Z_6 216,628 and
    127,355.  Remembering the masks above h that have no completion cuts
    those to 8,756 and 8,707 (162,539 and 93,934) but saves only 3% of the
    search's time on C^3/Z_5 x Z_5 and 12% on C^3/Z_6 x Z_6, which no
    workload runs, so the search remembers none.  A lower h trades memory
    for time: on C^3/Z_5 x Z_5 (h = 13 of 25) h = 10 runs 12% faster and
    peaks at 1.8 MiB against 1.1 MiB, and on C^3/Z_6 x Z_6 (h = 19 of 36)
    h = 17 runs 25% faster at 23 MiB against 20 MiB, while h = 21 runs 60%
    slower.

    The table stays small beside the cuts it yields: 4,494 masks and
    4,024 completions on C^3/Z_5 x Z_5, 28,904 and 40,967 on
    C^3/Z_6 x Z_6 (263,640 cuts).  The sorted codes are the returned
    list's storage, so no ``Cut`` and no arrow set is built.  The peak
    traced memory of one call is 1.1 MiB on C^3/Z_5 x Z_5, of which the
    codes hold 0.39 MiB, and 20 MiB on C^3/Z_6 x Z_6, of which they hold
    13 MiB.
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
    ids = tuple(sorted(chi))
    L = len(ids)
    s = sum(abs(x) + abs(y) for x, y in chi.values())
    R = 2 * s + 1
    arrow_code = {  # its point up high, minus its mask bit
        aid: ((chi[aid][0] * R + chi[aid][1]) << L) - (1 << (L - 1 - r))
        for r, aid in enumerate(ids)
    }
    options = [
        [(column[a], arrow_code[a]) for a in sorted(set(cyc) - repeated)]
        for cyc in pos
    ]
    reach = [0] * n  # the columns each term can take
    for t, opts in enumerate(options):
        for bit, _ in opts:
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
    split = min(n, n // 2 + 1)
    # tails[m]: the summed arrow ints of every completion of a used-column
    # mask m of depth at least split; the full mask has one, the empty sum
    tails: dict[int, list] = {(1 << n) - 1: [0]}

    def tail(mask: int) -> list:
        out = tails.get(mask)
        if out is not None:
            return out
        out = tails[mask] = []
        depth = mask.bit_count()
        unreached = out_of_reach[depth + 1]
        for bit, w in sweep[depth]:
            m = mask | bit
            if m == mask or unreached & ~m:
                continue
            out += [w + t for t in tail(m)]
        return out

    found: list = []

    def grow(depth: int, mask: int, code: int) -> None:
        unreached = out_of_reach[depth + 1]
        for bit, w in sweep[depth]:
            m = mask | bit
            if m == mask or unreached & ~m:
                continue
            if depth + 1 < split:
                grow(depth + 1, m, code + w)
            else:
                c = code + w
                found.extend([c + t for t in tail(m)])

    low = (1 << L) - 1
    grow(0, 0, ((s * R + s) << L) + low)
    # Each closure holds itself through its cell; dropping both names frees
    # them, and with them the tables and the search's references, now
    # rather than at the next cycle collection.
    del grow, tail
    if not found:
        raise NoCutError(
            "perfect_matchings: no perfect matching exists; the usable arrows"
            f" cannot pair the {n} positive terms one to one with the negative terms"
        )
    found.sort()
    return CutList(found, ids, R, s)


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
    """The toric diagram of ``q``: its cuts, the cuts at each lattice
    point, the hull corners clockwise from the lex-least, the sides
    between them, the boundary point count ``b`` and the interior point
    count ``i_int``.

    ``cuts`` is ``q.cuts``, and each value of ``points`` is the slice of
    it at one point, found without decoding a cut; each side holds its two
    corner cuts, the only cuts decoded.  On C^3/Z_6 x Z_6 a call, with its
    cut search, peaks at 40 MB resident in its own process and takes 0.36
    to 0.48 s.

    AmbiguousCornerError is raised when a hull corner holds more than one
    cut, and ValidationError when the points span no area.
    """

    points = dict(q.cuts._runs())
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
                l=(-ey // k, ex // k),
                K=k,
                start_cut=corner_cut[p],
                end_cut=corner_cut[nxt],
            )
        )
    b = sum(s.K for s in sides)
    xs = [p[0] for p in corners]
    ys = [p[1] for p in corners]
    edges = list(zip(corners, corners[1:] + corners[:1]))
    i_int = 0
    for x in range(min(xs) + 1, max(xs)):
        for y in range(min(ys) + 1, max(ys)):
            # the interior lies strictly right of every clockwise edge
            i_int += all(
                (ex - sx) * (y - sy) < (ey - sy) * (x - sx)
                for (sx, sy), (ex, ey) in edges
            )
    return ToricDiagramData(
        cuts=q.cuts,
        points=points,
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

    def arc(self, k: int, kp: int) -> tuple:
        """Sum of strip vectors over the cyclic interval [k, kp[.  Both
        indices are read mod K, and k == kp (mod K) stands for the full
        turn, the sum of all the alphas: delta, the all-ones vector over
        the quiver's nodes, since the strips partition them."""
        n = len(self.alphas)
        span = (kp - k) % n or n
        rows = [self.alphas[j % n] for j in range(k, k + span)]
        return tuple(sum(row[v] for row in rows) for v in range(len(self.alphas[0])))


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


def _zigzag_path(arrows: frozenset, l: Vec, succ: dict, byid: dict) -> tuple | None:
    """The zig-zag path over exactly ``arrows`` that winds along ``l``, or
    None.  It is the orbit of the least arrow under the alternating
    successor map, taking the map of role +1 first and then of -1, and it
    is given up as soon as it steps outside ``arrows``.  Each arrow lies in
    one term of each sign, so the map permutes the (arrow, role) states and
    every orbit closes at its start."""

    if not arrows:
        return None
    first = min(arrows)
    for role in (1, -1):
        path, cur, r = [first], succ[role][first], -role
        while cur in arrows and (cur, r) != (first, role):
            path.append(cur)
            cur, r = succ[r][cur], -r
        winding = tuple(map(sum, zip(*(byid[a].disp for a in path))))
        if (cur, r) == (first, role) and set(path) == arrows and winding == l:
            return tuple(path)
    return None


def zigzag_analysis(q: PeriodicQuiver, diagram: ToricDiagramData) -> tuple[SideZigZag, ...]:
    """The zig-zag strips and paths of every side of the toric diagram.

    A tuple of one ``SideZigZag`` per diagram side, in the diagram's
    order; each holds the ``side`` itself and five tuples indexed by strip
    k.  The side's two corner cuts define a height on the nodes, read mod
    ``side.K``: 0 at ``q.nodes[0]``, up by one across an arrow of the end
    cut only, down by one across an arrow of the start cut only, and level
    across any other arrow, one of both cuts included.  Strip k is the
    level set of height k.  ``strips[k]`` is its node set and ``alphas[k]``
    its indicator vector over ``q.nodes``; ``zig[k]`` holds the
    start-cut-only arrows into the strip and ``zag[k]`` the end-cut-only
    arrows out of it.  Each side's alphas sum to delta, the all-ones vector
    over ``q.nodes``, which ``arc(k, k)`` returns for every k.

    One search labels every node.  It covers each strip whole, over the
    arrows of neither cut, before it crosses an arrow of a cut, so it
    counts the strips as it goes, and it checks an arrow's step whenever
    it meets an end that is already labelled.

    ``paths[k]`` is the zig-zag path of strip k, traced from the strip's
    own arrows: from the least arrow of ``zig[k] | zag[k]`` it alternates
    the successor maps of the positive and the negative terms, taking the
    positive map first and, failing that, the negative one.  A path is kept
    when its arrow set is exactly ``zig[k] | zag[k]`` and its arrow
    displacements sum to the side vector ``side.l``; it starts at its least
    arrow.

    StripCountMismatch names the side.  It is raised when an arrow's two
    ends disagree with its step, when the strip count or the number of
    distinct heights differs from K, and when no zig-zag path matches a
    strip, an empty one included.  A diagram of another quiver, whose cuts
    are not ``q.cuts``, raises ValidationError.
    """

    if diagram.cuts != q.cuts:
        raise ValidationError("zigzag_analysis: the diagram's cuts are not those of the quiver")
    byid = q.arrow_by_id
    succ = {1: _successor(q, 1), -1: _successor(q, -1)}
    moves = q.moves

    sides = []
    for side in diagram.sides:
        start, end, K = side.start_cut.arrows, side.end_cut.arrows, side.K
        step = {a: (a in end) - (a in start) for a in start | end}
        height: dict = {}
        crossed = [(q.nodes[0], 0)]  # far ends of cut arrows, with heights
        count = 0
        while crossed:
            v, h = crossed.pop()
            if v in height:
                continue
            count += 1
            height[v] = h
            stack = [v]
            while stack:
                u = stack.pop()
                for aid, sense, w, _, _ in moves[u]:
                    hw = (height[u] + sense * step.get(aid, 0)) % K
                    if w in height:
                        if height[w] != hw:
                            raise StripCountMismatch(
                                f"side {side.name}: arrow {aid!r} breaks the strip cyclic order"
                            )
                    elif aid in step:
                        crossed.append((w, hw))
                    else:
                        height[w] = hw
                        stack.append(w)
        if count != K:
            raise StripCountMismatch(f"side {side.name}: {count} strips for K = {K}")
        levels = len(set(height.values()))
        if levels != K:
            raise StripCountMismatch(f"side {side.name}: {levels} heights for K = {K}")

        strips = tuple(
            frozenset(v for v in q.nodes if height[v] == k) for k in range(K)
        )
        alphas = tuple(
            tuple(1 if height[v] == k else 0 for v in q.nodes) for k in range(K)
        )
        zig = tuple(
            frozenset(a for a in start - end if height[byid[a].tgt] == k)
            for k in range(K)
        )
        zag = tuple(
            frozenset(a for a in end - start if height[byid[a].src] == k)
            for k in range(K)
        )

        paths = []
        for k in range(K):
            path = _zigzag_path(zig[k] | zag[k], side.l, succ, byid)
            if path is None:
                raise StripCountMismatch(
                    f"side {side.name}: no zig-zag path matches strip {k}"
                )
            paths.append(path)
        sides.append(SideZigZag(side, tuple(paths), strips, alphas, zig, zag))
    return tuple(sides)
