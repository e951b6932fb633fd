"""Slopes, virtual-tangent indices, and framed partition functions.

A slope is an integer functional on the weight plane, made generic by a
lexicographic tie-breaker: it assigns a strict sign to every nonzero
weight.  The index of a crystal counts the tangent weights (gauge pairs
minus arrow deformation pairs) that the slope classifies as contracting
versus repelling; the framed partition function sums v^index over molten
crystals, graded by dimension vector in the quantum affine space.

``framed_partition_function`` does not build crystals or call
``Slope.sign``: one depth-first walk over the atom poset reaches every
crystal once and updates the index by the weight pairs each new atom adds.
It reads the atoms as the numbers ``build_erc`` gave them, and their
successors and predecessor counts from its lists.  The gauge weights
cancel in pairs, a - b against b - a, so only the arrow weights reach the
index.  The framing node is one more node, with one atom of weight zero
that every crystal holds; the framing lists its arrows, and they are
paired like the quiver's.  Each candidate atom carries its index change
down the walk, gaining one memoised pair term per atom added.  An atom is
set up, in one place, when it first becomes addable; it then sums its
memoised pairs with the framing atom and with the atoms of the current
crystal, which the walk keeps as one stack: the pair term is symmetric in
its two atoms, so one memo, a row per atom, serves both counts.  The last
level is counted in its parent's loop.  The counts are grouped by
dimension key in one pass, and ``_keyed`` sorts the keys once, which lists
Z's terms in order.
``enumerate_crystals`` and ``index`` remain as the reference path that the
walk is tested against.

Weights here live in the displacement plane: the reference-cut depth is
invisible to the acting torus because it preserves the potential, so the
kappa component of every weight is zero throughout.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from math import isqrt

from .crystal import Crystal, Framing, build_erc
from .errors import (
    InfeasiblePattern,
    InvalidInterval,
    ValidationError,
    _check_int,
)
from .geometry import PeriodicQuiver, euler_form
from .matchings import ToricDiagramData
from .qspace import QSeries, VRational, _dim_key, _keyed

Vec = tuple


@dataclass(frozen=True)
class Slope:
    """Generic linear order on weights: s decides, s' breaks ties."""

    s: Vec
    sp: Vec

    def __post_init__(self):
        for what, vec in (("slope", self.s), ("tie-breaker", self.sp)):
            if not isinstance(vec, tuple) or len(vec) != 2:
                raise ValidationError(f"Slope: {what} {vec!r} is not a pair of ints")
            for x in vec:
                _check_int(x, f"Slope: {what} entry")
        (sx, sy), (tx, ty) = self.s, self.sp
        if (sx, sy) == (0, 0):
            raise ValidationError("slope functional must be nonzero")
        if sx * ty - sy * tx == 0:
            raise ValidationError("tie-breaker is parallel to the slope")

    def sign(self, w) -> int:
        a = self.s[0] * w[0] + self.s[1] * w[1]
        if a:
            return 1 if a > 0 else -1
        b = self.sp[0] * w[0] + self.sp[1] * w[1]
        if b:
            return 1 if b > 0 else -1
        return 0

    def negated(self) -> "Slope":
        return Slope((-self.s[0], -self.s[1]), (-self.sp[0], -self.sp[1]))


def parse_interval(diagram: ToricDiagramData, text: str) -> tuple:
    """Expand "za..zb" to the run of side names from za to zb inclusive."""

    if not isinstance(text, str):
        raise InvalidInterval(f"interval {text!r} is not a string")
    if ".." not in text:
        raise InvalidInterval(f"interval {text!r} is not of the form z<i>..z<j>")
    first, last = text.split("..", 1)
    names = [s.name for s in diagram.sides]
    if first not in names or last not in names:
        raise InvalidInterval(f"interval {text!r} names an unknown side")
    i = names.index(first)
    run = [first]
    while run[-1] != last:
        i = (i + 1) % len(names)
        run.append(names[i])
    return tuple(run)


def _interval_run(diagram: ToricDiagramData, interval) -> set:
    if isinstance(interval, str):
        raise InvalidInterval(
            f"interval {interval!r} is a string: an interval is a list or tuple"
            ' of side names, and parse_interval reads "za..zb"'
        )
    # any other iterable, bytes or a dict say, would be read item by item
    if not isinstance(interval, (list, tuple)):
        raise InvalidInterval(f"interval {interval!r} is not a list or tuple of side names")
    names = [s.name for s in diagram.sides]
    wanted = []
    for z in interval:
        if z not in names:
            raise InvalidInterval(f"{z!r} is not a side of this diagram")
        if z not in wanted:
            wanted.append(z)
    if not wanted:
        raise InvalidInterval("empty side interval")
    if len(wanted) < len(names):
        starts = [
            z for z in wanted if names[(names.index(z) - 1) % len(names)] not in wanted
        ]
        if len(starts) != 1:
            raise InvalidInterval(f"sides {sorted(wanted)} are not a contiguous run")
    return set(wanted)


def make_slope(
    diagram: ToricDiagramData,
    interval=None,
    corner: int | None = None,
) -> Slope:
    """Smallest slope realizing a side sign pattern.

    With ``interval``, a list or tuple of side names: sign is -1 exactly on the
    named contiguous run of sides and +1 on the rest.  With ``corner``:
    sign is +1 on the two sides meeting at that corner.  Candidates are
    scanned by |s|^2, then lexicographically; the tie-breaker is the
    quarter-turn of s.

    The scan stops at the first disc |s| <= r that holds a feasible s, and
    at r = 2 L^2 + 2 for side normals of coordinates at most L.  A feasible
    pattern always has a solution of length at most 2 sqrt(2) L, which is
    less: the sum of the primitive directions of the two rays that bound
    the open cone of solutions, a side normal or its negation when that
    cone is a half-plane, or one such direction when only the tie-breaker
    decides.
    So the result is the one a scan of the whole square grid gives.
    """

    if (interval is None) == (corner is None):
        raise ValidationError("make_slope needs exactly one of interval or corner")
    if interval is not None:
        negative = _interval_run(diagram, interval)
        constraints = [
            (side.l, -1 if side.name in negative else 1) for side in diagram.sides
        ]
    else:
        _check_int(corner, "make_slope: corner")
        n = len(diagram.corners)
        if not 0 <= corner < n:
            raise ValidationError(f"corner index {corner} out of range 0..{n - 1}")
        constraints = [
            (diagram.sides[(corner - 1) % n].l, 1),
            (diagram.sides[corner].l, 1),
        ]
    radius = 2 * max(
        max(abs(l[0]), abs(l[1])) for l, _ in constraints
    ) ** 2 + 2
    for s in _by_norm(radius):
        slope = Slope(s, (-s[1], s[0]))
        if all(slope.sign(l) == want for l, want in constraints):
            return slope
    raise InfeasiblePattern(
        f"no half-plane realizes the signs {[(l, w) for l, w in constraints]}"
    )


def _by_norm(radius: int):
    """Nonzero integer points with |s| <= ``radius``, by (|s|^2, s).

    The points come norm by norm, so a search that stops early never
    reaches the outer ones: for each norm n and each x in turn, the y with
    x^2 + y^2 = n, -y before y.
    """

    for n in range(1, radius * radius + 1):
        for x in range(-isqrt(n), isqrt(n) + 1):
            y = isqrt(n - x * x)
            if y * y == n - x * x:
                yield (x, -y)
                if y:
                    yield (x, y)


@dataclass(frozen=True)
class IndexReport:
    """Sign census of the gauge (degree 0) and arrow (degree 1) weights."""

    d0_plus: int
    d0_minus: int
    d0_zero: int
    d1_plus: int
    d1_minus: int
    d1_zero: int

    @property
    def index(self) -> int:
        return -self.d0_plus + self.d1_plus - self.d1_minus + self.d0_minus


def _framed_steps(q: PeriodicQuiver, framing: Framing):
    """Arrow data (src, tgt, disp) with the framing node spelled None."""

    return [(a.src, a.tgt, a.disp) for a in q.arrows] + list(framing.arrows)


def index(
    q: PeriodicQuiver,
    framing: Framing,
    grading: dict[str, int],
    crystal: Crystal,
    slope: Slope,
) -> IndexReport:
    """Full sign census of one crystal's tangent weights.

    This is the reference path: it recounts every weight pair with
    ``Slope.sign``.  ``framed_partition_function`` reaches the same index
    incrementally and is tested against this census.  ``grading`` is not
    read; it keeps its place for callers that pass the arguments by
    position.
    """

    by_color: dict = {}
    for node, t, n in crystal.atoms:
        by_color.setdefault(node, []).append(t)
    census = {0: {1: 0, -1: 0, 0: 0}, 1: {1: 0, -1: 0, 0: 0}}
    for atoms in by_color.values():
        for ax, ay in atoms:
            for bx, by in atoms:
                census[0][slope.sign((ax - bx, ay - by))] += 1
    # None marks the framing node, whose single state carries weight zero
    states = dict(by_color)
    states[None] = [(0, 0)]
    for src, tgt, (dx, dy) in _framed_steps(q, framing):
        for ax, ay in states.get(src, ()):
            for bx, by in states.get(tgt, ()):
                census[1][slope.sign((bx - ax - dx, by - ay - dy))] += 1
    return IndexReport(
        d0_plus=census[0][1],
        d0_minus=census[0][-1],
        d0_zero=census[0][0],
        d1_plus=census[1][1],
        d1_minus=census[1][-1],
        d1_zero=census[1][0],
    )


class _Row(dict):
    """pair(x, y) for one atom x, by the number of y, each computed on its
    first lookup: what x, once present, adds to the index change of y."""

    __slots__ = ("key", "out", "back", "keys", "colors")

    def __init__(self, key, out, back, keys, colors):
        self.key = key
        self.out = out
        self.back = back
        self.keys = keys
        self.colors = colors

    def __missing__(self, y):
        w = self.keys[y] - self.key
        c = self.colors[y]
        p = 0
        for kd in self.out[c]:
            p += (w > kd) - (w < kd)
        for kd in self.back[c]:
            p += (kd < -w) - (kd > -w)
        self[y] = p
        return p


def framed_partition_function(
    q: PeriodicQuiver,
    grading: dict[str, int],
    framing: Framing,
    slope: Slope,
    bound: int,
) -> QSeries:
    """Sum of v^index x^d over molten crystals of at most ``bound`` atoms.

    One depth-first walk visits every crystal once.  At a crystal S it
    holds a list of candidates, atoms addable to S.  Branch i adds the i-th
    candidate x and bars the candidates before it from the whole branch;
    the child's candidates are the ones after x plus the atoms x makes
    addable.  A crystal is reached along the one path that adds, at each
    step, the first candidate in list order that it holds, so the numbering
    of the atoms and the order of the lists do not matter.

    The gauge part of the index drops out: ``Slope.sign`` is antisymmetric,
    so the same-colour pairs (a, b) and (b, a) cancel and the index is
    d1_plus - d1_minus.  Adding y to S adds the arrow weights that involve
    y, so the index grows by delta(y | S) = base(y) + sum over a in S of
    pair(a, y).  The framing node is colour n, with one atom f of key 0,
    numbered after the sweep's atoms and never added: every crystal holds
    it, and ``framing.arrows`` join the quiver's arrows in the same tables.
    base(y) = fixed(c) + pair(f, y), where fixed(c) holds the dimension
    step of y's colour c and y's pairs with itself along loop arrows, and
    pair(f, y) its pairs with f along the framing and companion arrows;
    pair(a, y) signs the weights of the arrows between a's colour and y's,
    both ways.  The slope becomes the integer key s.t * m + s'.t, with m
    larger than any |s'.w| that occurs, so a sign is one integer
    comparison.

    Deltas are carried down the walk: a candidate y that passes from S to
    S + x gains pair(x, y), one lookup.  pair(x, y) depends on the two atoms
    only, so it is computed once per call, when first needed, and kept in
    x's row: a dict, held in a list by atom number, that computes a missing
    entry itself.  Only an atom that x makes addable is counted from
    scratch, as base(y) plus its pairs with the atoms held, a stack the walk
    pushes x onto on the way down and pops on the way back.  Those pairs
    come from y's own row, because pair is symmetric: with
    w = key(y) - key(x), pair(x, y) sums sgn(w - kd) over the arrows from
    x's colour to y's and sgn(-w - kd) over the arrows back, and swapping x
    and y sends w to -w and swaps the two arrow lists.

    A crystal is counted as soon as its atom is chosen, under the one int
    span * key(d) + index, key(d) the dimension key of the ``qspace``
    module docstring and span larger than twice any |index|; a candidate
    carries its step to that int, so a child's is its parent's plus the
    step.  The last level is fused: the children of a crystal of bound - 1
    atoms are counted in the loop that chose its last atom, so leaves are
    never built.  The atoms are the numbers ``build_erc`` gave them: the
    walk reads their successors and predecessor counts from its lists.  An
    atom is set up in one place, ``fresh``, the first time it becomes
    addable: its key, its row and base(y), read from that row, are made
    there, so an atom the walk never reaches is never set up.  At the end
    each count's int splits into its dimension key and index, and one pass
    groups the counts by key; ``_keyed`` sorts the keys once, into term
    order, and decodes each once.  Z is canonical by construction, so it
    is built without the constructor's input checks.  A ``slope`` that is
    not a ``Slope`` raises ``ValidationError``, as does any input that
    ``build_erc`` refuses.
    """

    if not isinstance(slope, Slope):
        raise ValidationError(f"framed_partition_function: slope {slope!r} is not a Slope")
    erc = build_erc(q, grading, framing, bound)
    arrows = _framed_steps(q, framing)

    n = len(q.nodes)
    # the framing node is colour n, with one atom, of key 0, numbered after
    # the sweep's atoms
    color = {**q.node_index, None: n}
    frame = len(erc.by_number)
    colors = erc.colors + [n]
    (sx, sy), (tx, ty) = slope.s, slope.sp
    # an atom the walk compares sits in a crystal of at most bound atoms,
    # which holds a chain of arrows from the root to it, so |s'.t| is at
    # most (bound - 1) reach and m exceeds |s'.w| for every weight
    # w = b - a - disp compared below
    reach = max(abs(tx * x + ty * y) for _, _, (x, y) in arrows)
    m = (2 * bound + 1) * reach + 1

    # no index exceeds in size the number of weight pairs, len(arrows) b^2
    radix = bound + 1
    off = len(arrows) * bound * bound
    span = 2 * off + 1
    # fixed[c]: the step of a colour-c atom from its dimension and from its
    # pairs with itself along loop arrows, of weight -disp
    fixed = [
        _dim_key([int(i == c) for i in range(n)], radix) * span for c in range(n)
    ]
    # between[a][b] and back[b][a]: the keys of the arrows from colour a to b
    between = [[[] for _ in range(n + 1)] for _ in range(n + 1)]
    back = [[between[a][b] for a in range(n + 1)] for b in range(n + 1)]
    for src, tgt, (dx, dy) in arrows:
        cs, ct = color[src], color[tgt]
        kd = (sx * dx + sy * dy) * m + tx * dx + ty * dy
        between[cs][ct].append(kd)
        if cs == ct:
            fixed[cs] += (kd < 0) - (kd > 0)

    # what the walk reads of an atom, by its number: its key, its row and
    # its base step, all set up in fresh; the framing atom's key,
    # keys[frame], is 0.  rows[x][y] is pair(x, y), which is also pair(y, x)
    keys = [0] * (frame + 1)
    rows = [None] * frame
    base = [0] * frame
    succ = erc.succ
    missing = list(erc.npreds)
    # the atoms of the current crystal, in the order they were added
    held = []

    def fresh(y):
        # the step of a newly addable atom, counted against the held atoms;
        # the first time y becomes addable it is set up, its base step the
        # step of y alone: fixed plus its pair with the framing atom
        row = rows[y]
        if row is None:
            c = colors[y]
            _, (x, z), _ = erc.by_number[y]
            k = keys[y] = (sx * x + sy * z) * m + tx * x + ty * z
            row = rows[y] = _Row(k, between[c], back[c], keys, colors)
            base[y] = fixed[c] + row[frame]
        return base[y] + sum(map(row.__getitem__, held))

    counts = defaultdict(int)

    def grow(cands, steps, key, size):
        fused = size + 2 == bound
        for i, x in enumerate(cands):
            k = key + steps[i]
            counts[k] += 1
            row = rows[x]
            rest = cands[i + 1 :]
            ss = succ[x]
            new = []
            for y in ss:
                missing[y] -= 1
                if not missing[y]:
                    new.append(y)
            if fused:
                # the children of S + x have bound atoms: count them here
                for y, step in zip(rest, steps[i + 1 :]):
                    counts[k + step + row[y]] += 1
            # x is held while the new atoms are counted
            held.append(x)
            if fused:
                for y in new:
                    counts[k + fresh(y)] += 1
            else:
                after = [step + row[y] for y, step in zip(rest, steps[i + 1 :])]
                after += map(fresh, new)
                grow(rest + new, after, k, size + 1)
            held.pop()
            for y in ss:
                missing[y] += 1

    counts[0] = 1  # the empty crystal
    if bound:
        # the root, number 0, is the one atom addable to the empty crystal
        grow([0], [fresh(0)], 0, 0)
    del grow  # grow holds itself through its closure: free the walk's state now
    # every count is positive, so each poly is already a reduced numerator
    polys = defaultdict(dict)
    for k, c in counts.items():
        key, e = divmod(k + off, span)
        polys[key][e - off] = c
    coeffs = {key: VRational(poly, _raw=True) for key, poly in polys.items()}
    return _keyed(bound, euler_form(q)[1], coeffs)
