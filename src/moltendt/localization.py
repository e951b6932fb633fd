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
The gauge weights cancel in pairs, a - b against b - a, so only the arrow
weights reach the index.  ``enumerate_crystals`` and ``index`` remain as
the reference path that the walk is tested against.

Weights here live in the displacement plane: the reference-cut depth is
invisible to the acting torus because it preserves the potential, so the
kappa component of every weight is zero throughout.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass

from .crystal import Crystal, Framing, build_erc
from .errors import (
    InfeasiblePattern,
    InvalidInterval,
    ValidationError,
)
from .geometry import PeriodicQuiver, ReferenceGrading, euler_form
from .matchings import ToricDiagramData
from .qspace import QSeries, VRational

Vec = tuple


@dataclass(frozen=True)
class Slope:
    """Generic linear order on weights: s decides, s' breaks ties."""

    s: Vec
    sp: Vec

    def __post_init__(self):
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

    With ``interval``: sign is -1 exactly on the named contiguous run of
    sides and +1 on the rest.  With ``corner``: sign is +1 on the two
    sides meeting at that corner.  Candidates are scanned by |s|^2, then
    lexicographically; the tie-breaker is the quarter-turn of s.
    """

    if (interval is None) == (corner is None):
        raise ValidationError("make_slope needs exactly one of interval or corner")
    if interval is not None:
        negative = _interval_run(diagram, interval)
        constraints = [
            (side.l, -1 if side.name in negative else 1) for side in diagram.sides
        ]
    else:
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
    raise InfeasiblePattern(
        f"no half-plane realizes the signs {[(l, w) for l, w in constraints]}"
    )


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

    steps = [(a.src, a.tgt, a.disp) for a in q.arrows]
    steps.append((None, framing.node, (0, 0)))
    if framing.kind == "d4":
        dx, dy = q.arrow_by_id[framing.seed].disp
        steps.append((framing.companion, None, (-dx, -dy)))
    return steps


def index(
    q: PeriodicQuiver,
    framing: Framing,
    grading: ReferenceGrading,
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


def framed_partition_function(
    q: PeriodicQuiver,
    grading: ReferenceGrading,
    framing: Framing,
    slope: Slope,
    bound: int,
) -> QSeries:
    """Sum of v^index x^d over molten crystals of at most ``bound`` atoms.

    One depth-first walk visits every crystal once.  Atoms are ranked in
    grade order, which is a linear extension of the poset; a child adds an
    addable atom of rank above the last one added.  In rank order every
    prefix of a crystal is a crystal, so each crystal has one path.

    The index is kept up to date as atoms join.  Its gauge part drops out:
    ``Slope.sign`` is antisymmetric, so the same-colour pairs (a, b) and
    (b, a) cancel, d0_plus equals d0_minus, and the index is
    d1_plus - d1_minus.  Adding an atom x of colour c adds only
    the pairs that involve x: arrows into c against the atoms already
    present, arrows out of c against those atoms and x itself, and the
    framing and D4 companion arrows.  The slope becomes the integer key
    s.t * m + s'.t, with m larger than any |s'.w| that occurs, so a sign
    is one integer comparison; each colour keeps its atoms' keys sorted,
    and two bisections count the pairs of each sign along one arrow.

    A child crystal is counted as soon as its atom is chosen, from the
    pairs the atom adds before it joins; a loop arrow's pair of the atom
    with itself comes from a per-colour constant.  At bound - 1 atoms that
    count is all the walk does: the leaves are never built, so no atom is
    inserted, no predecessor count changes and nothing recurses.  The
    dimension vector travels as one int, sum of d_c (bound + 1)^c, and
    becomes a tuple only in the final table.  Z is canonical by
    construction, so it is built by ``QSeries._with`` without the
    constructor's input checks.
    """

    erc = build_erc(q, grading, framing, bound)
    atoms = erc.atoms()
    rank = {a: r for r, a in enumerate(atoms)}
    steps = _framed_steps(q, framing)

    # colour n is the framing node None, present once with weight zero
    n = len(q.nodes)
    color = dict(q.node_index)
    color[None] = n
    (sx, sy), (tx, ty) = slope.s, slope.sp
    # m exceeds |s'.w| for every weight w = b - a - disp compared below
    m = 2 * max(abs(tx * x + ty * y) for _, (x, y), _ in atoms)
    m += max(abs(tx * x + ty * y) for _, _, (x, y) in steps) + 1

    def key(x, y):
        return (sx * x + sy * y) * m + tx * x + ty * y

    into = [[] for _ in range(n)]
    out = [[] for _ in range(n)]
    # pairs of x are counted before x joins, so the pair (x, x) of a loop
    # arrow at x's colour, of weight -disp, is added from here
    self_pair = [0] * n
    for src, tgt, disp in steps:
        kd = key(*disp)
        if tgt is not None:
            into[color[tgt]].append((color[src], kd))
        if src is not None:
            out[color[src]].append((color[tgt], kd))
        if src is not None and src == tgt:
            self_pair[color[src]] += (kd < 0) - (kd > 0)
    col = [color[a[0]] for a in atoms]
    keys = [key(*a[1]) for a in atoms]
    succs = [tuple(rank[b] for b in erc.successors(a)) for a in atoms]
    missing = [len(erc.predecessors(a)) for a in atoms]

    present = [[] for _ in range(n)] + [[0]]
    # a dimension vector is the int sum of dims[c] * radix**c, radix > bound
    radix = bound + 1
    unit = [radix**c for c in range(n)]
    counts: Counter = Counter()

    def grow(candidates, size, dim, total):
        # count each child crystal; descend only into those below the bound
        last = size + 1 == bound
        for i, x in enumerate(candidates):
            c, kx = col[x], keys[x]
            delta = self_pair[c]
            for src, kd in into[c]:
                p = present[src]
                v = kx - kd
                delta += bisect_left(p, v) + bisect_right(p, v) - len(p)
            for tgt, kd in out[c]:
                p = present[tgt]
                v = kx + kd
                delta += len(p) - bisect_left(p, v) - bisect_right(p, v)
            counts[dim + unit[c], total + delta] += 1
            if last:
                continue
            here = present[c]
            at = bisect_right(here, kx)
            here.insert(at, kx)
            enabled = []
            for y in succs[x]:
                missing[y] -= 1
                if not missing[y]:
                    enabled.append(y)
            rest = candidates[i + 1 :]
            grow(
                sorted(rest + enabled) if enabled else rest,
                size + 1,
                dim + unit[c],
                total + delta,
            )
            for y in succs[x]:
                missing[y] += 1
            del here[at]

    counts[0, 0] = 1  # the empty crystal
    if bound:
        grow([rank[erc.root]], 0, 0, 0)
    del grow  # grow holds itself through its closure: free the walk's state now
    polys: dict = {}
    for (dim, total), k in counts.items():
        polys.setdefault(dim, {})[total] = k
    terms = {}
    for dim, poly in polys.items():
        d = []
        for _ in range(n):
            dim, x = divmod(dim, radix)
            d.append(x)
        terms[tuple(d)] = VRational.laurent(poly)
    return QSeries(bound, euler_form(q)[1])._with(terms)
