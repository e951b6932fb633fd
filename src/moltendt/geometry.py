"""Brane tilings, periodic quivers, and their basic invariants.

A tiling is a bipartite graph on the torus with rational vertex positions;
edges carry an integer shift applied to the black endpoint, so the lift to
the plane is determined by the data.  The dual quiver has one node per face,
one arrow per edge, and one potential term per tiling vertex: white vertices
give the positively signed cycles (counterclockwise), black the negative
ones.  Quivers can also be given directly, in which case the potential and
arrow displacements must already satisfy the tiling-derived constraints.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path

from .errors import ParseError, ValidationError

Vec = tuple[int, int]

BUILTINS = ("c3", "conifold", "c3-z2z2", "spp", "pdp3a", "local-p2", "c2z2-x-c")


def builtin_names() -> tuple[str, ...]:
    return BUILTINS


def _vec(obj, what: str) -> Vec:
    if (
        not isinstance(obj, (list, tuple))
        or len(obj) != 2
        or not all(isinstance(c, int) for c in obj)
    ):
        raise ParseError(f"{what} must be a pair of integers, got {obj!r}")
    return (obj[0], obj[1])


# ---------------------------------------------------------------------------
# tilings


@dataclass(frozen=True)
class TilingNode:
    id: str
    color: str
    pos: tuple[Fraction, Fraction]


@dataclass(frozen=True)
class TilingEdge:
    white: str
    black: str
    shift: Vec


class BraneTiling:
    """Validated bipartite torus graph with an embedding."""

    def __init__(self, nodes: list[TilingNode], edges: list[TilingEdge]):
        ids = [n.id for n in nodes]
        if len(set(ids)) != len(ids):
            raise ValidationError("tiling node ids are not unique")
        byid = {n.id: n for n in nodes}
        for n in nodes:
            if n.color not in ("white", "black"):
                raise ValidationError(f"node {n.id!r} has color {n.color!r}")
            if not all(0 <= c < 1 for c in n.pos):
                raise ValidationError(
                    f"node {n.id!r} position {n.pos} is outside the fundamental domain"
                )
        deg: dict[str, int] = {i: 0 for i in ids}
        for e in edges:
            for end, color in ((e.white, "white"), (e.black, "black")):
                if end not in byid:
                    raise ValidationError(f"edge endpoint {end!r} is not a node")
                if byid[end].color != color:
                    raise ValidationError(
                        f"edge endpoint {end!r} should be {color} but is {byid[end].color}"
                    )
            deg[e.white] += 1
            deg[e.black] += 1
        for i, d in deg.items():
            if d < 2:
                raise ValidationError(f"node {i!r} has degree {d} < 2")
        # connectivity of the graph on the torus
        adj: dict[str, set[str]] = {i: set() for i in ids}
        for e in edges:
            adj[e.white].add(e.black)
            adj[e.black].add(e.white)
        seen = {ids[0]}
        stack = [ids[0]]
        while stack:
            for j in adj[stack.pop()]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        if len(seen) != len(ids):
            raise ValidationError("tiling graph is not connected")
        self.nodes = tuple(nodes)
        self.edges = tuple(edges)


def _parse_tiling(obj: dict) -> BraneTiling:
    def frac(x):
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        raise ParseError(f"position coordinate {x!r} is not a number")

    nodes = []
    for n in obj["nodes"]:
        if not isinstance(n.get("id"), str):
            raise ParseError(f"tiling node id {n.get('id')!r} must be a string")
        pos = n["pos"]
        if not isinstance(pos, list) or len(pos) != 2:
            raise ParseError(f"node {n['id']!r} pos must be a pair")
        nodes.append(TilingNode(n["id"], n["color"], (frac(pos[0]), frac(pos[1]))))
    edges = [
        TilingEdge(e["white"], e["black"], _vec(e["shift"], "edge shift"))
        for e in obj["edges"]
    ]
    return BraneTiling(nodes, edges)


# ---------------------------------------------------------------------------
# quivers


@dataclass(frozen=True)
class Arrow:
    id: str
    src: object
    tgt: object
    disp: Vec


class PeriodicQuiver:
    """Quiver with potential whose arrows carry torus displacements.

    Potential cycles are stored in diagrammatic order: the target of each
    arrow is the source of the next, cyclically.
    """

    def __init__(
        self,
        nodes: list,
        arrows: list[Arrow],
        potential: list[tuple[int, tuple[str, ...]]],
    ):
        if len(set(nodes)) != len(nodes):
            raise ValidationError("quiver node ids are not unique")
        ids = [a.id for a in arrows]
        if len(set(ids)) != len(ids):
            raise ValidationError("arrow ids are not unique")
        byid = {a.id: a for a in arrows}
        nodeset = set(nodes)
        for a in arrows:
            if a.src not in nodeset or a.tgt not in nodeset:
                raise ValidationError(f"arrow {a.id!r} endpoint is not a node")
        membership: dict[str, list[int]] = {i: [0, 0] for i in ids}
        for sign, cycle in potential:
            if sign not in (1, -1):
                raise ValidationError(f"potential sign {sign!r} is not +1 or -1")
            if not cycle:
                raise ValidationError("empty potential cycle")
            for x in cycle:
                if x not in byid:
                    raise ValidationError(f"potential references unknown arrow {x!r}")
            for x, y in zip(cycle, cycle[1:] + cycle[:1]):
                if byid[x].tgt != byid[y].src:
                    raise ValidationError(
                        f"potential cycle {cycle} is not closed at {x!r} -> {y!r}"
                    )
            dx = sum(byid[x].disp[0] for x in cycle)
            dy = sum(byid[x].disp[1] for x in cycle)
            if (dx, dy) != (0, 0):
                raise ValidationError(
                    f"potential cycle {cycle} has net displacement {(dx, dy)}"
                )
            # an arrow repeated inside one cycle still counts as one term
            for x in set(cycle):
                membership[x][0 if sign == 1 else 1] += 1
        for i, (p, m) in membership.items():
            if (p, m) != (1, 1):
                raise ValidationError(
                    f"arrow {i!r} lies in {p} positive and {m} negative terms, expected one each"
                )
        # strong connectivity
        n = len(nodes)
        idx = {v: k for k, v in enumerate(nodes)}
        fwd: list[list[int]] = [[] for _ in range(n)]
        rev: list[list[int]] = [[] for _ in range(n)]
        for a in arrows:
            fwd[idx[a.src]].append(idx[a.tgt])
            rev[idx[a.tgt]].append(idx[a.src])
        for graph in (fwd, rev):
            seen = {0}
            stack = [0]
            while stack:
                for j in graph[stack.pop()]:
                    if j not in seen:
                        seen.add(j)
                        stack.append(j)
            if len(seen) != n:
                raise ValidationError("quiver is not strongly connected")
        self.nodes = tuple(nodes)
        self.arrows = tuple(arrows)
        self.potential = tuple((s, tuple(c)) for s, c in potential)

    @functools.cached_property
    def node_index(self) -> dict:
        return {v: k for k, v in enumerate(self.nodes)}

    @functools.cached_property
    def arrow_by_id(self) -> dict[str, Arrow]:
        return {a.id: a for a in self.arrows}

    @functools.cached_property
    def cuts(self) -> tuple:
        """Every cut of the potential, canonically sorted."""

        from . import matchings

        return tuple(matchings.perfect_matchings(self))

    def to_json_dict(self) -> dict:
        return {
            "nodes": list(self.nodes),
            "arrows": [
                {"id": a.id, "src": a.src, "tgt": a.tgt, "disp": list(a.disp)}
                for a in self.arrows
            ],
            "potential": [
                {"sign": s, "cycle": list(c)} for s, c in self.potential
            ],
        }


def _parse_quiver(obj: dict) -> PeriodicQuiver:
    arrows = []
    for a in obj["arrows"]:
        if not isinstance(a.get("id"), str):
            raise ParseError(f"arrow id {a.get('id')!r} must be a string")
        arrows.append(Arrow(a["id"], a["src"], a["tgt"], _vec(a["disp"], "arrow disp")))
    potential = []
    for t in obj["potential"]:
        sign = t["sign"]
        cycle = t["cycle"]
        if not isinstance(cycle, list):
            raise ParseError(f"potential cycle {cycle!r} must be a list")
        potential.append((sign, tuple(cycle)))
    return PeriodicQuiver(list(obj["nodes"]), arrows, potential)


# ---------------------------------------------------------------------------
# tiling -> quiver conversion

# A dart is (edge index, 0) from white to black or (edge index, 1) back.


def _angle_key(v: tuple[Fraction, Fraction]):
    x, y = v
    if x == 0 and y == 0:
        raise ValidationError("coincident tiling nodes")
    half = 0 if (y > 0 or (y == 0 and x > 0)) else 1
    return half, x, y


def _ccw_sort(vectors: list[tuple[int, tuple[Fraction, Fraction]]]):
    # sort by angle in [0, 2pi); within a half turn, u precedes w iff
    # cross(u, w) > 0
    def cmp(a, b):
        (ha, xa, ya), (hb, xb, yb) = _angle_key(a[1]), _angle_key(b[1])
        if ha != hb:
            return -1 if ha < hb else 1
        cross = xa * yb - ya * xb
        if cross == 0:
            raise ValidationError(
                "two edges leave a tiling node in the same direction"
            )
        return -1 if cross > 0 else 1

    return sorted(vectors, key=functools.cmp_to_key(cmp))


def tiling_to_quiver(t: BraneTiling) -> PeriodicQuiver:
    """Dualize a tiling: faces become nodes, edges arrows, vertices terms."""

    pos = {n.id: n.pos for n in t.nodes}
    # counterclockwise rotation of darts leaving each node
    leaving: dict[str, list[tuple[int, int]]] = {n.id: [] for n in t.nodes}
    vecs: dict[str, list] = {n.id: [] for n in t.nodes}
    for k, e in enumerate(t.edges):
        pw, pb = pos[e.white], pos[e.black]
        dw = (pb[0] + e.shift[0] - pw[0], pb[1] + e.shift[1] - pw[1])
        vecs[e.white].append(((k, 0), dw))
        vecs[e.black].append(((k, 1), (-dw[0], -dw[1])))
    for i in vecs:
        leaving[i] = [d for d, _ in _ccw_sort(vecs[i])]

    def head(dart):
        k, rev = dart
        return t.edges[k].black if rev == 0 else t.edges[k].white

    def dart_shift(dart) -> Vec:
        k, rev = dart
        s = t.edges[k].shift
        return s if rev == 0 else (-s[0], -s[1])

    def next_in_face(dart):
        # continue along the face to the left: step clockwise from the
        # reversed dart in the rotation at the head node
        k, rev = dart
        ring = leaving[head(dart)]
        j = ring.index((k, 1 - rev))
        return ring[j - 1]

    # trace face orbits, tracking node lifts in the universal cover
    face_of: dict[tuple[int, int], int] = {}
    lift_of: dict[tuple[int, int], Vec] = {}  # lift of the dart's tail
    nfaces = 0
    all_darts = [(k, r) for k in range(len(t.edges)) for r in (0, 1)]
    for start in all_darts:
        if start in face_of:
            continue
        orbit = []
        d = start
        lift = (0, 0)
        while True:
            orbit.append((d, lift))
            s = dart_shift(d)
            lift = (lift[0] + s[0], lift[1] + s[1])
            d = next_in_face(d)
            if d == start:
                break
        if lift != (0, 0):
            raise ValidationError("a traced face wraps around the torus")
        base = min(range(len(orbit)), key=lambda i: orbit[i][0])
        ox, oy = orbit[base][1]
        for d, (lx, ly) in orbit:
            face_of[d] = nfaces
            lift_of[d] = (lx - ox, ly - oy)
        nfaces += 1
    if nfaces - len(t.edges) + len(t.nodes) != 0:
        raise ValidationError(
            "face tracing gives Euler characteristic "
            f"{nfaces - len(t.edges) + len(t.nodes)}, not a torus"
        )

    # canonical face numbering by least dart
    first_dart = {}
    for d in all_darts:
        f = face_of[d]
        if f not in first_dart or d < first_dart[f]:
            first_dart[f] = d
    order = sorted(range(nfaces), key=lambda f: first_dart[f])
    rank = {f: i for i, f in enumerate(order)}
    node_ids = [f"f{i}" for i in range(nfaces)]

    arrows = []
    for k, e in enumerate(t.edges):
        src = node_ids[rank[face_of[(k, 1)]]]
        tgt = node_ids[rank[face_of[(k, 0)]]]
        ob = lift_of[(k, 1)]
        ow = lift_of[(k, 0)]
        s = e.shift
        disp = (ob[0] - s[0] - ow[0], ob[1] - s[1] - ow[1])
        arrows.append(Arrow(f"e{k}", src, tgt, disp))

    def rotate_min(cycle: list[str]) -> tuple[str, ...]:
        i = cycle.index(min(cycle))
        return tuple(cycle[i:] + cycle[:i])

    potential = []
    for n in t.nodes:
        ring = leaving[n.id]
        edge_cycle = [k for k, _ in ring]
        if n.color == "black":
            edge_cycle = edge_cycle[::-1]
        potential.append(
            (1 if n.color == "white" else -1, rotate_min([f"e{k}" for k in edge_cycle]))
        )
    potential.sort(key=lambda sc: (-sc[0], sc[1]))

    return PeriodicQuiver(node_ids, arrows, potential)


# ---------------------------------------------------------------------------
# loading


def _load_json(path: Path) -> dict:
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        obj = json.loads(text, parse_float=Fraction)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError(f"{path} does not contain a JSON object")
    return obj


def _from_obj(obj: dict) -> PeriodicQuiver:
    try:
        if "arrows" in obj:
            return _parse_quiver(obj)
        if "edges" in obj:
            return tiling_to_quiver(_parse_tiling(obj))
    except (KeyError, TypeError, AttributeError) as exc:
        raise ParseError(f"malformed geometry object: {exc!r}") from exc
    raise ParseError("geometry object has neither 'arrows' nor 'edges'")


def load_geometry(source) -> PeriodicQuiver:
    """Load a quiver from a builtin name, a quiver file, or a tiling file."""

    if isinstance(source, str) and source in BUILTINS:
        ref = resources.files("moltendt") / "catalog" / f"{source}.json"
        try:
            obj = json.loads(ref.read_text(), parse_float=Fraction)
        except FileNotFoundError as exc:
            raise ParseError(f"builtin {source!r} is missing from the catalog") from exc
        return _from_obj(obj)
    path = Path(source)
    if not path.exists():
        raise ParseError(f"unknown geometry source {source!r}")
    return _from_obj(_load_json(path))


# ---------------------------------------------------------------------------
# derived structures


def euler_form(q: PeriodicQuiver):
    """Numerical Euler form of the Jacobian algebra and its antisymmetrization.

    Returned as a pair of integer matrices indexed like ``q.nodes``.
    """

    n = len(q.nodes)
    idx = q.node_index
    arrows = [[0] * n for _ in range(n)]
    for a in q.arrows:
        arrows[idx[a.src]][idx[a.tgt]] += 1
    chi = tuple(
        tuple((1 if i == j else 0) - arrows[i][j] for j in range(n)) for i in range(n)
    )
    bracket = tuple(
        tuple(chi[i][j] - chi[j][i] for j in range(n)) for i in range(n)
    )
    return chi, bracket


class ReferenceGrading:
    """Cut counts of the arrows against the reference cut ``i0``.

    Together with ``Arrow.disp`` they grade paths; every potential term has
    total weight ((0, 0), 1), which is the central element of the weight
    lattice.
    """

    def __init__(self, i0: frozenset, count: dict):
        self.i0 = i0
        self.count = count


def reference_grading(q: PeriodicQuiver) -> ReferenceGrading:
    i0 = q.cuts[0].arrows
    return ReferenceGrading(i0, {a.id: (1 if a.id in i0 else 0) for a in q.arrows})
