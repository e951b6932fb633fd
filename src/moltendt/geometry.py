"""Brane tilings, periodic quivers, and their basic invariants.

A tiling is a bipartite graph on the torus with rational vertex positions;
edges carry an integer shift applied to the black endpoint, so the lift to
the plane is determined by the data.  A tiling document is read into plain
data, a dict of nodes and a list of edges, and then dualized.  The
dual quiver has one node per face, numbered in the order the faces are
traced from their least darts, one arrow per edge, and one potential term
per tiling vertex: white vertices give the positively signed cycles
(counterclockwise), black the negative ones.  Quivers can also be given
directly, in which case the potential and arrow displacements must already
satisfy the tiling-derived constraints.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from os import PathLike
from pathlib import Path

from . import matchings
from .errors import ParseError, ValidationError

Vec = tuple[int, int]

BUILTINS = ("c3", "conifold", "c3-z2z2", "spp", "pdp3a", "local-p2", "c2z2-x-c")


def builtin_names() -> tuple[str, ...]:
    return BUILTINS


def _vec(obj, what: str) -> Vec:
    if (
        not isinstance(obj, (list, tuple))
        or len(obj) != 2
        or not all(type(c) is int for c in obj)
    ):
        raise ParseError(f"{what} must be a pair of integers, got {obj!r}")
    return (obj[0], obj[1])


def _fields(obj, keys, kind: str, entry: bool = True) -> list:
    """The values of ``keys`` in ``obj``, a JSON object that is one
    ``kind`` of a geometry document.  A ParseError names the kind, then
    ``obj`` itself if it is an ``entry`` of a list, and the first missing
    key."""

    if not isinstance(obj, dict):
        raise ParseError(f"{kind} {obj!r} must be an object")
    try:
        return [obj[key] for key in keys]
    except KeyError as exc:
        name = f"{kind} {obj!r}" if entry else kind
        raise ParseError(f"{name} has no {exc.args[0]!r}") from None


def _list(value, what: str) -> list:
    # a string or a dict would be read as its characters or its keys
    if not isinstance(value, list):
        raise ParseError(f"{what} {value!r} must be a list")
    return value


def _names(values, what: str):
    """``values`` if each can name a node or an arrow; a list or an object
    cannot."""

    for value in values:
        if isinstance(value, (list, dict)):
            raise ParseError(f"{what} {value!r} must be a string or a number")
    return values


def _reaches_all(nodes, steps) -> bool:
    """Whether the directed ``steps``, (from, to) pairs, lead from the
    first of ``nodes`` to every one of them."""

    out: dict = {v: [] for v in nodes}
    for u, w in steps:
        out[u].append(w)
    seen, stack = {nodes[0]}, [nodes[0]]
    while stack:
        new = set(out[stack.pop()]) - seen
        seen |= new
        stack += new
    return len(seen) == len(out)


# ---------------------------------------------------------------------------
# tilings


def _parse_tiling(obj: dict) -> tuple[dict, list]:
    """Read and check a tiling document.

    Returns ``nodes``, id -> (colour, position) in document order, with
    the position a pair of Fractions, and ``edges``, a list of (white,
    black, shift) triples."""

    def frac(x):
        # True == 1, so the type is checked
        if type(x) is int or isinstance(x, Fraction):
            return Fraction(x)
        raise ParseError(f"position coordinate {x!r} is not a number")

    node_list, edge_list = _fields(obj, ("nodes", "edges"), "tiling", entry=False)
    rows = []
    for n in _list(node_list, "tiling nodes"):
        color, pos = _fields(n, ("color", "pos"), "tiling node")
        if not isinstance(n.get("id"), str):
            raise ParseError(f"tiling node id {n.get('id')!r} must be a string")
        if not isinstance(pos, list) or len(pos) != 2:
            raise ParseError(f"node {n['id']!r} pos must be a pair")
        rows.append((n["id"], (color, (frac(pos[0]), frac(pos[1])))))
    edges = []
    for e in _list(edge_list, "tiling edges"):
        white, black, shift = _fields(e, ("white", "black", "shift"), "tiling edge")
        _names((white, black), "edge endpoint")
        edges.append((white, black, _vec(shift, "edge shift")))
    if not rows:
        raise ValidationError("tiling has no nodes")
    nodes = dict(rows)
    if len(nodes) != len(rows):
        raise ValidationError("tiling node ids are not unique")
    for i, (color, pos) in nodes.items():
        if color not in ("white", "black"):
            raise ValidationError(f"node {i!r} has color {color!r}")
        if not all(0 <= c < 1 for c in pos):
            raise ValidationError(
                f"node {i!r} position {pos} is outside the fundamental domain"
            )
    deg = dict.fromkeys(nodes, 0)
    for w, b, _ in edges:
        for end, color in ((w, "white"), (b, "black")):
            if end not in nodes:
                raise ValidationError(f"edge endpoint {end!r} is not a node")
            if nodes[end][0] != color:
                raise ValidationError(
                    f"edge endpoint {end!r} should be {color} but is {nodes[end][0]}"
                )
            deg[end] += 1
    for i, d in deg.items():
        if d < 2:
            raise ValidationError(f"node {i!r} has degree {d} < 2")
    links = [(w, b) for w, b, _ in edges]
    if not _reaches_all(list(nodes), links + [(b, w) for w, b in links]):
        raise ValidationError("tiling graph is not connected")
    return nodes, edges


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
        if not nodes:
            raise ValidationError("quiver has no nodes")
        if len(set(nodes)) != len(nodes):
            raise ValidationError("quiver node ids are not unique")
        if None in nodes:
            raise ValidationError("quiver node id None is kept for the framing node")
        ids = [a.id for a in arrows]
        if len(set(ids)) != len(ids):
            raise ValidationError("arrow ids are not unique")
        byid = {a.id: a for a in arrows}
        nodeset = set(nodes)
        for a in arrows:
            if a.src not in nodeset or a.tgt not in nodeset:
                raise ValidationError(f"arrow {a.id!r} endpoint is not a node")
            # True == 1 and 1.0 == 1, so the types are checked
            d = a.disp
            if type(d) is not tuple or len(d) != 2 or not all(type(c) is int for c in d):
                raise ValidationError(
                    f"arrow {a.id!r} displacement {d!r} is not a pair of ints"
                )
        membership: dict[str, list[int]] = {i: [0, 0] for i in ids}
        for sign, cycle in potential:
            # True == 1, so the type is checked first
            if type(sign) is not int or sign not in (1, -1):
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
        steps = [(a.src, a.tgt) for a in arrows]
        back = [(t, s) for s, t in steps]
        if not (_reaches_all(nodes, steps) and _reaches_all(nodes, back)):
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
    def moves(self) -> dict:
        """Node -> one step along each arrow out of it and against each
        arrow into it, as (arrow id, +1 along or -1 against, far node, dx,
        dy), the displacement taken in the step's direction."""

        moves: dict = {v: [] for v in self.nodes}
        for a in self.arrows:
            dx, dy = a.disp
            moves[a.src].append((a.id, 1, a.tgt, dx, dy))
            moves[a.tgt].append((a.id, -1, a.src, -dx, -dy))
        return moves

    @functools.cached_property
    def _euler_form(self) -> tuple:
        n = len(self.nodes)
        idx = self.node_index
        arrows = [[0] * n for _ in range(n)]
        for a in self.arrows:
            arrows[idx[a.src]][idx[a.tgt]] += 1
        chi = tuple(
            tuple((1 if i == j else 0) - arrows[i][j] for j in range(n)) for i in range(n)
        )
        bracket = tuple(
            tuple(chi[i][j] - chi[j][i] for j in range(n)) for i in range(n)
        )
        return chi, bracket

    @functools.cached_property
    def cuts(self) -> matchings.CutList:
        """Every cut of the potential, canonically sorted:
        ``matchings.perfect_matchings(self)``, found once per quiver.  A
        cut is decoded into a ``Cut``, its arrow set and point, only when
        it is read; the pipeline reads the corner cuts and ``cuts[0]``."""

        return matchings.perfect_matchings(self)

    @functools.cached_property
    def cut_weight(self) -> dict[str, int]:
        """Arrow id -> the number of cuts that hold the arrow, in arrow
        order.  It decodes every cut: 3 ms on C^3/Z_4 x Z_4 (417 cuts),
        3.2 s on C^3/Z_6 x Z_6 (263,640 cuts)."""

        count = Counter(a for cut in self.cuts for a in cut.arrows)
        return {a.id: count[a.id] for a in self.arrows}

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
    nodes, arrow_list, terms = _fields(
        obj, ("nodes", "arrows", "potential"), "quiver", entry=False
    )
    arrows = []
    for a in _list(arrow_list, "quiver arrows"):
        src, tgt, disp = _fields(a, ("src", "tgt", "disp"), "arrow")
        if not isinstance(a.get("id"), str):
            raise ParseError(f"arrow id {a.get('id')!r} must be a string")
        _names((src, tgt), "arrow endpoint")
        arrows.append(Arrow(a["id"], src, tgt, _vec(disp, "arrow disp")))
    potential = []
    for t in _list(terms, "quiver potential"):
        sign, cycle = _fields(t, ("sign", "cycle"), "potential term")
        _names(_list(cycle, "potential cycle"), "potential cycle entry")
        potential.append((sign, tuple(cycle)))
    _names(_list(nodes, "quiver nodes"), "quiver node")
    return PeriodicQuiver(nodes, arrows, potential)


# ---------------------------------------------------------------------------
# tiling -> quiver conversion

# A dart is (edge index, 0) from white to black or (edge index, 1) back.


def _angle_key(x: Fraction, y: Fraction) -> tuple:
    """Exact sort key of the direction (x, y) by counterclockwise angle in
    [0, 2pi): the half turn, then whether y != 0, then -x/y, which grows
    with the angle inside a half turn."""

    if x == 0 and y == 0:
        raise ValidationError("coincident tiling nodes")
    return (0 if y > 0 or (y == 0 and x > 0) else 1, y != 0, -x / y if y else 0)


def tiling_to_quiver(obj: dict) -> PeriodicQuiver:
    """Dualize a tiling document: faces become nodes, edges arrows, vertices
    terms.

    The darts are traced in ascending order, so each face is found at its
    least dart: node ``f<i>`` is the i-th face traced, and the lifts of its
    darts are measured from that least dart."""

    nodes, edges = _parse_tiling(obj)
    # counterclockwise rotation of darts leaving each node
    leaving: dict[str, list] = {i: [] for i in nodes}
    for k, (w, b, s) in enumerate(edges):
        pw, pb = nodes[w][1], nodes[b][1]
        x, y = pb[0] + s[0] - pw[0], pb[1] + s[1] - pw[1]
        leaving[w].append((_angle_key(x, y), (k, 0)))
        leaving[b].append((_angle_key(-x, -y), (k, 1)))
    for i, ring in leaving.items():
        ring.sort()
        if any(u[0] == v[0] for u, v in zip(ring, ring[1:])):
            raise ValidationError(
                "two edges leave a tiling node in the same direction"
            )
        leaving[i] = [d for _, d in ring]

    def next_in_face(dart):
        # continue along the face to the left: step clockwise from the
        # reversed dart in the rotation at the head node
        k, rev = dart
        ring = leaving[edges[k][1 - rev]]
        j = ring.index((k, 1 - rev))
        return ring[j - 1]

    # trace face orbits, tracking node lifts in the universal cover; an
    # orbit closes at its start, the one traced dart it meets
    face_of: dict[tuple[int, int], int] = {}
    lift_of: dict[tuple[int, int], Vec] = {}  # lift of the dart's tail
    nfaces = 0
    for start in [(k, r) for k in range(len(edges)) for r in (0, 1)]:
        if start in face_of:
            continue
        d, lx, ly = start, 0, 0
        while d not in face_of:
            face_of[d], lift_of[d] = nfaces, (lx, ly)
            k, rev = d
            sign = 1 - 2 * rev
            lx, ly = lx + sign * edges[k][2][0], ly + sign * edges[k][2][1]
            d = next_in_face(d)
        if (lx, ly) != (0, 0):
            raise ValidationError("a traced face wraps around the torus")
        nfaces += 1
    if nfaces - len(edges) + len(nodes) != 0:
        raise ValidationError(
            "face tracing gives Euler characteristic "
            f"{nfaces - len(edges) + len(nodes)}, not a torus"
        )
    node_ids = [f"f{i}" for i in range(nfaces)]

    arrows = []
    for k, (_, _, s) in enumerate(edges):
        src = node_ids[face_of[(k, 1)]]
        tgt = node_ids[face_of[(k, 0)]]
        ob = lift_of[(k, 1)]
        ow = lift_of[(k, 0)]
        disp = (ob[0] - s[0] - ow[0], ob[1] - s[1] - ow[1])
        arrows.append(Arrow(f"e{k}", src, tgt, disp))

    def rotate_min(cycle: list[str]) -> tuple[str, ...]:
        i = cycle.index(min(cycle))
        return tuple(cycle[i:] + cycle[:i])

    potential = []
    for i, (color, _) in nodes.items():
        edge_cycle = [k for k, _ in leaving[i]]
        if color == "black":
            edge_cycle = edge_cycle[::-1]
        potential.append(
            (1 if color == "white" else -1, rotate_min([f"e{k}" for k in edge_cycle]))
        )
    potential.sort(key=lambda sc: (-sc[0], sc[1]))

    return PeriodicQuiver(node_ids, arrows, potential)


# ---------------------------------------------------------------------------
# loading


class _JsonFraction(Fraction):
    """A JSON number with a fraction or an exponent, read exactly.  Its
    repr is the text it was written as, so an error message that prints
    part of a document shows its numbers as the document wrote them."""

    __slots__ = ("_text",)

    def __new__(cls, text: str):
        self = super().__new__(cls, text)
        self._text = text
        return self

    def __repr__(self) -> str:
        return self._text


def _load_json(path) -> dict:
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        obj = json.loads(text, parse_float=_JsonFraction)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError(f"{path} does not contain a JSON object")
    return obj


def _from_obj(obj: dict) -> PeriodicQuiver:
    # the parse steps name each malformed entry and field, so an error
    # from the dual step or from PeriodicQuiver is left as it is
    if "arrows" in obj:
        return _parse_quiver(obj)
    if "edges" in obj:
        return tiling_to_quiver(obj)
    raise ParseError("geometry object has neither 'arrows' nor 'edges'")


def load_geometry(source) -> PeriodicQuiver:
    """Load a quiver from a builtin name, a quiver file, or a tiling file."""

    if isinstance(source, str) and source in BUILTINS:
        path = resources.files("moltendt") / "catalog" / f"{source}.json"
    elif isinstance(source, (str, PathLike)) and Path(source).exists():
        path = Path(source)
    else:
        raise ParseError(f"unknown geometry source {source!r}")
    return _from_obj(_load_json(path))


# ---------------------------------------------------------------------------
# derived structures


def euler_form(q: PeriodicQuiver):
    """Numerical Euler form of the Jacobian algebra and its antisymmetrization.

    Returned as a pair of integer matrices indexed like ``q.nodes``,
    computed once per quiver.
    """

    return q._euler_form


def reference_grading(q: PeriodicQuiver) -> dict[str, int]:
    """Arrow id -> its cut count against the reference cut ``q.cuts[0]``:
    1 if that cut holds the arrow, else 0.

    Together with ``Arrow.disp`` the counts grade paths; every potential
    term has total weight ((0, 0), 1), which is the central element of the
    weight lattice.
    """

    i0 = q.cuts[0].arrows
    return {a.id: 1 if a.id in i0 else 0 for a in q.arrows}
