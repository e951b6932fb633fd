"""Atom posets for framed quivers and molten-crystal enumeration.

A framing picks a starting node and a set of usable arrows.  Repeatedly
applying arrows to the root atom sweeps out the empty room configuration:
each atom is identified by its color together with the accumulated weight
(translation, cut depth) of any path reaching it, since paths of equal
weight and source coincide in the Jacobian algebra.  Molten crystals are
the finite downward-closed subsets of this poset; their dimension vectors
count atoms per color.

Atoms are plain tuples (node, (tx, ty), n), ordered canonically by node
position, translation, then depth.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (
    BoundTooSmall,
    InconsistentPoset,
    InvalidSeedArrow,
    ValidationError,
)
from .geometry import PeriodicQuiver, ReferenceGrading

Atom = tuple


@dataclass(frozen=True)
class Framing:
    """Boundary condition for the atom poset.

    D6 framings start at a chosen node with every arrow usable.  D4
    framings sit at a corner of the toric diagram: the corner's cut
    vanishes, the seed arrow (a cut arrow crossed by boundary paths of
    both adjacent sides) names the framed node, and atoms grow in the
    wedge left over.
    """

    kind: str
    node: object
    allowed: frozenset
    corner: int | None = None
    seed: str | None = None
    companion: object | None = None


def framing_d6(q: PeriodicQuiver, node) -> Framing:
    if node not in set(q.nodes):
        raise ValidationError(f"framing node {node!r} is not a quiver node")
    return Framing(kind="d6", node=node, allowed=frozenset(a.id for a in q.arrows))


def valid_seed_arrows(q: PeriodicQuiver, diagram, corner: int) -> frozenset:
    """Cut arrows at the corner crossed by boundary paths of both sides."""

    n = len(diagram.corners)
    cut = diagram.points[diagram.corners[corner]][0].arrows
    prev_cut = diagram.points[diagram.corners[(corner - 1) % n]][0].arrows
    next_cut = diagram.points[diagram.corners[(corner + 1) % n]][0].arrows
    return cut - (prev_cut | next_cut)


def framing_d4(q: PeriodicQuiver, diagram, corner: int, seed: str | None = None) -> Framing:
    if not 0 <= corner < len(diagram.corners):
        raise ValidationError(
            f"corner index {corner} out of range 0..{len(diagram.corners) - 1}"
        )
    cut = diagram.points[diagram.corners[corner]][0].arrows
    valid = valid_seed_arrows(q, diagram, corner)
    if seed is None:
        seed = min(valid)
    elif seed not in valid:
        raise InvalidSeedArrow(
            f"arrow {seed!r} is not a boundary-crossing arrow of corner {corner}"
            f" (valid: {sorted(valid)})"
        )
    arrow = q.arrow_by_id[seed]
    return Framing(
        kind="d4",
        node=arrow.src,
        allowed=frozenset(a.id for a in q.arrows) - cut,
        corner=corner,
        seed=seed,
        companion=arrow.tgt,
    )


def parse_framing(q: PeriodicQuiver, text: str) -> Framing:
    """Parse "d6:<node>" or "d4:<corner>[:<arrow>]"."""

    parts = text.split(":")
    if parts[0] == "d6" and len(parts) == 2:
        return framing_d6(q, _node_token(q, parts[1]))
    if parts[0] == "d4" and len(parts) in (2, 3):
        from .matchings import toric_diagram

        try:
            corner = int(parts[1])
        except ValueError:
            raise ValidationError(f"corner index {parts[1]!r} is not an integer")
        seed = parts[2] if len(parts) == 3 else None
        return framing_d4(q, toric_diagram(q), corner, seed)
    raise ValidationError(
        f"framing {text!r} is not of the form d6:<node> or d4:<corner>[:<arrow>]"
    )


def _node_token(q: PeriodicQuiver, token: str):
    nodes = set(q.nodes)
    if token in nodes:
        return token
    try:
        as_int = int(token)
    except ValueError:
        as_int = None
    if as_int in nodes:
        return as_int
    raise ValidationError(f"framing node {token!r} is not a quiver node")


class EmptyRoomConfig:
    """Atoms reachable from the root within the build radius.

    Predecessor and successor lists are restricted to the built atom set;
    ``extended`` rebuilds at a larger radius.
    """

    def __init__(self, q, grading, framing, radius, dist):
        self.q = q
        self.grading = grading
        self.framing = framing
        self.radius = radius
        self.root = (framing.node, (0, 0), 0)
        self._dist = dist
        steps = [
            (a.src, a.tgt, a.disp, grading.count[a.id])
            for a in q.arrows
            if a.id in framing.allowed
        ]
        self._succs = {}
        self._preds = {a: [] for a in dist}
        for atom in dist:
            node, (tx, ty), n = atom
            out = []
            for src, tgt, (dx, dy), m in steps:
                if src != node:
                    continue
                nxt = (tgt, (tx + dx, ty + dy), n + m)
                if nxt in dist:
                    out.append(nxt)
                    self._preds[nxt].append(atom)
            self._succs[atom] = tuple(out)
        order = {v: k for k, v in enumerate(q.nodes)}
        self._key = lambda a: (order[a[0]], a[1], a[2])
        for atom in self._preds:
            self._preds[atom] = tuple(sorted(self._preds[atom], key=self._key))

    def atoms(self):
        return sorted(self._dist, key=self._key)

    def __contains__(self, atom):
        return atom in self._dist

    def distance(self, atom) -> int:
        return self._dist[atom]

    def successors(self, atom):
        return self._succs[atom]

    def predecessors(self, atom):
        return self._preds[atom]

    def sort_key(self, atom):
        return self._key(atom)

    def extended(self, radius: int) -> "EmptyRoomConfig":
        return build_erc(self.q, self.grading, self.framing, radius)


def build_erc(
    q: PeriodicQuiver,
    grading: ReferenceGrading,
    framing: Framing,
    radius: int,
) -> EmptyRoomConfig:
    """Breadth-first sweep of atoms within ``radius`` arrow steps."""

    steps = [
        (a.src, a.tgt, a.disp, grading.count[a.id])
        for a in q.arrows
        if a.id in framing.allowed
    ]
    root = (framing.node, (0, 0), 0)
    dist = {root: 0}
    frontier = [root]
    for layer in range(1, radius + 1):
        nxt = []
        for node, (tx, ty), n in frontier:
            for src, tgt, (dx, dy), m in steps:
                if src != node:
                    continue
                atom = (tgt, (tx + dx, ty + dy), n + m)
                if atom not in dist:
                    dist[atom] = layer
                    nxt.append(atom)
        frontier = nxt
    return EmptyRoomConfig(q, grading, framing, radius, dist)


@dataclass(frozen=True)
class Crystal:
    """A finite downward-closed atom set with its per-color atom counts."""

    atoms: tuple
    d: tuple

    @property
    def size(self) -> int:
        return len(self.atoms)


def enumerate_crystals(erc: EmptyRoomConfig, max_atoms: int) -> list[Crystal]:
    """All molten crystals of at most ``max_atoms`` atoms.

    This is the reference path, which the tests and the benchmark's traced
    run compare against; ``framed_partition_function`` walks the same
    ideals without building them.  Grown ideal by ideal: an atom may join
    once all its predecessors are in.  Output is ordered by size, then
    canonical atom key; every emitted crystal is re-validated against the
    predecessor lists.
    """

    if erc.radius < max_atoms:
        raise BoundTooSmall(
            f"atom graph radius {erc.radius} below requested bound {max_atoms}"
        )
    levels = [{frozenset()}]
    for size in range(1, max_atoms + 1):
        grown = set()
        for ideal in levels[-1]:
            for atom in _addable(erc, ideal):
                grown.add(ideal | {atom})
        levels.append(grown)
    node_pos = {v: k for k, v in enumerate(erc.q.nodes)}
    out = []
    for level in levels:
        for ideal in level:
            for atom in ideal:
                if not set(erc.predecessors(atom)) <= ideal:
                    raise InconsistentPoset(
                        f"enumerate_crystals: a grown crystal holds {atom!r}"
                        " but not all of its predecessors"
                    )
            d = [0] * len(node_pos)
            for atom in ideal:
                d[node_pos[atom[0]]] += 1
            out.append(
                Crystal(
                    atoms=tuple(sorted(ideal, key=erc.sort_key)),
                    d=tuple(d),
                )
            )
    out.sort(key=lambda c: (c.size, tuple(map(erc.sort_key, c.atoms))))
    if len({c.atoms for c in out}) != len(out):
        raise InconsistentPoset("enumerate_crystals: a crystal was grown twice")
    return out


def _addable(erc: EmptyRoomConfig, ideal: frozenset):
    seen = set(ideal)
    for atom in itertools.chain([erc.root], *(erc.successors(a) for a in ideal)):
        if atom in seen:
            continue
        seen.add(atom)
        if all(p in ideal for p in erc.predecessors(atom)):
            yield atom

