"""Atom posets for framed quivers and molten-crystal enumeration.

A framing picks a starting node and a set of usable arrows.  Repeatedly
applying arrows to the root atom sweeps out the empty room configuration:
each atom is identified by its color together with the accumulated weight
(translation, cut depth) of any path reaching it, since paths of equal
weight and source coincide in the Jacobian algebra.  Molten crystals are
the finite downward-closed subsets of this poset; their dimension vectors
count atoms per color.

Atoms are graded by cut count: an arrow weighs the number of cuts that
hold it, and an atom's grade is the weight of a path from the root to it.
Each cut minus the reference cut sums to zero around every potential
term, so it counts the same along any two paths with the same ends in the
plane; with the depth added back, the grade depends only on the atom, and
each arrow in some cut raises it by at least 1.  A crystal of at most b
atoms holds a predecessor chain from the root to each of its atoms, so it
holds only atoms of grade at most max_w * (b - 1), max_w the largest
weight.  Those atoms form a down-set with whole predecessor lists, and
listing them by grade lists every predecessor first.

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

    # side k runs from corner k to corner k + 1
    side = diagram.sides[corner]
    before = diagram.sides[corner - 1]
    return side.start_cut.arrows - (before.start_cut.arrows | side.end_cut.arrows)


def framing_d4(q: PeriodicQuiver, diagram, corner: int, seed: str | None = None) -> Framing:
    if not 0 <= corner < len(diagram.corners):
        raise ValidationError(
            f"corner index {corner} out of range 0..{len(diagram.corners) - 1}"
        )
    cut = diagram.sides[corner].start_cut.arrows
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
    """Atoms that a crystal of at most ``max_atoms`` atoms can hold.

    A holder for what ``build_erc`` sweeps: each atom's grade and its
    successor and predecessor lists, restricted to the built atom set.
    """

    def __init__(self, q, max_atoms, root, grades, succs, preds):
        self.q = q
        self.max_atoms = max_atoms
        self.root = root
        self._grades = grades
        self._succs = succs
        self._preds = preds

    def atoms(self):
        return sorted(self._grades, key=lambda a: (self._grades[a], self.sort_key(a)))

    def grade(self, atom) -> int:
        return self._grades[atom]

    def successors(self, atom):
        return self._succs[atom]

    def predecessors(self, atom):
        return self._preds[atom]

    def sort_key(self, atom):
        return self.q.node_index[atom[0]], atom[1], atom[2]


def build_erc(
    q: PeriodicQuiver,
    grading: ReferenceGrading,
    framing: Framing,
    max_atoms: int,
) -> EmptyRoomConfig:
    """Every atom of grade at most ``max_w * (max_atoms - 1)``, with links.

    These are all the atoms a crystal of at most ``max_atoms`` atoms can
    hold, each with its whole predecessor list (see the module docstring).
    The sweep takes the grades in rising order.  An atom reached at two
    grades raises ``InconsistentPoset``; an allowed arrow in no cut raises
    ``ValidationError``, since the grade would not rise along it.
    """

    steps: dict = {}
    for a in q.arrows:
        if a.id in framing.allowed:
            w = sum(a.id in cut.arrows for cut in q.cuts)
            if not w:
                raise ValidationError(
                    f"build_erc: arrow {a.id!r} lies in no cut,"
                    " so it cannot raise the atom grade"
                )
            steps.setdefault(a.src, []).append((a.tgt, a.disp, grading.count[a.id], w))
    top = max((w for ss in steps.values() for *_, w in ss), default=0) * (max_atoms - 1)
    root = (framing.node, (0, 0), 0)
    grades = {root: 0}
    succs: dict = {}
    preds: dict = {root: []}
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
                elif grades[nxt] != g + w:
                    raise InconsistentPoset(
                        f"build_erc: atom {nxt!r} at grades {grades[nxt]} and {g + w}"
                    )
                out.append(nxt)
                preds.setdefault(nxt, []).append(atom)
            succs[atom] = tuple(out)
    preds = {atom: tuple(ps) for atom, ps in preds.items()}
    return EmptyRoomConfig(q, max_atoms, root, grades, succs, preds)


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

    if erc.max_atoms < max_atoms:
        raise BoundTooSmall(
            f"atom graph built for {erc.max_atoms} atoms, below bound {max_atoms}"
        )
    levels = [{frozenset()}]
    for size in range(1, max_atoms + 1):
        grown = set()
        for ideal in levels[-1]:
            for atom in _addable(erc, ideal):
                grown.add(ideal | {atom})
        levels.append(grown)
    node_pos = erc.q.node_index
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

