"""Atom posets for framed quivers and molten-crystal enumeration.

A framing picks a starting node, a set of usable arrows and the arrows
that join the framing node to the quiver.  Repeatedly applying arrows to
the root atom sweeps out the empty room configuration: each atom is
identified by its color together with the accumulated weight (translation,
cut depth) of any path reaching it, since paths of equal weight and source
coincide in the Jacobian algebra.  Molten crystals are the finite
downward-closed subsets of this poset; their dimension vectors count atoms
per color.

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
position, translation, then depth.  The sweep also numbers the atoms in the
order it first reaches them and keeps each atom's color, grade, successor
numbers and predecessor count in lists indexed by that number, the one
table of the atom poset: the crystal walk reads the lists, the reference
path reads views of them keyed by atom.
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Mapping
from dataclasses import dataclass

from .errors import (
    BoundTooSmall,
    InconsistentPoset,
    InvalidSeedArrow,
    ValidationError,
    _check_int,
)
from .geometry import PeriodicQuiver
from .matchings import toric_diagram

Atom = tuple


@dataclass(frozen=True)
class Framing:
    """Boundary condition for the atom poset.

    D6 framings start at a chosen node with every arrow usable.  D4
    framings sit at a corner of the toric diagram: the corner's cut
    vanishes, the seed arrow (a cut arrow crossed by boundary paths of
    both adjacent sides) names the framed node, and atoms grow in the
    wedge left over.

    ``arrows`` lists the arrows that join the framing node, which has one
    state of weight zero, to the quiver, as (src, tgt, disp) triples with
    None for the framing node.  Every framing has the framing arrow
    (None, node, (0, 0)); a D4 framing also has the companion arrow
    (seed.tgt, None, -seed.disp), so that the framing arrow, the seed arrow
    and the companion close a cycle of displacement zero.
    """

    kind: str
    node: object
    allowed: frozenset
    arrows: tuple
    corner: int | None = None
    seed: str | None = None


def framing_d6(q: PeriodicQuiver, node) -> Framing:
    # a node matches by type as well as value: True == 1 and 1.0 == 1
    at = q.node_index.get(node)
    if at is None or type(q.nodes[at]) is not type(node):
        raise ValidationError(f"framing_d6: node {node!r} is not a quiver node")
    allowed = frozenset(a.id for a in q.arrows)
    return Framing(kind="d6", node=node, allowed=allowed, arrows=((None, node, (0, 0)),))


def valid_seed_arrows(diagram, corner: int) -> frozenset:
    """Cut arrows at the corner crossed by boundary paths of both sides."""

    # side k runs from corner k to corner k + 1
    side = diagram.sides[corner]
    before = diagram.sides[corner - 1]
    return side.start_cut.arrows - (before.start_cut.arrows | side.end_cut.arrows)


def framing_d4(q: PeriodicQuiver, diagram, corner: int, seed: str | None = None) -> Framing:
    if diagram.cuts != q.cuts:
        raise ValidationError("framing_d4: the diagram's cuts are not those of the quiver")
    _check_int(corner, "framing_d4: corner")
    if not 0 <= corner < len(diagram.corners):
        raise ValidationError(
            f"corner index {corner} out of range 0..{len(diagram.corners) - 1}"
        )
    cut = diagram.sides[corner].start_cut.arrows
    valid = valid_seed_arrows(diagram, corner)
    if seed is None:
        seed = min(valid)
    elif seed not in valid:
        raise InvalidSeedArrow(
            f"arrow {seed!r} is not a boundary-crossing arrow of corner {corner}"
            f" (valid: {sorted(valid)})"
        )
    arrow = q.arrow_by_id[seed]
    dx, dy = arrow.disp
    return Framing(
        kind="d4",
        node=arrow.src,
        allowed=frozenset(a.id for a in q.arrows) - cut,
        arrows=((None, arrow.src, (0, 0)), (arrow.tgt, None, (-dx, -dy))),
        corner=corner,
        seed=seed,
    )


def parse_framing(q: PeriodicQuiver, text: str) -> Framing:
    """Parse "d6:<node>" or "d4:<corner>[:<arrow>]".  A corner, and a node
    token that is not itself a node id, are read as ints only when they
    match ``-?[0-9]+``; ``int()`` would also take spaces, a sign,
    underscores and non-ASCII digits."""

    if not isinstance(text, str):
        raise ValidationError(f"framing {text!r} is not a string")
    parts = text.split(":")
    if parts[0] == "d6" and len(parts) == 2:
        return framing_d6(q, _node_token(q, parts[1]))
    if parts[0] == "d4" and len(parts) in (2, 3):
        corner = _int_token(parts[1])
        if corner is None:
            raise ValidationError(f"corner index {parts[1]!r} is not an integer")
        seed = parts[2] if len(parts) == 3 else None
        return framing_d4(q, toric_diagram(q), corner, seed)
    raise ValidationError(
        f"framing {text!r} is not of the form d6:<node> or d4:<corner>[:<arrow>]"
    )


def _int_token(token: str):
    """The int that token spells as ``-?[0-9]+``, else None; see
    ``parse_framing`` for why not ``int()`` alone."""
    return int(token) if re.fullmatch(r"-?[0-9]+", token) else None


def _node_token(q: PeriodicQuiver, token: str):
    nodes = set(q.nodes)
    if token in nodes:
        return token
    as_int = _int_token(token)
    if as_int in nodes:
        return as_int
    raise ValidationError(f"framing node {token!r} is not a quiver node")


class EmptyRoomConfig:
    """Atoms that a crystal of at most ``max_atoms`` atoms can hold.

    ``build_erc`` numbers the atoms in the order its sweep first reaches
    them, the root 0, and keeps what it learns of each atom in plain lists
    indexed by that number: ``by_number`` the atom, ``colors`` the position
    of its node, ``grades`` its grade, ``succ`` the numbers of its
    successors in arrow order and ``npreds`` how many arrows reach it.
    ``number`` maps an atom back to its number.  The walk reads only these
    lists.  The accessors that take an atom (``atoms``, ``grade``,
    ``successors``, ``predecessors``, ``sort_key``) are views of the same
    lists for the reference path.
    """

    def __init__(self, q, max_atoms, by_number, number, colors, grades, succ, npreds):
        self.q = q
        self.max_atoms = max_atoms
        self.root = by_number[0]
        self.by_number = by_number
        self.number = number
        self.colors = colors
        self.grades = grades
        self.succ = succ
        self.npreds = npreds
        self._preds = None

    def atoms(self):
        return sorted(self.by_number, key=lambda a: (self.grade(a), self.sort_key(a)))

    def grade(self, atom) -> int:
        return self.grades[self.number[atom]]

    def successors(self, atom):
        return tuple(self.by_number[j] for j in self.succ[self.number[atom]])

    def predecessors(self, atom):
        if self._preds is None:
            # the sweep visits the atoms by grade, within a grade by number,
            # and lists each atom's predecessors in the order it visits them
            preds = [[] for _ in self.by_number]
            for i in sorted(range(len(preds)), key=self.grades.__getitem__):
                for j in self.succ[i]:
                    preds[j].append(self.by_number[i])
            self._preds = list(map(tuple, preds))
        return self._preds[self.number[atom]]

    def sort_key(self, atom):
        return self.q.node_index[atom[0]], atom[1], atom[2]


def build_erc(
    q: PeriodicQuiver,
    grading: dict[str, int],
    framing: Framing,
    max_atoms: int,
) -> EmptyRoomConfig:
    """Every atom of grade at most ``max_w * (max_atoms - 1)``, with links.

    These are all the atoms a crystal of at most ``max_atoms`` atoms can
    hold, each with its whole predecessor list (see the module docstring).
    The sweep takes the grades in rising order and numbers an atom when it
    first reaches it.  An atom reached at two grades raises
    ``InconsistentPoset``; an allowed arrow in no cut raises
    ``ValidationError``, since the grade would not rise along it, and so
    does a ``max_atoms`` that is not a nonnegative int, a framing that is
    not a ``Framing`` or whose node or allowed arrows are not the
    quiver's, and a grading that does not give every arrow an int or
    gives two potential terms different totals, since an atom's depth
    would then depend on the path to it.
    """

    if _check_int(max_atoms, "build_erc: max_atoms") < 0:
        raise ValidationError(f"build_erc: max_atoms must be nonnegative, got {max_atoms}")
    if not isinstance(framing, Framing):
        raise ValidationError(f"build_erc: framing {framing!r} is not a Framing")
    if framing.node not in q.node_index:
        raise ValidationError(f"build_erc: framing node {framing.node!r} not in the quiver")
    foreign = sorted(framing.allowed.difference(q.arrow_by_id), key=repr)
    if foreign:
        raise ValidationError(f"build_erc: the framing allows non-arrows {foreign}")
    if not isinstance(grading, Mapping):
        raise ValidationError(f"build_erc: the grading {grading!r} is not a mapping")
    ungraded = [a.id for a in q.arrows if type(grading.get(a.id)) is not int]
    if ungraded:
        raise ValidationError(f"build_erc: the grading gives no int to arrows {ungraded}")
    totals = sorted({sum(map(grading.__getitem__, cycle)) for _, cycle in q.potential})
    if len(totals) > 1:
        raise ValidationError(f"build_erc: the potential terms total {totals} in the grading")
    pos = q.node_index
    steps = [[] for _ in q.nodes]
    for a in q.arrows:
        if a.id in framing.allowed:
            w = q.cut_weight[a.id]
            if not w:
                raise ValidationError(
                    f"build_erc: arrow {a.id!r} lies in no cut,"
                    " so it cannot raise the atom grade"
                )
            dx, dy = a.disp
            steps[pos[a.src]].append((a.tgt, pos[a.tgt], dx, dy, grading[a.id], w))
    top = max((s[-1] for ss in steps for s in ss), default=0) * (max_atoms - 1)
    root = (framing.node, (0, 0), 0)
    by_number, number = [root], {root: 0}
    colors, grades, succ, npreds = [pos[framing.node]], [0], [()], [0]
    layers = [[0]] + [[] for _ in range(top)]
    for g, layer in enumerate(layers):
        for i in layer:
            _, (tx, ty), n = by_number[i]
            out = []
            for tgt, c, dx, dy, m, w in steps[colors[i]]:
                nxt = (tgt, (tx + dx, ty + dy), n + m)
                j = number.get(nxt)
                if j is None:
                    if g + w > top:
                        continue
                    j = number[nxt] = len(by_number)
                    by_number.append(nxt)
                    colors.append(c)
                    grades.append(g + w)
                    succ.append(())
                    npreds.append(0)
                    layers[g + w].append(j)
                elif grades[j] != g + w:
                    raise InconsistentPoset(
                        f"build_erc: atom {nxt!r} at grades {grades[j]} and {g + w}"
                    )
                out.append(j)
                npreds[j] += 1
            succ[i] = tuple(out)
    return EmptyRoomConfig(q, max_atoms, by_number, number, colors, grades, succ, npreds)


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
    predecessor lists.  A ``max_atoms`` that is not a nonnegative int
    raises ``ValidationError``.
    """

    if _check_int(max_atoms, "enumerate_crystals: max_atoms") < 0:
        raise ValidationError(
            f"enumerate_crystals: max_atoms must be nonnegative, got {max_atoms}"
        )
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

