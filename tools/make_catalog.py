"""Author the builtin geometry catalog.

Four of the seven entries are quotients of the three-loop honeycomb quiver:
cells of the plane are identified by a class map, and arrow displacements
are rewritten in a basis of the period sublattice.  The conifold and the
two-node layered orbifold are written down directly.  The suspended pinch
point is produced by dualizing its tiling, then renaming faces and arrows.

Every entry is built in its final orientation and must pass its checks
as built: counts, diagram invariants, and the strip fixtures that pin the
diagram orientation.  The checks raise ``CheckFailed`` rather than assert,
so they also run under ``python -O``, which writes the same files.

Run from the repository root:  PYTHONPATH=src python3 tools/make_catalog.py
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

from moltendt.geometry import _parse_quiver, tiling_to_quiver
from moltendt.matchings import toric_diagram, zigzag_analysis

OUT = Path(__file__).resolve().parent.parent / "src" / "moltendt" / "catalog"

E1, E2 = (1, 0), (0, 1)


class CheckFailed(Exception):
    """An entry failed a check.  Raised, not asserted, so that the checks
    also run under ``python -O``."""


def require(ok, what):
    if not ok:
        raise CheckFailed(what)


def add(u, v):
    return (u[0] + v[0], u[1] + v[1])


def sub(u, v):
    return (u[0] - v[0], u[1] - v[1])


def honeycomb(nodes, class_of, reps, basis, name):
    """Quotient of the honeycomb quiver by the kernel of ``class_of``."""

    (u1x, u1y), (u2x, u2y) = basis
    det = u1x * u2y - u2x * u1y

    def coords(v):
        p, q = v[0] * u2y - u2x * v[1], u1x * v[1] - v[0] * u1y
        require(p % det == 0 and q % det == 0, f"{v} is not on the lattice of {basis}")
        return (p // det, q // det)

    steps = {"a": E1, "b": E2, "c": (-1, -1)}
    ids: dict[str, dict] = {f: {} for f in steps}
    arrows = []
    for fam in ("a", "b", "c"):
        for c in nodes:
            tgt = class_of(add(reps[c], steps[fam]))
            disp = coords(sub(add(reps[c], steps[fam]), reps[tgt]))
            aid = name(fam, c, tgt)
            ids[fam][c] = aid
            arrows.append({"id": aid, "src": c, "tgt": tgt, "disp": list(disp)})

    def rot(cycle):
        i = cycle.index(min(cycle))
        return cycle[i:] + cycle[:i]

    potential = []
    for c in nodes:
        plus = [
            ids["a"][c],
            ids["b"][class_of(add(reps[c], E1))],
            ids["c"][class_of(add(add(reps[c], E1), E2))],
        ]
        potential.append({"sign": 1, "cycle": rot(plus)})
    for c in nodes:
        minus = [
            ids["a"][c],
            ids["c"][class_of(add(reps[c], E1))],
            ids["b"][class_of(sub(reps[c], E2))],
        ]
        potential.append({"sign": -1, "cycle": rot(minus)})
    return {"nodes": list(nodes), "arrows": arrows, "potential": potential}


def build_c3():
    return honeycomb(
        [0],
        lambda v: 0,
        {0: (0, 0)},
        ((1, 0), (0, 1)),
        lambda fam, s, t: fam,
    )


def build_local_p2():
    return honeycomb(
        [0, 1, 2],
        lambda v: (v[0] + v[1]) % 3,
        {k: (k, 0) for k in range(3)},
        ((1, -1), (1, 2)),
        lambda fam, s, t: f"{fam}{s}",
    )


def build_pdp3a():
    fam_cut = {"a": "phi2", "b": "phi0", "c": "phi1"}
    return honeycomb(
        list(range(6)),
        lambda v: (v[0] + 3 * v[1]) % 6,
        {k: (k, 0) for k in range(6)},
        ((0, 2), (3, 1)),
        lambda fam, s, t: f"{fam_cut[fam]}_{s}{t}",
    )


def build_c3z2z2():
    cells = [(0, 0), (1, 0), (0, 1), (1, 1)]
    num = {c: c[0] + 2 * c[1] for c in cells}
    obj = honeycomb(
        cells,
        lambda v: (v[0] % 2, v[1] % 2),
        {c: c for c in cells},
        ((2, 0), (0, 2)),
        lambda fam, s, t: f"{fam}{s[0] + 2 * s[1]}{t[0] + 2 * t[1]}",
    )
    obj["nodes"] = [num[c] for c in obj["nodes"]]
    for a in obj["arrows"]:
        a["src"], a["tgt"] = num[a["src"]], num[a["tgt"]]
    return obj


def build_conifold():
    return {
        "nodes": [1, 2],
        "arrows": [
            {"id": "a1", "src": 1, "tgt": 2, "disp": [1, 0]},
            {"id": "a2", "src": 1, "tgt": 2, "disp": [0, 1]},
            {"id": "b1", "src": 2, "tgt": 1, "disp": [0, 0]},
            {"id": "b2", "src": 2, "tgt": 1, "disp": [-1, -1]},
        ],
        "potential": [
            {"sign": 1, "cycle": ["a1", "b1", "a2", "b2"]},
            {"sign": -1, "cycle": ["a1", "b2", "a2", "b1"]},
        ],
    }


def build_c2z2xc():
    return {
        "nodes": [0, 1],
        "arrows": [
            {"id": "a0", "src": 0, "tgt": 0, "disp": [0, 1]},
            {"id": "a1", "src": 1, "tgt": 1, "disp": [0, 1]},
            {"id": "b0", "src": 0, "tgt": 1, "disp": [1, 0]},
            {"id": "b1", "src": 1, "tgt": 0, "disp": [0, 0]},
            {"id": "c0", "src": 1, "tgt": 0, "disp": [-1, -1]},
            {"id": "c1", "src": 0, "tgt": 1, "disp": [0, -1]},
        ],
        "potential": [
            {"sign": 1, "cycle": ["a0", "b0", "c0"]},
            {"sign": 1, "cycle": ["a1", "b1", "c1"]},
            {"sign": -1, "cycle": ["a1", "c0", "b0"]},
            {"sign": -1, "cycle": ["a0", "c1", "b1"]},
        ],
    }


SPP_TILING = {
    "nodes": [
        {"id": "A", "color": "white", "pos": [Fraction(1, 2), Fraction(7, 8)]},
        {"id": "B", "color": "black", "pos": [0, 0]},
        {"id": "C", "color": "white", "pos": [0, Fraction(1, 2)]},
        {"id": "D", "color": "black", "pos": [Fraction(1, 2), Fraction(5, 8)]},
    ],
    "edges": [
        {"white": "A", "black": "B", "shift": (0, 1)},
        {"white": "A", "black": "B", "shift": (1, 1)},
        {"white": "C", "black": "B", "shift": (0, 0)},
        {"white": "C", "black": "D", "shift": (0, 0)},
        {"white": "C", "black": "D", "shift": (-1, 0)},
        {"white": "A", "black": "D", "shift": (-1, 0)},
        {"white": "A", "black": "D", "shift": (0, 0)},
    ],
}

SPP_ARROWS = {
    "e0": "phi12",
    "e1": "phi21",
    "e2": "phi11",
    "e3": "phi13",
    "e4": "phi31",
    "e5": "phi23",
    "e6": "phi32",
}
SPP_NODES = {"f1": 1, "f0": 2, "f2": 3}


def build_spp():
    q = tiling_to_quiver(SPP_TILING)
    obj = q.to_json_dict()
    obj["nodes"] = sorted(SPP_NODES[n] for n in obj["nodes"])
    for a in obj["arrows"]:
        a["id"] = SPP_ARROWS[a["id"]]
        a["src"] = SPP_NODES[a["src"]]
        a["tgt"] = SPP_NODES[a["tgt"]]
    for t in obj["potential"]:
        cycle = [SPP_ARROWS[x] for x in t["cycle"]]
        i = cycle.index(min(cycle))
        t["cycle"] = cycle[i:] + cycle[:i]
    order = {a: i for i, a in enumerate(sorted(SPP_ARROWS.values()))}
    obj["arrows"].sort(key=lambda a: order[a["id"]])
    expect = {
        (1, ("phi11", "phi13", "phi31")),
        (-1, ("phi11", "phi12", "phi21")),
        (1, ("phi12", "phi23", "phi32", "phi21")),
        (-1, ("phi13", "phi32", "phi23", "phi31")),
    }
    got = {(t["sign"], tuple(t["cycle"])) for t in obj["potential"]}
    require(got == expect, f"spp potential {got}")
    return obj


# ---------------------------------------------------------------------------
# verification


def analyze(obj):
    q = _parse_quiver(obj)
    d = toric_diagram(q)
    return q, d, zigzag_analysis(q, d)


def fam(q, prefix):
    return frozenset(a.id for a in q.arrows if a.id.startswith(prefix))


def check_c3(obj):
    q, d, zz = analyze(obj)
    require(
        [(c.arrows, c.point) for c in d.cuts]
        == [
            (frozenset({"c"}), (0, 0)),
            (frozenset({"b"}), (0, 1)),
            (frozenset({"a"}), (1, 0)),
        ],
        "c3 cuts",
    )
    require([s.l for s in d.sides] == [(-1, 0), (1, 1), (0, -1)], "c3 side normals")


def check_conifold(obj):
    q, d, zz = analyze(obj)
    require({c.point for c in d.cuts} == {(0, 0), (0, 1), (1, 0), (1, 1)}, "conifold corners")
    require(len(d.cuts) == 4, "conifold cut count")


def check_local_p2(obj):
    q, d, zz = analyze(obj)
    require(sorted(s.K for s in d.sides) == [1, 1, 1], "local-p2 side lengths")
    require((d.b, d.i_int) == (3, 1), "local-p2 point counts")
    require(
        {s.start_cut.arrows for s in d.sides} == {fam(q, "a"), fam(q, "b"), fam(q, "c")},
        "local-p2 corner cuts",
    )


def check_pdp3a(obj):
    q, d, zz = analyze(obj)
    require(sorted(s.K for s in d.sides) == [1, 2, 3], "pdp3a side lengths")
    require((d.b, d.i_int) == (6, 1), "pdp3a point counts")
    k3 = next(s for s in zz if s.side.K == 3)
    require(k3.side.start_cut.arrows == fam(q, "phi1"), "pdp3a K=3 start cut")
    require(k3.side.end_cut.arrows == fam(q, "phi2"), "pdp3a K=3 end cut")
    require(k3.zig[0] == {"phi1_13", "phi1_40"}, "pdp3a K=3 zig")
    require(k3.zag[0] == {"phi2_01", "phi2_34"}, "pdp3a K=3 zag")
    k2 = next(s for s in zz if s.side.K == 2)
    require(k2.side.start_cut.arrows == fam(q, "phi2"), "pdp3a K=2 start cut")
    require(k2.side.end_cut.arrows == fam(q, "phi0"), "pdp3a K=2 end cut")
    require(k2.zig[0] == {"phi2_12", "phi2_34", "phi2_50"}, "pdp3a K=2 zig")
    k1 = next(s for s in zz if s.side.K == 1)
    require(k1.side.start_cut.arrows == fam(q, "phi0"), "pdp3a K=1 start cut")
    require(k1.side.end_cut.arrows == fam(q, "phi1"), "pdp3a K=1 end cut")


def check_c3z2z2(obj):
    q, d, zz = analyze(obj)
    require(sorted(s.K for s in d.sides) == [2, 2, 2], "c3-z2z2 side lengths")
    require((d.b, d.i_int) == (6, 0), "c3-z2z2 point counts")


def check_spp(obj):
    q, d, zz = analyze(obj)
    require(sorted(s.K for s in d.sides) == [1, 1, 1, 2], "spp side lengths")
    require((d.b, d.i_int) == (5, 0), "spp point counts")
    sz = next(
        s
        for s in zz
        if {s.side.start_cut.arrows, s.side.end_cut.arrows}
        == {frozenset({"phi11", "phi32"}), frozenset({"phi11", "phi23"})}
    )
    require(sz.side.start_cut.arrows == {"phi11", "phi32"}, "spp start cut")
    require(sz.zig == (frozenset({"phi32"}),), "spp zig")
    require(sz.zag == (frozenset({"phi23"}),), "spp zag")


def check_c2z2xc(obj):
    q, d, zz = analyze(obj)
    require(sorted(s.K for s in d.sides) == [1, 1, 2], "c2z2-x-c side lengths")
    require((d.b, d.i_int) == (4, 0), "c2z2-x-c point counts")


ENTRIES = [
    ("c3", build_c3, check_c3),
    ("conifold", build_conifold, check_conifold),
    ("local-p2", build_local_p2, check_local_p2),
    ("pdp3a", build_pdp3a, check_pdp3a),
    ("c3-z2z2", build_c3z2z2, check_c3z2z2),
    ("spp", build_spp, check_spp),
    ("c2z2-x-c", build_c2z2xc, check_c2z2xc),
]


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    for name, build, check in ENTRIES:
        obj = build()
        check(obj)
        path = OUT / f"{name}.json"
        path.write_text(json.dumps(obj, indent=1) + "\n")
        print(f"{name}: {len(obj['nodes'])} nodes, {len(obj['arrows'])} arrows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
