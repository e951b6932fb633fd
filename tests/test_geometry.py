"""Geometry layer: parsing, validation, tiling conversion, Euler forms.

The tiling fixtures are small enough that their face tracing was done by hand;
the expected quivers below (node/arrow counts, cycles, displacements) are
frozen from that derivation, not from running the converter.
"""

from __future__ import annotations

import copy
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import moltendt
from moltendt import geometry, matchings
from moltendt.errors import NoCutError, ParseError, ValidationError
from moltendt.geometry import (
    Arrow,
    PeriodicQuiver,
    builtin_names,
    euler_form,
    load_geometry,
    reference_grading,
)
from moltendt.matchings import toric_diagram

# One white and one black node; three edges wrapping the torus: the honeycomb
# cell dual to a quiver with one node and three loops.
HONEYCOMB = {
    "nodes": [
        {"id": "w", "color": "white", "pos": [0.25, 0.25]},
        {"id": "b", "color": "black", "pos": [0.75, 0.75]},
    ],
    "edges": [
        {"white": "w", "black": "b", "shift": [0, 0]},
        {"white": "w", "black": "b", "shift": [-1, 0]},
        {"white": "w", "black": "b", "shift": [0, -1]},
    ],
}

# Diagonal square lattice: one white, one black, four edges; dual to the
# two-node quiver with two arrows each way.
SQUARE = {
    "nodes": [
        {"id": "w", "color": "white", "pos": [0, 0]},
        {"id": "b", "color": "black", "pos": [0.5, 0.5]},
    ],
    "edges": [
        {"white": "w", "black": "b", "shift": [0, 0]},
        {"white": "w", "black": "b", "shift": [-1, 0]},
        {"white": "w", "black": "b", "shift": [0, -1]},
        {"white": "w", "black": "b", "shift": [-1, -1]},
    ],
}


def write(tmp_path, obj, name="geom.json"):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return p


CATALOG_TOOL = Path(__file__).resolve().parent.parent / "tools" / "make_catalog.py"


def assert_shipped_catalog(out):
    """The catalog files written to ``out`` are the shipped ones, byte for byte."""
    shipped = Path(moltendt.__file__).parent / "catalog"
    names = sorted(f.name for f in shipped.glob("*.json"))
    assert sorted(f.name for f in out.glob("*.json")) == names
    for name in names:
        assert (out / name).read_bytes() == (shipped / name).read_bytes(), name


def flip_colors(tiling):
    out = {"nodes": [], "edges": []}
    for n in tiling["nodes"]:
        m = dict(n)
        m["color"] = "white" if n["color"] == "black" else "black"
        out["nodes"].append(m)
    for e in tiling["edges"]:
        # the shift stays attached to the formerly-black endpoint, so rebase it
        out["edges"].append(
            {"white": e["black"], "black": e["white"], "shift": [-e["shift"][0], -e["shift"][1]]}
        )
    return out


def honeycomb_with(node=(), edge=(), edges=None):
    """HONEYCOMB with ``node`` merged into its white node, ``edge`` into its
    first edge, and its edges then replaced by ``edges`` if given."""
    obj = copy.deepcopy(HONEYCOMB)
    obj["nodes"][0].update(node)
    obj["edges"][0].update(edge)
    if edges is not None:
        obj["edges"] = edges
    return obj


def quiver_json(q):
    """The node ids, the arrows as (id, src, tgt, disp) and the terms as
    (sign, cycle), in order, of ``q.to_json_dict()``."""
    obj = q.to_json_dict()
    return (
        obj["nodes"],
        [(a["id"], a["src"], a["tgt"], tuple(a["disp"])) for a in obj["arrows"]],
        [(t["sign"], tuple(t["cycle"])) for t in obj["potential"]],
    )


class TestBuiltins:
    def test_catalog_names(self):
        assert set(builtin_names()) == {
            "c3",
            "conifold",
            "c3-z2z2",
            "spp",
            "pdp3a",
            "local-p2",
            "c2z2-x-c",
        }

    def test_make_catalog_reproduces_catalog(self, tmp_path, monkeypatch):
        spec = importlib.util.spec_from_file_location("make_catalog", CATALOG_TOOL)
        make_catalog = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(make_catalog)
        monkeypatch.setattr(make_catalog, "OUT", tmp_path)
        assert make_catalog.main() == 0
        assert_shipped_catalog(tmp_path)

    def test_make_catalog_reproduces_catalog_under_optimize(self, tmp_path):
        # python -O strips assert statements; the tool's checks raise
        # CheckFailed instead, so they still run there
        script = (
            "import importlib.util, sys\n"
            "from pathlib import Path\n"
            "spec = importlib.util.spec_from_file_location('make_catalog', sys.argv[1])\n"
            "tool = importlib.util.module_from_spec(spec)\n"
            "spec.loader.exec_module(tool)\n"
            "tool.OUT = Path(sys.argv[2])\n"
            "sys.exit(tool.main())\n"
        )
        src = str(Path(moltendt.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        subprocess.run(
            [sys.executable, "-O", "-c", script, str(CATALOG_TOOL), str(tmp_path)],
            env=dict(os.environ, PYTHONPATH=path),
            check=True,
            capture_output=True,
        )
        assert_shipped_catalog(tmp_path)

    def test_c3(self):
        q = load_geometry("c3")
        assert len(q.nodes) == 1
        assert sorted(a.id for a in q.arrows) == ["a", "b", "c"]
        assert all(a.src == a.tgt for a in q.arrows)
        terms = {(sign, cycle) for sign, cycle in q.potential}
        assert terms == {(1, ("a", "b", "c")), (-1, ("a", "c", "b"))}

    def test_conifold(self):
        q = load_geometry("conifold")
        assert list(q.nodes) == [1, 2]
        byid = {a.id: a for a in q.arrows}
        assert byid["a1"].src == 1 and byid["a1"].tgt == 2
        assert byid["a2"].src == 1 and byid["a2"].tgt == 2
        assert byid["b1"].src == 2 and byid["b1"].tgt == 1
        assert byid["b2"].src == 2 and byid["b2"].tgt == 1
        assert all(len(c) == 4 for _, c in q.potential)

    def test_euler_forms(self):
        chi, bracket = euler_form(load_geometry("c3"))
        assert chi == ((-2,),)
        assert bracket == ((0,),)
        chi, bracket = euler_form(load_geometry("conifold"))
        assert chi == ((1, -2), (-2, 1))
        assert bracket == ((0, 0), (0, 0))

    def test_pdp3a_euler_pairing(self):
        q = load_geometry("pdp3a")
        assert len(q.nodes) == 6
        assert len(q.arrows) == 18
        _, bracket = euler_form(q)
        assert bracket[0][1] == -1
        # three families of six arrows each, named by their cut
        fams = {}
        for a in q.arrows:
            fams.setdefault(a.id.split("_")[0], []).append(a)
        assert {k: len(v) for k, v in fams.items()} == {"phi0": 6, "phi1": 6, "phi2": 6}

    def test_remaining_builtins_validate(self):
        for name, nnodes, narrows in [
            ("spp", 3, 7),
            ("local-p2", 3, 9),
            ("c3-z2z2", 4, 12),
            ("c2z2-x-c", 2, 6),
        ]:
            q = load_geometry(name)
            assert len(q.nodes) == nnodes, name
            assert len(q.arrows) == narrows, name

    def test_every_builtin_potential_is_balanced(self):
        for name in builtin_names():
            q = load_geometry(name)
            plus = [c for s, c in q.potential if s == 1]
            minus = [c for s, c in q.potential if s == -1]
            assert len(plus) == len(minus), name
            for cycles in (plus, minus):
                seen = [a for c in cycles for a in c]
                assert sorted(seen) == sorted(x.id for x in q.arrows), name


class TestReferenceGrading:
    def test_c3_grading(self):
        q = load_geometry("c3")
        assert {a.id: a.disp for a in q.arrows} == {
            "a": (1, 0),
            "b": (0, 1),
            "c": (-1, -1),
        }
        assert reference_grading(q) == {"a": 0, "b": 0, "c": 1}

    def test_reference_cut_is_the_first_diagram_cut(self):
        for name in builtin_names():
            q = load_geometry(name)
            i0 = {a for a, m in reference_grading(q).items() if m}
            assert i0 == toric_diagram(q).cuts[0].arrows, name

    def test_cuts_enumerated_once_per_quiver(self, monkeypatch):
        # PeriodicQuiver.cuts runs the search, perfect_matchings, once
        calls = []
        real = matchings.perfect_matchings

        def counting(q):
            calls.append(q)
            return real(q)

        monkeypatch.setattr(matchings, "perfect_matchings", counting)
        q = load_geometry("spp")
        toric_diagram(q)
        reference_grading(q)
        assert len(calls) == 1

    def test_term_weight_invariant(self):
        # along every potential term the pair (sum d, sum m) is ((0,0), 1)
        for name in builtin_names():
            q = load_geometry(name)
            g = reference_grading(q)
            disp = {a.id: a.disp for a in q.arrows}
            for _, cycle in q.potential:
                dx = sum(disp[a][0] for a in cycle)
                dy = sum(disp[a][1] for a in cycle)
                assert (dx, dy) == (0, 0), name
                assert sum(g[a] for a in cycle) == 1, name

    def test_no_cut(self, tmp_path):
        # one node, one loop, potential + and - both that single loop twice:
        # every "cut" would need to hit each term once but the loop is in both
        obj = {
            "nodes": [0],
            "arrows": [{"id": "u", "src": 0, "tgt": 0, "disp": [1, 0]},
                       {"id": "w", "src": 0, "tgt": 0, "disp": [-1, 0]}],
            "potential": [
                {"sign": 1, "cycle": ["u", "w", "u", "w"]},
                {"sign": -1, "cycle": ["u", "u", "w", "w"]},
            ],
        }
        q = load_geometry(write(tmp_path, obj))
        with pytest.raises(NoCutError):
            reference_grading(q)


class TestTilingConversion:
    def test_honeycomb_gives_three_loops(self, tmp_path):
        q = load_geometry(write(tmp_path, HONEYCOMB))
        assert len(q.nodes) == 1
        assert len(q.arrows) == 3
        assert all(a.src == a.tgt for a in q.arrows)
        disp = {a.id: a.disp for a in q.arrows}
        assert disp == {"e0": (-1, 1), "e1": (0, -1), "e2": (1, 0)}
        assert set(q.potential) == {
            (1, ("e0", "e1", "e2")),
            (-1, ("e0", "e2", "e1")),
        }
        chi, _ = euler_form(q)
        assert chi == ((-2,),)

    def test_square_lattice_gives_conifold_shape(self, tmp_path):
        q = load_geometry(write(tmp_path, SQUARE))
        assert len(q.nodes) == 2
        crossings = {}
        for a in q.arrows:
            crossings[(a.src, a.tgt)] = crossings.get((a.src, a.tgt), 0) + 1
        assert sorted(crossings.values()) == [2, 2]
        chi, bracket = euler_form(q)
        assert chi == ((1, -2), (-2, 1))
        assert bracket == ((0, 0), (0, 0))

    def test_color_flip_transposes_chi(self, tmp_path):
        for tiling in (HONEYCOMB, SQUARE):
            chi, _ = euler_form(load_geometry(write(tmp_path, tiling, "a.json")))
            flipped, _ = euler_form(load_geometry(write(tmp_path, flip_colors(tiling), "b.json")))
            n = len(chi)
            assert flipped == tuple(
                tuple(chi[j][i] for j in range(n)) for i in range(n)
            )

    def test_conversion_is_deterministic(self, tmp_path):
        a = load_geometry(write(tmp_path, SQUARE, "a.json"))
        b = load_geometry(write(tmp_path, SQUARE, "b.json"))
        assert [x.id for x in a.arrows] == [x.id for x in b.arrows]
        assert [(x.src, x.tgt, x.disp) for x in a.arrows] == [
            (x.src, x.tgt, x.disp) for x in b.arrows
        ]
        assert a.potential == b.potential

    # node ids, arrows and terms in order, frozen from the converter's
    # output rather than derived by hand: a rewrite must keep every one
    @pytest.mark.parametrize(
        "tiling, nodes, arrows, potential",
        [
            (
                HONEYCOMB,
                ["f0"],
                [
                    ("e0", "f0", "f0", (-1, 1)),
                    ("e1", "f0", "f0", (0, -1)),
                    ("e2", "f0", "f0", (1, 0)),
                ],
                [(1, ("e0", "e1", "e2")), (-1, ("e0", "e2", "e1"))],
            ),
            (
                SQUARE,
                ["f0", "f1"],
                [
                    ("e0", "f1", "f0", (0, 0)),
                    ("e1", "f0", "f1", (-1, 0)),
                    ("e2", "f0", "f1", (0, 1)),
                    ("e3", "f1", "f0", (1, -1)),
                ],
                [(1, ("e0", "e1", "e3", "e2")), (-1, ("e0", "e2", "e3", "e1"))],
            ),
            (
                flip_colors(HONEYCOMB),
                ["f0"],
                [
                    ("e0", "f0", "f0", (1, -1)),
                    ("e1", "f0", "f0", (0, 1)),
                    ("e2", "f0", "f0", (-1, 0)),
                ],
                [(1, ("e0", "e1", "e2")), (-1, ("e0", "e2", "e1"))],
            ),
            (
                flip_colors(SQUARE),
                ["f0", "f1"],
                [
                    ("e0", "f1", "f0", (0, 0)),
                    ("e1", "f0", "f1", (1, 0)),
                    ("e2", "f0", "f1", (0, -1)),
                    ("e3", "f1", "f0", (-1, 1)),
                ],
                [(1, ("e0", "e1", "e3", "e2")), (-1, ("e0", "e2", "e3", "e1"))],
            ),
        ],
    )
    def test_converted_quiver(self, tmp_path, tiling, nodes, arrows, potential):
        q = load_geometry(write(tmp_path, tiling))
        assert quiver_json(q) == (nodes, arrows, potential)

    @pytest.mark.parametrize(
        "tiling, error, message",
        [
            (honeycomb_with({"id": "b"}), ValidationError, "tiling node ids are not unique"),
            (honeycomb_with({"color": "red"}), ValidationError, "node 'w' has color 'red'"),
            (
                honeycomb_with({"pos": [1, 0.25]}),
                ValidationError,
                "node 'w' position (Fraction(1, 1), Fraction(1, 4)) is outside the"
                " fundamental domain",
            ),
            (
                honeycomb_with(edge={"white": "x"}),
                ValidationError,
                "edge endpoint 'x' is not a node",
            ),
            (
                honeycomb_with(edge={"black": "w"}),
                ValidationError,
                "edge endpoint 'w' should be black but is white",
            ),
            (
                honeycomb_with({"pos": ["0", 0.25]}),
                ParseError,
                "position coordinate '0' is not a number",
            ),
            (honeycomb_with({"id": 1}), ParseError, "tiling node id 1 must be a string"),
            (honeycomb_with({"pos": [0.25]}), ParseError, "node 'w' pos must be a pair"),
            (honeycomb_with({"pos": [0.75, 0.75]}), ValidationError, "coincident tiling nodes"),
            (
                honeycomb_with(edges=HONEYCOMB["edges"] + HONEYCOMB["edges"][:1]),
                ValidationError,
                "two edges leave a tiling node in the same direction",
            ),
            (
                honeycomb_with(edge={"shift": [0.5, 0]}),
                ParseError,
                "edge shift must be a pair of integers, got [0.5, 0]",
            ),
            (
                honeycomb_with(edges=HONEYCOMB["edges"][:1]),
                ValidationError,
                "node 'w' has degree 1 < 2",
            ),
        ],
    )
    def test_tiling_check(self, tmp_path, tiling, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            load_geometry(write(tmp_path, tiling))

    # True == 1: false loaded as the coordinate 0, and true failed as the
    # position (Fraction(1, 1), Fraction(1, 4)) outside the domain
    @pytest.mark.parametrize("flag", [False, True])
    def test_bool_coordinate(self, tmp_path, flag):
        tiling = honeycomb_with({"pos": [flag, 0.25]})
        with pytest.raises(ParseError, match=f"^position coordinate {flag} is not a number$"):
            load_geometry(write(tmp_path, tiling))

    # JSON numbers with a fraction or an exponent are read as Fractions,
    # which printed as Fraction(1, 4)
    @pytest.mark.parametrize(
        "text, message",
        [
            (
                '{"nodes": [{"id": "w", "pos": [0.25, 2.5e-1]}], "edges": []}',
                "tiling node {'id': 'w', 'pos': [0.25, 2.5e-1]} has no 'color'",
            ),
            (
                '{"nodes": [{"id": "w", "color": "white", "pos": [0.25, 0.25]}],'
                ' "edges": [{"white": "w", "black": "b", "shift": [0.50, 0]}]}',
                "edge shift must be a pair of integers, got [0.50, 0]",
            ),
        ],
        ids=["node", "shift"],
    )
    def test_numbers_are_shown_as_written(self, tmp_path, text, message):
        path = tmp_path / "geom.json"
        path.write_text(text)
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            load_geometry(path)

    @pytest.mark.parametrize(
        "change, message",
        [
            # these read as an AttributeError or a KeyError, relabelled
            # "malformed geometry object"
            ({"nodes": ["w"]}, "tiling node 'w' must be an object"),
            (
                {"nodes": [{"id": "w", "pos": [0, 0]}]},
                "tiling node {'id': 'w', 'pos': [0, 0]} has no 'color'",
            ),
            (
                {"edges": [{"white": "w", "black": "b"}]},
                "tiling edge {'white': 'w', 'black': 'b'} has no 'shift'",
            ),
            ({"edges": [{"white": ["w"], "black": "b", "shift": [0, 0]}]},
             "edge endpoint ['w'] must be a string or a number"),
            ({"nodes": "wb"}, "tiling nodes 'wb' must be a list"),
            ({"edges": 3}, "tiling edges 3 must be a list"),
        ],
    )
    def test_malformed_entry(self, tmp_path, change, message):
        tiling = {**HONEYCOMB, **change}
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            load_geometry(write(tmp_path, tiling))

    def test_missing_nodes(self, tmp_path):
        with pytest.raises(ParseError, match="^tiling has no 'nodes'$"):
            load_geometry(write(tmp_path, {"edges": HONEYCOMB["edges"]}))

    def test_dual_step_error_is_not_relabelled(self, tmp_path, monkeypatch):
        # a fault in the dual step is no input error
        def broken(x, y):
            raise KeyError("fault")

        monkeypatch.setattr(geometry, "_angle_key", broken)
        with pytest.raises(KeyError, match="fault"):
            load_geometry(write(tmp_path, HONEYCOMB))

    def test_face_count_mismatch_rejected(self, tmp_path):
        # degree-1 black node: not a tiling
        bad = {
            "nodes": [
                {"id": "w", "color": "white", "pos": [0.25, 0.25]},
                {"id": "b", "color": "black", "pos": [0.75, 0.75]},
            ],
            "edges": [{"white": "w", "black": "b", "shift": [0, 0]}],
        }
        with pytest.raises(ValidationError):
            load_geometry(write(tmp_path, bad))

    def test_face_wrapping_the_torus_rejected(self, tmp_path):
        # two parallel edges cut the torus into one annulus, not a disc
        bad = {
            "nodes": [
                {"id": "w", "color": "white", "pos": [0, 0]},
                {"id": "b", "color": "black", "pos": [0.5, 0]},
            ],
            "edges": [
                {"white": "w", "black": "b", "shift": [0, 0]},
                {"white": "w", "black": "b", "shift": [-1, 0]},
            ],
        }
        with pytest.raises(ValidationError, match="^a traced face wraps around the torus$"):
            load_geometry(write(tmp_path, bad))

    def test_euler_characteristic_of_a_sphere_rejected(self, tmp_path):
        # a square in the fundamental domain: two faces, inside and outside,
        # four edges and four nodes
        corners = [("w1", [0.25, 0.25]), ("b1", [0.75, 0.25]), ("w2", [0.75, 0.75]),
                   ("b2", [0.25, 0.75])]
        bad = {
            "nodes": [
                {"id": i, "color": "white" if i[0] == "w" else "black", "pos": pos}
                for i, pos in corners
            ],
            "edges": [
                {"white": w, "black": b, "shift": [0, 0]}
                for w, b in [("w1", "b1"), ("w2", "b1"), ("w2", "b2"), ("w1", "b2")]
            ],
        }
        with pytest.raises(
            ValidationError, match="^face tracing gives Euler characteristic 2, not a torus$"
        ):
            load_geometry(write(tmp_path, bad))

    def test_empty_tiling_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="^tiling has no nodes$"):
            load_geometry(write(tmp_path, {"nodes": [], "edges": []}))

    def test_disconnected_tiling_rejected(self, tmp_path):
        # two honeycomb cells that share no edge
        second = {
            "nodes": [
                {"id": "w2", "color": "white", "pos": [0.25, 0.75]},
                {"id": "b2", "color": "black", "pos": [0.75, 0.25]},
            ],
            "edges": [
                {"white": "w2", "black": "b2", "shift": shift}
                for shift in ([0, 0], [-1, 0], [0, -1])
            ],
        }
        both = {key: HONEYCOMB[key] + second[key] for key in ("nodes", "edges")}
        with pytest.raises(ValidationError, match="^tiling graph is not connected$"):
            load_geometry(write(tmp_path, both))


class TestQuiverValidation:
    def base(self):
        return {
            "nodes": [0, 1],
            "arrows": [
                {"id": "x", "src": 0, "tgt": 1, "disp": [1, 0]},
                {"id": "y", "src": 1, "tgt": 0, "disp": [-1, 0]},
            ],
            "potential": [
                {"sign": 1, "cycle": ["x", "y"]},
                {"sign": -1, "cycle": ["x", "y"]},
            ],
        }

    def test_accepts_minimal(self, tmp_path):
        q = load_geometry(write(tmp_path, self.base()))
        assert isinstance(q, PeriodicQuiver)

    def test_nonclosed_cycle(self, tmp_path):
        obj = self.base()
        obj["arrows"].append({"id": "z", "src": 0, "tgt": 1, "disp": [0, 0]})
        obj["potential"] = [
            {"sign": 1, "cycle": ["x", "y"]},
            {"sign": -1, "cycle": ["x", "z"]},
        ]
        with pytest.raises(ValidationError, match="clos"):
            load_geometry(write(tmp_path, obj))

    def test_noncontractible_term(self, tmp_path):
        obj = self.base()
        obj["arrows"][1]["disp"] = [0, 1]
        with pytest.raises(ValidationError, match="displacement"):
            load_geometry(write(tmp_path, obj))

    def test_arrow_term_membership(self, tmp_path):
        obj = self.base()
        obj["potential"][1]["cycle"] = ["y", "x"]
        # still one + and one - per arrow; rotating a cycle is harmless
        load_geometry(write(tmp_path, obj))
        obj2 = self.base()
        obj2["potential"] = [
            {"sign": 1, "cycle": ["x", "y"]},
            {"sign": 1, "cycle": ["x", "y"]},
        ]
        with pytest.raises(ValidationError):
            load_geometry(write(tmp_path, obj2))

    def test_empty_quiver_rejected(self, tmp_path):
        empty = {"nodes": [], "arrows": [], "potential": []}
        with pytest.raises(ValidationError, match="^quiver has no nodes$"):
            load_geometry(write(tmp_path, empty))

    def test_not_strongly_connected(self, tmp_path):
        # two one-node C^3 quivers side by side, with no arrow between them
        obj = {"nodes": [0, 1], "arrows": [], "potential": []}
        for v in (0, 1):
            for name, disp in (("a", [1, 0]), ("b", [0, 1]), ("c", [-1, -1])):
                obj["arrows"].append({"id": f"{name}{v}", "src": v, "tgt": v, "disp": disp})
            obj["potential"] += [
                {"sign": 1, "cycle": [f"a{v}", f"b{v}", f"c{v}"]},
                {"sign": -1, "cycle": [f"a{v}", f"c{v}", f"b{v}"]},
            ]
        with pytest.raises(ValidationError, match="^quiver is not strongly connected$"):
            load_geometry(write(tmp_path, obj))

    def test_bool_disp(self, tmp_path):
        # True == 1, so a bool would read as a displacement of 1
        obj = self.base()
        obj["arrows"][0]["disp"] = [True, 0]
        with pytest.raises(ParseError, match=r"^arrow disp .*\[True, 0\]"):
            load_geometry(write(tmp_path, obj))

    # a quiver built directly took all of these: toric_diagram ran on the
    # float and bool pairs, and on the half-integers it failed saying the
    # displacements "do not reach the requested homology class"
    @pytest.mark.parametrize(
        "a, c",
        [
            ((1.0, 0), (-1, -1)),
            ((True, 0), (-1, -1)),
            ((1.5, 0), (-1.5, -1)),
            ([1, 0], (-1, -1)),
        ],
    )
    def test_direct_disp_must_be_a_pair_of_ints(self, a, c):
        arrows = [Arrow("a", 0, 0, a), Arrow("b", 0, 0, (0, 1)), Arrow("c", 0, 0, c)]
        terms = [(1, ("a", "b", "c")), (-1, ("a", "c", "b"))]
        with pytest.raises(ValidationError, match="^arrow 'a' displacement "):
            PeriodicQuiver([0], arrows, terms)

    def test_none_node_rejected(self, tmp_path):
        # None spells the framing node in the walk and the census, so a
        # node named None took the framing arrows' place and Z came out
        # wrong, with no error
        obj = self.base()
        obj["nodes"][1] = None
        for a in obj["arrows"]:
            a["src"], a["tgt"] = (None if v == 1 else v for v in (a["src"], a["tgt"]))
        with pytest.raises(ValidationError, match="^quiver node id None is kept"):
            load_geometry(write(tmp_path, obj))

    def test_bool_sign(self, tmp_path):
        obj = self.base()
        obj["potential"][0]["sign"] = True
        with pytest.raises(ValidationError, match="^potential sign True "):
            load_geometry(write(tmp_path, obj))

    def test_unknown_builtin(self):
        with pytest.raises(ParseError):
            load_geometry("no-such-geometry")

    def test_missing_builtin_names_its_file(self, monkeypatch):
        monkeypatch.setattr(geometry, "BUILTINS", geometry.BUILTINS + ("gone",))
        with pytest.raises(ParseError, match=r"^cannot read .*gone\.json: "):
            load_geometry("gone")

    # Path() raised TypeError for these
    @pytest.mark.parametrize("source", [123, None])
    def test_source_neither_name_nor_path(self, source):
        with pytest.raises(ParseError, match=f"^unknown geometry source {source!r}$"):
            load_geometry(source)

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        with pytest.raises(ParseError):
            load_geometry(p)

    def test_missing_field(self, tmp_path):
        with pytest.raises(ParseError):
            load_geometry(write(tmp_path, {"nodes": [0]}))
        obj = self.base()
        del obj["potential"]
        message = r"^quiver has no 'potential'$"
        with pytest.raises(ParseError, match=message):
            load_geometry(write(tmp_path, obj))

    def test_directory_is_not_readable(self, tmp_path):
        with pytest.raises(ParseError, match=f"^cannot read {re.escape(str(tmp_path))}: "):
            load_geometry(tmp_path)

    def test_json_array_document(self, tmp_path):
        path = write(tmp_path, [self.base()])
        message = f"^{re.escape(str(path))} does not contain a JSON object$"
        with pytest.raises(ParseError, match=message):
            load_geometry(path)

    # a string gave one node per character and a dict its keys
    @pytest.mark.parametrize("nodes", ["0", "ab", {"0": 1, "1": 2}])
    def test_nodes_must_be_a_list(self, tmp_path, nodes):
        obj = self.base()
        obj["nodes"] = nodes
        for a in obj["arrows"]:
            a["src"], a["tgt"] = str(a["src"]), str(a["tgt"])
        with pytest.raises(ParseError, match=r"^quiver nodes .* must be a list$"):
            load_geometry(write(tmp_path, obj))

    @staticmethod
    def _set(obj, where, value):
        *keys, last = where
        for k in keys:
            obj = obj[k]
        obj[last] = value

    @pytest.mark.parametrize(
        "where, value, error, message",
        [
            (("nodes",), [0, 0], ValidationError, "quiver node ids are not unique"),
            (("arrows", 1, "id"), "x", ValidationError, "arrow ids are not unique"),
            (("arrows", 0, "tgt"), 5, ValidationError, "arrow 'x' endpoint is not a node"),
            (("arrows", 0, "id"), 7, ParseError, "arrow id 7 must be a string"),
            (("potential", 0, "cycle"), [], ValidationError, "empty potential cycle"),
            (
                ("potential", 0, "cycle"),
                ["x", "q"],
                ValidationError,
                "potential references unknown arrow 'q'",
            ),
            (("potential", 0, "cycle"), "xy", ParseError, "potential cycle 'xy' must be a list"),
        ],
    )
    def test_quiver_check(self, tmp_path, where, value, error, message):
        obj = self.base()
        self._set(obj, where, value)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            load_geometry(write(tmp_path, obj))

    @pytest.mark.parametrize(
        "where, value, message",
        [
            (("arrows", 0), "x", "arrow 'x' must be an object"),
            (("arrows", 0, "src"), [0], "arrow endpoint [0] must be a string or a number"),
            (("arrows", 0, "tgt"), {"n": 1}, "arrow endpoint {'n': 1} must be a string or a number"),
            (("nodes", 0), [0], "quiver node [0] must be a string or a number"),
            (
                ("potential", 0, "cycle"),
                ["x", ["y"]],
                "potential cycle entry ['y'] must be a string or a number",
            ),
            (("arrows",), {"x": 1}, "quiver arrows {'x': 1} must be a list"),
            (("potential",), 5, "quiver potential 5 must be a list"),
        ],
    )
    def test_malformed_entry(self, tmp_path, where, value, message):
        # each of these escaped as an untyped TypeError from PeriodicQuiver
        # or read as "malformed geometry object: <repr>"
        obj = self.base()
        self._set(obj, where, value)
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            load_geometry(write(tmp_path, obj))

    @pytest.mark.parametrize(
        "entry, field, message",
        [
            (("arrows", 0), "src", "arrow {'id': 'x', 'tgt': 1, 'disp': [1, 0]} has no 'src'"),
            (("potential", 0), "cycle", "potential term {'sign': 1} has no 'cycle'"),
        ],
    )
    def test_missing_entry_field(self, tmp_path, entry, field, message):
        obj = self.base()
        part = obj
        for k in entry:
            part = part[k]
        del part[field]
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            load_geometry(write(tmp_path, obj))

    @pytest.mark.parametrize(
        "arrow, message",
        [
            (
                '{"id": "x", "src": 0, "tgt": 1, "disp": [0.5, 0]}',
                "arrow disp must be a pair of integers, got [0.5, 0]",
            ),
            (
                '{"id": "x", "tgt": 1, "disp": [1e0, -0.0]}',
                "arrow {'id': 'x', 'tgt': 1, 'disp': [1e0, -0.0]} has no 'src'",
            ),
        ],
        ids=["disp", "entry"],
    )
    def test_numbers_are_shown_as_written(self, tmp_path, arrow, message):
        # a JSON number with a fraction or an exponent printed as a Fraction
        text = json.dumps(self.base()).replace(
            '{"id": "x", "src": 0, "tgt": 1, "disp": [1, 0]}', arrow
        )
        path = tmp_path / "geom.json"
        path.write_text(text)
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            load_geometry(path)

    def test_quiver_error_is_not_relabelled(self, tmp_path, monkeypatch):
        # a fault in PeriodicQuiver is no input error
        def broken(nodes, steps):
            raise TypeError("fault")

        monkeypatch.setattr(geometry, "_reaches_all", broken)
        with pytest.raises(TypeError, match="fault"):
            load_geometry(write(tmp_path, self.base()))
