"""Geometry layer: parsing, validation, tiling conversion, Euler forms.

The tiling fixtures are small enough that their face tracing was done by hand;
the expected quivers below (node/arrow counts, cycles, displacements) are
frozen from that derivation, not from running the converter.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

import moltendt
from moltendt import matchings
from moltendt.errors import NoCutError, ParseError, ValidationError
from moltendt.geometry import (
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
        tool = Path(__file__).resolve().parent.parent / "tools" / "make_catalog.py"
        spec = importlib.util.spec_from_file_location("make_catalog", tool)
        make_catalog = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(make_catalog)
        monkeypatch.setattr(make_catalog, "OUT", tmp_path)
        assert make_catalog.main() == 0
        shipped = Path(moltendt.__file__).parent / "catalog"
        names = sorted(f.name for f in shipped.glob("*.json"))
        assert sorted(f.name for f in tmp_path.glob("*.json")) == names
        for name in names:
            assert (tmp_path / name).read_bytes() == (shipped / name).read_bytes(), name

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
        g = reference_grading(q)
        assert g.i0 == frozenset({"c"})
        assert {a.id: a.disp for a in q.arrows} == {
            "a": (1, 0),
            "b": (0, 1),
            "c": (-1, -1),
        }
        assert g.count == {"a": 0, "b": 0, "c": 1}

    def test_reference_cut_is_the_first_diagram_cut(self):
        for name in builtin_names():
            q = load_geometry(name)
            assert reference_grading(q).i0 == toric_diagram(q).cuts[0].arrows, name

    def test_cuts_enumerated_once_per_quiver(self, monkeypatch):
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
                assert sum(g.count[a] for a in cycle) == 1, name

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

    def test_unknown_builtin(self):
        with pytest.raises(ParseError):
            load_geometry("no-such-geometry")

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        with pytest.raises(ParseError):
            load_geometry(p)

    def test_missing_field(self, tmp_path):
        with pytest.raises(ParseError):
            load_geometry(write(tmp_path, {"nodes": [0]}))
