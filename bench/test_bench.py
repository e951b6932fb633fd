"""Tests of the benchmark itself, at tiny degree bounds."""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from moltendt.crystal import build_erc, enumerate_crystals, framing_d6
from moltendt.geometry import builtin_names, load_geometry, reference_grading
from moltendt.matchings import toric_diagram
from moltendt.qspace import QSeries, exp_pleth, series_to_json

from bench import oracles
from bench.measure import Checker, growth_attempts, measure, metric_units
from bench.record_goldens import record
from bench.workloads import TINY, WORKLOADS, compute, set_up, write_orbifold

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
ONE_VAR = ((0,),)


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("bench")
    return workdir, record(TINY, workdir)


class TestOracles:
    def test_plane_partitions(self):
        assert oracles.plane_partitions(13) == [
            1, 1, 3, 6, 13, 24, 48, 86, 160, 282, 500, 859, 1479, 2485
        ]

    def test_refined_macmahon_exponentiates_to_macmahon(self):
        log = oracles.refined_macmahon_log(9, ONE_VAR)
        assert oracles.counts_at_v1(log) == list(range(10))
        assert oracles.counts_at_v1(exp_pleth(log)) == oracles.plane_partitions(9)

    def test_c3_d4_log_exponentiates_to_partitions(self):
        z = exp_pleth(oracles.c3_d4_log(8, ONE_VAR))
        assert oracles.counts_at_v1(z) == [1, 1, 2, 3, 5, 7, 11, 15, 22]

    def test_pick_matches_lattice_scan(self):
        assert oracles.pick_interior(((0, 0), (0, 5), (5, 0))) == 6
        for name in builtin_names():
            d = toric_diagram(load_geometry(name))
            assert oracles.pick_interior(d.corners) == d.i_int

    @pytest.mark.parametrize("n", [2, 3])
    def test_orbifold_diagram(self, tmp_path, n):
        d = toric_diagram(load_geometry(str(write_orbifold(tmp_path, n))))
        assert oracles.orbifold_oracle(d, n)
        assert not oracles.orbifold_oracle(d, n + 1)

    def test_growth_attempts_count_cover_pairs(self):
        q = load_geometry("conifold")
        erc = build_erc(q, reference_grading(q), framing_d6(q, q.nodes[0]), 9)
        crystals = enumerate_crystals(erc, 5)
        # each attempt adds one atom, giving a crystal with that atom removable
        removable = sum(
            sum(not set(erc.successors(a)) & set(c.atoms) for a in c.atoms)
            for c in crystals
        )
        assert growth_attempts(erc, crystals, 5) == removable


class TestChecker:
    def _deep_case(self, tiny):
        workdir, goldens = tiny
        prepared, _ = set_up(WORKLOADS["c3-d6-deep"], TINY, None)
        (p,) = prepared
        return p, compute(p), goldens

    def test_clean_outputs_pass(self, tiny):
        p, out, goldens = self._deep_case(tiny)
        checker = Checker(goldens)
        checker.record(p.case, out)
        checker.record(p.case, out)
        checker.finish()
        assert (checker.attempted, checker.failed) == (2, 0)

    def test_perturbed_coefficient_misses_golden(self, tiny):
        p, out, goldens = self._deep_case(tiny)
        z = out["Z"]
        bad = dict(out, Z=z + QSeries.monomial(z.bound, z.twist, (2,), 1))
        checker = Checker(goldens)
        checker.record(p.case, bad)
        checker.finish()
        assert (checker.attempted, checker.failed) == (1, 1)

    def test_perturbed_coefficient_fails_oracle(self, tiny):
        p, out, goldens = self._deep_case(tiny)
        z = out["Z"]
        bad = dict(out, Z=z + QSeries.monomial(z.bound, z.twist, (2,), 1))
        forged = {op: oracles.digest(series_to_json(s)) for op, s in bad.items()}
        checker = Checker({"series": {p.case.key: forged}})
        checker.record(p.case, bad)
        checker.record(p.case, bad)
        checker.finish()
        assert (checker.attempted, checker.failed) == (2, 2)

    def test_raising_case_fails(self, tiny):
        p, _, goldens = self._deep_case(tiny)
        checker = Checker(goldens)
        checker.record(p.case, None)
        assert checker.failed == 1


class TestSpec:
    def test_metric_names(self):
        pattern = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            assert pattern.fullmatch(metric["name"])

    def test_workloads_match(self):
        assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)

    def test_refuses_to_run_without_sources(self, tmp_path):
        shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
        run = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "c3-d6-deep",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp_path, capture_output=True, text=True, timeout=60,
            env={"PATH": "/usr/bin:/bin"},
        )
        assert run.returncode == 2
        assert run.stdout == ""


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke(tiny, name, trace):
    workdir, goldens = tiny
    result = measure(name, 7, 0, trace, scale=TINY, goldens=goldens, workdir=workdir)
    assert result["correct"]
    assert result["failed"] == 0 and result["attempted"] >= 3
    metrics = result["metrics"]
    assert list(metrics) == list(metric_units("per_layer" if trace else "end_to_end"))
    for metric in metrics.values():
        assert math.isfinite(metric["value"])
    if trace:
        crystals = metrics["crystal.crystals"]["value"]
        assert crystals == metrics["localization.index_calls"]["value"] > 0
        assert metrics["localization.sign_evals"]["value"] > 0
    else:
        assert metrics["passed_frac"]["value"] == 1.0
