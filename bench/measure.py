"""Measure one workload and judge every output it produced.

An untraced run times set-up and series passes and reports the
end-to-end metrics.  A traced run times set-up and passes with a span
around each public call, reports the per-layer metrics, and compares its
passes against untraced passes made in the same process.  Both check
every output against the goldens and the oracles, outside the timed
region.
"""

from __future__ import annotations

import json
import random
import resource
import sys
import time
import traceback
from collections import Counter
from pathlib import Path
from statistics import quantiles

from moltendt.localization import index
from moltendt.qspace import series_to_json

from . import oracles
from .workloads import (
    FULL,
    ORBIFOLD,
    WORKLOADS,
    UNTRACED,
    CountingSlope,
    Tracer,
    compute,
    compute_traced,
    set_up,
    write_orbifold,
)

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = Path(__file__).resolve().parent / "goldens.json"
SPEC = ROOT / "BENCHMARK.json"
MIN_REPS = 3


def upper_quartile(times) -> float:
    """The time that three quarters of a run's repetitions beat.

    The host's fast phases make the faster repetitions irregular, while
    its slow phase repeats within a few percent (see README.md), so the
    slower repetitions repeat better from run to run.
    """

    return quantiles(times, n=4, method="inclusive")[2]


def metric_units(kind: str) -> dict:
    """Name -> unit of the "end_to_end" or "per_layer" metrics in BENCHMARK.json."""

    return {m["name"]: m["unit"] for m in json.loads(SPEC.read_text())[kind]}


class Checker:
    """Counts attempted and failed cases.

    A case fails when it raises, when an output's digest misses its
    golden, or when an oracle rejects its outputs.  Traced and untraced
    passes meet the same goldens, which were recorded from
    ``framed_partition_function``.  Oracles run in ``finish``, once per
    case.
    """

    def __init__(self, goldens: dict):
        self.goldens = goldens
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self._pending = {}

    def fail(self, what: str, why: str):
        self.failed += 1
        self.problems.append(f"{what}: {why}")

    def record(self, case, outputs, docs=None):
        """Judge one case of one pass; ``outputs`` is None if it raised."""

        self.attempted += 1
        if outputs is None:
            return self.fail(case.key, "raised")
        if docs is None:
            docs = {op: series_to_json(s) for op, s in outputs.items()}
        digests = {op: oracles.digest(doc) for op, doc in docs.items()}
        if digests != self.goldens["series"].get(case.key):
            return self.fail(case.key, "digest differs from golden")
        # outputs that met their golden are equal, so one copy per case
        self._pending.setdefault(case.key, [case, outputs, 0])[2] += 1

    def record_orbifold(self, diagram, n: int):
        self.attempted += 1
        if oracles.orbifold_facts(diagram) != self.goldens["orbifold"]:
            self.fail(ORBIFOLD, "diagram differs from golden")
        elif not oracles.orbifold_oracle(diagram, n):
            self.fail(ORBIFOLD, "diagram fails the orbifold oracle")

    def finish(self):
        for case, outputs, times in self._pending.values():
            for name in case.oracles:
                if not oracles.ORACLES[name](case, outputs):
                    self.failed += times
                    self.problems.append(f"{case.key}: oracle {name} fails")
                    break
        self._pending.clear()


def _attempt(fn, *args):
    try:
        return fn(*args)
    except Exception:
        traceback.print_exc()
        return None


def _repeat(budget: float, step) -> list:
    """Call ``step`` at least MIN_REPS times and until ``budget`` seconds
    have passed; return what it returned each time."""

    out = []
    start = time.perf_counter()
    while len(out) < MIN_REPS or time.perf_counter() - start < budget:
        out.append(step())
    return out


def _alternate(budget: float, setups: list, set_up_once, run_pass) -> list:
    """Run passes for ``budget`` seconds, with further set-ups spread
    between them so that set-up takes about a tenth of the time.  Both
    then see the same fast and slow phases of the host.  Each runs at
    least MIN_REPS times; ``setups`` grows in place.  Returns the passes'
    results."""

    passes, spent = [], 0.0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        over = elapsed >= budget
        if over and len(setups) >= MIN_REPS and len(passes) >= MIN_REPS:
            return passes
        if spent <= elapsed / 10 or (over and len(setups) < MIN_REPS):
            setups.append(set_up_once())
            spent += setups[-1][0]
        else:
            passes.append(run_pass())


def _untraced_pass(prepared, rng, checker) -> float:
    order = rng.sample(prepared, len(prepared))
    t0 = time.perf_counter()
    results = [(p.case, _attempt(compute, p)) for p in order]
    seconds = time.perf_counter() - t0
    for case, outputs in results:
        checker.record(case, outputs)
    return seconds


def growth_attempts(erc, crystals, bound: int) -> int:
    """(ideal, addable atom) pairs over every ideal that may still grow."""

    n = 0
    for c in crystals:
        if c.size >= bound:
            continue
        ideal = set(c.atoms)
        frontier = {erc.root}.union(*(erc.successors(a) for a in c.atoms)) - ideal
        n += sum(all(p in ideal for p in erc.predecessors(a)) for a in frontier)
    return n


def _count_walk(key, walk, tracer, checker):
    """Crystal and sign counts of one traced Z, made outside the timed
    pass.  The per-size crystal counts must agree with Z at v = 1."""

    p, crystals = walk.prepared, walk.crystals
    counting = CountingSlope(walk.slope)
    for c in crystals:
        index(p.q, p.framing, p.grading, c, counting)
    tracer.count("localization.sign_evals", counting.evals)
    tracer.count("crystal.crystals", len(crystals))
    tracer.count("crystal.erc_atoms", len(walk.erc.atoms()))
    tracer.count("crystal.atoms_total", sum(c.size for c in crystals))
    tracer.count("crystal.growth_attempts", growth_attempts(walk.erc, crystals, p.case.bound))
    sizes = Counter(c.size for c in crystals)
    per_size = [sizes[k] for k in range(p.case.bound + 1)]
    if sum(per_size) != len(crystals) or per_size != oracles.counts_at_v1(walk.z):
        checker.fail(key, "per-size crystal counts disagree with Z at v = 1")


def _traced_pass(prepared, rng, checker, count_walks: bool):
    """One traced pass: its seconds and its tracer."""

    tracer = Tracer()
    order = rng.sample(prepared, len(prepared))
    t0 = time.perf_counter()
    results = [(p.case, _attempt(compute_traced, p, tracer)) for p in order]
    seconds = time.perf_counter() - t0
    for case, result in results:
        if result is None:
            checker.record(case, None)
            continue
        outputs, walks = result
        with tracer.span("qspace.json"):
            docs = {op: series_to_json(s) for op, s in outputs.items()}
        tracer.count("qspace.terms", sum(len(d["terms"]) for d in docs.values()))
        tracer.count("qspace.coeff_monomials", sum(
            len(t["poly"]) + len(t.get("den", ())) for d in docs.values() for t in d["terms"]
        ))
        if count_walks:
            for walk in walks:
                _count_walk(case.key, walk, tracer, checker)
        checker.record(case, outputs, docs)
    return seconds, tracer


def _span_times(tracers) -> dict:
    names = set().union(*(t.seconds for t in tracers))
    return {name: upper_quartile([t.seconds[name] for t in tracers]) for name in names}


def measure(name, seed, seconds, trace, scale=FULL, goldens=None, workdir=None) -> dict:
    """Run one workload and return the result object the CLI prints."""

    workload = WORKLOADS[name]
    if goldens is None:
        goldens = json.loads(GOLDENS.read_text())
    orbifold = None
    if ORBIFOLD in workload.geometries:
        orbifold = write_orbifold(workdir or ROOT / ".bench_build", scale.orbifold)
    units = metric_units("per_layer" if trace else "end_to_end")
    rng = random.Random(seed)
    checker = Checker(goldens)
    state = {}

    def set_up_once(tracer):
        t0 = time.perf_counter()
        state["prepared"], diagrams = set_up(workload, scale, orbifold, tracer)
        elapsed = time.perf_counter() - t0
        if orbifold is not None:
            checker.record_orbifold(diagrams[ORBIFOLD], scale.orbifold)
        return elapsed, tracer

    def untraced_pass():
        return _untraced_pass(state["prepared"], rng, checker)

    # The first set-up is followed by an untimed pass, so that lazy state is
    # warm; the memory peak after it is that of a process which has set the
    # workload up and run it once.
    setups = [set_up_once(Tracer() if trace else UNTRACED)]
    untraced_pass()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not trace:
        series = _alternate(seconds, setups, lambda: set_up_once(UNTRACED), untraced_pass)
        checker.finish()
        values = {
            "setup_s": upper_quartile([s for s, _ in setups]),
            "series_s": upper_quartile(series),
            "peak_rss_mb": peak_mb,
            "passed_frac": (checker.attempted - checker.failed) / checker.attempted,
        }
    else:
        plain = _alternate(seconds / 2, setups, lambda: set_up_once(Tracer()), untraced_pass)
        traced = []
        _repeat(seconds / 2, lambda: traced.append(
            _traced_pass(state["prepared"], rng, checker, count_walks=not traced)
        ))
        checker.finish()
        setup_tracers = [t for _, t in setups]
        pass_tracers = [t for _, t in traced]
        spans = {**_span_times(setup_tracers), **_span_times(pass_tracers)}
        counts = setup_tracers[0].counts + pass_tracers[0].counts
        if counts["crystal.crystals"] != counts["localization.index_calls"]:
            checker.fail("trace", "crystal.crystals differs from localization.index_calls")
        values = {
            name: spans.get(name[:-2], 0.0) if name.endswith("_s") else counts[name]
            for name in units
        }
        values["crystal.unique_frac"] = (
            counts["crystal.crystals"] / counts["crystal.growth_attempts"]
        )
        traced_s = upper_quartile([s for s, _ in traced])
        values["trace.series_s"] = traced_s
        values["trace.overhead_ratio"] = traced_s / upper_quartile(plain)
    for problem in checker.problems[:20]:
        print("bench:", problem, file=sys.stderr)
    return {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": values[k], "unit": unit} for k, unit in units.items()},
    }
