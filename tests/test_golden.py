"""Golden framed partition functions and their series at bound 8.

``fixtures/z_b8.json`` holds, for every builtin, every D6 node and every
D4 corner, the SHA-256 of the canonical ``series_to_json`` text of Z
under the corner slope and under its negation.  D6 framings use the
slope of corner 0, D4 framings the slope of their own corner.
``fixtures/series_b8.json`` holds, for the same cases, the digests of
``qinv(Z)`` and ``log_pleth(Z)``; where Log raises
``NonCommutingSupport`` it holds that exception's name instead.  A
refactor must leave every digest unchanged.

To re-record the fixtures after a deliberate change of output, run this
from the repository root with ``PYTHONPATH=src``::

    import json
    from tests.test_golden import FIXTURE, SERIES_FIXTURE, BOUND, digests, series_digests
    for path, cases in ((FIXTURE, digests()), (SERIES_FIXTURE, series_digests())):
        path.write_text(json.dumps(
            {"bound": BOUND, "cases": dict(cases)}, indent=1, sort_keys=True
        ) + "\\n")
"""

import hashlib
import json
from pathlib import Path

from moltendt.crystal import framing_d4, framing_d6
from moltendt.errors import NonCommutingSupport
from moltendt.geometry import builtin_names, load_geometry, reference_grading
from moltendt.localization import framed_partition_function, make_slope
from moltendt.matchings import toric_diagram
from moltendt import qspace
from moltendt.qspace import log_pleth, qinv, series_to_json

FIXTURE = Path(__file__).parent / "fixtures" / "z_b8.json"
SERIES_FIXTURE = Path(__file__).parent / "fixtures" / "series_b8.json"
BOUND = 8


def digest(series):
    text = json.dumps(series_to_json(series), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def partition_functions():
    """(case key, Z) for every case, e.g. ("spp d4:2 -", Z)."""

    for name in builtin_names():
        q = load_geometry(name)
        grading = reference_grading(q)
        d = toric_diagram(q)
        cases = [(f"d6:{v}", framing_d6(q, v), 0) for v in q.nodes]
        cases += [
            (f"d4:{k}", framing_d4(q, d, k), k) for k in range(len(d.corners))
        ]
        for label, fr, corner in cases:
            s = make_slope(d, corner=corner)
            for sign, slope in (("+", s), ("-", s.negated())):
                z = framed_partition_function(q, grading, fr, slope, BOUND)
                yield f"{name} {label} {sign}", z


def digests():
    """(case key, digest of Z) for every case."""

    for key, z in partition_functions():
        yield key, digest(z)


def series_digests():
    """(case key, {"qinv": digest, "log_pleth": digest or exception name})."""

    for key, z in partition_functions():
        try:
            log = digest(log_pleth(z))
        except NonCommutingSupport as exc:
            log = type(exc).__name__
        yield key, {"qinv": digest(qinv(z)), "log_pleth": log}


def check(path, got):
    want = json.loads(path.read_text())
    assert want["bound"] == BOUND
    assert sorted(got) == sorted(want["cases"])
    differ = [key for key in got if got[key] != want["cases"][key]]
    assert not differ, f"series differ from {path.name}: {differ}"


def test_every_case_matches_the_fixture():
    check(FIXTURE, dict(digests()))


def test_every_series_matches_the_fixture():
    check(SERIES_FIXTURE, dict(series_digests()))


def test_laurent_coefficients_share_one_denominator():
    # a VRational's dicts are never mutated, so every Laurent coefficient
    # holds the module's one unit denominator, not a copy of it
    shared = 0
    for _, z in partition_functions():
        outputs = [z, qinv(z)]
        try:
            outputs.append(log_pleth(z))
        except NonCommutingSupport:
            pass
        for series in outputs:
            for c in series.terms.values():
                if c.is_laurent:
                    assert c._den is qspace._DEN_ONE
                    shared += 1
    assert shared > 0
    assert qspace._DEN_ONE == {0: 1}
