"""Golden framed partition functions at bound 8.

``fixtures/z_b8.json`` holds, for every builtin, every D6 node and every
D4 corner, the SHA-256 of the canonical ``series_to_json`` text of Z
under the corner slope and under its negation.  D6 framings use the
slope of corner 0, D4 framings the slope of their own corner.  A
refactor must leave every digest unchanged.

To re-record the fixture after a deliberate change of output, run this
from the repository root with ``PYTHONPATH=src``::

    import json
    from tests.test_golden import FIXTURE, BOUND, digests
    FIXTURE.write_text(json.dumps(
        {"bound": BOUND, "cases": dict(digests())}, indent=1, sort_keys=True
    ) + "\\n")
"""

import hashlib
import json
from pathlib import Path

from moltendt.crystal import framing_d4, framing_d6
from moltendt.geometry import builtin_names, load_geometry, reference_grading
from moltendt.localization import framed_partition_function, make_slope
from moltendt.matchings import toric_diagram
from moltendt.qspace import series_to_json

FIXTURE = Path(__file__).parent / "fixtures" / "z_b8.json"
BOUND = 8


def digests():
    """(case key, digest) for every case, e.g. ("spp d4:2 -", "3f...")."""

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
                text = json.dumps(
                    series_to_json(z), sort_keys=True, separators=(",", ":")
                )
                yield (
                    f"{name} {label} {sign}",
                    hashlib.sha256(text.encode()).hexdigest(),
                )


def test_every_case_matches_the_fixture():
    want = json.loads(FIXTURE.read_text())
    assert want["bound"] == BOUND
    got = dict(digests())
    assert sorted(got) == sorted(want["cases"])
    differ = [key for key in got if got[key] != want["cases"][key]]
    assert not differ, f"series differ from the fixture: {differ}"
