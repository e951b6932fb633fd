"""Record bench/goldens.json from the program in src/.

    python3 bench/record_goldens.py

Goldens pin every output the benchmark computes: the digest of each
series, and the toric diagram of the generated orbifold.  Record them
only from a commit whose outputs are known to be right; a change that
claims a speed-up must leave them as they are.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def record(scale, workdir) -> dict:
    """Goldens of every workload at ``scale``."""

    from moltendt.qspace import series_to_json

    from bench import oracles
    from bench.workloads import ORBIFOLD, WORKLOADS, compute, set_up, write_orbifold

    goldens = {"series": {}, "orbifold": None}
    for workload in WORKLOADS.values():
        orbifold = None
        if ORBIFOLD in workload.geometries:
            orbifold = write_orbifold(workdir, scale.orbifold)
        prepared, diagrams = set_up(workload, scale, orbifold)
        if orbifold is not None:
            goldens["orbifold"] = oracles.orbifold_facts(diagrams[ORBIFOLD])
        for p in prepared:
            goldens["series"][p.case.key] = {
                op: oracles.digest(series_to_json(s)) for op, s in compute(p).items()
            }
    return goldens


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from bench.measure import GOLDENS
    from bench.workloads import FULL

    goldens = record(FULL, ROOT / ".bench_build")
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(goldens['series'])} series goldens to {GOLDENS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
