"""Run one benchmark workload and print its result as one JSON line.

    python3 bench/run.py --workload c3-d6-deep --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the checkout that holds this
file; without it the command exits with status 2 and prints no result.
See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    sys.path[:0] = [str(src), str(ROOT)]
    try:
        import moltendt
    except ImportError:
        print(f"bench: cannot import moltendt from {src}", file=sys.stderr)
        return 2
    if not Path(moltendt.__file__).resolve().is_relative_to(src):
        print(f"bench: moltendt was imported from outside {src}", file=sys.stderr)
        return 2

    from bench.measure import measure
    from bench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
