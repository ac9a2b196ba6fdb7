"""Run one benchmark workload and print its result as one JSON line.

    python3 tdmbench/run.py --workload paper-8x8 --seed 1 --seconds 20 --trace 0

Run from the repository root.  The program is imported from ``src/``
beside this directory; without it the command exits with code 2 and
prints no result.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` runs the same workload with spans recorded and prints the
per-layer metrics (spans are written to ``tdmbench/traces/``).
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import bench

    if args.workload not in bench.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose one of {bench.WORKLOADS}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - START
    rec, metrics, shares = bench.run(args.workload, args.seed, args.seconds,
                                     bool(args.trace), import_s, HERE / "traces")
    print(shares, file=sys.stderr)
    for error in rec.unexpected[:10]:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": not rec.unexpected,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
