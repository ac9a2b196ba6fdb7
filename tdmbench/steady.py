"""Steadiness check: run each workload several times and report spreads.

    python3 tdmbench/steady.py --runs 10 [--workloads paper-8x8 ...] [--seed 1]

For every end-to-end metric of ``BENCHMARK.json`` it prints the median
of the runs, the interquartile spread as a share of the median (the
quartiles of ``statistics.quantiles(values, n=4)``), the metric's bound
and whether the spread fits it (``ok``) with room to spare (``ok<1/3``
when below a third of the bound).  It also prints each run's attempted
and failed operation counts, whether the failed share is identical in
every run, and the first run's wall time by section and farm time by
request class.  Run ``i`` uses seed ``--seed + i``; runs are
sequential.  It exits with 1 when any spread exceeds its bound, a
failed share differs or a run is incorrect.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> tuple[dict, str]:
    """One run's result line, and the wall-share line it prints last on
    standard error."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return (json.loads(proc.stdout.strip().splitlines()[-1]),
            proc.stderr.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else float("inf")


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--json", type=Path, help="also write the raw results here")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    raw: dict[str, list[dict]] = {}
    steady = True
    for workload in args.workloads:
        runs = [run_once(workload, args.seed + i, args.seconds) for i in range(args.runs)]
        results = [result for result, _ in runs]
        raw[workload] = results
        print(f"== {workload}: {args.runs} runs, seeds {args.seed}..{args.seed + args.runs - 1}")
        print(f"  first run's {runs[0][1]}")
        for name, bound in bounds.items():
            med, share = spread([r["metrics"][name]["value"] for r in results])
            verdict = "ok<1/3" if share < bound / 3 else "ok" if share <= bound else "WIDE"
            if share > bound:
                steady = False
            unit = results[0]["metrics"][name]["unit"]
            print(f"  {name:22s} median {med:<14.6g} {unit:8s} spread {share:7.2%}"
                  f"  bound {bound:.0%}  {verdict}")
        shares = {Fraction(r["failed"], r["attempted"]) for r in results}
        correct = all(r["correct"] for r in results)
        steady = steady and len(shares) == 1 and correct
        print("  attempted", [r["attempted"] for r in results])
        print("  failed   ", [r["failed"] for r in results],
              "share identical" if len(shares) == 1 else "SHARE DIFFERS",
              "| all correct" if correct else "| INCORRECT RUNS")
    if args.json:
        args.json.write_text(json.dumps(raw, indent=1))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
