"""Regenerate the reference figures quoted in tdmbench/README.md.

    python3 tdmbench/reference.py

Prints, beside the paper's values: mean K per scheduler for Table 1
(5 seeded random draws per row) and Table 3, compiled and dynamic communication
time for Table 5; then the 8x8 all-to-all warm hit in-process and
through a 2-node farm, the 64x64 fast path (K, bound, cold and warm
time, peak memory), and the AAPC decomposition build at 10x10 and
12x12.  Takes a few minutes; peaks near 600 MiB.
"""

from __future__ import annotations

import asyncio
import random
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro.aapc import aapc_phase_map  # noqa: E402
from repro.core import RequestSet, get_scheduler, route_requests  # noqa: E402
from repro.core.allpairs import all_to_all_fast_schedule  # noqa: E402
from repro.service import (  # noqa: E402
    ArtifactCache,
    AsyncCompileClient,
    Farm,
    compile_pattern,
)
from repro.simulator import compiled_completion_time, simulate_dynamic  # noqa: E402
from repro.topology import Torus2D  # noqa: E402

import checker  # noqa: E402
from bench import FARM_WORKERS  # noqa: E402
import inputs  # noqa: E402
from sections import request_set  # noqa: E402

SCHEDULERS = ("greedy", "coloring", "aapc", "combined")
# Paper values: greedy / coloring / ordered AAPC / combined.
PAPER_T1 = {100: (7.0, 6.7, 6.9, 6.6), 400: (16.5, 16.1, 16.5, 15.9),
            800: (27.2, 25.9, 26.5, 25.6), 1200: (36.3, 34.5, 35.3, 34.2),
            1600: (45.0, 43.5, 43.4, 42.8), 2000: (53.4, 50.4, 50.4, 49.7),
            2400: (60.8, 57.5, 57.4, 56.7), 2800: (68.8, 64.4, 62.4, 62.4),
            3200: (76.3, 70.8, 64, 64), 3600: (83.9, 76.8, 64, 64),
            4000: (91.6, 83.0, 64, 64)}
PAPER_T3 = {"ring": (3, 2, 2, 2), "nearest-neighbour": (6, 4, 4, 4),
            "hypercube": (9, 7, 8, 7), "shuffle-exchange": (6, 4, 5, 4),
            "all-to-all": (92, 83, 64, 64)}
# Paper Table 5: compiled / dynamic K=1 / 2 / 5 / 10 (slots).
PAPER_T5 = {"GS 64x64": (35, 105, 118, 171, 251), "GS 128x128": (67, 137, 154, 251, 411),
            "GS 256x256": (131, 265, 304, 411, 731), "TSCF 5120": (19, 344, 268, 270, 300),
            "P3M 1 32^3": (831, 3905, 3625, 2018, 1861),
            "P3M 1 64^3": (6207, 12471, 10754, 10333, 9619),
            "P3M 2 32^3": (382, 9999, 6094, 4661, 4510),
            "P3M 2 64^3": (2174, 17583, 14223, 10360, 9320),
            "P3M 4 32^3": (457, 3309, 2356, 1766, 1722),
            "P3M 4 64^3": (3369, 9161, 7674, 7805, 7122),
            "P3M 5 32^3": (40, 583, 374, 371, 480), "P3M 5 64^3": (68, 673, 457, 445, 505)}


def degrees(topo, pairs) -> list[int]:
    conns = route_requests(topo, RequestSet.from_pairs(pairs))
    return [get_scheduler(s)(conns, topo).degree for s in SCHEDULERS]


def fmt(values) -> str:
    return "/".join(f"{v:g}" for v in values)


def tables(draws: int) -> None:
    topo = Torus2D(8)
    rng = random.Random(0)
    print(f"## Table 1 (K, mean of {draws} seeded draws): conns | paper g/c/a/comb | measured")
    for n, paper in PAPER_T1.items():
        ks = [degrees(topo, inputs.random_pairs(rng, 64, n)) for _ in range(draws)]
        mean = [round(statistics.mean(col), 1) for col in zip(*ks)]
        print(f"| {n} | {fmt(paper)} | {fmt(mean)} |")
    print("## Table 3 (K): pattern | paper g/c/a/comb | measured")
    for name, gen in inputs.CLASSIC.items():
        print(f"| {name} | {fmt(PAPER_T3[name])} | {fmt(degrees(topo, gen()))} |")
    print("## Table 5 (slots): row | paper comp/d1/d2/d5/d10 | measured")
    totals = [0, 0]
    for label, pattern in inputs.table5():
        rs = request_set(pattern)
        comp = compiled_completion_time(topo, rs).completion_time
        dyn = [simulate_dynamic(topo, rs, k).completion_time for k in (1, 2, 5, 10)]
        totals[0] += comp
        totals[1] += sum(dyn)
        print(f"| {label} | {fmt(PAPER_T5[label])} | {fmt([comp, *dyn])} |")
    print(f"Table 5 totals: compiled {totals[0]} slots, dynamic {totals[1]} slots")


async def warm_hits(repeats: int = 20) -> None:
    topo = Torus2D(8)
    a2a = inputs.all_to_all(64)
    cache = ArtifactCache()
    compile_pattern(topo, a2a, cache=cache)
    local = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        compile_pattern(topo, a2a, cache=cache)
        local.append(time.perf_counter() - t0)
    farm = Farm(nodes=2, replication=2, workers=FARM_WORKERS)
    await farm.start()
    client = AsyncCompileClient(*farm.router_address)
    remote = []
    try:
        await client.connect()
        spec = {"kind": "torus", "width": 8, "height": 8}
        await client.compile(spec, pairs=a2a)
        for _ in range(repeats):
            t0 = time.perf_counter()
            await client.compile(spec, pairs=a2a)
            remote.append(time.perf_counter() - t0)
    finally:
        await client.close()
        await farm.shutdown()
    print(f"8x8 all-to-all warm hit, median of {repeats}: in-process "
          f"{statistics.median(local) * 1e3:.1f} ms, through the farm "
          f"{statistics.median(remote) * 1e3:.1f} ms")


def fastpath_and_aapc() -> None:
    t0 = time.perf_counter()
    fast = all_to_all_fast_schedule(Torus2D(64))
    cold = time.perf_counter() - t0
    t0 = time.perf_counter()
    all_to_all_fast_schedule(Torus2D(64))
    warm = time.perf_counter() - t0
    bound = checker.all_to_all_bound(64, 64)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"64x64 fast path: K {fast.degree} against bound {bound} "
          f"(ratio {fast.degree / bound:.2f}), cold {cold:.2f} s, warm {warm:.2f} s, "
          f"peak RSS {rss:.0f} MiB")
    for w in (10, 12):
        t0 = time.perf_counter()
        aapc_phase_map(Torus2D(w))
        print(f"AAPC decomposition build {w}x{w}: {time.perf_counter() - t0:.1f} s")


def main() -> int:
    tables(draws=5)
    asyncio.run(warm_hits())
    fastpath_and_aapc()
    return 0


if __name__ == "__main__":
    sys.exit(main())
