"""Workloads: weightings of the four sections, run in whole rounds.

Every workload runs every section, so every metric is measured in every
workload; the weights decide which layers do most of the work.  The
sections a workload only samples lightly are listed as "probes" in the
README.
"""

from __future__ import annotations

import asyncio
import gc
import os
import random
import resource
from collections import defaultdict
from pathlib import Path

from repro.aapc import aapc_phase_map
from repro.topology import KAryNCube, Torus2D

import inputs
from farmsec import FarmSection
from recorder import Recorder, clock, median
from sections import PAPER_SCHEDULERS, FastPath, Schedules, Simulations
from tracing import Tracer

WORKLOADS = ("paper-8x8", "farm-mixed", "large-torus")
SETUP_REPEATS = 5
#: Compile worker processes per farm node: one each on the 2-node farm
#: when the host has two cores or more, else none (each node compiles
#: on its own worker thread), so the farm never has more workers than
#: cores.
FARM_WORKERS = 1 if (os.cpu_count() or 1) >= 2 else 0
#: Farm probe in the workloads whose work lies elsewhere: per block (three
#: blocks a round), small hits / all-to-all hits / cold compiles / amends.
#: Smaller than farm-mixed's block in every class.
FARM_PROBE = dict(small=12, large=4, cold=2, amends=8, stats=False, blocks=3)


def table1(rng: random.Random, draws: int):
    sizes = (100, 400, 800, 1200, 1600, 2000, 2400, 2800, 3200, 3600, 4000)
    return [(f"random-{n}", 8, inputs.random_pairs(rng, 64, n), PAPER_SCHEDULERS, False)
            for n in sizes for _ in range(draws)]


#: Table 2 connection-count bins; one random redistribution is drawn into
#: each, so every seed schedules a like mix of sizes.
TABLE2_BINS = ((1, 400), (401, 1200), (1201, 2400), (2401, 4031), (4032, 4032))


def table2(rng: random.Random):
    items = []
    for lo, hi in TABLE2_BINS:
        while True:
            triples = inputs.redistribution(64, inputs.random_distribution(rng),
                                            inputs.random_distribution(rng))
            if lo <= len(triples) <= hi:
                break
        items.append((f"redistribution-{lo}-{hi}", 8, [(s, d) for s, d, _ in triples],
                      PAPER_SCHEDULERS, False))
    return items


def table3():
    return [(name, 8, gen(), PAPER_SCHEDULERS, True) for name, gen in inputs.CLASSIC.items()]


def large_patterns(rng: random.Random):
    items = [(f"random-10x10-{n}", 10, inputs.random_pairs(rng, 100, n),
              PAPER_SCHEDULERS, False) for n in (500, 2000, 4000)]
    items += [(f"random-16x16-{n}", 16, inputs.random_pairs(rng, 256, n),
               ("greedy", "coloring"), False) for n in (2000, 8000)]
    return items


def probe_sims():
    # The two P3M rows give the probe enough steady work that the seeded
    # cut's cost (reactive recovery may build a decomposition) does not
    # swing its simulated slots per second.
    return dict(rows=[("GS 64x64", inputs.gs(64)), ("GS 256x256", inputs.gs(256)),
                      ("TSCF 5120", inputs.tscf()), ("P3M 1 32^3", inputs.p3m(1, 32)),
                      ("P3M 5 32^3", inputs.p3m(5, 32))],
                fault_rows=[("TSCF 5120", inputs.tscf())],
                epoch_rows=[("TSCF 5120", inputs.tscf())], stepped=1, cuts=1)


def settle() -> None:
    """Collect the heap and freeze what survives (``gc.freeze``).

    Called before each timed stretch, outside any timing.  The cyclic
    collector's full passes then scan only what the timed calls
    allocate, not the benchmark's inputs and kept results; otherwise
    those passes land on arbitrary calls and move, for one, an 8x8
    all-to-all warm hit through the farm between 60 and 170 ms (72-77 ms
    with the collector off).
    """
    gc.unfreeze()
    gc.collect()
    gc.freeze()


class Workload:
    def __init__(self, name: str, seed: int, tracer: Tracer) -> None:
        self.name = name
        self.rec = rec = Recorder(tracer)
        rng = random.Random(seed)
        if name == "paper-8x8":
            items = table1(rng, 2) + table2(rng) + table3()
            sims = dict(rows=inputs.table5(),
                        fault_rows=[("TSCF 5120", inputs.tscf()),
                                    ("GS 256x256", inputs.gs(256))],
                        epoch_rows=[("TSCF 5120", inputs.tscf()),
                                    ("P3M 1 32^3", inputs.p3m(1, 32))],
                        stepped=3, cuts=3)
            fast = dict(sizes=(16,), route_table_width=8)
            farm = FARM_PROBE
        elif name == "farm-mixed":
            items = table3()
            sims = probe_sims()
            fast = dict(sizes=(16,), route_table_width=8)
            # Small hits and cold compiles one to one, as the repository's
            # farm experiment mixes them (``farm_campaign``: cold_frac 0.5);
            # the all-to-all and amend shares are this benchmark's choice.
            farm = dict(small=16, large=6, cold=16, amends=10, stats=True, blocks=3)
        elif name == "large-torus":
            items = large_patterns(rng) + [table3()[0], table3()[4]]
            sims = probe_sims()
            fast = dict(sizes=(16, 32, 48, 64), route_table_width=16)
            farm = FARM_PROBE
        else:
            raise ValueError(f"unknown workload {name!r}; choose one of {WORKLOADS}")
        self.schedules = Schedules(rec, items)
        self.sims = Simulations(rec, seed, **sims)
        self.fast = FastPath(rec, seed, first_width=10, first_pairs=2000, **fast)
        self.farm = FarmSection(rec, seed, workers=FARM_WORKERS, **farm)
        self.setup_times: list[float] = []
        self.rounds = 0
        self.round_walls: list[float] = []
        #: Wall seconds of the run by section, for :meth:`wall_shares`.
        self.walls: dict[str, float] = defaultdict(float)

    async def setup(self) -> None:
        """Build the 8x8 decomposition once, then start and prewarm the
        farm ``SETUP_REPEATS`` times (the last farm is kept)."""
        t0 = clock()
        aapc_phase_map(Torus2D(8))
        self.decomposition_s = clock() - t0
        for i in range(SETUP_REPEATS):
            t0 = clock()
            await self.farm.start()
            self.setup_times.append(clock() - t0)
            if i < SETUP_REPEATS - 1:
                await self.farm.stop()

    async def run(self, seconds: float) -> None:
        settle()
        t0 = clock()
        self.fast.one_off()
        self.walls["one-off builds"] += clock() - t0
        sections = {"schedules": self.schedules, "simulations": self.sims,
                    "fast path": self.fast}
        # The steps of the three sections interleave evenly over the
        # round (step i of n sits at (i + 1/2) / n), and the round's farm
        # requests go out in even slices after each step, so every
        # metric samples the whole round rather than one stretch of it:
        # the host's speed wanders by some 10 % from one few-second
        # stretch to the next.
        order = sorted(((i + 0.5) / section.steps, label)
                       for label, section in sections.items()
                       for i in range(section.steps))
        farm_round = self.farm.round
        while True:
            r0 = clock()
            settle()
            rounds = {label: section.run_round() for label, section in sections.items()}
            for step, (_, label) in enumerate(order):
                s0 = clock()
                next(rounds[label])
                f0 = clock()
                lo = step * len(farm_round) // len(order)
                await self.farm.run(farm_round[lo:(step + 1) * len(farm_round) // len(order)])
                self.walls[label] += f0 - s0
                self.walls["farm"] += clock() - f0
            for gen in rounds.values():
                # Runs each section's end-of-round bookkeeping.
                for _ in gen:
                    raise RuntimeError("a section yielded more steps than it declared")
            self.rounds += 1
            self.round_walls.append(clock() - r0)
            if self.rounds == 1:
                # Peak memory through set-up, the one-off builds and one
                # round.  Read here and not at the end, because the
                # program's AAPC decomposition cache keeps one entry per
                # degraded torus, so each round's fresh cuts add to the
                # heap and a faster host, running more rounds, would
                # read higher.
                self.peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            # Stop before a round that would overrun, keeping time for
            # the closing first-compile sample.
            elapsed = clock() - t0
            ahead = sum(self.round_walls) / self.rounds + self.fast.first_compile_times[0]
            if elapsed + ahead > seconds:
                break
        settle()
        s0 = clock()
        self.fast.first_compile(KAryNCube((self.fast.first_width,) * 2))
        self.walls["one-off builds"] += clock() - s0
        if self.rec.tracer.enabled:
            await self.farm.replay(count=4, repeats=3)

    async def close(self) -> None:
        await self.farm.stop()

    # -- metrics ----------------------------------------------------------
    def wall_shares(self) -> str:
        """One line: each section's share of the run's wall time, and
        each farm request class's share of the client's farm time."""
        run = sum(self.walls.values())
        farm = {k: sum(self.rec.samples[k])
                for k in ("warm_small", "warm_large", "cold", "amend", "stats")}
        sections = ", ".join(f"{k} {v / run:.1%}" for k, v in self.walls.items())
        classes = ", ".join(f"{k} {v / sum(farm.values()):.1%}"
                            for k, v in farm.items() if v)
        return f"wall shares: {sections} | farm time by class: {classes}"

    def end_to_end(self, import_s: float) -> dict[str, tuple[float, str]]:
        rec, sims, fast, farm = self.rec, self.sims, self.fast, self.farm
        s = rec.samples
        if self.name == "farm-mixed":
            degree_total = farm.degrees / self.rounds
        else:
            degree_total = sum(self.schedules.round_degrees) / self.rounds
            if self.name == "large-torus":
                degree_total += fast.first_degree
        return {
            "setup_s": (import_s + self.decomposition_s + median(self.setup_times), "s"),
            "peak_rss_mib": (self.peak_rss_mib, "MiB"),
            "schedules_per_s": (self.schedules.calls / rec.totals["sched_s"], "1/s"),
            "sim_slots_per_s": (sims.sim_slots / rec.totals["sim_s"], "slots/s"),
            "degree_total": (degree_total, "count"),
            "fastpath_degree": (fast.degree, "count"),
            "compiled_slots_total": (sims.compiled_slots / self.rounds, "slots"),
            "dynamic_slots_total": (sims.dynamic_slots / self.rounds, "slots"),
            "first_compile_s": (median(fast.first_compile_times), "s"),
            "warm_hit_p50_s": (median(s["warm_small"]), "s"),
            "warm_large_p50_s": (median(s["warm_large"]), "s"),
            "amend_p50_s": (median(s["amend"]), "s"),
            "requests_per_s": (rec.totals["requests"] / rec.totals["requests_s"], "1/s"),
        }

    def per_layer(self, run_wall: float) -> dict[str, tuple[float, str]]:
        rec, sims, fast, farm = self.rec, self.sims, self.fast, self.farm
        tracer = rec.tracer
        spans = tracer.self_times()
        r = self.rounds

        def per_round(name: str) -> float:
            return sum(spans.get(name, ())) / r

        def med(name: str) -> float:
            return median(spans.get(name, []))

        out: dict[str, tuple[float, str]] = {
            "topology.route_s": (per_round("topology.route"), "s"),
        }
        for name in PAPER_SCHEDULERS:
            out[f"core.schedule_s.{name}"] = (per_round(f"core.schedule.{name}"), "s")
            out[f"core.degree.{name}"] = (self.schedules.by_scheduler.get(name, 0), "count")
        out.update({
            "core.delta.amend_s": (per_round("core.delta.amend"), "s"),
            "core.delta.recompiles": ((sims.delta_recompiles + farm.recompiles) / r, "count"),
            "core.protection.build_s": (per_round("core.protection.build"), "s"),
            "core.protection.delta_k": (sims.protection_delta_k / r, "count"),
            "aapc.decomposition_build_s": (med("aapc.decomposition_build"), "s"),
            "aapc.fastpath_cold_s": (sum(spans.get("aapc.fastpath_cold", ())), "s"),
            "aapc.fastpath_warm_s": (per_round("aapc.fastpath_warm"), "s"),
            "aapc.optimality_ratio": (fast.ratio, "ratio"),
            "compiler.serialize_s": (med("compiler.serialize"), "s"),
            "compiler.digest_s": (med("compiler.digest"), "s"),
            "compiler.codegen_s": (med("compiler.codegen"), "s"),
            "compiler.reply_bytes": (max(rec.samples["compiler.reply_bytes"]), "bytes"),
        })
        for entry in ("compiled_completion_time", "simulate_compiled",
                      "simulate_compiled_faulty", "simulate_compiled_epochs",
                      "simulate_dynamic"):
            out[f"simulator.{entry}_s"] = (per_round(f"simulator.{entry}"), "s")
        out["simulator.dynamic.retries"] = (sims.retries / r, "count")
        for name in ("canonicalize", "cache.get", "compile.hit", "compile.miss",
                     "node_rtt", "router_rtt", "amend.inproc"):
            out[f"service.{name}_s"] = (med(f"service.{name}"), "s")
        out["service.cache.hits"] = (farm.hits / r, "count")
        out["service.cache.misses"] = (farm.misses / r, "count")
        cost = tracer.cost_per_span()
        out["trace.spans"] = (len(tracer.spans), "count")
        out["trace.overhead_share"] = (cost * len(tracer.spans) / run_wall, "ratio")
        return out


async def execute(name: str, seed: int, seconds: float, trace: bool, import_s: float,
                  trace_dir: Path):
    tracer = Tracer(trace)
    work = Workload(name, seed, tracer)
    try:
        await work.setup()
        t0 = clock()
        await work.run(seconds)
        run_wall = clock() - t0
    finally:
        await work.close()
    rec = work.rec
    if trace:
        tracer.write(trace_dir / f"{name}-seed{seed}.jsonl")
        metrics = work.per_layer(run_wall)
    else:
        metrics = work.end_to_end(import_s)
    return rec, metrics, work.wall_shares()


def run(name: str, seed: int, seconds: float, trace: bool, import_s: float,
        trace_dir: Path):
    return asyncio.run(execute(name, seed, seconds, trace, import_s, trace_dir))
