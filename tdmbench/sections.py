"""In-process sections: schedulers, simulators and the all-to-all fast path.

Each section is built from a seed and a size, runs one fixed set of
operations per round, checks every output with :mod:`checker` and
:mod:`props`, and keeps its own figures.  A workload is a weighting of
sections (see ``bench.py``).
"""

from __future__ import annotations

import hashlib
import json
import random

from repro.aapc import aapc_phase_map
from repro.compiler import generate_registers, schedule_to_dict
from repro.compiler.serialize import artifact_digest, canonical_dumps
from repro.core import (
    Connection,
    DeltaScheduler,
    Request,
    RequestSet,
    build_protection,
    get_scheduler,
    route_requests,
)
from repro.core.allpairs import all_to_all_fast_schedule
from repro.core.routetable import RouteTable
from repro.simulator import (
    EpochUpdate,
    FaultSchedule,
    SimParams,
    compiled_completion_time,
    simulate_compiled,
    simulate_compiled_epochs,
    simulate_compiled_faulty,
    simulate_dynamic,
)
from repro.topology import Torus2D

import checker
import inputs
import props
from recorder import Recorder, clock

PAPER_SCHEDULERS = ("greedy", "coloring", "aapc", "combined")


def slots_of(schedule) -> list[list[tuple[int, int]]]:
    return [[c.request.pair for c in cfg] for cfg in schedule]


def request_set(triples) -> RequestSet:
    return RequestSet((Request(s, d, size=z) for s, d, z in triples),
                      allow_duplicates=True)


class Schedules:
    """Route and schedule a fixed list of (pattern, scheduler) items."""

    def __init__(self, rec: Recorder, items) -> None:
        # items: (label, width, pairs, schedulers, codegen)
        self.rec = rec
        self.items = items
        self.routers = {w: checker.TorusRouter(w) for _, w, _, _, _ in items}
        self.loads = [checker.max_link_load(self.routers[w], pairs)
                      for _, w, pairs, _, _ in items]
        self.calls = 0
        self.round_degrees: list[int] = []
        self.by_scheduler: dict[str, int] = {}
        self.steps = len(items)

    def run_round(self):
        """One round, a generator that yields after each pattern."""
        rec = self.rec
        topologies = {w: Torus2D(w) for w in self.routers}
        degree_sum = 0
        per_sched = dict.fromkeys(PAPER_SCHEDULERS, 0)
        for (label, w, pairs, schedulers, codegen), load in zip(self.items, self.loads):
            topo = topologies[w]
            with rec.timed("topology.route", total="sched_s"):
                conns = route_requests(topo, RequestSet.from_pairs(pairs))
            for name in schedulers:
                with rec.timed(f"core.schedule.{name}", total="sched_s"):
                    cs = get_scheduler(name)(conns, topo)
                self.calls += 1
                slots = slots_of(cs)
                errors = checker.check_schedule(
                    self.routers[w], slots, pairs, degree=cs.degree,
                    load=load, all_to_all=label == "all-to-all")
                rec.op([f"{label}/{name}: {e}" for e in errors])
                degree_sum += cs.degree
                per_sched[name] += cs.degree
                if codegen and name == "combined":
                    self._emit(topo, cs, self.routers[w], label)
            yield
        self.round_degrees.append(degree_sum)
        self.by_scheduler = per_sched

    def _emit(self, topo, cs, router, label) -> None:
        """Serialize, digest and generate registers for one schedule."""
        rec = self.rec
        with rec.timed("compiler.serialize"):
            doc = schedule_to_dict(cs)
            text = canonical_dumps(doc)
        with rec.timed("compiler.digest"):
            digest = artifact_digest(doc)
        with rec.timed("compiler.codegen"):
            regs = generate_registers(topo, cs)
        rec.samples["compiler.reply_bytes"].append(len(text))
        errors = []
        own = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        if hashlib.sha256(own.encode()).hexdigest() != digest:
            errors.append("artifact digest differs from the document hash")
        slots = [[(e["src"], e["dst"]) for e in slot] for slot in doc["slots"]]
        if slots != slots_of(cs) or doc["degree"] != cs.degree:
            errors.append("serialized schedule differs from the schedule")
        errors += props.check_registers(router, regs.words, slots_of(cs))
        rec.op([f"{label}/codegen: {e}" for e in errors])


class Simulations:
    """Table 5 runs, fault runs with both recoveries, and epoch runs."""

    def __init__(self, rec: Recorder, seed: int, rows, fault_rows, epoch_rows,
                 stepped: int, cuts: int) -> None:
        self.rec = rec
        self.rows = rows
        self.router = checker.TorusRouter(8)
        self.rng = random.Random(seed * 7919 + 5)
        self.stepped = set(self.rng.sample(range(len(rows)), stepped))
        self.params = SimParams()
        self.fault_rows = fault_rows
        self.cuts = cuts
        self.epoch_rows = epoch_rows
        self.sim_slots = 0
        self.compiled_slots = 0
        self.dynamic_slots = 0
        self.retries = 0
        self.protection_delta_k = 0
        self.delta_recompiles = 0
        self.steps = len(rows) + len(fault_rows) + len(epoch_rows)

    def _faults(self, pattern) -> list[tuple[int, str, int]]:
        """Cuts at slots 1, 2, ... on seeded fibers the pattern uses.

        Early cuts on used fibers find transfers in flight, so every
        round reschedules about as often.  Each round draws fresh
        fibers: a degraded topology is compiled (and its decompositions
        cached) the first time it is seen, so fresh cuts give every
        round the same kind of cold work."""
        used = sorted({link for s, d, _ in pattern
                       for link in self.router.route(s, d)[1:-1]})
        return [(slot, "fail", link)
                for slot, link in enumerate(self.rng.sample(used, self.cuts), start=1)]

    def _updates(self, pattern):
        rng = self.rng
        taken = {(s, d) for s, d, _ in pattern}
        alive = list(range(len(pattern)))
        updates = []
        for i in range(4):
            removed = rng.sample(alive, 3)
            alive = [m for m in alive if m not in removed]
            adds = []
            while len(adds) < 3:
                s, d = rng.sample(range(64), 2)
                if (s, d) not in taken:
                    taken.add((s, d))
                    adds.append((s, d, rng.randint(1, 16)))
            updates.append((4 + 6 * i, tuple(adds), tuple(removed)))
        return updates

    def _timed_sim(self, name: str, fn, *args, **kwargs):
        with self.rec.timed(f"simulator.{name}", total="sim_s"):
            res = fn(*args, **kwargs)
        self.sim_slots += res.completion_time
        return res

    def run_round(self):
        """One round, a generator that yields after each row."""
        rec = self.rec
        topo = Torus2D(8)
        compiled = dynamic = 0
        for i, (label, pattern) in enumerate(self.rows):
            rs = request_set(pattern)
            res = self._timed_sim("compiled_completion_time", compiled_completion_time,
                                  topo, rs, self.params)
            compiled += res.completion_time
            errors = checker.check_schedule(self.router, slots_of(res.schedule),
                                            [(s, d) for s, d, _ in pattern],
                                            degree=res.degree)
            errors += props.check_compiled(res, pattern, self.params)
            rec.op([f"{label}: {e}" for e in errors])
            if i in self.stepped:
                step = self._timed_sim("simulate_compiled", simulate_compiled,
                                       topo, rs, self.params)
                rec.op([f"{label}: {e}" for e in props.check_same_run(res, step)])
            for k in (1, 2, 5, 10):
                dyn = self._timed_sim("simulate_dynamic", simulate_dynamic,
                                      topo, rs, k, self.params)
                dynamic += dyn.completion_time
                self.retries += dyn.total_retries
                rec.op([f"{label} K={k}: {e}"
                        for e in props.check_delivered(dyn.messages, pattern)])
            yield
        for label, pattern in self.fault_rows:
            c, d = self._fault_runs(topo, label, pattern, self._faults(pattern))
            compiled += c
            dynamic += d
            yield
        for label, pattern in self.epoch_rows:
            compiled += self._epoch_run(topo, label, pattern, self._updates(pattern))
            yield
        self.compiled_slots += compiled
        self.dynamic_slots += dynamic

    def _fault_runs(self, topo, label, pattern, events) -> tuple[int, int]:
        rec = self.rec
        rs = request_set(pattern)
        fs = FaultSchedule.from_tuples(events)
        compiled = 0
        react = self._timed_sim("simulate_compiled_faulty", simulate_compiled_faulty,
                                topo, rs, fs, self.params, recovery="reactive")
        rec.op([f"{label} reactive: {e}"
                for e in props.check_faulty(self.router, react.messages, pattern, fs)])
        compiled += react.completion_time
        with rec.timed("topology.route"):
            conns = route_requests(topo, rs)
        with rec.timed("core.schedule.combined"):
            cs = get_scheduler("combined")(conns, topo)
        with rec.timed("core.protection.build"):
            prot = build_protection(topo, conns, cs)
        self.protection_delta_k += max((p.delta_k for p in prot.plans.values()), default=0)
        errors = checker.check_schedule(self.router, slots_of(cs),
                                        [(s, d) for s, d, _ in pattern])
        rec.op([f"{label} protection base: {e}" for e in errors])
        guarded = self._timed_sim("simulate_compiled_faulty", simulate_compiled_faulty,
                                  topo, rs, fs, self.params, recovery="protected",
                                  protection=prot)
        rec.op([f"{label} protected: {e}"
                for e in props.check_faulty(self.router, guarded.messages, pattern, fs)])
        compiled += guarded.completion_time
        dyn = self._timed_sim("simulate_dynamic", simulate_dynamic, topo, rs, 2,
                              self.params, faults=fs)
        self.retries += dyn.total_retries
        rec.op([f"{label} dynamic faults: {e}"
                for e in props.check_faulty(self.router, dyn.messages, pattern, fs)])
        return compiled, dyn.completion_time

    def _epoch_run(self, topo, label, pattern, updates) -> int:
        rec = self.rec
        rs = request_set(pattern)
        ups = [EpochUpdate(slot=s, add=a, remove=r) for s, a, r in updates]
        res = self._timed_sim("simulate_compiled_epochs", simulate_compiled_epochs,
                              topo, rs, ups, self.params)
        rec.op([f"{label} epochs: {e}"
                for e in props.check_epochs(res, pattern, updates)])
        # The same updates straight through the delta scheduler.
        with rec.timed("topology.route"):
            conns = route_requests(topo, rs)
        with rec.timed("core.schedule.combined"):
            cs = get_scheduler("combined")(conns, topo)
        engine = DeltaScheduler(cs, num_links=topo.num_links)
        live = {c.index: c.request.pair for c in conns}
        nxt = len(conns)
        for _, adds, removed in updates:
            new = []
            for s, d, z in adds:
                new.append(Connection(nxt, Request(s, d, size=z), topo.route(s, d)))
                live[nxt] = (s, d)
                nxt += 1
            for m in removed:
                del live[m]
            with rec.timed("core.delta.amend"):
                out = engine.amend(add=new, remove=removed)
            self.delta_recompiles += out.action != "amend"
            errors = checker.check_schedule(self.router, slots_of(out.schedule),
                                            list(live.values()), degree=out.degree)
            rec.op([f"{label} amend: {e}" for e in errors])
        return res.completion_time


class FastPath:
    """Structural all-to-all at several sizes, plus the first cold compile."""

    def __init__(self, rec: Recorder, seed: int, sizes, first_width: int,
                 first_pairs: int, route_table_width: int) -> None:
        self.rec = rec
        self.sizes = sizes
        self.rng = random.Random(seed * 104729 + 11)
        self.first_width = first_width
        self.first = inputs.random_pairs(self.rng, first_width ** 2, first_pairs)
        self.first_router = checker.TorusRouter(first_width)
        self.first_load = checker.max_link_load(self.first_router, self.first)
        self.table_router = checker.TorusRouter(route_table_width)
        self.table_width = route_table_width
        self.cold: dict[int, object] = {}
        self.degree = 0
        self.first_compile_times: list[float] = []
        self.first_degree = 0
        self.ratio = 0.0
        self.steps = len(sizes) + 1

    def one_off(self) -> None:
        rec = self.rec
        self.first_compile(Torus2D(self.first_width))
        for w in self.sizes:
            router = checker.TorusRouter(w)
            with rec.timed("aapc.fastpath_cold"):
                fast = all_to_all_fast_schedule(Torus2D(w))
            sample = self.rng.sample(range(fast.degree), 4)
            errors = checker.check_fastpath(router, fast.slot_of, fast.slot_sizes,
                                            fast.degree, sample=sample)
            rec.probe([f"fastpath {w}x{w}: {e}" for e in errors])
            self.cold[w] = fast
            self.degree += fast.degree
            self.ratio = fast.degree / checker.all_to_all_bound(w, w)

    def first_compile(self, topo) -> None:
        """Compile on a fresh 10x10 torus; the first compile on a topology
        signature builds its AAPC decomposition.  The run calls this once
        at the start (``Torus2D``) and once at the end (``KAryNCube`` of
        the same shape, another signature), so the two samples see the
        machine at different times.  Traced runs time the decomposition
        build on its own first."""
        rec = self.rec
        w = self.first_width
        if rec.tracer.enabled:
            with rec.timed("aapc.decomposition_build"):
                aapc_phase_map(topo)
        t0 = clock()
        with rec.timed("first_compile"):
            conns = route_requests(topo, RequestSet.from_pairs(self.first))
            cs = get_scheduler("combined")(conns, topo)
        self.first_compile_times.append(clock() - t0)
        self.first_degree = cs.degree
        errors = checker.check_schedule(self.first_router, slots_of(cs), self.first,
                                        degree=cs.degree, load=self.first_load)
        rec.probe([f"first compile {w}x{w}: {e}" for e in errors])

    def run_round(self):
        """One round, a generator that yields after each size and after
        the route table."""
        rec = self.rec
        for w in self.sizes:
            with rec.timed("aapc.fastpath_warm"):
                fast = all_to_all_fast_schedule(Torus2D(w))
            cold = self.cold[w]
            same = (fast.degree == cold.degree
                    and (fast.slot_of == cold.slot_of).all())
            rec.op([] if same else [f"warm fastpath {w}x{w} differs from cold"])
            yield
        w = self.table_width
        with rec.timed("topology.route"):
            table = RouteTable.all_pairs(Torus2D(w))
        errors = []
        src, dst = table.src.tolist(), table.dst.tolist()
        if len(src) != w * w * (w * w - 1):
            errors.append(f"route table has {len(src)} rows")
        for i in self.rng.sample(range(len(src)), 200):
            if tuple(table.path(i)) != self.table_router.route(src[i], dst[i]):
                errors.append(f"route table path {src[i]}->{dst[i]} differs")
                break
        rec.op([f"route table {w}x{w}: {e}" for e in errors])
        yield
