"""The compile farm, driven by one client over one router connection.

A block is a fixed interleaving of four request classes -- warm hits on
small patterns, warm hits on the 8x8 all-to-all, cold compiles of
unique random patterns, amend updates on one live stream -- plus, when
enabled, a ``stats`` request that checks the farm-wide miss counter
against the misses the client saw.  A round sends the same number of
blocks, in slices spread between the steps of the other sections.
Every class is timed on its own.

With tracing on, :meth:`FarmSection.replay` sends a sample of the same
requests at three depths (in-process, straight to the owning node,
through the router), so the differences give the self time of
canonicalize, cache, wire and router hop.
"""

from __future__ import annotations

import hashlib
import json
import random

from repro.service import (
    AmendStream,
    ArtifactCache,
    AsyncCompileClient,
    Farm,
    ShardMap,
    canonicalize,
    compile_pattern,
)
from repro.service.compile import compile_digest
from repro.topology import Torus2D

import checker
import inputs
from recorder import Recorder, clock

TOPOLOGY = {"kind": "torus", "width": 8, "height": 8}
SCHEDULER = "combined"
#: Warm set and request size, as in the repository's farm experiment
#: (``farm_campaign``: 6 warm patterns, 48 connections a request); the
#: live amend stream has the same size and each update removes 2 and
#: adds 2 connections, as in ``churn_campaign`` (``update_size=2``).
WARM_PATTERNS = 6
PAIRS = 48
UPDATE_SIZE = 2


def pairs_of(schedule_doc) -> list[list[tuple[int, int]]]:
    return [[(e["src"], e["dst"]) for e in slot] for slot in schedule_doc["slots"]]


def content_hash(schedule_doc) -> str:
    return hashlib.sha256(json.dumps(schedule_doc, sort_keys=True).encode()).hexdigest()


class FarmSection:
    def __init__(self, rec: Recorder, seed: int, *, small: int, large: int, cold: int,
                 amends: int, stats: bool, blocks: int, workers: int) -> None:
        self.rec = rec
        self.rng = random.Random(seed * 31337 + 7)
        self.router = checker.TorusRouter(8)
        self.small = [inputs.random_pairs(self.rng, 64, PAIRS)
                      for _ in range(WARM_PATTERNS)]
        self.large = inputs.all_to_all(64)
        self.large_load = checker.max_link_load(self.router, self.large)
        self.live0 = inputs.random_pairs(self.rng, 64, PAIRS)
        kinds = ["S"] * small + ["L"] * large + ["C"] * cold + ["A"] * amends
        random.Random(0).shuffle(kinds)
        #: The request kinds of one round, in order.
        self.round = (kinds + (["T"] if stats else [])) * blocks
        self.small_i = 0
        self.workers = workers
        self.farm: Farm | None = None
        self.client: AsyncCompileClient | None = None
        self.degrees = 0
        self.recompiles = 0
        self.hits = 0
        self.misses = 0

    # -- set-up -----------------------------------------------------------
    async def start(self) -> None:
        """Start a farm and prewarm the warm set and the amend stream."""
        self.farm = Farm(nodes=2, replication=2, workers=self.workers)
        await self.farm.start()
        self.client = AsyncCompileClient(*self.farm.router_address)
        await self.client.connect()
        self.miss_replies = 0
        self.first: dict[int, tuple[str, str, str]] = {}
        for i, pairs in enumerate(self.small + [self.large]):
            reply = await self._compile(pairs)
            load = self.large_load if pairs is self.large else None
            errors = self._check_compile(reply, pairs, load=load,
                                         all_to_all=pairs is self.large)
            self.rec.probe([f"prewarm {i}: {e}" for e in errors])
            self.first[i] = (reply["digest"], reply["payload_sha256"],
                             content_hash(reply["schedule"]))
        self.live = set(self.live0)
        reply = await self.client.amend(TOPOLOGY, pairs=sorted(self.live))
        self.root, self.epoch = reply["root"], reply["epoch"]
        self.rec.probe([f"amend open: {e}" for e in self._check_amend(reply, 0)])

    async def stop(self) -> None:
        if self.client is not None:
            await self.client.close()
            self.client = None
        if self.farm is not None:
            await self.farm.shutdown()
            self.farm = None

    # -- requests ---------------------------------------------------------
    async def _compile(self, pairs):
        reply = await self.client.compile(TOPOLOGY, pairs=pairs)
        self.miss_replies += reply.get("cache") == "miss"
        return reply

    def _check_compile(self, reply, pairs, *, load=None, all_to_all=False) -> list[str]:
        if not reply.get("ok"):
            return [f"reply not ok: {reply.get('error')}"]
        return checker.check_schedule(self.router, pairs_of(reply["schedule"]), pairs,
                                      degree=reply["degree"], load=load,
                                      all_to_all=all_to_all)

    def _check_amend(self, reply, epoch: int) -> list[str]:
        if not reply.get("ok"):
            return [f"reply not ok: {reply.get('error')}"]
        errors = []
        if reply["epoch"] != epoch or reply["root"] != self.root:
            errors.append(f"epoch {reply['epoch']} on {reply['root'][:8]}, "
                          f"expected {epoch} on {self.root[:8]}")
        errors += checker.check_schedule(self.router, pairs_of(reply["schedule"]),
                                         self.live, degree=reply["degree"])
        return errors

    def _check_warm(self, reply, index: int) -> list[str]:
        if not reply.get("ok"):
            return [f"reply not ok: {reply.get('error')}"]
        seen = (reply["digest"], reply["payload_sha256"], content_hash(reply["schedule"]))
        errors = []
        if reply.get("cache") != "hit":
            errors.append(f"warm request answered {reply.get('cache')!r}")
        if seen != self.first[index]:
            errors.append("warm reply differs from the pattern's first reply")
        return errors

    def _update(self, live: set) -> tuple[list, list]:
        """Draw one seeded amend update and apply it to ``live``."""
        removed = self.rng.sample(sorted(live), UPDATE_SIZE)
        added = []
        while len(added) < UPDATE_SIZE:
            pair = tuple(self.rng.sample(range(64), 2))
            if pair not in live and pair not in added:
                added.append(pair)
        live.difference_update(removed)
        live.update(added)
        return removed, added

    async def _request(self, kind: str, coro):
        t0 = clock()
        with self.rec.tracer.span(f"farm.{kind}", f"farm-{int(self.rec.totals['requests'])}"):
            reply = await coro
        dt = clock() - t0
        self.rec.samples[kind].append(dt)
        self.rec.totals["requests_s"] += dt
        self.rec.totals["requests"] += 1
        self.hits += reply.get("cache") == "hit"
        self.misses += reply.get("cache") == "miss"
        return reply

    async def run(self, kinds: list[str]) -> None:
        """Send one request of each kind in ``kinds``, in order."""
        rec = self.rec
        for kind in kinds:
            if kind == "S":
                index = self.small_i % len(self.small)
                self.small_i += 1
                reply = await self._request("warm_small", self._compile(self.small[index]))
                rec.op([f"warm small: {e}" for e in self._check_warm(reply, index)])
            elif kind == "L":
                reply = await self._request("warm_large", self._compile(self.large))
                rec.op([f"warm all-to-all: {e}"
                        for e in self._check_warm(reply, len(self.small))])
            elif kind == "C":
                pairs = inputs.random_pairs(self.rng, 64, PAIRS)
                reply = await self._request("cold", self._compile(pairs))
                errors = self._check_compile(reply, pairs)
                if reply.get("cache") != "miss":
                    errors.append(f"cold compile answered {reply.get('cache')!r}")
                rec.op([f"cold compile: {e}" for e in errors])
                self.degrees += reply.get("degree", 0)
            elif kind == "A":
                removed, added = self._update(self.live)
                reply = await self._request(
                    "amend",
                    self.client.amend(root=self.root, epoch=self.epoch,
                                      add=added, remove=removed))
                self.epoch += 1
                rec.op([f"amend: {e}" for e in self._check_amend(reply, self.epoch)])
                self.recompiles += reply.get("action") != "amend"
                self.degrees += reply.get("degree", 0)
            else:
                reply = await self._request("stats", self.client.stats())
                counted = reply["farm"]["counters"]["artifact_cache_misses"]
                errors = []
                if counted != self.miss_replies:
                    errors.append(f"farm reports {counted} artifact cache misses, "
                                  f"replies marked miss: {self.miss_replies}")
                rec.op(errors, known_fault=True)

    # -- traced depths ----------------------------------------------------
    async def replay(self, count: int, repeats: int) -> None:
        """Send a seeded sample of warm requests at three depths, then
        cold compiles and amends in-process."""
        rec = self.rec
        topo = Torus2D(8)
        cache = ArtifactCache()
        sample = self.rng.sample(range(len(self.small)), count)
        for i in sample:
            compile_pattern(topo, self.small[i], cache=cache)
        reply = await self.client.request({"op": "shardmap"})
        shard_map = ShardMap.from_dict(reply["shard_map"])
        nodes: dict[str, AsyncCompileClient] = {}
        req = 0  # spans of one replayed request share its id
        try:
            for _ in range(repeats):
                for i in sample:
                    req += 1
                    pairs = self.small[i]
                    digest = self.first[i][0]
                    with rec.timed("service.canonicalize", request=f"replay-{req}"):
                        canon = canonicalize(topo, pairs)
                    with rec.timed("service.digest", request=f"replay-{req}"):
                        key = compile_digest(topo, canon, SCHEDULER, None)
                    with rec.timed("service.cache.get", request=f"replay-{req}"):
                        doc = cache.get(key)
                    with rec.timed("service.compile.hit", request=f"replay-{req}"):
                        res = compile_pattern(topo, pairs, cache=cache)
                    errors = []
                    if doc is None or res.cache != "hit" or res.digest != digest:
                        errors.append("in-process hit differs from the farm's reply")
                    owner = shard_map.owners(digest)[0]
                    if owner not in nodes:
                        nodes[owner] = AsyncCompileClient(*shard_map.endpoint(owner))
                        await nodes[owner].connect()
                    with rec.timed("service.node_rtt", request=f"replay-{req}"):
                        direct = await nodes[owner].compile(TOPOLOGY, pairs=pairs)
                    with rec.timed("service.router_rtt", request=f"replay-{req}"):
                        routed = await self.client.compile(TOPOLOGY, pairs=pairs)
                    errors += self._check_warm(direct, i) + self._check_warm(routed, i)
                    rec.probe([f"replay: {e}" for e in errors])
        finally:
            for client in nodes.values():
                await client.close()
        for i in range(count):
            req += 1
            pairs = inputs.random_pairs(self.rng, 64, PAIRS)
            with rec.timed("service.compile.miss", request=f"replay-{req}"):
                res = compile_pattern(topo, pairs, cache=cache)
            errors = checker.check_schedule(self.router, pairs_of(res.schedule_doc), pairs,
                                            degree=res.degree)
            rec.probe([f"in-process cold compile: {e}" for e in errors])
        live = set(self.live0)
        stream = AmendStream(topo, [(s, d, 1, 0) for s, d in sorted(live)],
                             scheduler=SCHEDULER, cache=ArtifactCache())
        for epoch in range(count * repeats):
            removed, added = self._update(live)
            req += 1
            with rec.timed("service.amend.inproc", request=f"replay-{req}"):
                doc = stream.amend(epoch=epoch,
                                   add=[(s, d, 1, 0) for s, d in added],
                                   remove=[(s, d, 1, 0) for s, d in removed])
            errors = checker.check_schedule(self.router, pairs_of(doc["schedule"]), live)
            if doc["lineage"]["epoch"] != epoch + 1:
                errors.append(f"in-process amend reached epoch {doc['lineage']['epoch']}")
            rec.probe([f"in-process amend: {e}" for e in errors])
