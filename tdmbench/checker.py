"""Independent schedule checker for 2-D tori.

Nothing here imports the program under test.  The checker carries its
own dimension-order router (x first, then y; the shorter way round each
ring; a half-ring offset goes positive iff the source coordinate in that
dimension is even) and its own link numbering:

* ``v``                      -- injection fiber of node ``v`` (PE -> switch)
* ``N + v``                  -- ejection fiber of node ``v`` (switch -> PE)
* ``2N + 4v + 2d + s``       -- transit fiber leaving ``v`` along dimension
  ``d`` in direction ``s`` (0 = positive, 1 = negative)

so injection and ejection conflicts count like any other link conflict.
Every check returns a list of error strings; an empty list means the
schedule passed.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence

import numpy as np

Pair = tuple[int, int]


class TorusRouter:
    """Dimension-order routes on a ``width x height`` torus."""

    def __init__(self, width: int, height: int | None = None) -> None:
        self.dims = (int(width), int(height if height is not None else width))
        self.n = self.dims[0] * self.dims[1]
        self._cache: dict[Pair, tuple[int, ...]] = {}

    def _step(self, c: int, target: int, k: int) -> int:
        d = (target - c) % k
        if d == 0:
            return 0
        if 2 * d < k:
            return d
        if 2 * d > k:
            return d - k
        return d if c % 2 == 0 else d - k

    def route(self, src: int, dst: int) -> tuple[int, ...]:
        """Link ids of the light path ``src -> dst`` (``src != dst``)."""
        key = (src, dst)
        path = self._cache.get(key)
        if path is not None:
            return path
        if src == dst or not (0 <= src < self.n and 0 <= dst < self.n):
            raise ValueError(f"bad pair {key} on a {self.dims} torus")
        w, h = self.dims
        cur = [src % w, src // w]
        goal = (dst % w, dst // w)
        links = [src]
        for dim, k in enumerate(self.dims):
            off = self._step(cur[dim], goal[dim], k)
            sign = 0 if off > 0 else 1
            for _ in range(abs(off)):
                node = cur[0] + w * cur[1]
                links.append(2 * self.n + 4 * node + 2 * dim + sign)
                cur[dim] = (cur[dim] + (1 if off > 0 else -1)) % k
        links.append(self.n + dst)
        path = tuple(links)
        if self.n <= 256:
            self._cache[key] = path
        return path

    def transit_ends(self, link: int) -> Pair:
        """``(from node, to node)`` of a transit link id."""
        off = link - 2 * self.n
        if not 0 <= off < 4 * self.n:
            raise ValueError(f"link {link} is not a transit fiber")
        node, rest = divmod(off, 4)
        dim, sign = divmod(rest, 2)
        w, h = self.dims
        c = [node % w, node // w]
        c[dim] = (c[dim] + (1 if sign == 0 else -1)) % self.dims[dim]
        return node, c[0] + w * c[1]

    def connected(self, src: int, dst: int, down: Iterable[int]) -> bool:
        """Whether ``dst`` is reachable from ``src`` over live transit fibers."""
        dead = set(down)
        seen = {src}
        frontier = [src]
        while frontier:
            v = frontier.pop()
            if v == dst:
                return True
            for local in range(4):
                link = 2 * self.n + 4 * v + local
                if link in dead:
                    continue
                nxt = self.transit_ends(link)[1]
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return dst in seen


def ring_fiber_load(k: int) -> int:
    """Busiest directed fiber of a ``k``-ring under all pairs, routed as above."""
    if k < 2:
        return 0
    load = [0] * (2 * k)
    for s in range(k):
        for d in range(k):
            if s == d:
                continue
            diff = (d - s) % k
            if 2 * diff < k or (2 * diff == k and s % 2 == 0):
                for i in range(diff):
                    load[2 * ((s + i) % k)] += 1
            else:
                for i in range(k - diff):
                    load[2 * ((s - i) % k) + 1] += 1
    return max(load)


def all_to_all_bound(width: int, height: int) -> int:
    """Closed-form lower bound on K for all-to-all on a ``width x height`` torus.

    Every source injects ``N - 1`` messages, and each dimension's
    busiest fiber carries its ring's all-pairs load once per choice of
    the other coordinate.
    """
    n = width * height
    return max(n - 1, *((n // k) * ring_fiber_load(k) for k in (width, height)))


def max_link_load(router: TorusRouter, pairs: Iterable[Pair]) -> int:
    load: Counter[int] = Counter()
    for s, d in pairs:
        load.update(router.route(s, d))
    return max(load.values(), default=0)


def slot_conflicts(router: TorusRouter, slot: Sequence[Pair]) -> list[str]:
    used: dict[int, Pair] = {}
    errors = []
    for s, d in slot:
        for link in router.route(s, d):
            other = used.get(link)
            if other is not None:
                errors.append(f"{(s, d)} and {other} share link {link}")
                break
            used[link] = (s, d)
    return errors


def check_schedule(
    router: TorusRouter,
    slots: Sequence[Sequence[Pair]],
    requested: Iterable[Pair],
    *,
    degree: int | None = None,
    load: int | None = None,
    all_to_all: bool = False,
) -> list[str]:
    """Check a slot list against the requested multiset of pairs.

    ``degree`` is the K the program claims; it must equal the number of
    slots and be at least the link load the checker computes itself
    (``load``, when the caller has computed it already for these pairs)
    and, for all-to-all, the closed-form fiber-load bound.
    """
    errors: list[str] = []
    k = len(slots)
    if degree is not None and degree != k:
        errors.append(f"claimed degree {degree} but {k} slots")
    for i, slot in enumerate(slots):
        errors.extend(f"slot {i}: {e}" for e in slot_conflicts(router, slot)[:3])
    want = Counter((int(s), int(d)) for s, d in requested)
    got = Counter((int(s), int(d)) for slot in slots for s, d in slot)
    if got != want:
        missing = sum((want - got).values())
        extra = sum((got - want).values())
        errors.append(f"coverage: {missing} requested pairs missing, {extra} extra")
    if load is None:
        load = max_link_load(router, want)
    if k < load:
        errors.append(f"K={k} below the link load {load}")
    if all_to_all:
        bound = all_to_all_bound(*router.dims)
        if k < bound:
            errors.append(f"K={k} below the all-to-all bound {bound}")
    return errors


def check_fastpath(
    router: TorusRouter,
    slot_of: np.ndarray,
    slot_sizes: np.ndarray,
    degree: int,
    *,
    sample: Sequence[int] = (),
) -> list[str]:
    """Check a dense all-to-all slot matrix.

    Every off-diagonal pair must own a slot in ``[0, degree)``, the slot
    sizes must agree with the matrix and sum to ``n(n-1)``, ``degree``
    must reach the closed-form bound, and each slot in ``sample`` is
    checked link-disjoint in full.
    """
    errors: list[str] = []
    n = router.n
    if slot_of.shape != (n, n):
        return [f"slot matrix shape {slot_of.shape}, expected {(n, n)}"]
    off = ~np.eye(n, dtype=bool)
    vals = slot_of[off]
    if vals.min() < 0 or vals.max() >= degree:
        errors.append(f"slots outside [0, {degree}): min {vals.min()} max {vals.max()}")
        return errors
    if int(slot_sizes.sum()) != n * (n - 1):
        errors.append(f"slot sizes sum to {int(slot_sizes.sum())}, expected {n * (n - 1)}")
    counts = np.bincount(vals, minlength=degree)
    if len(slot_sizes) != degree or not np.array_equal(counts, slot_sizes):
        errors.append("slot sizes disagree with the slot matrix")
    bound = all_to_all_bound(*router.dims)
    if degree < bound:
        errors.append(f"K={degree} below the all-to-all bound {bound}")
    for s in sample:
        src, dst = np.nonzero((slot_of == s) & off)
        pairs = list(zip(src.tolist(), dst.tolist()))
        errors.extend(f"slot {s}: {e}" for e in slot_conflicts(router, pairs)[:3])
    return errors
