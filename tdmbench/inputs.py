"""Seeded inputs: every pattern the benchmark hands the program.

The generators are the benchmark's own (the program receives only the
generated pairs), written from the paper's descriptions:

* Table 1 -- uniformly random distinct ``src != dst`` pairs;
* Table 2 -- random 3-D block-cyclic redistributions of a 64^3 array
  over 64 PEs (element counts per PE pair by the separable closed form);
* Table 3 -- ring, nearest neighbour, hypercube, shuffle-exchange and
  all-to-all on 64 PEs;
* Table 5 -- GS (linear-array boundary rows), TSCF (hypercube, 8-element
  messages) and P3M 1/2/4/5 (mesh redistributions between the 4x4x4
  block, z-plane and 8x8 pencil layouts, plus a 26-neighbour exchange).

A pattern is a list of ``(src, dst, size)`` triples.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter

Triple = tuple[int, int, int]


def random_pairs(rng: random.Random, n: int, count: int) -> list[tuple[int, int]]:
    """``count`` distinct uniform pairs on ``n`` nodes."""
    picks = rng.sample(range(n * (n - 1)), count)
    out = []
    for p in picks:
        s, off = divmod(p, n - 1)
        out.append((s, off + 1 if off >= s else off))
    return out


def sized(pairs, size: int = 1) -> list[Triple]:
    return [(s, d, size) for s, d in pairs]


# ----------------------------------------------------------------------
# Table 3 classic patterns on 64 PEs (8x8 torus, natural numbering)
# ----------------------------------------------------------------------
def ring(n: int = 64) -> list[tuple[int, int]]:
    return [(i, (i + 1) % n) for i in range(n)] + [((i + 1) % n, i) for i in range(n)]


def nearest_neighbour(w: int = 8) -> list[tuple[int, int]]:
    out = []
    for y, x in itertools.product(range(w), range(w)):
        v = x + w * y
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            out.append((v, (x + dx) % w + w * ((y + dy) % w)))
    return out


def hypercube(n: int = 64) -> list[tuple[int, int]]:
    bits = n.bit_length() - 1
    return [(i, i ^ (1 << b)) for i in range(n) for b in range(bits)]


def shuffle_exchange(n: int = 64) -> list[tuple[int, int]]:
    bits = n.bit_length() - 1
    out = [(i, i ^ 1) for i in range(n)]
    for i in range(n):
        j = ((i << 1) | (i >> (bits - 1))) & (n - 1)
        if j != i:
            out.append((i, j))
    return out


def all_to_all(n: int = 64) -> list[tuple[int, int]]:
    return [(s, d) for s in range(n) for d in range(n) if s != d]


CLASSIC = {
    "ring": ring,
    "nearest-neighbour": nearest_neighbour,
    "hypercube": hypercube,
    "shuffle-exchange": shuffle_exchange,
    "all-to-all": all_to_all,
}


# ----------------------------------------------------------------------
# block-cyclic redistributions (Table 2, P3M 1-4)
# ----------------------------------------------------------------------
# A distribution is one (procs, block) pair per dimension; PE ids combine
# the per-dimension owner coordinates with dimension 0 fastest.
Dist = tuple[tuple[int, int], ...]


def _dim_counts(extent: int, a: tuple[int, int], b: tuple[int, int]) -> Counter:
    return Counter(((i // a[1]) % a[0], (i // b[1]) % b[0]) for i in range(extent))


def redistribution(extent: int, src: Dist, dst: Dist) -> list[Triple]:
    """Sized pairs moving an ``extent^3`` array from ``src`` to ``dst``."""
    pairs: Counter = Counter({(0, 0): 1})
    sr = dr = 1
    for a, b in zip(src, dst):
        nxt: Counter = Counter()
        for (sp, dp), c in pairs.items():
            for (x, y), m in _dim_counts(extent, a, b).items():
                nxt[(sp + x * sr, dp + y * dr)] += c * m
        pairs = nxt
        sr *= a[0]
        dr *= b[0]
    return [(s, d, c) for (s, d), c in sorted(pairs.items()) if s != d]


def random_distribution(rng: random.Random, extent: int = 64, pes: int = 64) -> Dist:
    """Uniform PE grid factorization, uniform legal block sizes."""
    grids = [
        g for g in itertools.product(range(1, pes + 1), repeat=3)
        if g[0] * g[1] * g[2] == pes and all(p <= extent for p in g)
    ]
    grid = rng.choice(grids)
    return tuple((p, rng.randint(1, max(extent // p, 1))) for p in grid)


def _layouts(grid: int) -> dict[str, Dist]:
    return {
        "block3": ((4, grid // 4),) * 3,
        "zplane": ((1, 1), (1, 1), (64, max(grid // 64, 1))),
        "pencil": ((8, grid // 8), (8, grid // 8), (1, 1)),
    }


# ----------------------------------------------------------------------
# Table 5 application patterns
# ----------------------------------------------------------------------
def gs(grid: int) -> list[Triple]:
    out = []
    for i in range(63):
        out += [(i, i + 1, grid), (i + 1, i, grid)]
    return out


def tscf() -> list[Triple]:
    return sized(hypercube(64), 8)


def p3m(which: int, grid: int) -> list[Triple]:
    if which == 5:
        sizes = {1: max(grid // 8, 1), 2: 2, 3: 1}
        out = []
        for x, y, z in itertools.product(range(4), repeat=3):
            for dx, dy, dz in itertools.product((-1, 0, 1), repeat=3):
                nz = abs(dx) + abs(dy) + abs(dz)
                if nz:
                    v = x + 4 * y + 16 * z
                    u = (x + dx) % 4 + 4 * ((y + dy) % 4) + 16 * ((z + dz) % 4)
                    out.append((v, u, sizes[nz]))
        return out
    src, dst = {1: ("block3", "zplane"), 2: ("zplane", "pencil"),
                4: ("pencil", "zplane")}[which]
    lay = _layouts(grid)
    return redistribution(grid, lay[src], lay[dst])


def table5() -> list[tuple[str, list[Triple]]]:
    """The paper's Table 5 rows (P3M 3 repeats P3M 2 and is left out)."""
    rows = [(f"GS {g}x{g}", gs(g)) for g in (64, 128, 256)]
    rows.append(("TSCF 5120", tscf()))
    for which in (1, 2, 4, 5):
        for grid in (32, 64):
            rows.append((f"P3M {which} {grid}^3", p3m(which, grid)))
    return rows
