"""Host-speed calibration kernel: a fixed piece of pure-Python work that does
not use lietower.

    python3 perfbench/calib.py      # prints CHECKSUM

The work is of the same kind as lietower's: sparse vectors held as dicts
from word tuples to Fractions, products by word concatenation, and integer
row elimination with gcd.  Every timed request of the benchmark runs it
in-process (request.py, sweep.py), and run.py scales the request's time by
REFERENCE_KERNEL_S over the kernel's time in that process, so that a host
that is slower for a while does not read as a slower program.  Set-up
samples, which are mostly interpreter start and imports, are scaled by
REFERENCE_SPAWN_S over the time of this script run as a fresh process,
which pays the CLI's stdlib imports before one kernel run.
"""

from __future__ import annotations

import argparse  # noqa: F401  (imported for its start-up cost, as the CLI does)
import dataclasses  # noqa: F401
import gc
import itertools
import json  # noqa: F401
import random
import typing  # noqa: F401
from fractions import Fraction
from math import gcd
from time import perf_counter

ROUNDS = 4
CHECKSUM = "91baa419"
# the speed run.py scales to, as medians on a 2-vCPU Intel Xeon at 2.0 GHz
# with Python 3.11.7: timed_kernel() inside the benchmark's processes, and
# `python3 perfbench/calib.py` from spawn to exit
REFERENCE_KERNEL_S = 0.05
REFERENCE_SPAWN_S = 0.15


def _vector(rng: random.Random, size: int) -> dict:
    return {
        tuple(rng.randrange(3) for _ in range(rng.randint(1, 4))): Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        for _ in range(size)
    }


def _product(u: dict, v: dict) -> dict:
    """The commutator u v - v u in the free associative algebra."""
    out: dict = {}
    for (a, x), (b, y) in itertools.product(u.items(), v.items()):
        c = x * y
        out[a + b] = out.get(a + b, 0) + c
        out[b + a] = out.get(b + a, 0) - c
    return {w: c for w, c in out.items() if c}


def _rank(rows: list[dict]) -> int:
    """Rank of integer rows (dicts column -> int) by fraction-free elimination."""
    pivots: dict = {}
    for row in rows:
        row = dict(row)
        while row:
            col = min(row)
            if col not in pivots:
                pivots[col] = row
                break
            piv = pivots[col]
            a, b = piv[col], row[col]
            g = gcd(a, b)
            ma, mb = b // g, a // g
            new = {k: mb * row.get(k, 0) - ma * piv.get(k, 0) for k in set(row) | set(piv)}
            row = {k: c for k, c in new.items() if c}
    return len(pivots)


def kernel(rounds: int) -> str:
    rng = random.Random(20170628)
    acc = 0
    for _ in range(rounds):
        u, v, w = _vector(rng, 12), _vector(rng, 12), _vector(rng, 6)
        p = _product(_product(u, v), w)
        words = sorted(p)
        index = {word: i for i, word in enumerate(words)}
        rows = []
        for _ in range(24):
            row = {index[word]: rng.randint(-5, 5) for word in rng.sample(words, min(8, len(words)))}
            rows.append({k: c for k, c in row.items() if c})
        acc = (acc * 1000003 + len(p) * 131 + _rank(rows)) % (1 << 32)
    return f"{acc:08x}"


def timed_kernel() -> float:
    """Seconds for one kernel(ROUNDS).  The cycle collector is off meanwhile
    (the kernel makes no cycles), so that the time does not depend on the
    size of the heap of the process it runs in."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        result = kernel(ROUNDS)
        elapsed = perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    if result != CHECKSUM:
        raise RuntimeError(f"calibration kernel returned {result}, expected {CHECKSUM}")
    return elapsed


def scale(samples: list[float]) -> float:
    """REFERENCE_KERNEL_S over the interquartile mean of the kernel times
    taken during one stretch of work (the plain mean for fewer than four):
    the factor that brings that stretch's times to the reference speed."""
    xs = sorted(samples)
    cut = len(xs) // 4
    middle = xs[cut:len(xs) - cut]
    return REFERENCE_KERNEL_S * len(middle) / sum(middle)


if __name__ == "__main__":
    print(kernel(ROUNDS))
