"""Largest n that each construction route, and the certified decision,
handles in one second.

    python3 perfbench/capacity.py

Calls the library directly (no argument parsing or rendering) on seeded
inputs from workloads.py: random rational pairs for the four routes, growth
pairs for `decide_tnn` (a full pivot certificate).  Doubles n until a call
exceeds BUDGET_S, then bisects; each size is timed as the median of three
calls.  Prints one line per layer.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from random import Random

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import workloads  # noqa: E402

SEED = 1
BUDGET_S = 1.0


def seconds(fn, arg) -> float:
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        fn(arg)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def largest(fn, make, budget: float) -> tuple[int, float]:
    """Largest n (to within 2) with median time <= budget, and that time."""
    lo, hi, t_lo = 0, 8, 0.0
    while True:
        t = seconds(fn, make(hi))
        if t > budget:
            break
        lo, hi, t_lo = hi, hi * 2, t
    while hi - lo > 2:
        mid = (lo + hi) // 2
        t = seconds(fn, make(mid))
        if t <= budget:
            lo, t_lo = mid, t
        else:
            hi = mid
    return lo, t_lo


def main() -> int:
    from gstirling import (build_initial, decide_tnn, path_matrix, sequence_pair,
                           stirling_explicit, stirling_recurrence, stirling_symmetric)

    pair = lambda n: sequence_pair(*workloads.random_pair(Random(SEED), n))
    growth = lambda n: sequence_pair(*workloads.growth_pair(Random(SEED), n))
    layers = (
        ("stirling.stirling_recurrence", stirling_recurrence, pair),
        ("stirling.stirling_explicit", stirling_explicit, pair),
        ("stirling.stirling_symmetric", stirling_symmetric, pair),
        ("network.path_matrix(build_initial)", lambda sp: path_matrix(build_initial(sp)), pair),
        ("tnn.decide_tnn (growth pair)", decide_tnn, growth),
    )
    for name, fn, make in layers:
        n, t = largest(fn, make, BUDGET_S)
        print(f"{name:40s} n = {n:4d}  ({t:.3f} s)", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
