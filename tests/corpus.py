"""Seeded random inputs for cross-route and certificate testing, and raw
weight arrays from nested lists.

Everything random here is driven by an explicit random.Random instance so a
fixed seed reproduces the exact corpus.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from random import Random

from gstirling.core import SequencePair
from gstirling.network import WeightArray


def random_rational(rng: Random, lo: int = -6, hi: int = 6,
                    denominators: tuple[int, ...] = (1, 2, 3)) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.choice(denominators))


def random_pair(rng: Random, n: int, nondecreasing_a: bool = False) -> SequencePair:
    """Random rational (a, e) of length n; small numerators and denominators
    keep the exact arithmetic honest but cheap."""
    a = [random_rational(rng) for _ in range(n)]
    if nondecreasing_a:
        a.sort()
    e = [random_rational(rng) for _ in range(n)]
    return SequencePair(tuple(a), tuple(e))


def random_rgs_pair(rng: Random, n: int) -> SequencePair:
    """Random pair with non-decreasing a and e restricted-growth relative to
    a: each e_i either hits the current cap exactly (advancing it) or falls
    strictly below."""
    steps = sorted(random_rational(rng, 0, 4) for _ in range(n))
    a = tuple(steps)
    e = []
    f = 1
    for _ in range(n):
        cap = a[f - 1]
        if rng.random() < 0.4:
            e.append(cap)
            f += 1
        else:
            e.append(cap - Fraction(rng.randint(1, 8), rng.choice((1, 2, 3))))
    return SequencePair(a, tuple(e))


def random_dominant_pair(rng: Random, n: int) -> SequencePair:
    """Random pair with min(a) >= max(e); a need not be monotone."""
    e = [random_rational(rng, -6, 0) for _ in range(n)]
    floor = max(e, default=Fraction(0))
    a = [floor + Fraction(rng.randint(0, 6), rng.choice((1, 2, 3))) for _ in range(n)]
    return SequencePair(tuple(a), tuple(e))


def weight_array(rows) -> WeightArray:
    """Raw weight array (no provenance) with rows 1..n as given, on the lcm
    of their denominators."""
    rows = [[Fraction(v) for v in row] for row in rows]
    scale = lcm(1, *(v.denominator for row in rows for v in row))
    return WeightArray(tuple(tuple(int(v * scale) for v in row) for row in rows), scale)


def random_weight_array(rng: Random, n: int) -> WeightArray:
    """Raw triangular weight array with arbitrary-sign rational entries."""
    return weight_array(
        [[random_rational(rng) for _ in range(m)] for m in range(1, n + 1)]
    )
