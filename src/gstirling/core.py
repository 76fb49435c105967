"""Exact-arithmetic building blocks: rationals, sequence pairs and
lower-triangular matrices.

All numeric work in this package runs over `fractions.Fraction`.  The helpers
here own the text serialization contract: a rational renders as a decimal
string exactly when its lowest-terms denominator is a power of ten, and as
``p/q`` otherwise, so ``Fraction(3, 10)`` prints ``0.3`` while
``Fraction(1, 2)`` prints ``1/2``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import pairwise
from typing import Iterable, Union

RationalLike = Union[Fraction, int, str]


def parse_rational(text: str) -> Fraction:
    """Parse ``3``, ``-0.25``, or ``p/q`` into an exact Fraction."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


def format_rational(q: Fraction) -> str:
    """Render a Fraction as decimal text when the reduced denominator is a
    power of ten, else as ``p/q``."""
    num, den = q.numerator, q.denominator
    if den == 1:
        return str(num)
    d, k = den, 0
    while d % 10 == 0:
        d //= 10
        k += 1
    if d != 1:
        return f"{num}/{den}"
    sign = "-" if num < 0 else ""
    mag = abs(num)
    return f"{sign}{mag // den}.{mag % den:0{k}d}"


def _coerce(values: Iterable[RationalLike]) -> tuple[Fraction, ...]:
    out = []
    for v in values:
        out.append(parse_rational(v) if isinstance(v, str) else Fraction(v))
    return tuple(out)


@dataclass(frozen=True)
class SequencePair:
    """A pair of equal-length rational sequences (a, e), indexed from 1 in
    the math and from 0 in the tuples."""

    a: tuple[Fraction, ...]
    e: tuple[Fraction, ...]
    a_nondecreasing: bool = field(init=False)

    def __post_init__(self) -> None:
        a = _coerce(self.a)
        e = _coerce(self.e)
        if len(a) != len(e):
            raise ValueError(f"length mismatch: len(a)={len(a)} len(e)={len(e)}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "e", e)
        object.__setattr__(
            self, "a_nondecreasing", all(x <= y for x, y in pairwise(a))
        )

    @property
    def n(self) -> int:
        return len(self.a)


@dataclass(frozen=True)
class TriMatrix:
    """Lower-triangular square matrix stored as ragged rows; row m holds the
    m+1 entries (m,0)..(m,m).  Entries above the diagonal read as 0."""

    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(Fraction(v) for v in row) for row in self.rows)
        for m, row in enumerate(rows):
            if len(row) != m + 1:
                raise ValueError(f"row {m} has {len(row)} entries, expected {m + 1}")
        object.__setattr__(self, "rows", rows)

    @property
    def n(self) -> int:
        return len(self.rows) - 1

    def entry(self, m: int, k: int) -> Fraction:
        if not (0 <= m <= self.n and 0 <= k <= self.n):
            raise IndexError(f"entry ({m},{k}) outside size {self.n}")
        return self.rows[m][k] if k <= m else Fraction(0)
