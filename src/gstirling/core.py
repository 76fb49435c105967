"""Exact-arithmetic building blocks: rationals, sequence pairs and
lower-triangular matrices.

Sequences are parsed into `fractions.Fraction`, a short int or p/q token
straight from its ints (parse_rational); all that is computed from them
runs on ints on one scale, the lcm of the denominators (_to_scale,
SequencePair.scaled).  A matrix (TriMatrix) and a weight array
(network.WeightArray) are int rows plus that scale, rendered straight from
the ints by format_scaled, so a Fraction is made only where a caller asks
for a value.  The helpers here own the text serialization contract: a
rational renders as a decimal string exactly when its lowest-terms
denominator is a power of ten, and as ``p/q`` otherwise, so
``Fraction(3, 10)`` prints ``0.3`` while ``Fraction(1, 2)`` prints ``1/2``.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, islice, repeat
from math import gcd, lcm
from operator import le, mul
from typing import Iterable, Optional, Sequence, Union

RationalLike = Union[Fraction, int, str]

# the digits of a decimal literal's exponent, as in 1e-3
_EXPONENT = re.compile(r"[eE][-+]?(\d+)$")
_PLAIN = re.compile(r"([-+]?[0-9]{1,18})(?:/([0-9]{1,18}))?")


def digit_limit() -> int:
    """The most digits the interpreter converts between int and text
    (sys.get_int_max_str_digits); 0 means no limit."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _too_long(x: int, limit: int) -> bool:
    """Whether |x| has more than limit > 0 digits."""
    x = abs(x)
    # 10**limit has more than 3 * limit bits, so shorter ints pass at once
    return x.bit_length() > 3 * limit and x >= 10 ** limit


def parse_rational(text: str) -> Fraction:
    """Parse ``3``, ``-0.25``, ``1e-3`` or ``p/q`` into an exact Fraction.

    Raises ValueError for text that is not a rational, and OverflowError for
    one that would not render back as text: a run of more than digit_limit()
    digits, an exponent beyond that many, or a numerator or denominator
    with more digits.  The text is checked before the value is built, so
    ``1e999999999`` is refused at once.  A plain ``p`` or ``p/q`` (q > 0)
    of up to 18 ASCII digits each, far below any limit, is built at once."""
    text = text.strip()
    if (plain := _PLAIN.fullmatch(text)) and (den := int(plain[2] or 1)):
        return Fraction(int(plain[1]), den)
    limit = digit_limit()
    if limit:
        digits = text.replace("_", "")
        exp = _EXPONENT.search(digits)
        if ((len(digits) > limit and re.search(rf"\d{{{limit + 1}}}", digits))
                or (exp is not None and int(exp.group(1)) > limit)):
            raise OverflowError(f"more than {limit} digits: {text!r}")
    try:
        q = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc
    if limit and (_too_long(q.numerator, limit) or _too_long(q.denominator, limit)):
        raise OverflowError(f"more than {limit} digits: {text!r}")
    return q


def _format(num: int, den: int) -> str:
    """format_rational of num/den, given in lowest terms with den > 0."""
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


def format_rational(q: Fraction) -> str:
    """Render a Fraction as decimal text when the reduced denominator is a
    power of ten, else as ``p/q``."""
    return _format(q.numerator, q.denominator)


def _scaled_text(v: int, den: int) -> str:
    """format_rational of v/den for den > 0, with one gcd and no Fraction."""
    g = gcd(v, den)
    return _format(v // g, den // g)


def parse_int_token(tok: str, lineno: int, source: Optional[str] = None) -> int:
    """int(tok) for a token on line lineno of a text input; an error names
    the line, and the source (a file's path) when given."""
    try:
        return int(tok)
    except ValueError:
        where = f"line {lineno}" if source is None else f"{source}: line {lineno}"
        raise ValueError(f"{where}: {tok!r} is not an integer") from None


def _coerce(values: Iterable[RationalLike]) -> tuple[Fraction, ...]:
    return tuple(v if type(v) is Fraction else
                 parse_rational(v) if isinstance(v, str) else Fraction(v) for v in values)


def _to_scale(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """(L * v for each v, L) as ints, for L the lcm of the denominators:
    the one place rationals are put on an integer scale."""
    scale = lcm(1, *(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


@dataclass(frozen=True)
class SequencePair:
    """A pair of equal-length rational sequences (a, e), indexed from 1 in
    the math and from 0 in the tuples."""

    a: tuple[Fraction, ...]
    e: tuple[Fraction, ...]
    a_nondecreasing: bool = field(init=False)
    # (L*a + L*e, L): the pair on its integer scale, computed once
    _ints: tuple[tuple[int, ...], int] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        a = _coerce(self.a)
        e = _coerce(self.e)
        if len(a) != len(e):
            raise ValueError(f"length mismatch: len(a)={len(a)} len(e)={len(e)}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "e", e)
        ints, scale = _to_scale(a + e)
        n = len(a)
        # L > 0, so the scaled ints of a are in the order of a
        object.__setattr__(self, "a_nondecreasing", all(map(le, ints[:n], ints[1:n])))
        object.__setattr__(self, "_ints", (tuple(ints), scale))

    @property
    def n(self) -> int:
        return len(self.a)

    def scaled(self) -> tuple[list[int], list[int], int]:
        """(L*a, L*e, L) as ints, for L the lcm of every denominator in a
        and e, as fresh lists over values computed once per pair.  Entry
        (m,k) of S^{a,e} is homogeneous of degree m-k in (a,e), so
        S^{La,Le}(m,k) = L^(m-k) S^{a,e}(m,k)."""
        ints, scale = self._ints
        return list(ints[:self.n]), list(ints[self.n:]), scale


class TriMatrix:
    """Lower-triangular square matrix of rationals held as int rows plus
    one scale: row m holds the m+1 ints for (m,0)..(m,m), and entry (m,k)
    is ints[m][k] / (den * scale**(m-k)).  Entries above the diagonal read
    as 0.

    The library's constructions fill ints on an integer input scaled by L
    and set scale = L, den = 1 (see SequencePair.scaled; a path s_m -> t_k
    climbs m-k edges, so the grading holds for path matrices too).  A
    matrix given as rationals, TriMatrix(rows), gets scale 1 and den the lcm
    of its denominators.  Values are read with entry() and the rows view;
    equality and hashing compare values, so matrices of one value built on
    different scales are equal."""

    __slots__ = ("ints", "scale", "den", "_rows")

    def __init__(self, rows: Iterable[Iterable[RationalLike]]) -> None:
        rows = [_coerce(row) for row in rows]
        flat, den = _to_scale([v for row in rows for v in row])
        it = iter(flat)
        self._set([list(islice(it, len(row))) for row in rows], 1, den)

    @classmethod
    def scaled(cls, ints: Sequence[Sequence[int]], scale: int = 1) -> "TriMatrix":
        """The matrix with entry (m,k) = ints[m][k] / scale**(m-k)."""
        matrix = cls.__new__(cls)
        matrix._set(ints, scale, 1)
        return matrix

    def _set(self, ints: Sequence[Sequence[int]], scale: int, den: int) -> None:
        ints = tuple(map(tuple, ints))
        for m, row in enumerate(ints):
            if len(row) != m + 1:
                raise ValueError(f"row {m} has {len(row)} entries, expected {m + 1}")
        object.__setattr__(self, "ints", ints)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_rows", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"TriMatrix is immutable; cannot set {name!r}")

    @property
    def n(self) -> int:
        return len(self.ints) - 1

    def denominators(self) -> list[int]:
        """den * scale**d for d = 0..n: entry (m,k) is ints[m][k] over the
        (m-k)-th."""
        return list(accumulate(repeat(self.scale, self.n), mul, initial=self.den))

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """The entries as Fractions, row by row, built on first use."""
        if self._rows is None:
            dens = self.denominators()
            object.__setattr__(self, "_rows", tuple(
                tuple(map(Fraction, row, dens[m::-1]))
                for m, row in enumerate(self.ints)
            ))
        return self._rows

    def entry(self, m: int, k: int) -> Fraction:
        if not (0 <= m <= self.n and 0 <= k <= self.n):
            raise IndexError(f"entry ({m},{k}) outside size {self.n}")
        if k > m:
            return Fraction(0)
        return Fraction(self.ints[m][k], self.den * self.scale ** (m - k))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TriMatrix):
            return NotImplemented
        if len(self.ints) != len(other.ints):
            return False
        if (self.scale, self.den) == (other.scale, other.den):
            return self.ints == other.ints
        mine, theirs = self.denominators(), other.denominators()
        return all(
            x * theirs[m - k] == y * mine[m - k]
            for m, (r, s) in enumerate(zip(self.ints, other.ints))
            for k, (x, y) in enumerate(zip(r, s))
        )

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"TriMatrix(rows={self.rows!r})"


def format_scaled(ints: Sequence[Sequence[int]],
                  dens: Optional[Sequence[Sequence[int]]],
                  label: str, base: int = 0) -> list[list[str]]:
    """ints[i][j] / dens[i][j] as format_rational text, with one gcd per
    entry; dens None means every denominator is 1.  The one renderer of
    matrices and weight arrays: an entry with more digits than
    digit_limit() raises ValueError naming it label.format(i + base,
    j + base)."""
    try:
        if dens is None:
            return [list(map(str, row)) for row in ints]
        return [list(map(_scaled_text, row, den)) for row, den in zip(ints, dens)]
    except ValueError:
        for i, row in enumerate(ints):
            for j, v in enumerate(row):
                try:
                    _scaled_text(v, 1 if dens is None else dens[i][j])
                except ValueError:
                    raise ValueError(
                        f"rendering the {label.format(i + base, j + base)} has "
                        f"more than {digit_limit()} digits"
                    ) from None
        raise


def format_matrix(matrix: TriMatrix) -> list[list[str]]:
    """The entries (m,0)..(m,m) of each row m as format_rational text, by
    format_scaled; an entry too long to render is named by its (m,k)."""
    dens = matrix.denominators()  # (m,0)..(m,m) are over dens[m::-1]
    # dens[-1] == 1 means den = 1 and, unless n = 0, scale = 1
    per_row = None if dens[-1] == 1 else [dens[m::-1] for m in range(len(dens))]
    return format_scaled(matrix.ints, per_row, "matrix: entry ({},{})")
