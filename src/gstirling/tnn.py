"""Total non-negativity: exhaustive minor oracle, signed inverse patterns,
and the constructive decision procedure.

A matrix is totally non-negative (TNN) when every minor is >= 0.  For
S^{a,e} with non-decreasing a this holds exactly when e is a
restricted-growth sequence relative to a; the decision procedure returns a
planar-network certificate in the positive case and a negative entry witness
in the negative case, with the exhaustive oracle available as a cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Iterator, Optional

from .core import SequencePair, TriMatrix
from .network import PivotTrace, certify
from .stirling import RgsReport, rgs_check, stirling_recurrence


@dataclass(frozen=True)
class MinorWitness:
    """A negative minor: row index set, column index set, exact value."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]
    value: Fraction


def det_exact(rows: list[list[Fraction]]) -> Fraction:
    """Exact determinant: clear denominators row by row, run fraction-free
    Bareiss elimination over the integers, divide the scales back out."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    scale = Fraction(1)
    mat: list[list[int]] = []
    for row in rows:
        mult = lcm(*(v.denominator for v in row)) if row else 1
        scale *= mult
        mat.append([int(v * mult) for v in row])
    sign = 1
    prev = 1
    for p in range(n - 1):
        if mat[p][p] == 0:
            swap = next((r for r in range(p + 1, n) if mat[r][p] != 0), None)
            if swap is None:
                return Fraction(0)
            mat[p], mat[swap] = mat[swap], mat[p]
            sign = -sign
        for r in range(p + 1, n):
            for c in range(p + 1, n):
                mat[r][c] = (mat[r][c] * mat[p][p] - mat[r][p] * mat[p][c]) // prev
            mat[r][p] = 0
        prev = mat[p][p]
    return Fraction(sign * mat[n - 1][n - 1], 1) / scale


def _structurally_zero(rows: tuple[int, ...], cols: tuple[int, ...]) -> bool:
    """For lower-triangular M, the (rows, cols) minor vanishes identically
    whenever some aligned column index exceeds its row index."""
    return any(c > r for r, c in zip(rows, cols))


def iter_minors(
    matrix: TriMatrix, max_order: Optional[int] = None
) -> "Iterator[tuple[tuple[int, ...], tuple[int, ...], Fraction]]":
    """Yield (rows, cols, value) for every minor up to max_order (default:
    all orders), visited by ascending order then lexicographically by (rows,
    cols).  Structurally zero minors of the triangular shape are skipped."""
    if max_order is not None and max_order < 1:
        raise ValueError("max_order must be at least 1")
    size = matrix.n + 1
    top = size if max_order is None else min(max_order, size)
    for order in range(1, top + 1):
        for rows in combinations(range(size), order):
            for cols in combinations(range(size), order):
                if _structurally_zero(rows, cols):
                    continue
                sub = [[matrix.entry(r, c) for c in cols] for r in rows]
                yield rows, cols, det_exact(sub)


def is_tnn_exhaustive(
    matrix: TriMatrix, max_order: Optional[int] = None
) -> Optional[MinorWitness]:
    """Check every minor up to max_order (default: all orders); the first
    strictly negative one in iter_minors order is returned, None if all
    pass."""
    for rows, cols, value in iter_minors(matrix, max_order=max_order):
        if value < 0:
            return MinorWitness(rows=rows, cols=cols, value=value)
    return None


def unit_lower_inverse(matrix: TriMatrix) -> TriMatrix:
    """Invert a unit lower-triangular matrix by forward substitution."""
    n = matrix.n
    if any(matrix.rows[m][m] != 1 for m in range(n + 1)):
        raise ValueError("matrix is not unit lower-triangular")
    inv: list[list[Fraction]] = []
    for m in range(n + 1):
        row = []
        for k in range(m):
            row.append(
                -sum(
                    (matrix.rows[m][j] * inv[j][k] for j in range(k, m)),
                    Fraction(0),
                )
            )
        row.append(Fraction(1))
        inv.append(row)
    return TriMatrix(tuple(tuple(r) for r in inv))


@dataclass(frozen=True)
class SignViolation:
    """Inverse entry at (row, col) whose sign disagrees with (-1)^(row-col)."""

    row: int
    col: int
    value: Fraction


def inverse_sign_pattern(matrix: TriMatrix) -> Optional[SignViolation]:
    """first_sign_violation of the inverse of a unit lower-triangular matrix."""
    return first_sign_violation(unit_lower_inverse(matrix))


def first_sign_violation(inv: TriMatrix) -> Optional[SignViolation]:
    """Check the alternating sign pattern of an inverse: entry (m,k) times
    (-1)^(m-k) must be >= 0.  Zero entries conform.  Returns the first
    violation in row-major order, None if the pattern holds."""
    for m in range(inv.n + 1):
        for k in range(m + 1):
            v = inv.rows[m][k]
            if (-1) ** (m - k) * v < 0:
                return SignViolation(row=m, col=k, value=v)
    return None


@dataclass(frozen=True)
class EntryWitness:
    """A strictly negative matrix entry, witnessing failure of TNN."""

    row: int
    col: int
    value: Fraction


@dataclass(frozen=True)
class TnnVerdict:
    is_tnn: bool
    rgs: RgsReport
    certificate: Optional[PivotTrace]
    witness: Optional[EntryWitness]


def decide_tnn(sp: SequencePair) -> TnnVerdict:
    """Decide whether S^{a,e} is TNN, constructively.

    Requires a non-decreasing.  If e passes the growth check the certificate
    is a pivot trace ending in an entrywise non-negative array whose path
    matrix is S^{a,e}; otherwise the growth violation (index j, level l)
    locates a strictly negative entry at (j, l-1).
    """
    report = rgs_check(sp)
    if report.is_rgs:
        trace = certify(sp)
        if not trace.all_nonnegative:
            raise RuntimeError("growth check passed but certificate has a "
                               "negative weight; inconsistent state")
        return TnnVerdict(is_tnn=True, rgs=report, certificate=trace, witness=None)
    j = report.violation.index
    level = report.violation.level
    # rows <= j of S^{a,e} depend only on a_1..a_j and e_1..e_j
    value = stirling_recurrence(SequencePair(sp.a[:j], sp.e[:j])).entry(j, level - 1)
    if value >= 0:
        raise RuntimeError(f"declared witness entry ({j},{level - 1}) is "
                           f"{value}, not negative; inconsistent state")
    return TnnVerdict(
        is_tnn=False,
        rgs=report,
        certificate=None,
        witness=EntryWitness(row=j, col=level - 1, value=value),
    )
