"""Total non-negativity: exhaustive minor oracle, signed inverse patterns,
and the constructive decision procedure.

A matrix is totally non-negative (TNN) when every minor is >= 0.  For
S^{a,e} with non-decreasing a this holds exactly when e is a
restricted-growth sequence relative to a; the decision procedure returns a
planar-network certificate in the positive case and a negative entry witness
in the negative case, with the exhaustive oracle available as a cross-check.

The oracle reads a matrix's ints (TriMatrix).  Of a lower-triangular
matrix it visits only the minors that can be nonzero, those with
cols[i] <= rows[i]: C(s+1) - 1 of them at size s (a Catalan number).  For
each row set it walks the column sets depth first and shares fraction-free
(Bareiss) elimination between them: a column set extends its prefix's
eliminated rows by one pivot step, so each minor costs one update on top of
its parent's.  det_exact takes a square matrix's determinant as the one
minor that walk yields with rows = cols = (0, .., n-1).  A minor has the
sign of its integer determinant, so is_tnn_exhaustive tests that alone.
Scans of more than MAX_MINORS minors stop before the first one.  The
inverse and its sign pattern run on the ints too.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, prod
from typing import Iterator, Optional, Sequence, Union

from .core import SequencePair, TriMatrix, _to_scale
from .network import PivotTrace, certify
from .stirling import RgsReport, rgs_check, stirling_recurrence

# largest minor scan iter_minors starts
MAX_MINORS = 1_000_000
# largest matrix size whose budget message gives the exact minor count
_EXACT_COUNT_SIZE = 64


@dataclass(frozen=True)
class MinorWitness:
    """A negative minor: row index set, column index set, exact value."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]
    value: Fraction


def det_exact(rows: list[list[Fraction]]) -> Fraction:
    """Exact determinant of a square matrix (else ValueError): clear
    denominators row by row, take the integer matrix's one column set
    through the minor walk (_walk), and divide the scales back out."""
    n = len(rows)
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ValueError(f"det_exact needs a square matrix: row {i} has "
                             f"{len(row)} entries, expected {n}")
    if n == 0:
        return Fraction(1)
    scaled = [_to_scale(row) for row in rows]
    ((_, det),) = _walk([ints for ints, _ in scaled], tuple(range(n)), 0, (), 1, 1)
    return Fraction(det, prod(mult for _, mult in scaled))


def minor_count(size: int, max_order: Optional[int] = None) -> int:
    """How many minors iter_minors yields for a size x size matrix: the
    Narayana number N(size+1, k+1) of order k, summed over the orders; a
    full scan yields the Catalan number C(size+1) minus 1."""
    top = size if max_order is None else min(max_order, size)
    if top == size:
        return comb(2 * size + 2, size + 1) // (size + 2) - 1
    return sum(comb(size + 1, k) * comb(size + 1, k + 1)
               for k in range(1, top + 1)) // (size + 1)


def check_scan_budget(size: int, max_order: Optional[int] = None) -> None:
    """Raise ValueError, naming the budget, when iter_minors on a size x
    size matrix would visit more than MAX_MINORS minors, so that a caller
    can refuse before building the matrix.

    The orders are counted from 1 up, and counting stops once the sum
    passes the budget: after a few orders at any size.  The message gives
    the exact count (minor_count) when size <= _EXACT_COUNT_SIZE, and the
    partial sum as a lower bound above that, where the exact count can
    take seconds."""
    if max_order is not None and max_order < 1:
        raise ValueError("max_order must be at least 1")
    top = size if max_order is None else min(max_order, size)
    count = 0
    for k in range(1, top + 1):
        count += comb(size + 1, k) * comb(size + 1, k + 1) // (size + 1)
        if count > MAX_MINORS:
            what = (minor_count(size, max_order) if size <= _EXACT_COUNT_SIZE
                    else f"at least {count}")
            raise ValueError(
                f"a scan of {what} minors exceeds the budget of {MAX_MINORS}; "
                "limit the minor order (--max-minor-order)"
            )


def _admissible_cols(rows: tuple[int, ...], low: int) -> Iterator[tuple[int, ...]]:
    """Column sets low <= c_0 < c_1 < .. with c_i <= rows[i], in
    lexicographic order."""
    for c in range(low, rows[0] + 1):
        if len(rows) == 1:
            yield (c,)
        else:
            for rest in _admissible_cols(rows[1:], c + 1):
                yield (c, *rest)


def _walk(
    state: list[Sequence[int]], bounds: tuple[int, ...], low: int,
    prefix: tuple[int, ...], prev: int, sign: int,
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yield (cols, det) for every column set prefix + (c_j, ..) with
    low <= c_j < c_{j+1} < .. and c_i <= bounds[i - j], in lexicographic
    order.

    state holds the rows not yet pivoted, each from column low on, after
    Bareiss steps on the prefix columns with last pivot prev (1 at the
    root) and row-order sign.  By Sylvester's identity entry c of such a
    row is the minor on (pivot rows + that row) x (prefix + c), whatever
    columns follow, so a child reuses its parent's rows: one more step
    on column c, with exact division by prev.  A zero pivot takes the
    first later row nonzero in column c, in the child's own copy; a
    column zero in every row makes each completion under it 0."""
    bound = bounds[0]
    if len(state) == 1:
        for c, v in zip(range(low, bound + 1), state[0]):
            yield prefix + (c,), sign * v
        return
    for c in range(low, bound + 1):
        o = c - low
        cols = prefix + (c,)
        p = next((i for i, row in enumerate(state) if row[o]), None)
        if p is None:
            for rest in _admissible_cols(bounds[1:], c + 1):
                yield cols + rest, 0
            continue
        top = state[p]
        piv = top[o]
        tail = top[o + 1:]
        child = [[(x * piv - row[o] * t) // prev for x, t in zip(row[o + 1:], tail)]
                 for i, row in enumerate(state) if i != p]
        # pivoting on row p moves it ahead of p rows: sign (-1)^p
        yield from _walk(child, bounds[1:], c + 1, cols, piv,
                         -sign if p & 1 else sign)


def iter_minors(
    matrix: TriMatrix, max_order: Optional[int] = None
) -> "Iterator[tuple[tuple[int, ...], tuple[int, ...], Union[int, Fraction]]]":
    """Yield (rows, cols, value) for every minor up to max_order (default:
    all orders), visited by ascending order then lexicographically by (rows,
    cols).

    Only column sets with cols[i] <= rows[i] for every i are visited: any
    other minor of a lower-triangular matrix vanishes identically.  Entry
    (r,c) is ints[r][c] L^c / (D L^r), so the minor on (R, C) is the
    integer determinant of ints[R][C] over D^|R| L^(sum R - sum C); the
    value is that int when the denominator is 1, else a Fraction.  The
    integer determinants of one row set come from one elimination walk
    over its column sets (_walk), so a scan costs about one Bareiss update
    per minor rather than one elimination.  A scan of more than MAX_MINORS
    minors (see check_scan_budget) raises ValueError before the first one
    is yielded."""
    size = matrix.n + 1
    check_scan_budget(size, max_order)
    ints = [row + (0,) * (size - len(row)) for row in matrix.ints]
    top = size if max_order is None else min(max_order, size)
    unit = matrix.den == matrix.scale == 1
    for order in range(1, top + 1):
        for rows in combinations(range(size), order):
            state = [ints[r][:rows[-1] + 1] for r in rows]
            for cols, det in _walk(state, rows, 0, (), 1, 1):
                q = 1 if unit else _minor_scale(matrix, rows, cols)
                yield rows, cols, det if q == 1 else Fraction(det, q)


def _minor_scale(matrix: TriMatrix, rows: tuple, cols: tuple) -> int:
    """D^|R| L^(sum R - sum C) > 0: the minor on (R, C) is the integer
    determinant of ints[R][C] over it."""
    return matrix.den ** len(rows) * matrix.scale ** (sum(rows) - sum(cols))


def is_tnn_exhaustive(
    matrix: TriMatrix, max_order: Optional[int] = None
) -> Optional[MinorWitness]:
    """Check every minor up to max_order (default: all orders); the first
    strictly negative one in iter_minors order is returned, None if all
    pass.  The scan tests the signs of the integer determinants, which are
    the minors' (_minor_scale), so only the witness becomes a Fraction."""
    ints = TriMatrix.scaled(matrix.ints)
    for rows, cols, det in iter_minors(ints, max_order=max_order):
        if det < 0:
            return MinorWitness(rows=rows, cols=cols,
                                value=Fraction(det, _minor_scale(matrix, rows, cols)))
    return None


def unit_lower_inverse(matrix: TriMatrix) -> TriMatrix:
    """Invert a unit lower-triangular matrix by forward substitution on its
    ints.  With s = D L the inverse is TriMatrix.scaled(Y, s) for Y(m,m) = 1
    and Y(m,k) = -sum_{k<=j<m} ints[m][j] D^(m-j-1) Y(j,k)."""
    den = matrix.den
    if any(row[m] != den for m, row in enumerate(matrix.ints)):
        raise ValueError("matrix is not unit lower-triangular")
    dpow = [den ** d for d in range(matrix.n + 1)]
    inv: list[list[int]] = []
    for m, row in enumerate(matrix.ints):
        coef = [v * dpow[m - j - 1] for j, v in enumerate(row[:m])]
        inv.append([-sum(coef[j] * inv[j][k] for j in range(k, m))
                    for k in range(m)] + [1])
    return TriMatrix.scaled(inv, den * matrix.scale)


@dataclass(frozen=True)
class EntryWitness:
    """A matrix entry that fails a sign check: a strictly negative entry of
    S^{a,e}, witnessing failure of TNN, or an inverse entry whose sign
    disagrees with (-1)^(row-col)."""

    row: int
    col: int
    value: Fraction


def first_sign_violation(inv: TriMatrix) -> Optional[EntryWitness]:
    """Check the alternating sign pattern of an inverse: entry (m,k) times
    (-1)^(m-k) must be >= 0.  Zero entries conform.  Returns the first
    violation in row-major order, None if the pattern holds; the signs are
    read from the ints."""
    for m, row in enumerate(inv.ints):
        for k, v in enumerate(row):
            if (-1) ** (m - k) * v < 0:
                return EntryWitness(row=m, col=k, value=inv.entry(m, k))
    return None


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
