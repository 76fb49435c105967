"""Total non-negativity: exhaustive minor oracle, signed inverse patterns,
and the constructive decision procedure.

A matrix is totally non-negative (TNN) when every minor is >= 0.  For
S^{a,e} with non-decreasing a this holds exactly when e is a
restricted-growth sequence relative to a; the decision procedure returns a
planar-network certificate in the positive case and a negative entry witness
in the negative case, with the exhaustive oracle available as a cross-check.

The oracle reads a matrix's ints and yields integer determinants: entry
(m,k) of a TriMatrix is an int over L^(m-k), so each minor is the
determinant of its ints over a power of L.  Of a lower-triangular
matrix it visits only the minors that can be nonzero, those with
cols[i] <= rows[i]: C(s+1) - 1 of them at size s (a Catalan number).  It
goes order by order and keeps only the minors of the two orders below:
by Sylvester's (Desnanot-Jacobi) identity each minor of order k >= 2 is
one exact division of a 2 x 2 determinant of order k-1 minors by an order
k-2 one, its core.  A zero core is replaced by another pair of rows with
a nonzero one; where there is none, the rows have too low a rank for any
minor over the core to be nonzero.  A minor has the sign of its integer
determinant, so is_tnn_exhaustive tests that alone and makes a Fraction
only of its witness.  Scans of more than MAX_MINORS minors stop before the
first one.  det_exact is fraction-free (Bareiss) elimination, and the
inverse and its sign pattern run on the ints too.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, prod
from typing import Iterator, Optional

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
    denominators row by row, run fraction-free (Bareiss) elimination on
    the ints, pivoting on the first row nonzero in each column, and divide
    the scales back out."""
    n = len(rows)
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ValueError(f"det_exact needs a square matrix: row {i} has "
                             f"{len(row)} entries, expected {n}")
    scaled = [_to_scale(row) for row in rows]
    state = [ints for ints, _ in scaled]
    prev, sign = 1, 1  # the last pivot ends as the determinant, up to sign
    while state:
        p = next((i for i, row in enumerate(state) if row[0]), None)
        if p is None:
            return Fraction(0)
        top = state.pop(p)
        piv = top[0]
        state = [[(x * piv - row[0] * t) // prev for x, t in zip(row[1:], top[1:])]
                 for row in state]
        prev = piv
        # pivoting on row p moves it ahead of p rows: sign (-1)^p
        sign = -sign if p & 1 else sign
    return Fraction(sign * prev, prod(mult for _, mult in scaled))


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


def _row_minors(
    ints: list[list[int]], rows: tuple[int, ...], one: dict, two: dict,
    zeros: list[list[int]],
) -> dict[tuple[int, ...], list[int]]:
    """The integer minors on rows as {prefix: v}, prefixes in lexicographic
    order, with v[t] = det(rows, prefix + (lo + t,)) for lo = prefix[-1] + 1
    (0 for the empty prefix) up to the last column rows[-1].  one and two
    map every row set one and two smaller to the same.

    With rows = R0 + (i, j), Sylvester's identity on the core R0 x c0
    gives det(rows, c0 + (p, q)) = (X[p] Y[q] - X[q] Y[p]) // det(R0, c0),
    where X[c], Y[c] are the minors on (R0 + (i,), c0 + (c,)) and (R0 +
    (j,), c0 + (c,)), X[c] = 0 for c > i.  The identity holds for any two
    rows x < y of rows in place of i, j, so a zero core is replaced by one
    on rows - {x, y} that is nonzero (_other_core).  Where there is none,
    no minor on rows less one row and c0 plus one column is nonzero, so
    the block rows x (c0 + (p,)) has rank below k - 1 for k = len(rows),
    and rows x (c0 + (p, q)) below k: its minor is 0."""
    k = len(rows)
    if k == 1:
        return {(): ints[rows[0]]}
    core, (i, j) = rows[:-2], rows[-2:]
    sx, sy = one[core + (i,)], one[core + (j,)]
    cores = (((), 1),) if k == 2 else (
        (c + (col,), d) for c, v in two[core].items()
        for col, d in enumerate(v, c[-1] + 1 if c else 0))
    out = {}
    subs = None
    for c0, d in cores:
        lo = c0[-1] + 1 if c0 else 0
        x_vec, y_vec = sx[c0], sy[c0]
        if not d:
            if subs is None:
                subs = [one[rows[:x] + rows[x + 1:]] for x in range(k)]
            other = _other_core(rows, c0, [s[c0] for s in subs], two)
            if other is None:
                for p in range(lo, i + 1):
                    out[c0 + (p,)] = zeros[j - p]
                continue
            d, x_vec, y_vec = other
        x_vec = x_vec + zeros[len(y_vec) - len(x_vec)]
        for p, xp, yp in zip(range(lo, i + 1), x_vec, y_vec):
            t = p - lo + 1
            out[c0 + (p,)] = [(xp * y - yp * x) // d
                              for x, y in zip(x_vec[t:], y_vec[t:])]
    return out


def _other_core(
    rows: tuple[int, ...], c0: tuple[int, ...], vecs: list[list[int]], two: dict,
) -> Optional[tuple[int, list[int], list[int]]]:
    """Another core for a zero core det(rows[:-2], c0), where vecs[x] is
    the vector of (rows - {rows[x]}, c0): (d, vecs[b], vecs[a]) for a < b
    with d = det(rows - {rows[a], rows[b]}, c0) nonzero, the pair taken
    as the first x with vecs[x] nonzero and then the first y; None when
    every vector is zero.  The search for y cannot fail: by Laplace
    expansion on its last column, a nonzero minor on rows - {rows[x]} has
    a nonzero core in rows - {rows[x], rows[y]} for some y."""
    x = next((x for x, v in enumerate(vecs) if any(v)), None)
    if x is None:
        return None
    lo = c0[-2] + 1 if len(c0) > 1 else 0
    for y in range(len(rows)):
        a, b = min(x, y), max(x, y)
        if a != b:
            d = two[rows[:a] + rows[a + 1:b] + rows[b + 1:]][c0[:-1]][c0[-1] - lo]
            if d:
                return d, vecs[b], vecs[a]


def iter_minors(
    matrix: TriMatrix, max_order: Optional[int] = None
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], int]]:
    """Yield (rows, cols, det) for every minor up to max_order (default:
    all orders), visited by ascending order then lexicographically by (rows,
    cols), where det is the integer determinant of ints[R][C].

    Only column sets with cols[i] <= rows[i] for every i are visited: any
    other minor of a lower-triangular matrix vanishes identically.  Entry
    (r,c) is ints[r][c] L^c / L^r for L = matrix.scale, so the minor on
    (R, C) equals det / L^(sum R - sum C) and has the sign of det; at
    scale 1 it is det.

    The scan goes order by order, one row set at a time (_row_minors): an
    integer minor of order 2 and up is one Sylvester step on stored minors
    of the two orders below, with another pair of rows where the core
    minor is 0, or 0 by rank where no pair has a nonzero core.  Only those
    two orders are kept, at most MAX_MINORS minors.  A scan of more than
    MAX_MINORS minors (see check_scan_budget) raises ValueError before the
    first one is yielded."""
    size = matrix.n + 1
    check_scan_budget(size, max_order)
    ints = [list(row) for row in matrix.ints]
    top = size if max_order is None else min(max_order, size)
    zeros = [[0] * k for k in range(size)]
    one = two = {}
    for order in range(1, top + 1):
        cur = {}
        for rows in combinations(range(size), order):
            cur[rows] = vecs = _row_minors(ints, rows, one, two, zeros)
            for prefix, v in vecs.items():
                for c, det in enumerate(v, prefix[-1] + 1 if prefix else 0):
                    yield rows, prefix + (c,), det
        one, two = cur, one


def is_tnn_exhaustive(
    matrix: TriMatrix, max_order: Optional[int] = None
) -> Optional[MinorWitness]:
    """Check every minor up to max_order (default: all orders); the first
    strictly negative one in iter_minors order is returned, None if all
    pass.  The scan tests the signs of the integer determinants, which are
    the minors' signs, so only the witness becomes a Fraction, det /
    L^(sum R - sum C)."""
    for rows, cols, det in iter_minors(matrix, max_order=max_order):
        if det < 0:
            return MinorWitness(rows=rows, cols=cols, value=Fraction(
                det, matrix.scale ** (sum(rows) - sum(cols))))
    return None


def unit_lower_inverse(matrix: TriMatrix) -> TriMatrix:
    """Invert a unit lower-triangular matrix by forward substitution on its
    ints, 1 on the diagonal.  Conjugating by diag(L^m) keeps the scale L,
    so the inverse is TriMatrix.scaled(Y, L) for the integer inverse Y of
    ints: Y(m,m) = 1, Y(m,k) = -sum_{k<=j<m} ints[m][j] Y(j,k)."""
    if any(row[m] != 1 for m, row in enumerate(matrix.ints)):
        raise ValueError("matrix is not unit lower-triangular")
    inv: list[list[int]] = []
    for m, row in enumerate(matrix.ints):
        inv.append([-sum(row[j] * inv[j][k] for j in range(k, m))
                    for k in range(m)] + [1])
    return TriMatrix.scaled(inv, matrix.scale)


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
