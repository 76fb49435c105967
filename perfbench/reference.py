"""The benchmark's own mathematics, written apart from gstirling, against
which every output is checked.

Matrices are kept as integers: with L the common denominator of a and e,
S^{La,Le}(m,k) = L^(m-k) S^{a,e}(m,k), so the recurrence runs on plain ints
and an output entry q is right when q * L^(m-k) equals the scaled entry.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, lcm


class Scaled:
    """Lower-triangular matrix of ints standing for rows[m][k] / L^(m-k)."""

    def __init__(self, rows: list[list[int]], scale: int):
        self.rows = rows
        self.scale = scale
        self.powers = [scale ** d for d in range(len(rows))]

    @property
    def n(self) -> int:
        return len(self.rows) - 1

    def value(self, m: int, k: int) -> Fraction:
        if k > m:
            return Fraction(0)
        return Fraction(self.rows[m][k], self.powers[m - k])

    def equals(self, m: int, k: int, q: Fraction) -> bool:
        return q.numerator * self.powers[m - k] == self.rows[m][k] * q.denominator


def common_scale(*seqs) -> int:
    return lcm(1, *(Fraction(v).denominator for s in seqs for v in s))


def stirling(a, e) -> Scaled:
    """S(m,k) = S(m-1,k-1) + (a_{k+1} - e_m) S(m-1,k), on scaled ints."""
    scale = common_scale(a, e)
    A = [int(Fraction(x) * scale) for x in a]
    E = [int(Fraction(x) * scale) for x in e]
    rows = [[1]]
    for m in range(1, len(a) + 1):
        prev, em = rows[-1], E[m - 1]
        row = [(A[0] - em) * prev[0]]
        row += [prev[k - 1] + (A[k] - em) * prev[k] for k in range(1, m)]
        row.append(1)
        rows.append(row)
    return Scaled(rows, scale)


def growth(a, e):
    """The restricted-growth test for non-decreasing a: a cap pointer f
    starts at 1 and moves up by one whenever e_i equals a_f; growth holds
    when e_i <= a_f throughout.  Returns (holds, caps, pivots, violation)
    with 1-based caps per index, the (i, f) cap hits before any violation,
    and the first violation (i, f) or None."""
    f = 1
    caps, pivots = [], []
    violation = None
    for i in range(1, len(a) + 1):
        caps.append(f)
        if violation is not None:
            continue
        if e[i - 1] > a[f - 1]:
            violation = (i, f)
        elif e[i - 1] == a[f - 1]:
            pivots.append((i, f))
            f += 1
    return violation is None, caps, pivots, violation


def path_sums(weights: list[list[int]]) -> list[list[int]]:
    """Path matrix of the planar network with weight weights[r-1][c-1] on the
    edge climbing from row r to row r-1 in column c.  A path from source m to
    sink k climbs through columns 1..k+1.  Column by column, the sum over
    partial paths at row r gains the paths that climb into r from r+1."""
    n = len(weights)
    out = []
    for m in range(n + 1):
        at = [0] * (m + 1)
        at[m] = 1
        row = []
        for c in range(1, m + 2):
            for r in range(m - 1, c - 2, -1):
                at[r] += weights[r][c - 1] * at[r + 1]
            row.append(at[c - 1])
        out.append(row)
    return out


def det(rows: list[list[Fraction]]) -> Fraction:
    """Exact determinant by Gaussian elimination over the rationals."""
    mat = [list(map(Fraction, r)) for r in rows]
    n = len(mat)
    result = Fraction(1)
    for p in range(n):
        pivot = next((r for r in range(p, n) if mat[r][p] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != p:
            mat[p], mat[pivot] = mat[pivot], mat[p]
            result = -result
        result *= mat[p][p]
        for r in range(p + 1, n):
            factor = mat[r][p] / mat[p][p]
            if factor:
                for c in range(p, n):
                    mat[r][c] -= factor * mat[p][c]
    return result


def minor(entry, rows, cols) -> Fraction:
    return det([[entry(r, c) for c in cols] for r in rows])


def nonzero_pattern_pairs(size: int, max_order: int | None = None) -> int:
    """Number of (rows, cols) index pairs of a lower-triangular matrix whose
    minor is not zero by shape alone, i.e. cols[i] <= rows[i] for all i."""
    top = size if max_order is None else min(size, max_order)
    count = 0
    for k in range(1, top + 1):
        for rows in combinations(range(size), k):
            # cols[i] <= rows[i]: count the k-subsets dominated by rows
            count += _dominated(rows)
    return count


def _dominated(rows: tuple[int, ...]) -> int:
    """k-subsets c_1 < .. < c_k of {0..} with c_i <= rows[i], by a DP over the
    last chosen value."""
    ways = {-1: 1}
    for bound in rows:
        nxt: dict[int, int] = {}
        for last, w in ways.items():
            for c in range(last + 1, bound + 1):
                nxt[c] = nxt.get(c, 0) + w
        ways = nxt
    return sum(ways.values())


def first_negative_minor(entry, size: int):
    """Own exhaustive scan of a lower-triangular matrix: any negative minor,
    or None when the matrix is totally non-negative."""
    for k in range(1, size + 1):
        for rows in combinations(range(size), k):
            for cols in combinations(range(size), k):
                if any(c > r for r, c in zip(rows, cols)):
                    continue
                value = minor(entry, rows, cols)
                if value < 0:
                    return rows, cols, value
    return None


def eulerian(n: int) -> list[list[int]]:
    """A(m,k) = #permutations of [m] with k ascents, by the closed form
    sum_j (-1)^j C(m+1, j) (k+1-j)^m; A(m,m) = 0 for m >= 1."""
    return [[sum((-1) ** j * comb(m + 1, j) * (k + 1 - j) ** m for j in range(k + 1))
             for k in range(m + 1)] for m in range(n + 1)]


def rook_numbers(heights) -> list[list[int]]:
    """Entry (m,k) = number of ways to place m-k non-attacking rooks on the
    first m columns.  With non-decreasing heights, the j-th rook placed in
    column m finds j-1 of its b_m rows taken."""
    n = len(heights)
    r = [1]  # r[j] = placements of j rooks on the columns so far
    rows = [[1]]
    for m in range(1, n + 1):
        b = heights[m - 1]
        r = [(r[j] if j < len(r) else 0) + (r[j - 1] * max(0, b - j + 1) if j else 0)
             for j in range(m + 1)]
        rows.append([r[m - k] for k in range(m + 1)])
    return rows


def unit_lower_inverse(rows: list[list[int]]) -> list[list[int]]:
    """Inverse of a unit lower-triangular integer matrix, by forward
    substitution."""
    inv: list[list[int]] = []
    for m in range(len(rows)):
        row = [-sum(rows[m][j] * inv[j][k] for j in range(k, m)) for k in range(m)]
        row.append(1)
        inv.append(row)
    return inv


def earlier_counts(n: int, edges, order) -> tuple[list[int], bool]:
    """For a graph and a vertex order: how many earlier neighbours each
    vertex has, and whether every such neighbourhood is a clique."""
    adj = {v: set() for v in range(1, n + 1)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    pos = {v: i for i, v in enumerate(order)}
    counts, ok = [], True
    for v in order:
        before = [u for u in adj[v] if pos[u] < pos[v]]
        counts.append(len(before))
        ok = ok and all(y in adj[x] for x, y in combinations(before, 2))
    return counts, ok
