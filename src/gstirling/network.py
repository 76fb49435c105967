"""Planar networks whose path matrices realize S^{a,e}.

The network has sources s_0..s_n on the left, sinks t_0..t_n on the right,
horizontal edges of weight 1, and one weighted vertical edge [m,k] joining
row m to row m-1 in column k, for 1 <= k <= m <= n.  A path s_m -> t_k moves
right and climbs; its weight is the product of traversed vertical-edge
weights.  The path matrix M(m,k) sums these weights over all paths, and
path_matrix computes it by a column sweep, without listing the paths.

Weight arrays may carry provenance: each weight is some a_f - e_g and the
(f,g) index pair is stored alongside, with the value always derived from
the pair.  Pivoting rewrites provenance only, rotating e-indices in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional

from .core import SequencePair, TriMatrix, _scale_to_ints


@dataclass(frozen=True)
class WeightArray:
    """Triangular array of vertical-edge weights; row m (1-based, m = 1..n)
    holds the weights at positions [m,1]..[m,m].

    provenance[m-1][k-1] = (f, g) means the weight at [m,k] is a_f - e_g for
    the attached SequencePair; raw arrays carry no provenance.  With
    provenance the weights are derived from it: values may then be None, and
    values that are given must agree with it.
    """

    n: int
    values: Optional[tuple[tuple[Fraction, ...], ...]]
    provenance: Optional[tuple[tuple[tuple[int, int], ...], ...]] = None
    seq: Optional[SequencePair] = None

    def __post_init__(self) -> None:
        if self.provenance is None:
            vals = tuple(tuple(Fraction(v) for v in row) for row in self.values)
        elif self.seq is None:
            raise ValueError("provenance requires an attached sequence pair")
        else:
            a, e = self.seq.a, self.seq.e
            vals = tuple(tuple(a[f - 1] - e[g - 1] for f, g in row)
                         for row in self.provenance)
        if len(vals) != self.n:
            raise ValueError(f"expected {self.n} rows, got {len(vals)}")
        for m, row in enumerate(vals, start=1):
            if len(row) != m:
                raise ValueError(f"row {m} has {len(row)} entries, expected {m}")
        if self.provenance is not None and self.values is not None:
            for m, (row, derived) in enumerate(zip(self.values, vals, strict=True), 1):
                for k, (v, d) in enumerate(zip(row, derived, strict=True), 1):
                    if Fraction(v) != d:
                        f, g = self.provenance[m - 1][k - 1]
                        raise ValueError(
                            f"weight at [{m},{k}] disagrees with provenance a{f}-e{g}"
                        )
        object.__setattr__(self, "values", vals)

    def weight(self, m: int, k: int) -> Fraction:
        if not (1 <= k <= m <= self.n):
            raise IndexError(f"no vertical edge at [{m},{k}]")
        return self.values[m - 1][k - 1]

    def all_nonnegative(self) -> bool:
        return all(v >= 0 for row in self.values for v in row)


def _initial_e_indices(n: int) -> list[list[int]]:
    """e-index m-k+1 at [m,k], as mutable rows; the a-index there is k."""
    return [[m - k + 1 for k in range(1, m + 1)] for m in range(1, n + 1)]


def _from_provenance(sp: SequencePair, rows) -> WeightArray:
    """WeightArray with weight a_f - e_g for each (f, g) pair in rows 1..n."""
    prov = tuple(tuple(row) for row in rows)
    return WeightArray(n=sp.n, values=None, provenance=prov, seq=sp)


def build_initial(sp: SequencePair) -> WeightArray:
    """Initial array realizing S^{a,e}: weight a_k - e_{m-k+1} at [m,k]."""
    return _from_provenance(sp, (enumerate(r, 1) for r in _initial_e_indices(sp.n)))


def path_matrix(wa: WeightArray) -> TriMatrix:
    """Sum path weights s_m -> t_k for all (m,k) by one column sweep per
    source, on the weights times L, their common denominator, as ints; a
    path s_m -> t_k climbs m-k edges, so the sums are L^(m-k) M(m,k).

    acc[r] accumulates the weight of partial paths currently at row r <= m,
    since paths only climb.  Column c is processed by climbing in place,
    acc[r] += w[r+1,c] * acc[r+1] for r = m-1 down to c-1, after which
    acc[c-1] is final and equals M(m, c-1); at the end acc is row m.
    """
    scale = lcm(1, *(v.denominator for row in wa.values for v in row))
    weights = [_scale_to_ints(row, scale) for row in wa.values]
    rows: list[list[int]] = []
    for m in range(wa.n + 1):
        acc = [0] * m + [1]
        for c in range(1, m + 1):
            for r in range(m - 1, c - 2, -1):
                w = weights[r][c - 1]
                if w and acc[r + 1]:
                    acc[r] += w * acc[r + 1]
        rows.append(acc)
    return TriMatrix.scaled(rows, scale)


def _rotate_e_indices(e_rows: list[list[int]], m: int, k: int) -> None:
    """Pivot at [m,k] on e-indices in place: for each l >= 1 those at
    [m+l, k..k+l] shift cyclically, last to the front; row r is e_rows[r-1]."""
    for l, row in enumerate(e_rows[m:], start=1):
        row[k - 1:k + l] = row[k + l - 1:k + l] + row[k - 1:k + l - 1]


def pivot(wa: WeightArray, m: int, k: int) -> WeightArray:
    """Pivot at [m,k] by _rotate_e_indices on a copy of the e-indices;
    a-indices are untouched.  The new array's weights are derived
    from its provenance.  Requires provenance."""
    if wa.provenance is None or wa.seq is None:
        raise ValueError("pivot requires provenance-carrying weights")
    if not (1 <= k <= m <= wa.n):
        raise ValueError(f"no pivot position [{m},{k}] in size {wa.n}")
    prov = wa.provenance
    e_rows = [[g for _, g in row] for row in prov]
    _rotate_e_indices(e_rows, m, k)
    return _from_provenance(
        wa.seq, (zip((f for f, _ in r), gs) for r, gs in zip(prov, e_rows))
    )


@dataclass(frozen=True)
class PivotTrace:
    """Certificate transcript: the pivot positions applied in order, the
    final array, and whether every final weight is non-negative.  Successive
    pivot positions are nested: each lies in the triangle headed at the
    previous one."""

    pivots: tuple[tuple[int, int], ...]
    final: WeightArray
    all_nonnegative: bool


def certify(sp: SequencePair) -> PivotTrace:
    """Drive the initial array to a non-negative one when e is a
    restricted-growth sequence relative to a (non-decreasing a required).

    Mirrors the growth check: scanning i = 1..n with cap pointer f, a cap hit
    e_i = a_{f} pivots at [i, f] (where the weight is exactly 0) and advances
    f; a violation e_i > a_f stops the trace, leaving the negative weight
    a_f - e_i exposed at [i, f].
    Each pivot checks its weight is 0 and rotates build_initial's e-indices
    in place; the final WeightArray is built once.
    """
    if not sp.a_nondecreasing:
        raise ValueError("certify requires a non-decreasing a-sequence")
    e_rows = _initial_e_indices(sp.n)
    pivots: list[tuple[int, int]] = []
    f = 1
    for i in range(1, sp.n + 1):
        cap = sp.a[f - 1]
        ei = sp.e[i - 1]
        if ei > cap:
            break
        if ei == cap:
            if cap - sp.e[e_rows[i - 1][f - 1] - 1] != 0:
                raise RuntimeError(
                    f"pivot position [{i},{f}] carries nonzero weight; "
                    "provenance rewrite rule violated"
                )
            _rotate_e_indices(e_rows, i, f)
            pivots.append((i, f))
            f += 1
    wa = _from_provenance(sp, (enumerate(r, 1) for r in e_rows))
    return PivotTrace(
        pivots=tuple(pivots), final=wa, all_nonnegative=wa.all_nonnegative()
    )
