"""Planar networks whose path matrices realize S^{a,e}.

The network has sources s_0..s_n on the left, sinks t_0..t_n on the right,
horizontal edges of weight 1, and one weighted vertical edge [m,k] joining
row m to row m-1 in column k, for 1 <= k <= m <= n.  A path s_m -> t_k moves
right and climbs; its column-by-column climb amounts (b_1,..,b_{k+1}) form a
composition of m-k, and its weight is the product of traversed vertical-edge
weights.  The path matrix M(m,k) sums these weights over all paths.

Weight arrays may carry provenance: each weight is some a_f - e_g and the
(f,g) index pair is stored alongside, with the value always derived from
the pair.  Pivoting rewrites provenance only, rotating e-indices in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .core import SequencePair, TriMatrix


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

    @classmethod
    def from_values(cls, rows: Sequence[Sequence]) -> "WeightArray":
        return cls(n=len(rows), values=tuple(tuple(Fraction(v) for v in r) for r in rows))


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
    source.

    A[r] accumulates the weight of partial paths currently at row r; column c
    is processed by climbing in place, A[r] += w[r+1,c] * A[r+1] for r
    descending, after which A[c-1] is final and equals M(m, c-1).
    """
    n = wa.n
    rows: list[list[Fraction]] = []
    for m in range(n + 1):
        acc = [Fraction(0)] * (n + 1)
        acc[m] = Fraction(1)
        out = [Fraction(0)] * (m + 1)
        for c in range(1, m + 2):
            for r in range(n - 1, c - 2, -1):
                if r + 1 <= n and c <= r + 1:
                    w = wa.values[r][c - 1]
                    if w != 0 and acc[r + 1] != 0:
                        acc[r] += w * acc[r + 1]
            if 0 <= c - 1 <= m:
                out[c - 1] = acc[c - 1]
        rows.append(out)
    return TriMatrix(tuple(tuple(r) for r in rows))


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All (b_1..b_parts) of non-negative integers summing to total."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _path_weight(wa: WeightArray, m: int, comp: tuple[int, ...]) -> Fraction:
    w = Fraction(1)
    r = m
    for c, climb in enumerate(comp, start=1):
        for _ in range(climb):
            w *= wa.values[r - 1][c - 1]
            r -= 1
    return w


def _path_nodes(m: int, k: int, comp: tuple[int, ...]) -> frozenset:
    """Every vertex a path touches: source, each (row, column) crossing, and
    sink.  Disjointness of path families is decided on these sets."""
    nodes = [("s", m)]
    r = m
    for c, climb in enumerate(comp, start=1):
        nodes.append((r, c))
        for _ in range(climb):
            r -= 1
            nodes.append((r, c))
    nodes.append(("t", k))
    return frozenset(nodes)


def enumerate_paths(
    wa: WeightArray, m: int, k: int
) -> list[tuple[tuple[int, ...], Fraction]]:
    """All paths s_m -> t_k as (composition of m-k into k+1 parts, weight)."""
    if not (0 <= m <= wa.n and 0 <= k <= wa.n):
        raise IndexError(f"source/sink ({m},{k}) outside size {wa.n}")
    if k > m:
        return []
    return [
        (comp, _path_weight(wa, m, comp)) for comp in _compositions(m - k, k + 1)
    ]


def lindstrom_minor(
    wa: WeightArray, rows: Sequence[int], cols: Sequence[int]
) -> Fraction:
    """Sum of weight products over vertex-disjoint path families joining
    s_{rows[t]} -> t_{cols[t]}.  In this planar topology only the
    order-preserving matching admits disjoint families, so the sum equals the
    corresponding minor of the path matrix."""
    I = tuple(rows)
    J = tuple(cols)
    if len(I) != len(J) or len(I) == 0:
        raise ValueError("need equally many rows and columns, at least one each")
    if list(I) != sorted(set(I)) or list(J) != sorted(set(J)):
        raise ValueError("rows and columns must be strictly increasing")
    if not all(0 <= v <= wa.n for v in I + J):
        raise IndexError(f"indices outside size {wa.n}")
    options = [enumerate_paths(wa, m, k) for m, k in zip(I, J)]
    if any(len(opt) == 0 for opt in options):
        return Fraction(0)
    node_sets = [
        [_path_nodes(m, k, comp) for comp, _ in opts]
        for (m, k), opts in zip(zip(I, J), options)
    ]
    total = Fraction(0)

    def descend(t: int, used: frozenset, weight: Fraction) -> None:
        nonlocal total
        if t == len(I):
            total += weight
            return
        for idx, (comp, w) in enumerate(options[t]):
            nodes = node_sets[t][idx]
            if used & nodes:
                continue
            descend(t + 1, used | nodes, weight * w)

    descend(0, frozenset(), Fraction(1))
    return total


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
