"""Planar networks whose path matrices realize S^{a,e}.

The network has sources s_0..s_n on the left, sinks t_0..t_n on the right,
horizontal edges of weight 1, and one weighted vertical edge [m,k] joining
row m to row m-1 in column k, for 1 <= k <= m <= n.  A path s_m -> t_k moves
right and climbs; its weight is the product of traversed vertical-edge
weights.  The path matrix M(m,k) sums these weights over all paths, and
path_matrix computes it by a column sweep, without listing the paths.

Weights are ints on the pair's scale L (SequencePair.scaled): each weight
is some a_f - e_g, so L times it is the int La_f - Le_g, and a path
s_m -> t_k climbs m-k edges, so path_matrix sums on ints and returns the
matrix on scale L.  Weight arrays may carry provenance: the (f,g) index
pair of each weight is stored alongside, with the value always derived from
the pair.  Pivoting rewrites provenance only, rotating e-indices in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import SequencePair, TriMatrix, format_scaled
from .stirling import rgs_check


@dataclass(frozen=True)
class WeightArray:
    """Triangular array of vertical-edge weights as ints on one scale: row
    m (1-based, m = 1..n) is ints[m-1], and the weight at [m,k] is
    ints[m-1][k-1] / scale.

    provenance[m-1][k-1] = (f, g) means the weight at [m,k] is a_f - e_g for
    the attached SequencePair seq; raw arrays carry no provenance.  With
    provenance the weights are derived from it alone, on seq's scale: ints
    must then be None, and ints given as well raise ValueError.
    """

    ints: Optional[tuple[tuple[int, ...], ...]]
    scale: int = 1
    provenance: Optional[tuple[tuple[tuple[int, int], ...], ...]] = None
    seq: Optional[SequencePair] = None

    def __post_init__(self) -> None:
        if self.provenance is not None:
            if self.seq is None:
                raise ValueError("provenance requires an attached sequence pair")
            if self.ints is not None:
                raise ValueError("weights with provenance are derived from it; "
                                 "pass ints=None")
            a, e, scale = self.seq.scaled()
            object.__setattr__(self, "ints", tuple(
                tuple(a[f - 1] - e[g - 1] for f, g in row) for row in self.provenance))
            object.__setattr__(self, "scale", scale)
        for m, row in enumerate(self.ints, start=1):
            if len(row) != m:
                raise ValueError(f"row {m} has {len(row)} entries, expected {m}")

    @property
    def n(self) -> int:
        return len(self.ints)

    def weight(self, m: int, k: int) -> Fraction:
        if not (1 <= k <= m <= self.n):
            raise IndexError(f"no vertical edge at [{m},{k}]")
        return Fraction(self.ints[m - 1][k - 1], self.scale)

    def all_nonnegative(self) -> bool:
        return all(v >= 0 for row in self.ints for v in row)

    def render(self) -> list[list[str]]:
        """The weights as format_rational text, row by row, each distinct value
        formatted once above scale 1; the first overlong weight is named by [m,k]."""
        label = "weights: weight at [{},{}]"
        if self.scale == 1:
            return format_scaled(self.ints, None, label, base=1)
        values = sorted({v for row in self.ints for v in row})
        try:
            (texts,) = format_scaled([values], [[self.scale] * len(values)], label)
        except ValueError:
            dens = [(self.scale,) * len(row) for row in self.ints]
            return format_scaled(self.ints, dens, label, base=1)
        text = dict(zip(values, texts))
        return [list(map(text.__getitem__, row)) for row in self.ints]


def _initial_e_indices(n: int) -> list[list[int]]:
    """e-index m-k+1 at [m,k], as mutable rows; the a-index there is k."""
    return [[m - k + 1 for k in range(1, m + 1)] for m in range(1, n + 1)]


def _from_provenance(sp: SequencePair, rows) -> WeightArray:
    """WeightArray with weight a_f - e_g for each (f, g) pair in rows 1..n."""
    prov = tuple(tuple(row) for row in rows)
    return WeightArray(None, provenance=prov, seq=sp)


def build_initial(sp: SequencePair) -> WeightArray:
    """Initial array realizing S^{a,e}: weight a_k - e_{m-k+1} at [m,k]."""
    return _from_provenance(sp, (enumerate(r, 1) for r in _initial_e_indices(sp.n)))


def path_matrix(wa: WeightArray) -> TriMatrix:
    """Sum path weights s_m -> t_k for all (m,k) by one column sweep per
    source, on the ints of the weights, scale L; a path s_m -> t_k climbs
    m-k edges, so the sums are L^(m-k) M(m,k).

    acc[r] accumulates the weight of partial paths currently at row r <= m,
    since paths only climb.  Column c is processed by climbing in place,
    acc[r] += w[r+1,c] * acc[r+1] for r = m-1 down to c-1, after which
    acc[c-1] is final and equals M(m, c-1); at the end acc is row m.
    """
    weights = wa.ints
    rows: list[list[int]] = []
    for m in range(wa.n + 1):
        acc = [0] * m + [1]
        for c in range(1, m + 1):
            for r in range(m - 1, c - 2, -1):
                w = weights[r][c - 1]
                if w and acc[r + 1]:
                    acc[r] += w * acc[r + 1]
        rows.append(acc)
    return TriMatrix.scaled(rows, wa.scale)


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

    Pivots at the cap hits that rgs_check records before its violation, if
    any: a hit e_i = a_f pivots at [i, f], where the weight is exactly 0.  A
    violation e_i > a_f ends the hits, leaving the negative weight a_f - e_i
    exposed at [i, f]; the frozen cap pointer after it marks no hits, even
    where some later e_i equals a_f.
    Each pivot checks its weight is 0 and rotates build_initial's e-indices
    in place; the final WeightArray is built once.  The comparisons run on
    the pair's ints (SequencePair.scaled).
    """
    if not sp.a_nondecreasing:
        raise ValueError("certify requires a non-decreasing a-sequence")
    hits = rgs_check(sp).hits
    a, e, _ = sp.scaled()
    e_rows = _initial_e_indices(sp.n)
    for i, f in hits:
        if a[f - 1] != e[e_rows[i - 1][f - 1] - 1]:
            raise RuntimeError(
                f"pivot position [{i},{f}] carries nonzero weight; "
                "provenance rewrite rule violated"
            )
        _rotate_e_indices(e_rows, i, f)
    wa = _from_provenance(sp, (enumerate(r, 1) for r in e_rows))
    return PivotTrace(pivots=hits, final=wa, all_nonnegative=wa.all_nonnegative())
