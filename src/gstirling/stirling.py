"""Generalized Stirling matrices S^{a,e} and restricted-growth sequences.

For sequences a = (a_1..a_n), e = (e_1..e_n) the matrix S^{a,e} is the
(n+1)x(n+1) unit lower-triangular change of basis defined by

    prod_{i<=m} (x - e_i) = sum_k S(m,k) * prod_{i<=k} (x - a_i).

Three constructions live here: the recurrence, the explicit subset sum
(the recurrence under the index change T[s][s-k] = S(s,k), so not an
independent check of it) and the symmetric-function formula; the planar
network path matrix lives in the network module.  All run on the integer
pair (La, Le) for L the common denominator (SequencePair.scaled), since
S(m,k) is homogeneous of degree m-k, and return TriMatrix.scaled(ints, L).

rgs_check, the one walk of the growth condition's cap pointer, runs on the
same integer pair and records its cap hits: network.certify pivots at them,
and chordal.graph_from_rgs joins each vertex to the first e_k of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Iterable, Optional, Sequence

from .core import RationalLike, SequencePair, TriMatrix


@dataclass(frozen=True)
class RgsViolation:
    """First failure of the growth condition: e_{index} > a_{level} where
    level is the cap pointer frozen at the failure.  1-based."""

    index: int
    level: int


@dataclass(frozen=True)
class RgsReport:
    """Cap pointer f(i) per index, the first violation if any, and the cap
    hits before it: (i, f) for each e_i = a_f, so the f-th hit has level f."""

    is_rgs: bool
    cap_indices: tuple[int, ...]
    violation: Optional[RgsViolation]
    hits: tuple[tuple[int, int], ...]


def rgs_check(sp: SequencePair) -> RgsReport:
    """Decide whether e is a restricted-growth sequence relative to a.

    The cap pointer starts at f(1) = 1 and advances by one exactly when
    e_i = a_{f(i)} (a cap hit, recorded as (i, f) just before f advances);
    the condition is e_i <= a_{f(i)} for every i.  On the first violation
    the pointer freezes, no later hit is recorded, and the report records
    (index, level).  Requires a non-decreasing.  The comparisons run on the
    pair's ints (SequencePair.scaled).
    """
    if not sp.a_nondecreasing:
        raise ValueError("rgs_check requires a non-decreasing a-sequence")
    a, e, _ = sp.scaled()
    f = 1
    caps = []
    hits = []
    violation = None
    for i, ei in enumerate(e, start=1):
        caps.append(f)
        if violation is not None:
            continue
        cap = a[f - 1]
        if ei > cap:
            violation = RgsViolation(index=i, level=f)
        elif ei == cap:
            hits.append((i, f))
            f += 1
    return RgsReport(is_rgs=violation is None, cap_indices=tuple(caps),
                     violation=violation, hits=tuple(hits))


def stirling_recurrence(sp: SequencePair) -> TriMatrix:
    """Fill the triangle by S(m,k) = S(m-1,k-1) + (a_{k+1} - e_m) S(m-1,k),
    with S(0,0) = 1, S(m,m) = 1, and S(m,0) = prod_{i<=m}(a_1 - e_i), on
    the integer pair (La, Le) of SequencePair.scaled."""
    a, e, scale = sp.scaled()
    rows: list[list[int]] = [[1]]
    for em in e:
        prev = rows[-1]
        row = [(a[0] - em) * prev[0]]
        row += [x + (ak - em) * y for ak, x, y in zip(a[1:], prev, prev[1:])]
        row.append(1)
        rows.append(row)
    return TriMatrix.scaled(rows, scale)


def stirling_explicit(sp: SequencePair) -> TriMatrix:
    """Explicit formula S(m,k) = sum over (m-k)-subsets {s_1<..<s_{m-k}} of
    {1..m} of prod_i (a_{s_i - i + 1} - e_{s_i}), by dynamic programming on
    the integer pair (La, Le) of SequencePair.scaled.

    Scanning s = 1..n and letting T[s][j] sum the subsets {s_1<..<s_j} of
    {1..s} gives T[s][j] = T[s-1][j] + (a_{s-j+1} - e_s) T[s-1][j-1], the
    factor being the weight of s as the j-th chosen element; row s of the
    matrix is T[s] read backwards.  Under T[s][s-k] = S(s,k) this update is
    the recurrence term by term, so this route is the recurrence in another
    index order, not an independent check of it.
    """
    a, e, scale = sp.scaled()
    rows: list[list[int]] = [[1]]
    table = [1]
    for s in range(1, sp.n + 1):
        es = e[s - 1]
        nxt = [1] + [x + (a[s - j] - es) * y
                     for j, x, y in zip(range(1, s), table[1:], table)]
        nxt.append((a[0] - es) * table[s - 1])
        table = nxt
        rows.append(table[::-1])
    return TriMatrix.scaled(rows, scale)


def _elementary_table(values: Sequence[int]) -> list[list[int]]:
    """E[t][d] = elementary symmetric s_d(values[0..t-1]) for d <= t."""
    table = [[1]]
    for v in values:
        prev = table[-1]
        row = [1] + [x + v * y for x, y in zip(prev[1:], prev)]
        row.append(v * prev[-1])
        table.append(row)
    return table


def _homogeneous_table(values: Sequence[int], n: int) -> list[list[int]]:
    """H[t][d] = complete homogeneous h_d(values[0..t-1]) for d <= n; h_d of
    zero variables is 0 for d > 0."""
    table = [[1] + [0] * n]
    for v in values:
        prev = table[-1]
        row = [1]
        for d in range(1, n + 1):
            row.append(prev[d] + v * row[d - 1])
        table.append(row)
    return table


def stirling_symmetric(sp: SequencePair) -> TriMatrix:
    """Symmetric-function route:
    S(m,k) = sum_l (-1)^l h_{m-k-l}(a_1..a_{k+1}) s_l(e_1..e_m), on the
    integer pair (La, Le) of SequencePair.scaled, where h_d and s_l scale by
    L^d and L^l."""
    a, e, scale = sp.scaled()
    n = sp.n
    hom = _homogeneous_table(a, n)
    elem = _elementary_table(e)
    rows = []
    for m in range(n + 1):
        signed = [-v if l % 2 else v for l, v in enumerate(elem[m])]
        row = []
        for k in range(m):
            # h_0..h_{m-k} of a_1..a_{k+1} against s_{m-k}..s_0 of e_1..e_m
            row.append(sum(map(mul, hom[k + 1][:m - k + 1], signed[m - k::-1])))
        row.append(1)  # h_0 s_0
        rows.append(row)
    return TriMatrix.scaled(rows, scale)


_PRESETS = {
    "binomial": (lambda i: 0, lambda i: -1),
    "stirling2": (lambda i: i - 1, lambda i: 0),
    "stirling1": (lambda i: 0, lambda i: -(i - 1)),
    "lah": (lambda i: i - 1, lambda i: -(i - 1)),
}


def preset(name: str, n: int) -> SequencePair:
    """Classical instances: binomial (a=0, e=-1), stirling2 (a_i=i-1, e=0),
    stirling1 (a=0, e_i=-(i-1)), lah (a_i=i-1, e_i=-(i-1))."""
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(_PRESETS)}")
    if n < 0:
        raise ValueError("n must be non-negative")
    fa, fe = _PRESETS[name]
    return SequencePair(
        tuple(fa(i) for i in range(1, n + 1)),
        tuple(fe(i) for i in range(1, n + 1)),
    )


PRESET_NAMES = tuple(sorted(_PRESETS))


def eulerian_matrix(n: int) -> TriMatrix:
    """Eulerian triangle A(m,k) = #{permutations of [m] with k ascents}:
    A(m,k) = (m-k) A(m-1,k-1) + (k+1) A(m-1,k), A(0,0) = 1, and A(m,k) = 0
    for k >= m when m >= 1."""
    if n < 0:
        raise ValueError("n must be non-negative")
    rows: list[list[int]] = [[1]]
    for m in range(1, n + 1):
        # row m-1 behind a 0 for k = -1: at[k] = A(m-1,k-1), at[k+1] = A(m-1,k)
        at = [0, *rows[-1]]
        rows.append([(m - k) * at[k] + (k + 1) * at[k + 1] for k in range(m)] + [0])
    return TriMatrix.scaled(rows)


def sequence_pair(
    a: Iterable[RationalLike], e: Iterable[RationalLike]
) -> SequencePair:
    """Convenience constructor accepting ints, strings, or Fractions, which
    SequencePair parses."""
    return SequencePair(tuple(a), tuple(e))
