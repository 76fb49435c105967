"""Graph Stirling numbers of chordal graphs.

{G brace k} counts partitions of V(G) into k independent blocks; the graph
Stirling matrix collects these counts for the prefixes G_m induced on
v_1..v_m.  When v_1..v_n is a perfect elimination order (every vertex's
earlier neighborhood is a clique), writing e_m for the number of earlier
neighbors of v_m gives chi_{G_m}(x) = prod_{i<=m}(x - e_i), and the graph
Stirling matrix equals S^{a,e} with a = (0, 1, .., n-1).

Vertices are labeled 1..n; the label order is the candidate elimination
order, so the unit of input is the pair (graph, order).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import perm, prod
from typing import Optional, Sequence

from .core import SequencePair, TriMatrix, parse_int_token
from .stirling import rgs_check, stirling_recurrence
from .tnn import (
    EntryWitness,
    MinorWitness,
    first_sign_violation,
    is_tnn_exhaustive,
    unit_lower_inverse,
)

_BRUTEFORCE_CAP = 12
_COLORING_VERTEX_CAP = 10
_COLORING_COLOR_CAP = 6


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 1..n; adj[i] is the neighbor set
    of vertex i+1."""

    n: int
    adj: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        if len(self.adj) != self.n:
            raise ValueError(f"expected {self.n} adjacency sets, got {len(self.adj)}")
        for i, nbrs in enumerate(self.adj, start=1):
            for v in nbrs:
                if not (1 <= v <= self.n) or v == i:
                    raise ValueError(f"bad neighbor {v} of vertex {i}")
                if i not in self.adj[v - 1]:
                    raise ValueError(f"edge {i}-{v} is not symmetric")

    @classmethod
    def from_edges(cls, n: int, edges: Sequence[tuple[int, int]]) -> "Graph":
        sets: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge {u}-{v} outside 1..{n}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            sets[u - 1].add(v)
            sets[v - 1].add(u)
        return cls(n=n, adj=tuple(frozenset(s) for s in sets))

    def adjacent(self, u: int, v: int) -> bool:
        return v in self.adj[u - 1]

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(1, self.n + 1) for v in self.adj[u - 1] if u < v]

    def reorder(self, order: Sequence[int]) -> "Graph":
        """Relabel so that new vertex i is old vertex order[i-1]."""
        if sorted(order) != list(range(1, self.n + 1)):
            raise ValueError("order must be a permutation of 1..n")
        pos = {old: new for new, old in enumerate(order, start=1)}
        return Graph.from_edges(
            self.n, [(pos[u], pos[v]) for u, v in self.edges()]
        )


def parse_graph(text: str, source: Optional[str] = None) -> Graph:
    """Graph file format: a header line ``n <count>``, then one ``u v`` edge
    per line, 1-based labels; ``#`` starts a comment.  The label order is the
    candidate elimination order.  Errors name the line, after the source,
    the path of the file, when given."""
    at = "" if source is None else f"{source}: "
    n = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 2 or parts[0] != "n":
                raise ValueError(f"{at}line {lineno}: expected header 'n <count>'")
            n = parse_int_token(parts[1], lineno, source)
            if n < 0:
                raise ValueError(f"{at}line {lineno}: negative vertex count")
            continue
        if len(parts) != 2:
            raise ValueError(f"{at}line {lineno}: expected 'u v'")
        edges.append((parse_int_token(parts[0], lineno, source),
                      parse_int_token(parts[1], lineno, source)))
    if n is None:
        raise ValueError(f"{at}missing header line 'n <count>'")
    return Graph.from_edges(n, edges)


@dataclass(frozen=True)
class PeoFailure:
    """Earliest vertex whose earlier neighborhood is not a clique, with a
    non-adjacent witness pair inside it."""

    index: int
    pair: tuple[int, int]


@dataclass(frozen=True)
class PeoReport:
    is_peo: bool
    e_sequence: tuple[int, ...]
    failure: Optional[PeoFailure]


def verify_peo(g: Graph) -> PeoReport:
    """Check whether the label order is a perfect elimination order.  The
    e-sequence (earlier-neighbor counts) is computed even on failure."""
    e_seq = []
    failure = None
    for m in range(1, g.n + 1):
        earlier = sorted(v for v in g.adj[m - 1] if v < m)
        e_seq.append(len(earlier))
        if failure is None:
            for u, v in combinations(earlier, 2):
                if not g.adjacent(u, v):
                    failure = PeoFailure(index=m, pair=(u, v))
                    break
    return PeoReport(is_peo=failure is None, e_sequence=tuple(e_seq), failure=failure)


def find_peo(g: Graph) -> Optional[tuple[tuple[int, ...], Graph, PeoReport]]:
    """Search for a perfect elimination order by maximum cardinality search
    (ties broken toward the smallest label), then re-verify.  Returns the
    order as original labels, the graph relabeled in that order and its
    elimination report, or None when verification fails (graph not
    chordal)."""
    chosen: list[int] = []
    picked = [False] * (g.n + 1)
    score = [0] * (g.n + 1)
    for _ in range(g.n):
        best = max(
            (v for v in range(1, g.n + 1) if not picked[v]),
            key=lambda v: (score[v], -v),
        )
        picked[best] = True
        chosen.append(best)
        for u in g.adj[best - 1]:
            if not picked[u]:
                score[u] += 1
    order = tuple(chosen)
    reordered = g.reorder(order)
    report = verify_peo(reordered)
    return (order, reordered, report) if report.is_peo else None


def graph_stirling_matrix(g: Graph) -> TriMatrix:
    """Graph Stirling matrix of (g, label order); entry (m,k) counts
    partitions of {v_1..v_m} into k independent blocks.  Requires the label
    order to be a perfect elimination order."""
    return peo_stirling_matrix(verify_peo(g))


def peo_stirling_matrix(report: PeoReport) -> TriMatrix:
    """graph_stirling_matrix from an elimination report already taken."""
    if not report.is_peo:
        f = report.failure
        raise ValueError(
            f"label order is not a perfect elimination order: earlier "
            f"neighbors {f.pair} of vertex {f.index} are not adjacent"
        )
    e = report.e_sequence
    return stirling_recurrence(SequencePair(tuple(range(len(e))), e))


def graph_stirling_bruteforce(g: Graph, m: int) -> list[int]:
    """The row {G_m brace k} for k = 0..m: one direct enumeration of the
    partitions of {1..m} into independent blocks, tallied by block count.
    Works for any graph; capped at m <= 12."""
    if not (0 <= m <= g.n):
        raise ValueError(f"m must be in 0..{g.n}")
    if m > _BRUTEFORCE_CAP:
        raise ValueError(f"brute force capped at {_BRUTEFORCE_CAP} vertices")
    counts = [0] * (m + 1)
    blocks: list[list[int]] = []

    def place(v: int) -> None:
        if v > m:
            counts[len(blocks)] += 1
            return
        for block in blocks:
            if all(not g.adjacent(v, u) for u in block):
                block.append(v)
                place(v + 1)
                block.pop()
        blocks.append([v])
        place(v + 1)
        blocks.pop()

    place(1)
    return counts


def count_proper_colorings(g: Graph, x: int) -> int:
    """Number of proper colorings with colors {1..x}, by backtracking."""
    if x < 0:
        raise ValueError("color count must be non-negative")
    colors = [0] * (g.n + 1)

    def deeper(v: int) -> int:
        if v > g.n:
            return 1
        total = 0
        for c in range(1, x + 1):
            if all(colors[u] != c for u in g.adj[v - 1] if u < v):
                colors[v] = c
                total += deeper(v + 1)
        colors[v] = 0
        return total

    return deeper(1)


def chromatic_check(g: Graph, xs: Sequence[int]) -> list[bool]:
    """For each x in xs, compare the proper-coloring count at x against the
    falling-factorial expansion sum_k {G brace k} (x)_k, and, when the label
    order is a perfect elimination order, also against prod_i (x - e_i).
    The brute-force row {G brace k} and the elimination report are taken
    once for all x."""
    if g.n > _COLORING_VERTEX_CAP:
        raise ValueError(f"coloring check capped at {_COLORING_VERTEX_CAP} vertices")
    direct = []
    for x in xs:
        if x > _COLORING_COLOR_CAP:
            raise ValueError(f"coloring check capped at {_COLORING_COLOR_CAP} colors")
        direct.append(count_proper_colorings(g, x))
    row = graph_stirling_bruteforce(g, g.n)
    report = verify_peo(g)
    results = []
    for x, count in zip(xs, direct):
        ok = count == sum(s * perm(x, k) for k, s in enumerate(row))
        if ok and report.is_peo:
            ok = count == prod(x - e for e in report.e_sequence)
        results.append(ok)
    return results


def graph_from_rgs(e: Sequence[int]) -> Graph:
    """Build a chordal graph whose elimination e-sequence is the given
    integer restricted-growth string: vertex k is joined to the
    lexicographically first e_k-clique among v_1..v_{k-1}.

    e is checked by rgs_check with a = (0, 1, .., n-1), the chordal
    corollary: on non-negative ints, e_1 = 0 and e_{i+1} <= 1 + max(e_1..e_i).
    The walk's cap hits form a clique: the f-th hit has e = f - 1, so it is
    joined to every earlier hit.  Vertex k has at least e_k hits before it,
    and the first e_k of them are that clique."""
    if any(v < 0 for v in e):
        raise ValueError("integer restricted-growth strings are non-negative")
    report = rgs_check(SequencePair(tuple(range(len(e))), tuple(e)))
    if not report.is_rgs:
        raise ValueError("not an integer restricted-growth string")
    spine = [i for i, _ in report.hits]
    return Graph.from_edges(
        len(e), [(u, k) for k, need in enumerate(e, 1) for u in spine[:need]])


@dataclass(frozen=True)
class ChordalReport:
    """Combined certificate for a (graph, order) pair: elimination report,
    exhaustive minor scan of the graph Stirling matrix, sign pattern of its
    inverse, and the positions of zero inverse entries below the diagonal."""

    peo: PeoReport
    tnn_witness: Optional[MinorWitness]
    sign_violation: Optional[EntryWitness]
    zero_inverse_entries: tuple[tuple[int, int], ...]

    @property
    def ok(self) -> bool:
        return (
            self.peo.is_peo
            and self.tnn_witness is None
            and self.sign_violation is None
        )


def signed_inverse_check(g: Graph, max_order: Optional[int] = None) -> ChordalReport:
    """Run the full matrix checks for (g, label order).  Requires a perfect
    elimination order (raises otherwise, mirroring graph_stirling_matrix)."""
    peo = verify_peo(g)
    return matrix_checks(peo, peo_stirling_matrix(peo), max_order=max_order)


def matrix_checks(
    peo: PeoReport, matrix: TriMatrix, max_order: Optional[int] = None
) -> ChordalReport:
    """signed_inverse_check on an elimination report and the graph Stirling
    matrix already built from it."""
    witness = is_tnn_exhaustive(matrix, max_order=max_order)
    inv = unit_lower_inverse(matrix)
    zeros = tuple((m, k) for m, row in enumerate(inv.ints)
                  for k, v in enumerate(row[:m]) if v == 0)
    return ChordalReport(
        peo=peo,
        tnn_witness=witness,
        sign_violation=first_sign_violation(inv),
        zero_inverse_entries=zeros,
    )
