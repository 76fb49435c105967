"""Seeded inputs for the three workloads.

A workload is a fixed list of operations (one "round"); every run repeats
whole rounds, so the mix, and the share of operations that fail, is the same
whatever the seed or the run length.  The seed only draws the values inside
each slot.  Slot shapes (command, size, format) are fixed so that the cost of
a round barely depends on the seed.  Each round has an odd number of
operations that succeed, so that the median latency is one operation's time
rather than the midpoint of a gap between two slots.

Nothing here imports gstirling: the inputs must not change when the library
does.  Each operation carries, next to its argv, a spec that the checker
reads to compute the expected answer on its own.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from fractions import Fraction
from random import Random

WORKLOADS = ("construct", "certify", "scan")

# Boards wider than 10 columns: `rook --gjw` refuses them (exit 1) although
# the factorization identity holds for every Ferrers board.  Fixed, so that
# they fail in every run whatever the seed.
FAILING_BOARDS = ((0, 1, 1, 2, 3, 3, 4, 5, 6, 6, 7), (1, 1, 2, 2, 3, 4, 4, 5, 6, 7, 8, 8))


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    spec: dict
    files: dict = field(default_factory=dict)  # path -> text, written at set-up
    known_fault: bool = False  # fails with an error in every run (FAILING_BOARDS)


def fmt_seq(values) -> str:
    return ",".join(str(v) for v in values)


def _pair_argv(a, e) -> list[str]:
    # attached form, so that a leading minus sign is not read as a flag
    return [f"-a{fmt_seq(a)}", f"-e{fmt_seq(e)}"]


def _format_argv(fmt: str) -> list[str]:
    return [] if fmt == "table" else ["--format", fmt]


def _balanced_rationals(rng: Random, count: int, lo: int, hi: int,
                        dens=(1, 2, 3, 4)) -> list[Fraction]:
    """count rationals num/den with every denominator used equally often, so
    that the common denominator is the same for every seed."""
    ds = [dens[i % len(dens)] for i in range(count)]
    rng.shuffle(ds)
    return [Fraction(rng.randint(lo, hi), d) for d in ds]


def random_pair(rng: Random, n: int):
    vals = _balanced_rationals(rng, 2 * n, -6, 6)
    return vals[:n], vals[n:]


def growth_pair(rng: Random, n: int, violate_at: int | None = None):
    """Non-decreasing a with e restricted-growth relative to a: each e_i hits
    the current cap a_f (which advances f) or falls below it.  With
    violate_at = i, e_i instead exceeds its cap, so growth first fails
    there.  Two in five indices before the violation (or in all) are cap
    hits, so the number of certificate pivots does not depend on the
    seed."""
    a = sorted(_balanced_rationals(rng, n, 0, 2 * n))
    end = n if violate_at is None else violate_at - 1
    hits = set(rng.sample(range(1, end + 1), (2 * end) // 5))
    e = []
    f = 0
    for i in range(1, n + 1):
        cap = a[f]
        if i == violate_at:
            e.append(cap + Fraction(rng.randint(1, 4), rng.choice((1, 2, 3))))
        elif i in hits:
            e.append(cap)
            f += 1
        else:
            e.append(cap - Fraction(rng.randint(1, 8), rng.choice((1, 2, 3, 4))))
    return a, e


def preset_pair(name: str, n: int):
    """The classical triangles, from their (a, e) definitions."""
    table = {
        "binomial": (lambda i: 0, lambda i: -1),
        "stirling2": (lambda i: i - 1, lambda i: 0),
        "stirling1": (lambda i: 0, lambda i: -(i - 1)),
        "lah": (lambda i: i - 1, lambda i: -(i - 1)),
    }
    fa, fe = table[name]
    return ([Fraction(fa(i)) for i in range(1, n + 1)],
            [Fraction(fe(i)) for i in range(1, n + 1)])


def _unsorted(rng: Random, values: list) -> list:
    """A shuffle that is guaranteed not to be non-decreasing."""
    out = list(values)
    while all(x <= y for x, y in zip(out, out[1:])):
        rng.shuffle(out)
    return out


def dominant_pair(rng: Random, n: int):
    """min(a) > max(e) with a not monotone: TNN (every entry and minor is a
    sum of products of non-negative weights)."""
    e = [Fraction(rng.randint(-6, 0), rng.choice((1, 2, 3))) for _ in range(n)]
    floor = max(e)
    a = [floor + Fraction(rng.randint(1, 6), rng.choice((1, 2, 3))) for _ in range(n)]
    a[0] = floor + 7  # distinct from the rest, so a can be unsorted
    return _unsorted(rng, a), e


def late_negative_pair(rng: Random, n: int):
    """A dominant pair except that e_n exceeds a_1, so the entry
    S(n,0) = prod (a_1 - e_i) has one negative factor and is negative."""
    a, e = dominant_pair(rng, n)
    e[-1] = a[0] + Fraction(rng.randint(1, 4), rng.choice((1, 2)))
    return a, e


def random_rgs(rng: Random, n: int, top: int) -> list[int]:
    """Integer restricted-growth string of length n with values <= top."""
    e = [0]
    high = 0
    for _ in range(n - 1):
        v = high + 1 if high < top and rng.random() < 0.35 else rng.randint(0, high)
        e.append(v)
        high = max(high, v)
    return e


def random_chordal_edges(rng: Random, n: int, max_clique: int) -> list[tuple[int, int]]:
    """Vertex k joins a clique among earlier vertices: a random earlier u
    plus some of u's earlier neighbours (a clique, as construction order is
    an elimination order)."""
    earlier: list[set[int]] = [set() for _ in range(n + 1)]
    edges = []
    for k in range(2, n + 1):
        if rng.random() < 0.2:
            continue
        u = rng.randint(1, k - 1)
        pool = sorted(earlier[u])
        rng.shuffle(pool)
        clique = [u] + pool[: rng.randint(0, max_clique - 1)]
        for v in clique:
            edges.append((v, k))
            earlier[k].add(v)
    return edges


def random_board(rng: Random, n: int) -> tuple[int, ...]:
    hs = sorted(rng.randint(0, n) for _ in range(n))
    return tuple(hs)


# ------------------------------------------------------------- workloads

def _matrix_op(a, e, method, fmt, verify_all=False) -> Op:
    argv = ["matrix", *_pair_argv(a, e), "--method", method, *_format_argv(fmt)]
    if verify_all:
        argv.append("--verify-all")
    return Op(tuple(argv), {"cmd": "matrix", "a": a, "e": e, "method": method,
                            "fmt": fmt, "verify_all": verify_all})


# (method, n, format) per slot: every method in every format, n over 40-120.
# Tables pad every entry to the widest one, so their size follows the single
# largest entry; they stay at n <= 60 so that peak memory does not hinge on
# one extreme value.  The median and the tail each fall inside a band of
# slots of similar cost (about 0.1 s and 0.45 s), not at a gap between two
# slots, so that neither is one input's cost.
_T, _J, _C = "table", "json", "csv"
_CONSTRUCT_SLOTS = (
    [("recurrence", n, f) for n, f in ((40, _T), (45, _J), (45, _C), (50, _T), (60, _T),
                                       (60, _J), (60, _C), (70, _C), (80, _J), (90, _J),
                                       (90, _C), (105, _J), (105, _C), (120, _J), (120, _C))]
    + [("explicit", n, f) for n, f in ((40, _T), (45, _J), (45, _C), (50, _T), (60, _T),
                                       (60, _J), (60, _C), (70, _J), (90, _J), (90, _C),
                                       (105, _J), (105, _C), (120, _J), (120, _C))]
    + [("network", n, f) for n, f in ((40, _T), (40, _J), (40, _C), (55, _T), (55, _C),
                                      (64, _J), (68, _T), (68, _J), (68, _C))]
    + [("symmetric", n, f) for n, f in ((40, _T), (40, _J), (40, _C), (50, _T),
                                        (54, _J), (58, _T), (58, _J), (58, _C))]
)
_CONSTRUCT_VERIFY_ALL = ((44, _T), (48, _J), (50, _C))


def construct(rng: Random, workdir: str) -> list[Op]:
    ops = [_matrix_op(*random_pair(rng, n), m, f) for m, n, f in _CONSTRUCT_SLOTS]
    ops += [_matrix_op(*random_pair(rng, n), "recurrence", f, verify_all=True)
            for n, f in _CONSTRUCT_VERIFY_ALL]
    return ops


def _check_op(a, e, fmt, mode="certified", provenance=False, expect_tnn=None) -> Op:
    argv = ["check", *_pair_argv(a, e), *_format_argv(fmt)]
    if mode == "exhaustive":
        argv.append("--exhaustive")
    elif mode == "exhaustive-only":
        argv.append("--exhaustive-only")
    if provenance:
        argv.append("--provenance")
    return Op(tuple(argv), {"cmd": "check", "a": a, "e": e, "fmt": fmt, "mode": mode,
                            "provenance": provenance, "expect_tnn": expect_tnn})


def _network_op(a, e, fmt) -> Op:
    argv = ["network", *_pair_argv(a, e), "--certify", "--provenance", *_format_argv(fmt)]
    return Op(tuple(argv), {"cmd": "network", "a": a, "e": e, "fmt": fmt})


def certify(rng: Random, workdir: str) -> list[Op]:
    ops = []
    # growth pairs: a full pivot certificate per operation
    for n, fmt in ((40, "table"), (50, "json"), (60, "table"), (64, "json"), (66, "table")):
        ops.append(_check_op(*growth_pair(rng, n), fmt, provenance=fmt == "table"))
    for n, fmt in ((45, "json"), (55, "table"), (65, "json")):
        ops.append(_network_op(*growth_pair(rng, n), fmt))
    # pairs that break growth: an entry witness, and a certificate cut short
    for n in (40, 50, 60, 70, 80, 90, 100):
        for fmt in ("table", "json"):
            ops.append(_check_op(*growth_pair(rng, n, violate_at=n // 2), fmt))
    for n in (40, 48, 56, 64, 72, 80, 88):
        for fmt in ("table", "json"):
            ops.append(_network_op(*growth_pair(rng, n, violate_at=n // 3), fmt))
    for n in (40, 60, 80, 100):
        for fmt in ("table", "json"):
            ops.append(_check_op(*growth_pair(rng, n, violate_at=n // 5), fmt))
    for n, at, fmt in ((50, 10, "json"), (84, 42, "table"), (84, 42, "json"),
                       (90, 18, "json"), (90, 30, "table")):
        ops.append(_check_op(*growth_pair(rng, n, violate_at=at), fmt))
    return ops


def _graph_file(n: int, edges) -> str:
    lines = [f"n {n}"] + [f"{u} {v}" for u, v in edges]
    return "\n".join(lines) + "\n"


def _chordal_rgs_op(e, fmt, check_all, chromatic=()) -> Op:
    argv = ["chordal", "--from-rgs", fmt_seq(e), *_format_argv(fmt)]
    if check_all:
        argv.append("--check-all")
    if chromatic:
        argv += ["--chromatic", fmt_seq(chromatic)]
    return Op(tuple(argv), {"cmd": "chordal", "rgs": list(e), "graph": None,
                            "find_peo": False, "check_all": check_all,
                            "chromatic": list(chromatic), "fmt": fmt})


def _chordal_file_op(rng: Random, n: int, fmt: str, path: str, chromatic) -> Op:
    edges = random_chordal_edges(rng, n, 3)
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    relabel = {old: perm[old - 1] for old in range(1, n + 1)}
    edges = [(relabel[u], relabel[v]) for u, v in edges]
    rng.shuffle(edges)
    argv = ["chordal", "--file", path, "--find-peo", "--check-all",
            "--chromatic", fmt_seq(chromatic), *_format_argv(fmt)]
    spec = {"cmd": "chordal", "rgs": None, "graph": (n, edges), "find_peo": True,
            "check_all": True, "chromatic": list(chromatic), "fmt": fmt}
    return Op(tuple(argv), spec, {path: _graph_file(n, edges)})


def _rook_op(heights, fmt, gjw=True, check_tnn=True) -> Op:
    argv = ["rook", "-b", fmt_seq(heights), *_format_argv(fmt)]
    if gjw:
        argv.append("--gjw")
    if check_tnn:
        argv.append("--check-tnn")
    return Op(tuple(argv), {"cmd": "rook", "heights": list(heights), "gjw": gjw,
                            "check_tnn": check_tnn, "fmt": fmt})


def _eulerian_op(n, fmt) -> Op:
    return Op(("eulerian", "-n", str(n), *_format_argv(fmt)),
              {"cmd": "eulerian", "n": n, "fmt": fmt})


def scan(rng: Random, workdir: str) -> list[Op]:
    ops = []
    fmts = ("table", "json")
    # exhaustive scans beside the certified decision: presets, then pairs
    for i, (name, n) in enumerate((("stirling2", 6), ("lah", 6), ("stirling1", 6),
                                   ("binomial", 6), ("stirling2", 7), ("lah", 7),
                                   ("stirling1", 7))):
        ops.append(_check_op(*preset_pair(name, n), fmts[i % 2], mode="exhaustive"))
    for i, n in enumerate((6, 6, 7)):
        ops.append(_check_op(*growth_pair(rng, n), fmts[i % 2], mode="exhaustive"))
    for i, n in enumerate((6, 7, 8)):
        ops.append(_check_op(*growth_pair(rng, n, violate_at=n - 1), fmts[i % 2],
                             mode="exhaustive"))
    # non-monotone a: only the scan decides
    for i, n in enumerate((5, 6, 6, 7)):
        ops.append(_check_op(*dominant_pair(rng, n), fmts[i % 2],
                             mode="exhaustive-only", expect_tnn=True))
    for i, n in enumerate((7, 8, 8)):
        ops.append(_check_op(*late_negative_pair(rng, n), fmts[i % 2],
                             mode="exhaustive-only", expect_tnn=False))
    # chordal graphs: scans and colourings, from growth strings and from files
    for i, n in enumerate((6, 6, 7, 7)):
        ops.append(_chordal_rgs_op(random_rgs(rng, n, 3), fmts[i % 2], True,
                                   (1, 2, 3, 4)))
    for i, n in enumerate((6, 6, 7)):
        path = os.path.join(workdir, f"graph{i}.txt")
        ops.append(_chordal_file_op(rng, n, fmts[i % 2], path, (2, 3, 5)))
    # long growth strings, no scan: a zero prefix forces a wide clique search
    for i, (zeros, climb) in enumerate(((14, 8), (16, 8), (12, 9), (18, 7))):
        tail = random_rgs(rng, 4, 2)[1:]
        e = [0] * zeros + list(range(1, climb + 1)) + tail
        ops.append(_chordal_rgs_op(e, fmts[i % 2], False))
    for i, n in enumerate((20, 24, 28)):
        ops.append(_chordal_rgs_op(random_rgs(rng, n, 4), fmts[i % 2], False))
    # Ferrers boards and the Eulerian triangle
    for i, n in enumerate((5, 5, 6, 6, 7)):
        ops.append(_rook_op(random_board(rng, n), fmts[i % 2]))
    for i, n in enumerate((5, 6, 6, 7)):
        ops.append(_eulerian_op(n, fmts[i % 2]))
    for heights in FAILING_BOARDS:
        ops.append(replace(_rook_op(heights, "table", check_tnn=False), known_fault=True))
    return ops


_ROUNDS = {"construct": construct, "certify": certify, "scan": scan}


def build(name: str, seed: int, workdir: str) -> list[Op]:
    """One round of the named workload, drawn from seed."""
    if name not in _ROUNDS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    return _ROUNDS[name](Random(f"{name}:{seed}"), workdir)


def warmup(name: str) -> list[Op]:
    """Small operations touching every code path of the workload once, run
    untimed before measuring (first-call costs belong to set-up)."""
    return _WARMUP[name]()


def _warm_construct() -> list[Op]:
    a, e = random_pair(Random(0), 12)
    return [_matrix_op(a, e, m, f) for m in ("recurrence", "explicit", "symmetric", "network")
            for f in ("table", "json", "csv")] + [_matrix_op(a, e, "recurrence", "table", True)]


def _warm_certify() -> list[Op]:
    rng = Random(0)
    g, v = growth_pair(rng, 12), growth_pair(rng, 12, violate_at=6)
    return [_check_op(*g, "table", provenance=True), _check_op(*v, "json"),
            _network_op(*g, "json"), _network_op(*v, "table")]


def _warm_scan() -> list[Op]:
    rng = Random(0)
    return [_check_op(*preset_pair("stirling2", 4), "table", mode="exhaustive"),
            _check_op(*dominant_pair(rng, 4), "json", mode="exhaustive-only", expect_tnn=True),
            _chordal_rgs_op([0, 1, 1, 2], "json", True, (1, 2)),
            _rook_op((1, 2, 2), "table"), _eulerian_op(4, "json")]


_WARMUP = {"construct": _warm_construct, "certify": _warm_certify, "scan": _warm_scan}
