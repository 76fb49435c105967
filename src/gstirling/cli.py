"""Command-line surface: matrix construction, TNN checks, network
certificates, chordal and rook instances, and the Eulerian minor experiment.

Exit codes: 0 = all requested checks pass, 2 = a mathematical witness was
found (expected for non-TNN inputs), 1 = usage, resource, or internal error.
Identical invocations produce byte-identical output; the default format is
``table`` and may be overridden by the GSTIRLING_FORMAT environment
variable or --format.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .chordal import (
    Graph,
    chromatic_check,
    find_peo,
    graph_from_rgs,
    matrix_checks,
    parse_graph,
    peo_stirling_matrix,
    verify_peo,
)
from .core import SequencePair, TriMatrix, format_rational, parse_rational
from .network import WeightArray, build_initial, certify, path_matrix, pivot
from .rook import FerrersBoard, board_pair, gjw_check, parse_board, rook_matrix
from .stirling import (
    PRESET_NAMES,
    eulerian_matrix,
    preset,
    stirling_explicit,
    stirling_recurrence,
    stirling_symmetric,
)
from .tnn import decide_tnn, is_tnn_exhaustive, iter_minors

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_WITNESS = 2

FORMATS = ("table", "json", "csv")
METHODS = ("recurrence", "explicit", "symmetric", "network")
FORMAT_ENV = "GSTIRLING_FORMAT"


@dataclass(frozen=True)
class RunConfig:
    """Everything a run depends on; equal configs produce byte-identical
    output."""

    command: str
    fmt: str = "table"
    a: Optional[tuple[Fraction, ...]] = None
    e: Optional[tuple[Fraction, ...]] = None
    preset_name: Optional[str] = None
    n: Optional[int] = None
    seq_file: Optional[str] = None
    method: str = "recurrence"
    verify_all: bool = False
    exhaustive: bool = False
    exhaustive_only: bool = False
    max_minor_order: Optional[int] = None
    pivots: tuple[tuple[int, int], ...] = ()
    do_certify: bool = False
    provenance: bool = False
    graph_file: Optional[str] = None
    from_rgs: Optional[tuple[int, ...]] = None
    do_find_peo: bool = False
    check_all: bool = False
    chromatic_xs: tuple[int, ...] = ()
    heights: Optional[tuple[int, ...]] = None
    board_file: Optional[str] = None
    do_gjw: bool = False
    check_tnn: bool = False


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors by default, which collides with the
    witness exit code; route usage errors to 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _parse_seq(text: str, flag: str) -> tuple[Fraction, ...]:
    out = []
    for idx, tok in enumerate(text.split(","), start=1):
        tok = tok.strip()
        try:
            out.append(parse_rational(tok))
        except ValueError:
            raise ValueError(f"{flag}: entry {idx} ({tok!r}) is not a rational")
    return tuple(out)


def _parse_ints(text: str, flag: str) -> tuple[int, ...]:
    out = []
    for idx, tok in enumerate(text.split(","), start=1):
        try:
            out.append(int(tok.strip()))
        except ValueError:
            raise ValueError(f"{flag}: entry {idx} ({tok.strip()!r}) is not an integer")
    return tuple(out)


def _read_pair_file(path: str) -> SequencePair:
    """Two content lines: the a-sequence then the e-sequence, entries comma
    or space separated; '#' starts a comment."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = []
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if line:
                lines.append(line)
    if len(lines) != 2:
        raise ValueError(f"{path}: expected two content lines (a then e), got {len(lines)}")
    vals = [
        tuple(parse_rational(tok) for tok in line.replace(",", " ").split())
        for line in lines
    ]
    return SequencePair(vals[0], vals[1])


def _resolve_pair(cfg: RunConfig) -> SequencePair:
    inline = cfg.a is not None or cfg.e is not None
    sources = sum(map(bool, (inline, cfg.preset_name is not None, cfg.seq_file is not None)))
    if sources != 1:
        raise ValueError("provide exactly one of: -a with -e, --preset with -n, --file")
    if cfg.preset_name is not None:
        if cfg.n is None:
            raise ValueError("--preset requires -n")
        return preset(cfg.preset_name, cfg.n)
    if cfg.seq_file is not None:
        sp = _read_pair_file(cfg.seq_file)
    else:
        if cfg.a is None or cfg.e is None:
            raise ValueError("-a and -e must be given together")
        sp = SequencePair(cfg.a, cfg.e)
    if cfg.n is not None and cfg.n != sp.n:
        raise ValueError(f"-n {cfg.n} disagrees with sequence length {sp.n}")
    return sp


def _resolve_graph(cfg: RunConfig) -> Graph:
    sources = sum(map(bool, (cfg.graph_file is not None, cfg.from_rgs is not None)))
    if sources != 1:
        raise ValueError("provide exactly one of: --file, --from-rgs")
    if cfg.from_rgs is not None:
        return graph_from_rgs(cfg.from_rgs)
    with open(cfg.graph_file, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def _resolve_board(cfg: RunConfig) -> FerrersBoard:
    sources = sum(map(bool, (cfg.heights is not None, cfg.board_file is not None)))
    if sources != 1:
        raise ValueError("provide exactly one of: -b, --file")
    if cfg.heights is not None:
        return FerrersBoard(cfg.heights)
    with open(cfg.board_file, "r", encoding="utf-8") as fh:
        return parse_board(fh.read())


# ---------------------------------------------------------------- rendering

def _seq_strs(vals: Sequence[Fraction]) -> list[str]:
    return [format_rational(v) for v in vals]


def _matrix_strs(m: TriMatrix) -> list[list[str]]:
    return [[format_rational(v) for v in row] for row in m.rows]


def _array_strs(wa: WeightArray) -> list[list[str]]:
    return [[format_rational(v) for v in row] for row in wa.values]


def _aligned(rows: list[list[str]], indent: str = "  ") -> list[str]:
    width = max((len(c) for row in rows for c in row), default=1)
    return [indent + " ".join(c.rjust(width) for c in row) for row in rows]


def _array_lines(wa: WeightArray, provenance: bool) -> list[str]:
    if not provenance:
        return _aligned(_array_strs(wa))
    if wa.provenance is None:
        raise ValueError("array carries no provenance to print")
    rows = [
        [
            f"a{f}-e{g}={format_rational(wa.values[m][k])}"
            for k, (f, g) in enumerate(wa.provenance[m])
        ]
        for m in range(wa.n)
    ]
    return _aligned(rows)


def _pivot_list(pivots) -> str:
    return " ".join(f"[{m},{k}]" for m, k in pivots) or "(none)"


def _matrix_triples(m: TriMatrix) -> list[tuple[int, int, Fraction]]:
    return [(i, k, v) for i, row in enumerate(m.rows) for k, v in enumerate(row)]


def _array_triples(wa: WeightArray) -> list[tuple[int, int, Fraction]]:
    return [
        (i + 1, k + 1, v) for i, row in enumerate(wa.values) for k, v in enumerate(row)
    ]


def _render(cfg: RunConfig, payload: dict, table: list[str],
            triples: list[tuple[int, int, Fraction]]) -> str:
    if cfg.fmt == "json":
        return json.dumps(payload, indent=2) + "\n"
    if cfg.fmt == "csv":
        lines = ["m,k,value"]
        lines += [f"{m},{k},{format_rational(v)}" for m, k, v in triples]
        return "\n".join(lines) + "\n"
    return "\n".join(table) + "\n"


def _witness_json(w) -> Optional[dict]:
    if w is None:
        return None
    return {"rows": list(w.rows), "cols": list(w.cols),
            "value": format_rational(w.value)}


# ----------------------------------------------------------------- commands

def _run_matrix(cfg: RunConfig) -> tuple[str, int]:
    sp = _resolve_pair(cfg)
    builders = {
        "recurrence": stirling_recurrence,
        "explicit": stirling_explicit,
        "symmetric": stirling_symmetric,
        "network": lambda p: path_matrix(build_initial(p)),
    }
    matrix = builders[cfg.method](sp)
    verified = None
    if cfg.verify_all:
        results = {name: fn(sp) for name, fn in builders.items()}
        if any(m != matrix for m in results.values()):
            raise RuntimeError(
                "internal inconsistency: construction routes disagree"
            )
        verified = list(builders)
    payload = {
        "command": "matrix",
        "n": sp.n,
        "a": _seq_strs(sp.a),
        "e": _seq_strs(sp.e),
        "method": cfg.method,
        "verified": verified,
        "matrix": _matrix_strs(matrix),
    }
    table = [
        f"a: {', '.join(_seq_strs(sp.a))}",
        f"e: {', '.join(_seq_strs(sp.e))}",
        f"S matrix ({cfg.method}):",
        *_aligned(_matrix_strs(matrix)),
    ]
    if verified:
        table.append("routes agree: " + ", ".join(verified))
    return _render(cfg, payload, table, _matrix_triples(matrix)), EXIT_OK


def _certificate_json(trace) -> dict:
    return {
        "pivots": [list(p) for p in trace.pivots],
        "final": _array_strs(trace.final),
        "all_nonnegative": trace.all_nonnegative,
    }


def _run_check(cfg: RunConfig) -> tuple[str, int]:
    sp = _resolve_pair(cfg)
    if not sp.a_nondecreasing:
        if not cfg.exhaustive_only:
            raise ValueError(
                "a is not non-decreasing, so the certified decision does not "
                "apply; pass --exhaustive-only to scan minors directly"
            )
        matrix = stirling_recurrence(sp)
        minor = is_tnn_exhaustive(matrix, max_order=cfg.max_minor_order)
        is_tnn = minor is None
        payload = {
            "command": "check",
            "mode": "exhaustive-only",
            "n": sp.n,
            "a": _seq_strs(sp.a),
            "e": _seq_strs(sp.e),
            "is_tnn": is_tnn,
            "minor_witness": _witness_json(minor),
        }
        table = [
            f"a: {', '.join(_seq_strs(sp.a))}",
            f"e: {', '.join(_seq_strs(sp.e))}",
            "mode: exhaustive-only (a not non-decreasing)",
            f"verdict: {'TNN' if is_tnn else 'NOT TNN'}",
        ]
        if minor is not None:
            table.append(
                f"negative minor: rows {list(minor.rows)} cols {list(minor.cols)} "
                f"value {format_rational(minor.value)}"
            )
        code = EXIT_OK if is_tnn else EXIT_WITNESS
        return _render(cfg, payload, table, _matrix_triples(matrix)), code

    verdict = decide_tnn(sp)
    # only the scan and the csv triples read the matrix itself
    matrix = stirling_recurrence(sp) if cfg.exhaustive or cfg.fmt == "csv" else None
    exhaustive_block = None
    if cfg.exhaustive:
        minor = is_tnn_exhaustive(matrix, max_order=cfg.max_minor_order)
        agrees = (minor is None) == verdict.is_tnn
        if not agrees:
            raise RuntimeError(
                "internal inconsistency: exhaustive minor scan disagrees "
                "with the certified decision"
            )
        exhaustive_block = {"agrees": True, "minor_witness": _witness_json(minor)}
    payload = {
        "command": "check",
        "mode": "certified",
        "n": sp.n,
        "a": _seq_strs(sp.a),
        "e": _seq_strs(sp.e),
        "is_tnn": verdict.is_tnn,
        "cap_indices": list(verdict.rgs.cap_indices),
        "violation": (
            None
            if verdict.rgs.violation is None
            else {"index": verdict.rgs.violation.index,
                  "level": verdict.rgs.violation.level}
        ),
        "certificate": (
            None if verdict.certificate is None
            else _certificate_json(verdict.certificate)
        ),
        "entry_witness": (
            None
            if verdict.witness is None
            else {"row": verdict.witness.row, "col": verdict.witness.col,
                  "value": format_rational(verdict.witness.value)}
        ),
        "exhaustive": exhaustive_block,
    }
    table = [
        f"a: {', '.join(_seq_strs(sp.a))}",
        f"e: {', '.join(_seq_strs(sp.e))}",
        f"caps: {' '.join(str(c) for c in verdict.rgs.cap_indices)}",
        f"verdict: {'TNN' if verdict.is_tnn else 'NOT TNN'}",
    ]
    if verdict.certificate is not None:
        t = verdict.certificate
        table.append("certificate pivots: " + _pivot_list(t.pivots))
        table.append("final array (all weights non-negative):")
        table += _array_lines(t.final, cfg.provenance)
    if verdict.rgs.violation is not None:
        v = verdict.rgs.violation
        table.append(
            f"violation: e_{v.index} exceeds the level-{v.level} cap "
            f"a_{v.level} = {format_rational(sp.a[v.level - 1])}"
        )
    if verdict.witness is not None:
        w = verdict.witness
        table.append(
            f"entry witness: S({w.row},{w.col}) = {format_rational(w.value)} < 0"
        )
    if exhaustive_block is not None:
        table.append("exhaustive minor scan agrees")
    code = EXIT_OK if verdict.is_tnn else EXIT_WITNESS
    triples = [] if matrix is None else _matrix_triples(matrix)
    return _render(cfg, payload, table, triples), code


def _run_network(cfg: RunConfig) -> tuple[str, int]:
    sp = _resolve_pair(cfg)
    wa = build_initial(sp)
    initial = wa
    applied: list[list[int]] = []
    for m, k in cfg.pivots:
        w = wa.weight(m, k)
        if w != 0:
            raise ValueError(
                f"refusing to pivot at [{m},{k}]: weight is "
                f"{format_rational(w)}, not 0, so the path matrix would not "
                "be preserved"
            )
        wa = pivot(wa, m, k)
        applied.append([m, k])
    trace = certify(sp) if cfg.do_certify else None
    payload = {
        "command": "network",
        "n": sp.n,
        "a": _seq_strs(sp.a),
        "e": _seq_strs(sp.e),
        "initial": _array_strs(initial),
        "applied_pivots": applied,
        "result": _array_strs(wa) if applied else None,
        "certificate": None if trace is None else _certificate_json(trace),
    }
    if cfg.provenance:
        payload["provenance"] = [
            [list(pair) for pair in row] for row in wa.provenance
        ]
    table = [
        f"a: {', '.join(_seq_strs(sp.a))}",
        f"e: {', '.join(_seq_strs(sp.e))}",
        "initial array:",
        *_array_lines(initial, cfg.provenance),
    ]
    if applied:
        table.append(f"after pivots {_pivot_list(applied)}:")
        table += _array_lines(wa, cfg.provenance)
    code = EXIT_OK
    if trace is not None:
        table.append("certificate pivots: " + _pivot_list(trace.pivots))
        table.append(
            "final array ("
            + ("all weights non-negative" if trace.all_nonnegative
               else "negative weight exposed")
            + "):"
        )
        table += _array_lines(trace.final, cfg.provenance)
        if not trace.all_nonnegative:
            code = EXIT_WITNESS
    return _render(cfg, payload, table, _array_triples(wa)), code


def _run_chordal(cfg: RunConfig) -> tuple[str, int]:
    g = _resolve_graph(cfg)
    found_order: Optional[tuple[int, ...]] = None
    if cfg.do_find_peo:
        found_order = find_peo(g)
        if found_order is None:
            payload = {
                "command": "chordal",
                "n": g.n,
                "order": list(range(1, g.n + 1)),
                "found_order": None,
                "peo": None,
                "matrix": None,
                "checks": None,
            }
            table = [f"vertices: {g.n}",
                     "no perfect elimination order exists (graph is not chordal)"]
            return _render(cfg, payload, table, []), EXIT_WITNESS
        g = g.reorder(found_order)
    report = verify_peo(g)
    payload = {
        "command": "chordal",
        "n": g.n,
        "order": list(range(1, g.n + 1)),
        "found_order": list(found_order) if found_order is not None else None,
        "peo": {
            "is_peo": report.is_peo,
            "e_sequence": list(report.e_sequence),
            "failure": (
                None
                if report.failure is None
                else {"index": report.failure.index,
                      "pair": list(report.failure.pair)}
            ),
        },
        "matrix": None,
        "checks": None,
    }
    table = [f"vertices: {g.n}"]
    if found_order is not None:
        table.append("elimination order found: " +
                     " ".join(str(v) for v in found_order))
    table.append(f"e-sequence: {' '.join(str(v) for v in report.e_sequence)}")
    if not report.is_peo:
        f = report.failure
        table.append(
            f"not a perfect elimination order: earlier neighbors "
            f"{f.pair[0]} and {f.pair[1]} of vertex {f.index} are not adjacent"
        )
        return _render(cfg, payload, table, []), EXIT_WITNESS
    table.append("order verified: perfect elimination order")
    matrix = peo_stirling_matrix(report)
    payload["matrix"] = _matrix_strs(matrix)
    table.append("graph Stirling matrix:")
    table += _aligned(_matrix_strs(matrix))
    code = EXIT_OK
    if cfg.check_all or cfg.chromatic_xs:
        checks: dict = {}
        if cfg.check_all:
            rep = matrix_checks(report, matrix, max_order=cfg.max_minor_order)
            checks["tnn_witness"] = _witness_json(rep.tnn_witness)
            checks["sign_violation"] = (
                None
                if rep.sign_violation is None
                else {"row": rep.sign_violation.row,
                      "col": rep.sign_violation.col,
                      "value": format_rational(rep.sign_violation.value)}
            )
            checks["zero_inverse_entries"] = [
                list(p) for p in rep.zero_inverse_entries
            ]
            table.append(
                "minor scan: "
                + ("no negative minor" if rep.tnn_witness is None
                   else "negative minor found")
            )
            table.append(
                "inverse sign pattern: "
                + ("holds" if rep.sign_violation is None else "violated")
            )
            if rep.zero_inverse_entries:
                table.append(
                    "zero inverse entries: "
                    + " ".join(f"({m},{k})" for m, k in rep.zero_inverse_entries)
                )
            if rep.tnn_witness is not None or rep.sign_violation is not None:
                code = EXIT_WITNESS
        if cfg.chromatic_xs:
            results = []
            for x in cfg.chromatic_xs:
                ok = chromatic_check(g, x)
                results.append({"x": x, "ok": ok})
                if not ok:
                    code = EXIT_WITNESS
            checks["chromatic"] = results
            table.append(
                "chromatic check: "
                + " ".join(f"x={r['x']}:{'ok' if r['ok'] else 'FAIL'}"
                           for r in results)
            )
        payload["checks"] = checks
    return _render(cfg, payload, table, _matrix_triples(matrix)), code


def _run_rook(cfg: RunConfig) -> tuple[str, int]:
    board = _resolve_board(cfg)
    matrix = rook_matrix(board)
    sp = board_pair(board)
    payload = {
        "command": "rook",
        "heights": list(board.heights),
        "a": _seq_strs(sp.a),
        "e": _seq_strs(sp.e),
        "matrix": _matrix_strs(matrix),
        "gjw": None,
        "tnn": None,
    }
    table = [
        f"heights: {', '.join(str(h) for h in board.heights)}",
        f"a: {', '.join(_seq_strs(sp.a))}",
        f"e: {', '.join(_seq_strs(sp.e))}",
        "rook matrix (entry (m,k) = #placements of m-k rooks on first m columns):",
        *_aligned(_matrix_strs(matrix)),
    ]
    code = EXIT_OK
    if cfg.do_gjw:
        ok = gjw_check(board)
        payload["gjw"] = {"ok": ok}
        table.append("factorization identity: " + ("holds" if ok else "FAILS"))
        if not ok:
            code = EXIT_WITNESS
    if cfg.check_tnn:
        minor = is_tnn_exhaustive(matrix, max_order=cfg.max_minor_order)
        payload["tnn"] = {"minor_witness": _witness_json(minor)}
        table.append(
            "minor scan: "
            + ("no negative minor" if minor is None else "negative minor found")
        )
        if minor is not None:
            code = EXIT_WITNESS
    return _render(cfg, payload, table, _matrix_triples(matrix)), code


def _run_eulerian(cfg: RunConfig) -> tuple[str, int]:
    n = cfg.n if cfg.n is not None else 6
    matrix = eulerian_matrix(n)
    checked = 0
    witness = None
    for rows, cols, value in iter_minors(matrix, max_order=cfg.max_minor_order):
        checked += 1
        if value < 0 and witness is None:
            witness = {"rows": list(rows), "cols": list(cols),
                       "value": format_rational(value)}
            break
    payload = {
        "command": "eulerian",
        "n": n,
        "matrix": _matrix_strs(matrix),
        "minors_checked": checked,
        "witness": witness,
    }
    table = [
        f"Eulerian triangle up to n = {n}:",
        *_aligned(_matrix_strs(matrix)),
        f"minors checked: {checked}",
    ]
    if witness is None:
        table.append("no negative minor found")
        return _render(cfg, payload, table, _matrix_triples(matrix)), EXIT_OK
    table.append(
        f"NEGATIVE MINOR: rows {witness['rows']} cols {witness['cols']} "
        f"value {witness['value']}"
    )
    return _render(cfg, payload, table, _matrix_triples(matrix)), EXIT_WITNESS


_RUNNERS = {
    "matrix": _run_matrix,
    "check": _run_check,
    "network": _run_network,
    "chordal": _run_chordal,
    "rook": _run_rook,
    "eulerian": _run_eulerian,
}


def run(cfg: RunConfig) -> tuple[str, int]:
    """Execute a config and return (output text, exit code).  Pure in the
    sense that equal configs yield identical output bytes."""
    if cfg.fmt not in FORMATS:
        raise ValueError(f"unknown format {cfg.fmt!r}; choose from {FORMATS}")
    if cfg.command not in _RUNNERS:
        raise ValueError(f"unknown command {cfg.command!r}")
    return _RUNNERS[cfg.command](cfg)


def _add_pair_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("-a", metavar="SEQ", help="a-sequence, comma separated rationals")
    sub.add_argument("-e", metavar="SEQ", help="e-sequence, comma separated rationals")
    sub.add_argument("--preset", choices=PRESET_NAMES, help="classical instance")
    sub.add_argument("-n", type=int, help="size (required with --preset)")
    sub.add_argument("--file", dest="seq_file", metavar="PATH",
                     help="file with two lines: a-sequence then e-sequence")


def _add_format_option(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=FORMATS, default=None,
                     help=f"output format (default: ${FORMAT_ENV} or table)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gstirling", description=__doc__.split("\n\n")[0])
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("matrix", help="build S^{a,e}")
    _add_pair_options(p)
    p.add_argument("--method", choices=METHODS, default="recurrence")
    p.add_argument("--verify-all", action="store_true",
                   help="build by all four routes and require agreement")
    _add_format_option(p)

    p = subs.add_parser("check", help="decide total non-negativity of S^{a,e}")
    _add_pair_options(p)
    p.add_argument("--exhaustive", action="store_true",
                   help="also scan all minors and require agreement")
    p.add_argument("--exhaustive-only", action="store_true",
                   help="skip the certified decision (allows non-monotone a)")
    p.add_argument("--max-minor-order", type=int, default=None)
    p.add_argument("--provenance", action="store_true",
                   help="annotate certificate weights with index pairs")
    _add_format_option(p)

    p = subs.add_parser("network", help="planar-network arrays and pivoting")
    _add_pair_options(p)
    p.add_argument("--pivot", action="append", default=[], metavar="M,K",
                   help="pivot position, repeatable; refused at nonzero weight")
    p.add_argument("--certify", action="store_true",
                   help="run the full pivot certificate")
    p.add_argument("--provenance", action="store_true",
                   help="annotate weights with their index pairs")
    _add_format_option(p)

    p = subs.add_parser("chordal", help="graph Stirling matrix of (graph, order)")
    p.add_argument("--file", dest="graph_file", metavar="PATH",
                   help="graph file: 'n <count>' header then 'u v' edges")
    p.add_argument("--from-rgs", metavar="SEQ",
                   help="build the canonical graph of an integer "
                        "restricted-growth string")
    p.add_argument("--find-peo", action="store_true",
                   help="search for an elimination order instead of using "
                        "the label order")
    p.add_argument("--check-all", action="store_true",
                   help="minor scan, inverse sign pattern, zero entries")
    p.add_argument("--chromatic", metavar="XS", default=None,
                   help="comma separated x values for the chromatic check")
    p.add_argument("--max-minor-order", type=int, default=None)
    _add_format_option(p)

    p = subs.add_parser("rook", help="rook matrix of a Ferrers board")
    p.add_argument("-b", metavar="HEIGHTS",
                   help="column heights, comma separated, non-decreasing")
    p.add_argument("--file", dest="board_file", metavar="PATH",
                   help="board file: heights comma separated or one per line")
    p.add_argument("--gjw", action="store_true",
                   help="verify the factorization identity")
    p.add_argument("--check-tnn", action="store_true",
                   help="scan all minors of the rook matrix")
    p.add_argument("--max-minor-order", type=int, default=None)
    _add_format_option(p)

    p = subs.add_parser("eulerian",
                        help="scan Eulerian-triangle minors for a negative one")
    p.add_argument("-n", type=int, default=6, help="triangle size (default 6)")
    p.add_argument("--max-minor-order", type=int, default=None)
    _add_format_option(p)

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    fmt = args.format
    if fmt is None:
        fmt = os.environ.get(FORMAT_ENV) or "table"
    kwargs = {"command": args.command, "fmt": fmt}
    if args.command in ("matrix", "check", "network"):
        kwargs.update(
            a=_parse_seq(args.a, "-a") if args.a is not None else None,
            e=_parse_seq(args.e, "-e") if args.e is not None else None,
            preset_name=args.preset,
            n=args.n,
            seq_file=args.seq_file,
        )
    if args.command == "matrix":
        kwargs.update(method=args.method, verify_all=args.verify_all)
    if args.command == "check":
        kwargs.update(
            exhaustive=args.exhaustive,
            exhaustive_only=args.exhaustive_only,
            max_minor_order=args.max_minor_order,
            provenance=args.provenance,
        )
    if args.command == "network":
        pivots = []
        for item in args.pivot:
            pair = _parse_ints(item, "--pivot")
            if len(pair) != 2:
                raise ValueError(f"--pivot: expected M,K, got {item!r}")
            pivots.append((pair[0], pair[1]))
        kwargs.update(
            pivots=tuple(pivots),
            do_certify=args.certify,
            provenance=args.provenance,
        )
    if args.command == "chordal":
        kwargs.update(
            graph_file=args.graph_file,
            from_rgs=(
                _parse_ints(args.from_rgs, "--from-rgs")
                if args.from_rgs is not None
                else None
            ),
            do_find_peo=args.find_peo,
            check_all=args.check_all,
            chromatic_xs=(
                _parse_ints(args.chromatic, "--chromatic")
                if args.chromatic is not None
                else ()
            ),
            max_minor_order=args.max_minor_order,
        )
    if args.command == "rook":
        kwargs.update(
            heights=(
                _parse_ints(args.b, "-b") if args.b is not None else None
            ),
            board_file=args.board_file,
            do_gjw=args.gjw,
            check_tnn=args.check_tnn,
            max_minor_order=args.max_minor_order,
        )
    if args.command == "eulerian":
        kwargs.update(n=args.n, max_minor_order=args.max_minor_order)
    return RunConfig(**kwargs)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
        out, code = run(cfg)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
