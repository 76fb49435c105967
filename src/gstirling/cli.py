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
import functools
import os
import sys
from fractions import Fraction
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as _esc
from typing import NamedTuple, Optional, Sequence

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
from .core import SequencePair, digit_limit, format_matrix, format_rational, parse_rational
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
from .tnn import MinorWitness, check_scan_budget, decide_tnn, is_tnn_exhaustive, iter_minors

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_WITNESS = 2

FORMATS = ("table", "json", "csv")
METHODS = ("recurrence", "explicit", "symmetric", "network")
FORMAT_ENV = "GSTIRLING_FORMAT"
_ITEM_TEXT = {frozenset({str}): _esc, frozenset({int}): int.__repr__}


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors by default, which collides with the
    witness exit code; route usage errors to 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _rational(tok: str, where: str) -> Fraction:
    """parse_rational, with errors naming the entry: where is the flag or
    path and the entry index."""
    try:
        return parse_rational(tok)
    except ValueError:
        raise ValueError(f"{where} ({tok!r}) is not a rational") from None
    except OverflowError:
        raise ValueError(
            f"{where} has more than {digit_limit()} digits, the most that "
            "renders as text"
        ) from None


def _parse_seq(text: str, flag: str) -> tuple[Fraction, ...]:
    return tuple(_rational(tok.strip(), f"{flag}: entry {idx}")
                 for idx, tok in enumerate(text.split(","), start=1))


def _parse_ints(text: str, flag: str) -> tuple[int, ...]:
    out = []
    for idx, tok in enumerate(text.split(","), start=1):
        try:
            out.append(int(tok.strip()))
        except ValueError:
            raise ValueError(f"{flag}: entry {idx} ({tok.strip()!r}) is not an integer")
    return tuple(out)


def _read_text(path: str) -> str:
    """The file as UTF-8 text with universal newlines; a byte that is not
    UTF-8 is reported with the path and its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = _newlines(data[:exc.start].decode("utf-8")).count("\n") + 1
        raise ValueError(
            f"{path}: line {line}: byte 0x{data[exc.start]:02x} is not valid UTF-8"
        ) from None
    return _newlines(text)


def _newlines(text: str) -> str:
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _read_pair_file(path: str) -> SequencePair:
    """Two content lines: the a-sequence then the e-sequence, entries comma
    or space separated; '#' starts a comment."""
    lines = []
    for lineno, raw in enumerate(_read_text(path).split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append((lineno, line))
    if len(lines) != 2:
        raise ValueError(f"{path}: expected two content lines (a then e), got {len(lines)}")
    vals = [
        tuple(_rational(tok, f"{path}: line {lineno}: entry {idx}")
              for idx, tok in enumerate(line.replace(",", " ").split(), start=1))
        for lineno, line in lines
    ]
    return SequencePair(vals[0], vals[1])


def _resolve_pair(args: argparse.Namespace) -> SequencePair:
    a = None if args.a is None else _parse_seq(args.a, "-a")
    e = None if args.e is None else _parse_seq(args.e, "-e")
    inline = a is not None or e is not None
    sources = sum(map(bool, (inline, args.preset is not None, args.seq_file is not None)))
    if sources != 1:
        raise ValueError("provide exactly one of: -a with -e, --preset with -n, --file")
    if args.preset is not None:
        if args.n is None:
            raise ValueError("--preset requires -n")
        return preset(args.preset, args.n)
    if args.seq_file is not None:
        sp = _read_pair_file(args.seq_file)
    else:
        if a is None or e is None:
            raise ValueError("-a and -e must be given together")
        sp = SequencePair(a, e)
    if args.n is not None and args.n != sp.n:
        raise ValueError(f"-n {args.n} disagrees with sequence length {sp.n}")
    return sp


def _resolve_graph(args: argparse.Namespace) -> Graph:
    rgs = None if args.from_rgs is None else _parse_ints(args.from_rgs, "--from-rgs")
    sources = sum(map(bool, (args.graph_file is not None, rgs is not None)))
    if sources != 1:
        raise ValueError("provide exactly one of: --file, --from-rgs")
    if rgs is not None:
        return graph_from_rgs(rgs)
    return parse_graph(_read_text(args.graph_file), source=args.graph_file)


def _resolve_board(args: argparse.Namespace) -> FerrersBoard:
    heights = None if args.b is None else _parse_ints(args.b, "-b")
    sources = sum(map(bool, (heights is not None, args.board_file is not None)))
    if sources != 1:
        raise ValueError("provide exactly one of: -b, --file")
    if heights is not None:
        return FerrersBoard(heights)
    return parse_board(_read_text(args.board_file), source=args.board_file)


# ---------------------------------------------------------------- rendering

def _pair_fields(sp: SequencePair) -> tuple[dict, list[str]]:
    """The a and e sequences as JSON fields and as table lines; the parser
    bounds their digits, so they always render."""
    a = [format_rational(v) for v in sp.a]
    e = [format_rational(v) for v in sp.e]
    return {"a": a, "e": e}, [f"a: {', '.join(a)}", f"e: {', '.join(e)}"]


class _Block(NamedTuple):
    """A matrix or weight array in a table; _emit aligns it (_array_lines)
    only for table output.  With provenance, wa labels each weight."""

    grid: Sequence[Sequence[str]]
    wa: Optional[WeightArray] = None
    provenance: bool = False


def _aligned(rows: Sequence[Sequence[str]], indent: str = "  ") -> list[str]:
    width = max(map(len, chain.from_iterable(rows)), default=1)
    return [indent + " ".join(map(str.rjust, row, repeat(width, len(row)))) for row in rows]


def _array_lines(grid: Sequence[Sequence[str]], wa: Optional[WeightArray],
                 provenance: bool) -> list[str]:
    if not provenance:
        return _aligned(grid)
    return _aligned([
        [f"a{f}-e{g}={v}" for v, (f, g) in zip(row, prow)]
        for row, prow in zip(grid, wa.provenance)
    ])


def _pivot_list(pivots) -> str:
    return " ".join(f"[{m},{k}]" for m, k in pivots) or "(none)"


def _witness_json(w) -> Optional[dict]:
    """A minor witness: row and column index sets and the value."""
    if w is None:
        return None
    return {"rows": list(w.rows), "cols": list(w.cols),
            "value": format_rational(w.value)}


def _entry_json(w) -> Optional[dict]:
    """An entry witness: its position and the value."""
    if w is None:
        return None
    return {"row": w.row, "col": w.col, "value": format_rational(w.value)}


def _dumps(obj, indent: str = "") -> str:
    """json.dumps(obj, indent=2), byte for byte, for dicts with str keys,
    lists, str, int, bool and None; any other type or key raises TypeError.
    _esc escapes in C; a list of all str or all int (not bool), or of such
    nonempty lists, is written with no call per item (_ITEM_TEXT)."""
    if isinstance(obj, str):
        return _esc(obj)
    if obj is None or isinstance(obj, bool):
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = indent + "  "
    if isinstance(obj, dict):
        items = [f"{_esc(k)}: {_dumps(v, inner)}" for k, v in obj.items()]
    elif isinstance(obj, list):
        kinds = frozenset(map(type, obj))
        if text := _ITEM_TEXT.get(kinds):
            items = list(map(text, obj))
        elif kinds == {list} and all(obj) and (
                text := _ITEM_TEXT.get(frozenset(map(type, chain.from_iterable(obj))))):
            sep = f",\n{inner}  "
            items = [f"[\n{inner}  {sep.join(map(text, row))}\n{inner}]" for row in obj]
        else:
            items = [_dumps(x, inner) for x in obj]
    else:
        raise TypeError(f"not JSON output: {type(obj).__name__} {obj!r:.40}")
    brackets = "{}" if isinstance(obj, dict) else "[]"
    return (f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items)
            + f"\n{indent}{brackets[1]}") if items else brackets


def _emit(args: argparse.Namespace, payload: dict, table: list,
          grid: Sequence[Sequence[str]] = (), base: int = 0) -> str:
    """The one path from a result to output bytes; json is written by
    _dumps.  ``grid`` holds the formatted matrix (or weight array) that csv
    lists as (m, k, value) triples, with indices counted from ``base``.
    ``table`` holds lines and _Blocks; a block is aligned here, and only
    for table output."""
    if args.format == "json":
        return _dumps(payload) + "\n"
    if args.format == "csv":
        lines = ["m,k,value"]
        lines += [f"{m},{k},{v}" for m, row in enumerate(grid, base)
                  for k, v in enumerate(row, base)]
        return "\n".join(lines) + "\n"
    lines = [line for item in table
             for line in (_array_lines(*item) if isinstance(item, _Block) else (item,))]
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------- commands

def _run_matrix(args: argparse.Namespace) -> tuple[str, int]:
    sp = _resolve_pair(args)
    builders = {
        "recurrence": stirling_recurrence,
        "explicit": stirling_explicit,
        "symmetric": stirling_symmetric,
        "network": lambda p: path_matrix(build_initial(p)),
    }
    matrix = builders[args.method](sp)
    verified = None
    if args.verify_all:
        results = {name: fn(sp) for name, fn in builders.items()}
        if any(m != matrix for m in results.values()):
            raise RuntimeError(
                "internal inconsistency: construction routes disagree"
            )
        verified = list(builders)
    fields, header = _pair_fields(sp)
    grid = format_matrix(matrix)
    payload = {"command": "matrix", "n": sp.n, **fields, "method": args.method,
               "verified": verified, "matrix": grid}
    table = [*header, f"S matrix ({args.method}):", _Block(grid)]
    if verified:
        table.append("routes agree: " + ", ".join(verified))
    return _emit(args, payload, table, grid), EXIT_OK


def _certificate(trace, provenance: bool) -> tuple[dict, list]:
    """A pivot certificate as its JSON block and its table lines."""
    grid = trace.final.render()
    block = {"pivots": [list(p) for p in trace.pivots], "final": grid,
             "all_nonnegative": trace.all_nonnegative}
    state = ("all weights non-negative" if trace.all_nonnegative
             else "negative weight exposed")
    lines = ["certificate pivots: " + _pivot_list(trace.pivots),
             f"final array ({state}):", _Block(grid, trace.final, provenance)]
    return block, lines


def _run_check(args: argparse.Namespace) -> tuple[str, int]:
    sp = _resolve_pair(args)
    fields, header = _pair_fields(sp)
    if not (sp.a_nondecreasing or args.exhaustive_only):
        raise ValueError(
            "a is not non-decreasing, so the certified decision does not "
            "apply; pass --exhaustive-only to scan minors directly"
        )
    if args.exhaustive_only:
        matrix = stirling_recurrence(sp)
        order = args.max_minor_order
        minor = _witness_json(is_tnn_exhaustive(matrix, max_order=order))
        truncated = minor is None and order is not None and order <= sp.n
        is_tnn = None if truncated else minor is None
        payload = {"command": "check", "mode": "exhaustive-only", "n": sp.n, **fields,
                   "is_tnn": is_tnn, "minor_witness": minor}
        mode = "" if sp.a_nondecreasing else " (a not non-decreasing)"
        verdict = (f"no negative minor up to order {order}; TNN not decided"
                   if truncated else "TNN" if is_tnn else "NOT TNN")
        table = [*header, f"mode: exhaustive-only{mode}", f"verdict: {verdict}"]
        if minor is not None:
            table.append(f"negative minor: rows {minor['rows']} cols {minor['cols']} "
                         f"value {minor['value']}")
        grid = format_matrix(matrix) if args.format == "csv" else ()
        return _emit(args, payload, table, grid), EXIT_WITNESS if minor else EXIT_OK

    verdict = decide_tnn(sp)
    # only the scan and the csv triples read the matrix itself
    matrix = stirling_recurrence(sp) if args.exhaustive or args.format == "csv" else None
    exhaustive_block = None
    if args.exhaustive:
        minor = is_tnn_exhaustive(matrix, max_order=args.max_minor_order)
        if (minor is None) != verdict.is_tnn:
            raise RuntimeError(
                "internal inconsistency: exhaustive minor scan disagrees "
                "with the certified decision"
            )
        exhaustive_block = {"agrees": True, "minor_witness": _witness_json(minor)}
    violation = verdict.rgs.violation
    witness = _entry_json(verdict.witness)
    payload = {
        "command": "check", "mode": "certified", "n": sp.n, **fields,
        "is_tnn": verdict.is_tnn,
        "cap_indices": list(verdict.rgs.cap_indices),
        "violation": (None if violation is None
                      else {"index": violation.index, "level": violation.level}),
        "certificate": None,
        "entry_witness": witness,
        "exhaustive": exhaustive_block,
    }
    table = [
        *header,
        f"caps: {' '.join(str(c) for c in verdict.rgs.cap_indices)}",
        f"verdict: {'TNN' if verdict.is_tnn else 'NOT TNN'}",
    ]
    if verdict.certificate is not None:
        payload["certificate"], lines = _certificate(verdict.certificate, args.provenance)
        table += lines
    if violation is not None:
        table.append(
            f"violation: e_{violation.index} exceeds the level-{violation.level} cap "
            f"a_{violation.level} = {fields['a'][violation.level - 1]}"
        )
    if witness is not None:
        table.append(
            f"entry witness: S({witness['row']},{witness['col']}) = {witness['value']} < 0"
        )
    if exhaustive_block is not None:
        table.append("exhaustive minor scan agrees")
    grid = format_matrix(matrix) if args.format == "csv" else ()
    return _emit(args, payload, table, grid), EXIT_OK if verdict.is_tnn else EXIT_WITNESS


def _run_network(args: argparse.Namespace) -> tuple[str, int]:
    pivots = []
    for item in args.pivot:
        pair = _parse_ints(item, "--pivot")
        if len(pair) != 2:
            raise ValueError(f"--pivot: expected M,K, got {item!r}")
        pivots.append(pair)
    sp = _resolve_pair(args)
    initial = wa = build_initial(sp)
    applied: list[list[int]] = []
    for m, k in pivots:
        try:
            w = wa.weight(m, k)
        except IndexError as exc:
            raise ValueError(f"--pivot: {exc} in size {sp.n}") from None
        if w != 0:
            raise ValueError(
                f"refusing to pivot at [{m},{k}]: weight is "
                f"{format_rational(w)}, not 0, so the path matrix would not "
                "be preserved"
            )
        wa = pivot(wa, m, k)
        applied.append([m, k])
    trace = certify(sp) if args.certify else None
    fields, header = _pair_fields(sp)
    initial_grid = initial.render()
    grid = wa.render() if applied else initial_grid
    payload = {"command": "network", "n": sp.n, **fields, "initial": initial_grid,
               "applied_pivots": applied, "result": grid if applied else None,
               "certificate": None}
    table = [*header, "initial array:", _Block(initial_grid, initial, args.provenance)]
    if applied:
        table += [f"after pivots {_pivot_list(applied)}:", _Block(grid, wa, args.provenance)]
    code = EXIT_OK
    if trace is not None:
        payload["certificate"], lines = _certificate(trace, args.provenance)
        table += lines
        if not trace.all_nonnegative:
            code = EXIT_WITNESS
    if args.provenance and args.format == "json":
        payload["provenance"] = [[list(pair) for pair in row] for row in wa.provenance]
    return _emit(args, payload, table, grid, base=1), code


def _run_chordal(args: argparse.Namespace) -> tuple[str, int]:
    xs = () if args.chromatic is None else _parse_ints(args.chromatic, "--chromatic")
    g = _resolve_graph(args)
    payload = {"command": "chordal", "n": g.n, "order": list(range(1, g.n + 1)),
               "found_order": None, "peo": None, "matrix": None, "checks": None}
    table = [f"vertices: {g.n}"]
    if args.find_peo:
        found = find_peo(g)
        if found is None:
            table.append("no perfect elimination order exists (graph is not chordal)")
            return _emit(args, payload, table), EXIT_WITNESS
        found_order, g, report = found
        payload["found_order"] = list(found_order)
        table.append("elimination order found: " + " ".join(map(str, found_order)))
    else:
        report = verify_peo(g)
    failure = report.failure
    payload["peo"] = {
        "is_peo": report.is_peo,
        "e_sequence": list(report.e_sequence),
        "failure": (None if failure is None
                    else {"index": failure.index, "pair": list(failure.pair)}),
    }
    table.append(f"e-sequence: {' '.join(map(str, report.e_sequence))}")
    if not report.is_peo:
        table.append(
            f"not a perfect elimination order: earlier neighbors "
            f"{failure.pair[0]} and {failure.pair[1]} of vertex {failure.index} "
            "are not adjacent"
        )
        return _emit(args, payload, table), EXIT_WITNESS
    matrix = peo_stirling_matrix(report)
    grid = format_matrix(matrix)
    payload["matrix"] = grid
    table += ["order verified: perfect elimination order", "graph Stirling matrix:",
              _Block(grid)]
    code = EXIT_OK
    if args.check_all or xs:
        checks: dict = {}
        if args.check_all:
            rep = matrix_checks(report, matrix, max_order=args.max_minor_order)
            checks["tnn_witness"] = _witness_json(rep.tnn_witness)
            checks["sign_violation"] = _entry_json(rep.sign_violation)
            checks["zero_inverse_entries"] = [list(p) for p in rep.zero_inverse_entries]
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
            if not rep.ok:
                code = EXIT_WITNESS
        if xs:
            results = [{"x": x, "ok": ok} for x, ok in zip(xs, chromatic_check(g, xs))]
            if not all(r["ok"] for r in results):
                code = EXIT_WITNESS
            checks["chromatic"] = results
            table.append(
                "chromatic check: "
                + " ".join(f"x={r['x']}:{'ok' if r['ok'] else 'FAIL'}"
                           for r in results)
            )
        payload["checks"] = checks
    return _emit(args, payload, table, grid), code


def _run_rook(args: argparse.Namespace) -> tuple[str, int]:
    board = _resolve_board(args)
    matrix = rook_matrix(board)
    fields, header = _pair_fields(board_pair(board))
    grid = format_matrix(matrix)
    payload = {"command": "rook", "heights": list(board.heights), **fields,
               "matrix": grid, "gjw": None, "tnn": None}
    table = [
        f"heights: {', '.join(map(str, board.heights))}",
        *header,
        "rook matrix (entry (m,k) = #placements of m-k rooks on first m columns):",
        _Block(grid),
    ]
    code = EXIT_OK
    if args.gjw:
        ok = gjw_check(board)
        payload["gjw"] = {"ok": ok}
        table.append("factorization identity: " + ("holds" if ok else "FAILS"))
        if not ok:
            code = EXIT_WITNESS
    if args.check_tnn:
        minor = is_tnn_exhaustive(matrix, max_order=args.max_minor_order)
        payload["tnn"] = {"minor_witness": _witness_json(minor)}
        table.append(
            "minor scan: "
            + ("no negative minor" if minor is None else "negative minor found")
        )
        if minor is not None:
            code = EXIT_WITNESS
    return _emit(args, payload, table, grid), code


def _run_eulerian(args: argparse.Namespace) -> tuple[str, int]:
    if args.n >= 0:  # a negative n is eulerian_matrix's error
        check_scan_budget(args.n + 1, args.max_minor_order)
    matrix = eulerian_matrix(args.n)
    checked = 0
    witness = None
    for rows, cols, value in iter_minors(matrix, max_order=args.max_minor_order):
        checked += 1
        if value < 0:
            witness = _witness_json(MinorWitness(rows, cols, Fraction(value)))
            break
    grid = format_matrix(matrix)
    payload = {"command": "eulerian", "n": args.n, "matrix": grid,
               "minors_checked": checked, "witness": witness}
    table = [f"Eulerian triangle up to n = {args.n}:", _Block(grid),
             f"minors checked: {checked}"]
    if witness is None:
        table.append("no negative minor found")
        return _emit(args, payload, table, grid), EXIT_OK
    table.append(
        f"NEGATIVE MINOR: rows {witness['rows']} cols {witness['cols']} "
        f"value {witness['value']}"
    )
    return _emit(args, payload, table, grid), EXIT_WITNESS


_RUNNERS = {
    "matrix": _run_matrix,
    "check": _run_check,
    "network": _run_network,
    "chordal": _run_chordal,
    "rook": _run_rook,
    "eulerian": _run_eulerian,
}


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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), built on the first call and kept for the process."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if args.format is None:
        args.format = os.environ.get(FORMAT_ENV) or "table"
    try:
        if args.format not in FORMATS:
            raise ValueError(f"unknown format {args.format!r}; choose from {FORMATS}")
        order = getattr(args, "max_minor_order", None)
        if order is not None and order < 1:
            raise ValueError(f"--max-minor-order must be at least 1, got {order}")
        out, code = _RUNNERS[args.command](args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError:
        print(f"error: out of memory in {args.command}", file=sys.stderr)
        return EXIT_ERROR
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
