"""Golden corpus: exact stdout, exit code and stderr of fixed CLI invocations.

Every subcommand runs in every format on small committed inputs, together
with each exit-1 path.  The expected bytes live in ``tests/golden/expected``:
``<name>.out`` holds stdout and ``cases.json`` the exit code and stderr of
each case, with a file under ``inputs`` named ``@name`` as in argv (``null``
where stderr comes from argparse or the operating system).
Regenerate them from the current code with

    PYTHONPATH=src python tests/test_golden.py

and review the diff: any change there is a change in observable output.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

from gstirling.cli import main

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"
EXPECTED = GOLDEN / "expected"
FORMATS = ("table", "json", "csv")


def _case(name, *argv, env=None, pin_stderr=True):
    return {"name": name, "argv": list(argv), "env": env or {}, "pin_stderr": pin_stderr}


def _each_format(name, *argv):
    return [_case(f"{name}_{fmt}", *argv, "--format", fmt) for fmt in FORMATS]


GROWTH = ("-a", "0,1,1,2,3", "-e", "0,1,0,1,2")
BROKEN = ("-a", "0,1,2,3", "-e", "0,1,3,0")  # e_3 = 3 exceeds the cap a_3 = 2
SMALL = ("-a", "0,1,2", "-e", "0,1,1")
RGS = ("--from-rgs", "0,1,0,2,1,3")

CASES = [
    # matrix
    *_each_format("matrix_preset", "matrix", "--preset", "stirling2", "-n", "5"),
    *_each_format("matrix_explicit", "matrix", "-a", "1/2,-1,3", "-e", "0,1/3,2",
                  "--method", "explicit"),
    *_each_format("matrix_verify_all", "matrix", "-a", "0,1/2,1,2", "-e", "0,1/2,-1,3/2",
                  "--verify-all"),
    _case("matrix_symmetric", "matrix", "--preset", "lah", "-n", "4", "--method", "symmetric"),
    _case("matrix_network", "matrix", "--preset", "stirling1", "-n", "4",
          "--method", "network", "--format", "json"),
    _case("matrix_recurrence_csv", "matrix", "--preset", "binomial", "-n", "3",
          "--method", "recurrence", "--format", "csv"),
    _case("matrix_file", "matrix", "--file", "@pair.txt", "-n", "4"),
    # power-of-ten denominators print as decimals, others as p/q
    *_each_format("matrix_decimal", "matrix", "-a", "0.1,0.3", "-e", "0,-0.7"),
    # check
    *_each_format("check_tnn", "check", *SMALL),
    *_each_format("check_provenance", "check", *GROWTH, "--provenance"),
    *_each_format("check_not_tnn", "check", *BROKEN),
    *_each_format("check_exhaustive_tnn", "check", "--preset", "stirling2", "-n", "5",
                  "--exhaustive"),
    *_each_format("check_exhaustive_not_tnn", "check", *BROKEN, "--exhaustive"),
    _case("check_exhaustive_max_order", "check", *BROKEN, "--exhaustive",
          "--max-minor-order", "2"),
    *_each_format("check_scan_only_tnn", "check", "-a", "3,1,2", "-e", "0,0,1/2",
                  "--exhaustive-only"),
    *_each_format("check_scan_only_not_tnn", "check", "-a", "2,0,1,3", "-e", "0,1,0,4",
                  "--exhaustive-only"),
    *_each_format("check_scan_only_monotone_tnn", "check", *SMALL, "--exhaustive-only"),
    *_each_format("check_scan_only_monotone_not_tnn", "check", "-a", "0,1,2", "-e", "0,2,1",
                  "--exhaustive-only"),
    *_each_format("check_scan_only_truncated", "check", "-a", "0,2,0", "-e", "0,1,-1",
                  "--exhaustive-only", "--max-minor-order", "1"),
    _case("check_file", "check", "--file", "@pair.txt"),
    # network
    *_each_format("network_initial", "network", *SMALL),
    *_each_format("network_provenance", "network", *SMALL, "--provenance"),
    *_each_format("network_pivots", "network", *SMALL, "--pivot", "1,1", "--pivot", "2,2"),
    _case("network_pivots_any_zero", "network", *SMALL, "--pivot", "1,1", "--pivot", "2,1",
          "--format", "json"),
    _case("network_pivots_provenance", "network", *SMALL, "--pivot", "1,1",
          "--pivot", "2,2", "--provenance"),
    *_each_format("network_certify", "network", *GROWTH, "--certify"),
    _case("network_certify_decimal", "network", "-a", "0.1,0.3", "-e", "0,-0.7",
          "--certify"),
    *_each_format("network_certify_negative", "network", *BROKEN, "--certify",
                  "--provenance"),
    # chordal
    *_each_format("chordal_rgs", "chordal", *RGS),
    *_each_format("chordal_check_all", "chordal", *RGS, "--check-all"),
    *_each_format("chordal_chromatic", "chordal", "--from-rgs", "0,1,1,2",
                  "--chromatic", "1,2,3,4"),
    _case("chordal_all_checks_max_order", "chordal", *RGS, "--check-all",
          "--chromatic", "2,3", "--max-minor-order", "2"),
    *_each_format("chordal_file", "chordal", "--file", "@graph_chordal.txt", "--check-all"),
    *_each_format("chordal_find_peo", "chordal", "--file", "@graph_not_peo.txt",
                  "--find-peo", "--check-all"),
    *_each_format("chordal_not_chordal", "chordal", "--file", "@graph_cycle.txt",
                  "--find-peo"),
    *_each_format("chordal_not_peo", "chordal", "--file", "@graph_not_peo.txt"),
    # rook
    *_each_format("rook", "rook", "-b", "1,2,2,3"),
    *_each_format("rook_checks", "rook", "-b", "1,2,2,3", "--gjw", "--check-tnn"),
    _case("rook_file", "rook", "--file", "@board.txt", "--gjw"),
    _case("rook_max_order", "rook", "-b", "0,1,3", "--check-tnn", "--max-minor-order", "2",
          "--format", "json"),
    # eulerian
    *_each_format("eulerian", "eulerian", "-n", "5"),
    _case("eulerian_default", "eulerian"),
    _case("eulerian_max_order", "eulerian", "-n", "7", "--max-minor-order", "2",
          "--format", "json"),
    # format selection
    _case("env_format_json", "matrix", "--preset", "lah", "-n", "2",
          env={"GSTIRLING_FORMAT": "json"}),
    _case("env_format_overridden", "matrix", "--preset", "lah", "-n", "2",
          "--format", "table", env={"GSTIRLING_FORMAT": "csv"}),
    _case("env_format_empty", "matrix", "--preset", "lah", "-n", "2",
          env={"GSTIRLING_FORMAT": ""}),
    # exit 1
    _case("err_env_format", "matrix", "--preset", "lah", "-n", "2",
          env={"GSTIRLING_FORMAT": "xml"}),
    _case("err_bad_rational_a", "matrix", "-a", "0,x", "-e", "0,1"),
    _case("err_bad_rational_e", "check", "-a", "0,1", "-e", "0,1/0"),
    _case("err_conflicting_sources", "matrix", "-a", "0,1", "-e", "0,1",
          "--preset", "stirling2", "-n", "2"),
    _case("err_no_source", "network"),
    _case("err_a_without_e", "matrix", "-a", "0,1"),
    _case("err_preset_without_n", "check", "--preset", "lah"),
    _case("err_size_disagrees", "matrix", "-a", "0,1", "-e", "0,1", "-n", "3"),
    _case("err_missing_file", "matrix", "--file", "@missing.txt", pin_stderr=False),
    _case("err_pair_file_shape", "check", "--file", "@pair_one_line.txt", pin_stderr=False),
    _case("err_usage", "matrix", "--method", "nonsense", pin_stderr=False),
    _case("err_check_not_monotone", "check", "-a", "1,0", "-e", "0,0"),
    *_each_format("err_minor_budget_check", "check", "--preset", "stirling2", "-n", "14",
                  "--exhaustive"),
    _case("err_max_minor_order_zero", "rook", "-b", "1,2", "--max-minor-order", "0"),
    _case("err_max_minor_order_eulerian", "eulerian", "-n", "3", "--max-minor-order", "0"),
    _case("err_pivot_shape", "network", *SMALL, "--pivot", "1"),
    _case("err_pivot_not_int", "network", *SMALL, "--pivot", "1,x"),
    _case("err_pivot_nonzero", "network", *SMALL, "--pivot", "2,1"),
    _case("err_pivot_outside_below", "network", "-a", "0,1", "-e", "0,1", "--pivot", "5,1"),
    _case("err_pivot_outside_origin", "network", "-a", "0", "-e", "0", "--pivot", "0,0"),
    _case("err_certify_not_monotone", "network", "-a", "1,0", "-e", "0,0", "--certify"),
    _case("err_chordal_two_sources", "chordal", "--file", "@graph_chordal.txt", *RGS),
    _case("err_chordal_no_source", "chordal"),
    _case("err_chordal_rgs_not_int", "chordal", "--from-rgs", "0,a"),
    _case("err_chordal_not_rgs", "chordal", "--from-rgs", "1,0"),
    _case("err_chordal_chromatic_not_int", "chordal", *RGS, "--chromatic", "1,y"),
    _case("err_chordal_bad_header", "chordal", "--file", "@graph_bad_header.txt"),
    _case("err_chordal_bad_edge", "chordal", "--file", "@graph_bad_edge.txt"),
    _case("err_chordal_negative_count", "chordal", "--file", "@graph_negative_count.txt"),
    _case("err_chordal_missing_file", "chordal", "--file", "@missing.txt", pin_stderr=False),
    _case("err_rook_two_sources", "rook", "-b", "1,2", "--file", "@board.txt"),
    _case("err_rook_not_int", "rook", "-b", "1,z"),
    _case("err_rook_decreasing", "rook", "-b", "3,1"),
    _case("err_rook_gjw_wide", "rook", "-b", "1,2,3,4,5,6,7,8,9,10,11", "--gjw"),
    *_each_format("err_minor_budget_eulerian", "eulerian", "-n", "12"),
    _case("err_minor_budget_eulerian_large", "eulerian", "-n", "1500"),
    _case("err_minor_budget_eulerian_huge", "eulerian", "-n", "100000000000000000000"),
    _case("err_oversized_entry", "matrix", "-a", "0,1e999999", "-e", "0,0"),
    _case("err_oversized_pair_file", "matrix", "--file", "@pair_oversized.txt"),
    _case("err_render_matrix_overflow", "matrix", "-a", "1e3000,1e3000", "-e", "0,0"),
    _case("err_render_weight_overflow", "network", "-a", "5e4299", "-e=-5e4299"),
    _case("err_chordal_header_not_int", "chordal", "--file", "@graph_header_not_int.txt"),
    _case("err_chordal_not_utf8", "chordal", "--file", "@not_utf8.txt"),
    _case("err_pair_file_not_utf8", "matrix", "--file", "@not_utf8.txt"),
    _case("err_rook_file_not_int", "rook", "--file", "@board_not_int.txt"),
]


def run_case(case) -> tuple[int, str, str]:
    """Run one case in process; '@name' in argv is a file under inputs/,
    and stderr names it '@name' too."""
    argv = [str(INPUTS / a[1:]) if a.startswith("@") else a for a in case["argv"]]
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        os.environ.pop("GSTIRLING_FORMAT", None)
        os.environ.update(case["env"])
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    return code, out.getvalue(), err.getvalue().replace(f"{INPUTS}{os.sep}", "@")


def _expected() -> dict:
    return json.loads((EXPECTED / "cases.json").read_text(encoding="utf-8"))


def test_corpus_names_every_case():
    names = [case["name"] for case in CASES]
    assert len(set(names)) == len(names)
    assert sorted(_expected()) == sorted(names)
    assert sorted(p.stem for p in EXPECTED.glob("*.out")) == sorted(names)


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_golden(case):
    want = _expected()[case["name"]]
    code, out, err = run_case(case)
    assert out == (EXPECTED / f"{case['name']}.out").read_text(encoding="utf-8")
    assert code == want["exit"]
    if want["stderr"] is not None:
        assert err == want["stderr"]


def regenerate() -> None:
    for old in EXPECTED.glob("*.out"):
        old.unlink()
    meta = {}
    for case in CASES:
        code, out, err = run_case(case)
        (EXPECTED / f"{case['name']}.out").write_text(out, encoding="utf-8")
        meta[case["name"]] = {"exit": code, "stderr": err if case["pin_stderr"] else None}
    (EXPECTED / "cases.json").write_text(json.dumps(meta, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(meta)} cases to {EXPECTED}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
