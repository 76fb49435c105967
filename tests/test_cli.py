import io
import json
import shlex
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gstirling.chordal
import gstirling.cli
import gstirling.tnn
from gstirling.cli import main
from gstirling.core import TriMatrix, format_rational, parse_rational
from gstirling.stirling import PRESET_NAMES, sequence_pair, stirling_recurrence
from gstirling.tnn import is_tnn_exhaustive

SCHEMA = json.loads(
    (Path(__file__).parent.parent / "docs" / "cli-output.schema.json").read_text()
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert err == ""
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    return code, payload


class TestExitCodes:
    def test_matrix_ok(self, capsys):
        code, out, err = run_cli(capsys, "matrix", "--preset", "stirling2", "-n", "4")
        assert code == 0
        assert "S matrix" in out and err == ""

    def test_check_witness(self, capsys):
        code, out, _ = run_cli(capsys, "check", "-a", "0,1", "-e", "0,2")
        assert code == 2
        assert "NOT TNN" in out

    def test_check_passes(self, capsys):
        code, out, _ = run_cli(capsys, "check", "-a", "0,1,2", "-e", "0,1,1")
        assert code == 0
        assert "verdict: TNN" in out

    def test_usage_error_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["matrix", "--method", "nonsense"])
        assert exc.value.code == 1

    def test_out_of_memory_exits_one_without_traceback(self):
        # a fresh interpreter, so that an escaping MemoryError would print
        # its traceback to the stderr captured here
        script = (
            "import sys, gstirling.cli as cli\n"
            "def exhausted(args):\n"
            "    raise MemoryError\n"
            "cli._RUNNERS['eulerian'] = exhausted\n"
            "sys.exit(cli.main(['eulerian', '-n', '3']))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "error: out of memory in eulerian\n"

    def test_missing_command_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_bad_rational(self, capsys):
        code, _, err = run_cli(capsys, "matrix", "-a", "0,zebra", "-e", "1,2")
        assert code == 1
        assert err.startswith("error:") and "entry 2" in err

    def test_conflicting_sources(self, capsys):
        code, _, err = run_cli(
            capsys, "matrix", "-a", "0", "-e", "1", "--preset", "lah", "-n", "1"
        )
        assert code == 1
        assert "exactly one" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "matrix", "--file", "/no/such/file")
        assert code == 1
        assert err.startswith("error:")

    def test_check_needs_monotone_a(self, capsys):
        code, _, err = run_cli(capsys, "check", "-a", "1,0", "-e", "0,0")
        assert code == 1
        assert "exhaustive-only" in err

    def test_exhaustive_only_allows_any_a(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "-a", "1,0", "-e", "0,0", "--exhaustive-only"
        )
        assert code == 0
        code, out, _ = run_cli(
            capsys, "check", "-a", "1,0", "-e", "0,5", "--exhaustive-only"
        )
        assert code == 2
        assert "negative minor" in out

    def test_pivot_refused_at_nonzero_weight(self, capsys):
        code, _, err = run_cli(
            capsys, "network", "-a", "0,1", "-e", "5,7", "--pivot", "1,1"
        )
        assert code == 1
        assert "refusing to pivot" in err

    def test_certify_failure_is_witness(self, capsys):
        code, out, _ = run_cli(
            capsys, "network", "-a", "0,1", "-e", "0,2", "--certify"
        )
        assert code == 2
        assert "negative weight exposed" in out

    def test_chordal_bad_rgs(self, capsys):
        code, _, err = run_cli(capsys, "chordal", "--from-rgs", "1,0")
        assert code == 1

    def test_chordal_non_chordal_graph(self, capsys, tmp_path):
        path = tmp_path / "c4.graph"
        path.write_text("n 4\n1 2\n2 3\n3 4\n1 4\n")
        code, out, _ = run_cli(capsys, "chordal", "--file", str(path), "--find-peo")
        assert code == 2
        assert "not chordal" in out

    def test_chordal_bad_order_without_search(self, capsys, tmp_path):
        path = tmp_path / "star.graph"
        path.write_text("n 4\n1 4\n2 4\n3 4\n")
        code, out, _ = run_cli(capsys, "chordal", "--file", str(path))
        assert code == 2
        assert "not a perfect elimination order" in out
        # searching for an order rescues the same graph
        code, out, _ = run_cli(capsys, "chordal", "--file", str(path), "--find-peo")
        assert code == 0
        assert "order verified" in out

    def test_rook_bad_heights(self, capsys):
        code, _, err = run_cli(capsys, "rook", "-b", "2,1")
        assert code == 1
        assert "non-decreasing" in err

    def test_eulerian_no_witness(self, capsys):
        code, out, _ = run_cli(capsys, "eulerian", "-n", "5")
        assert code == 0
        assert "no negative minor found" in out


class TestDeterminism:
    CASES = [
        ("matrix", "--preset", "lah", "-n", "5", "--verify-all"),
        ("check", "-a", "0,1,2", "-e", "0,1,0", "--exhaustive"),
        ("network", "-a", "0,1,2", "-e", "0,1,2", "--certify", "--provenance"),
        ("chordal", "--from-rgs", "0,1,1,2", "--check-all", "--chromatic", "1,2,3"),
        ("rook", "-b", "1,2,2", "--gjw", "--check-tnn"),
        ("eulerian", "-n", "5"),
    ]

    @pytest.mark.parametrize("argv", CASES, ids=lambda c: c[0])
    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    def test_identical_runs_identical_bytes(self, capsys, argv, fmt):
        first = run_cli(capsys, *argv, "--format", fmt)
        second = run_cli(capsys, *argv, "--format", fmt)
        assert first == second


class TestJsonPayloads:
    def test_matrix_verified_routes(self, capsys):
        code, payload = run_json(
            capsys, "matrix", "--preset", "binomial", "-n", "3", "--verify-all"
        )
        assert code == 0
        assert payload["verified"] == ["recurrence", "explicit", "symmetric", "network"]
        assert payload["matrix"][3] == ["1", "3", "3", "1"]

    def test_matrix_methods_agree(self, capsys):
        outputs = set()
        for method in ("recurrence", "explicit", "symmetric", "network"):
            # leading minus must be attached to the flag or argparse eats it
            code, payload = run_json(
                capsys, "matrix", "-a", "0,1/2,3", "-e-1,0.5,2",
                "--method", method,
            )
            assert code == 0
            outputs.add(json.dumps(payload["matrix"]))
        assert len(outputs) == 1

    def test_check_certified_witness(self, capsys):
        code, payload = run_json(capsys, "check", "-a", "0,1", "-e", "0,2")
        assert code == 2
        assert payload["mode"] == "certified"
        assert not payload["is_tnn"]
        assert payload["violation"] == {"index": 2, "level": 2}
        assert payload["entry_witness"] == {"row": 2, "col": 1, "value": "-1"}
        assert payload["certificate"] is None

    def test_check_certified_certificate(self, capsys):
        code, payload = run_json(
            capsys, "check", "-a", "0,1,2", "-e", "0,1,2", "--exhaustive"
        )
        assert code == 0
        cert = payload["certificate"]
        assert cert["pivots"] == [[1, 1], [2, 2], [3, 3]]
        assert cert["all_nonnegative"] is True
        assert payload["exhaustive"] == {"agrees": True, "minor_witness": None}

    def test_check_exhaustive_only(self, capsys):
        code, payload = run_json(
            capsys, "check", "-a", "1,0", "-e", "0,5", "--exhaustive-only"
        )
        assert code == 2
        assert payload["mode"] == "exhaustive-only"
        witness = payload["minor_witness"]
        assert witness is not None and witness["value"].startswith("-")

    def test_network_with_pivot_and_provenance(self, capsys):
        code, payload = run_json(
            capsys, "network", "-a", "0,1,2", "-e", "0,1,2",
            "--pivot", "1,1", "--provenance",
        )
        assert code == 0
        assert payload["applied_pivots"] == [[1, 1]]
        assert payload["result"] is not None
        assert payload["provenance"][1] == [[1, 1], [2, 2]]

    def test_network_certify(self, capsys):
        code, payload = run_json(
            capsys, "network", "-a", "0,1,2,3", "-e", "0,0,1,1", "--certify"
        )
        assert code == 0
        assert payload["certificate"]["all_nonnegative"] is True

    def test_chordal_full_checks(self, capsys):
        code, payload = run_json(
            capsys, "chordal", "--from-rgs", "0,1,1,2",
            "--check-all", "--chromatic", "1,2,3,4",
        )
        assert code == 0
        checks = payload["checks"]
        assert checks["tnn_witness"] is None
        assert checks["sign_violation"] is None
        assert all(r["ok"] for r in checks["chromatic"])
        assert payload["peo"]["e_sequence"] == [0, 1, 1, 2]

    def test_chordal_not_chordal(self, capsys, tmp_path):
        path = tmp_path / "c5.graph"
        path.write_text("n 5\n1 2\n2 3\n3 4\n4 5\n1 5\n")
        code, payload = run_json(
            capsys, "chordal", "--file", str(path), "--find-peo"
        )
        assert code == 2
        assert payload["found_order"] is None
        assert payload["peo"] is None and payload["matrix"] is None

    def test_chordal_bad_order_payload(self, capsys, tmp_path):
        path = tmp_path / "star.graph"
        path.write_text("n 4\n1 4\n2 4\n3 4\n")
        code, payload = run_json(capsys, "chordal", "--file", str(path))
        assert code == 2
        assert payload["peo"]["failure"] == {"index": 4, "pair": [1, 2]}
        assert payload["matrix"] is None

    def test_rook_checks(self, capsys):
        code, payload = run_json(
            capsys, "rook", "-b", "0,1,2", "--gjw", "--check-tnn"
        )
        assert code == 0
        assert payload["gjw"] == {"ok": True}
        assert payload["tnn"] == {"minor_witness": None}
        assert payload["e"] == ["0", "0", "0"]

    def test_eulerian_reports_minor_count(self, capsys):
        code, payload = run_json(capsys, "eulerian", "-n", "4")
        assert code == 0
        assert payload["witness"] is None
        assert payload["minors_checked"] > 0


class TestCsv:
    def test_matrix_triangle_triples(self, capsys):
        code, out, _ = run_cli(
            capsys, "matrix", "--preset", "stirling2", "-n", "3", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "m,k,value"
        assert len(lines) == 1 + 10  # 1 + 2 + 3 + 4 entries
        assert lines[1] == "0,0,1"
        assert "3,1,1" in lines and "3,2,3" in lines

    def test_network_csv_is_one_based(self, capsys):
        code, out, _ = run_cli(
            capsys, "network", "-a", "0,1", "-e", "5,7", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "m,k,value"
        assert lines[1] == "1,1,-5"
        assert lines[2] == "2,1,-7"
        assert lines[3] == "2,2,-4"


class TestCertifiedMatrixOnDemand:
    """The certified check builds S^{a,e} only for --exhaustive and csv."""

    GROWTH = ("0,1,1,2,3", "0,1,0,1,2")
    BROKEN = ("0,1,2,3", "0,1,3,0")  # e_3 = 3 exceeds the cap a_3 = 2

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []

        def counted(sp):
            calls.append(sp.n)
            return stirling_recurrence(sp)

        monkeypatch.setattr(gstirling.cli, "stirling_recurrence", counted)
        return calls

    @pytest.mark.parametrize("a,e", [GROWTH, BROKEN])
    def test_csv_emits_every_matrix_triple(self, capsys, builds, a, e):
        code, out, _ = run_cli(capsys, "check", "-a", a, "-e", e, "--format", "csv")
        matrix = stirling_recurrence(sequence_pair(a.split(","), e.split(",")))
        n = matrix.n
        assert code == (0 if (a, e) == self.GROWTH else 2)
        lines = out.splitlines()
        assert lines[0] == "m,k,value"
        assert len(lines) - 1 == (n + 1) * (n + 2) // 2
        assert lines[1:] == [
            f"{m},{k},{format_rational(matrix.entry(m, k))}"
            for m in range(n + 1) for k in range(m + 1)
        ]
        assert builds == [n]

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_table_and_json_skip_the_matrix(self, capsys, builds, fmt):
        code, _, _ = run_cli(capsys, "check", "-a", self.BROKEN[0],
                             "-e", self.BROKEN[1], "--format", fmt)
        assert code == 2
        assert builds == []

    @pytest.mark.parametrize("a,e", [GROWTH, BROKEN])
    def test_exhaustive_still_scans_and_agrees(self, capsys, monkeypatch, a, e):
        scans = []

        def counted(matrix, max_order=None):
            scans.append(matrix.n)
            return is_tnn_exhaustive(matrix, max_order=max_order)

        monkeypatch.setattr(gstirling.cli, "is_tnn_exhaustive", counted)
        code, payload = run_json(capsys, "check", "-a", a, "-e", e, "--exhaustive")
        assert scans == [len(a.split(","))]
        assert payload["exhaustive"]["agrees"] is True
        witness = payload["exhaustive"]["minor_witness"]
        if (a, e) == self.GROWTH:
            assert code == 0 and payload["is_tnn"] and witness is None
        else:
            assert code == 2 and not payload["is_tnn"]
            assert parse_rational(witness["value"]) < 0


class TestExhaustiveOnlyForMonotoneA:
    """--exhaustive-only scans minors instead of the certified decision for
    a non-decreasing a too."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        for name, real in (("decide_tnn", gstirling.cli.decide_tnn),
                           ("is_tnn_exhaustive", gstirling.cli.is_tnn_exhaustive)):
            def counted(*args, _real=real, _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(gstirling.cli, name, counted)
        return calls

    @pytest.mark.parametrize("e,tnn", [("0,1,1", True), ("0,2,1", False)])
    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    def test_scans_minors(self, capsys, calls, e, tnn, fmt):
        code, out, err = run_cli(capsys, "check", "-a", "0,1,2", "-e", e,
                                 "--exhaustive-only", "--format", fmt)
        assert err == "" and code == (0 if tnn else 2)
        assert calls == ["is_tnn_exhaustive"]
        matrix = stirling_recurrence(sequence_pair(["0", "1", "2"], e.split(",")))
        if fmt == "table":
            assert out.splitlines()[2:4] == ["mode: exhaustive-only",
                                             f"verdict: {'TNN' if tnn else 'NOT TNN'}"]
            assert ("negative minor: rows [2] cols [1] value -1" in out) != tnn
        elif fmt == "json":
            payload = json.loads(out)
            jsonschema.validate(payload, SCHEMA)
            assert payload["mode"] == "exhaustive-only" and payload["is_tnn"] is tnn
            assert payload["minor_witness"] == (
                None if tnn else {"rows": [2], "cols": [1], "value": "-1"})
        else:
            assert out.splitlines() == ["m,k,value"] + [
                f"{m},{k},{format_rational(matrix.entry(m, k))}"
                for m in range(4) for k in range(m + 1)
            ]


class TestMinorOrderBound:
    """--max-minor-order below the matrix size bounds what a scan can claim,
    and a bound below 1 is refused by every subcommand that takes it."""

    PAIR = ("-a", "0,2,0", "-e", "0,1,-1")  # its first negative minor has order 2

    @pytest.mark.parametrize("order,code,tnn", [
        ("1", 0, None), ("2", 2, False), ("3", 2, False), ("4", 2, False),
    ])
    def test_truncated_scan_claims_nothing(self, capsys, order, code, tnn):
        argv = ("check", *self.PAIR, "--exhaustive-only", "--max-minor-order", order)
        got, payload = run_json(capsys, *argv)
        assert got == code and payload["is_tnn"] is tnn
        _, out, _ = run_cli(capsys, *argv)
        assert "verdict: TNN" not in out
        if tnn is None:
            assert "verdict: no negative minor up to order 1; TNN not decided" in out

    def test_bound_at_the_matrix_size_decides(self, capsys):
        code, payload = run_json(capsys, "check", "-a", "0,1,2", "-e", "0,1,1",
                                 "--exhaustive-only", "--max-minor-order", "4")
        assert code == 0 and payload["is_tnn"] is True

    @pytest.mark.parametrize("argv", [
        ("check", "-a", "0,1", "-e", "0,1"),
        ("check", "-a", "0,1", "-e", "0,1", "--exhaustive-only"),
        ("rook", "-b", "1,2"),
        ("chordal", "--from-rgs", "0,1"),
        ("eulerian", "-n", "3"),
    ])
    @pytest.mark.parametrize("order", ["0", "-1"])
    def test_bound_below_one_is_refused(self, capsys, argv, order):
        code, out, err = run_cli(capsys, *argv, f"--max-minor-order={order}")
        assert code == 1 and out == ""
        assert err == f"error: --max-minor-order must be at least 1, got {order}\n"


class TestMinorBudget:
    """A minor scan over MAX_MINORS minors stops before evaluating any."""

    @pytest.fixture
    def evaluated(self, monkeypatch):
        """The row sets whose minors are worked out, in order."""
        calls = []
        real = gstirling.tnn._row_minors

        def counted(ints, rows, one, two, zeros):
            calls.append(rows)
            return real(ints, rows, one, two, zeros)

        monkeypatch.setattr(gstirling.tnn, "_row_minors", counted)
        return calls

    @pytest.mark.parametrize("argv", [
        ("eulerian", "-n", "3"),
        ("check", "--preset", "stirling2", "-n", "3", "--exhaustive"),
    ])
    def test_a_scan_under_the_budget_is_counted(self, capsys, evaluated, argv):
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        assert evaluated == [rows for k in range(1, 5)
                             for rows in combinations(range(4), k)]

    @pytest.mark.parametrize("argv,count", [
        (("eulerian", "-n", "12"), 2_674_439),
        (("check", "--preset", "stirling2", "-n", "14", "--exhaustive"), 35_357_669),
    ])
    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    def test_over_budget_exits_one_with_no_output(self, capsys, evaluated, argv,
                                                  count, fmt):
        code, out, err = run_cli(capsys, *argv, "--format", fmt)
        assert code == 1 and out == ""
        assert err == (f"error: a scan of {count} minors exceeds the budget of "
                       "1000000; limit the minor order (--max-minor-order)\n")
        assert evaluated == []

    @pytest.mark.parametrize("n", ["1500", "100000000000000000000"])
    def test_eulerian_checks_the_budget_before_building(self, capsys, monkeypatch, n):
        def unreachable(size):
            raise AssertionError("eulerian_matrix called over the budget")

        monkeypatch.setattr(gstirling.cli, "eulerian_matrix", unreachable)
        code, out, err = run_cli(capsys, "eulerian", "-n", n)
        assert code == 1 and out == ""
        assert err.startswith("error: a scan of at least ")
        assert "exceeds the budget of 1000000" in err

    def test_bounded_order_fits_the_budget(self, capsys):
        code, payload = run_json(capsys, "eulerian", "-n", "12", "--max-minor-order", "2")
        assert code == 0 and payload["witness"] is None
        assert payload["minors_checked"] == 91 + 2366


class TestChordalCheckAllOnce:
    STEPS = ("verify_peo", "stirling_recurrence", "is_tnn_exhaustive",
             "unit_lower_inverse")

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {name: 0 for name in self.STEPS}
        modules = [m for name, m in sys.modules.items()
                   if name == "gstirling" or name.startswith("gstirling.")]
        for name in self.STEPS:
            real = getattr(gstirling.chordal, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            for mod in modules:
                if vars(mod).get(name) is real:
                    monkeypatch.setattr(mod, name, counted)
        return calls

    def test_each_step_runs_once(self, capsys, calls):
        code, payload = run_json(capsys, "chordal", "--from-rgs", "0,1,0,2,1,3",
                                 "--check-all")
        assert code == 0 and payload["checks"]["tnn_witness"] is None
        assert calls == {name: 1 for name in self.STEPS}

    def test_find_peo_verifies_and_reorders_once(self, capsys, calls, monkeypatch,
                                                  tmp_path):
        reorders = []
        real = gstirling.chordal.Graph.reorder

        def counted(g, order):
            reorders.append(order)
            return real(g, order)

        monkeypatch.setattr(gstirling.chordal.Graph, "reorder", counted)
        path = tmp_path / "star.graph"
        path.write_text("n 4\n1 4\n2 4\n3 4\n")
        code, payload = run_json(capsys, "chordal", "--file", str(path), "--find-peo",
                                 "--check-all")
        assert code == 0 and payload["found_order"] == [1, 4, 2, 3]
        assert payload["checks"]["tnn_witness"] is None
        assert reorders == [(1, 4, 2, 3)]
        assert calls == {name: 1 for name in self.STEPS}


class TestNoPathReadsTheRowsView:
    """Every CLI path reads matrices through their ints: with the Fraction
    rows view made to raise, each gives the bytes it gives without."""

    CASES = {
        "check-exhaustive": ("check", "-a", "0,1/2,1/2,1", "-e", "0,1/2,0,1/3",
                             "--exhaustive"),
        "check-exhaustive-witness": ("check", "-a", "0,1,2,3", "-e", "0,1,3,0",
                                     "--exhaustive"),
        "check-exhaustive-only": ("check", "-a", "3,1/2,2", "-e", "0,0,1/3",
                                  "--exhaustive-only"),
        "chordal-check-all": ("chordal", "--from-rgs", "0,1,0,2,1,3", "--check-all"),
        "rook-check-tnn": ("rook", "-b", "1,2,2,3", "--check-tnn"),
        "eulerian": ("eulerian", "-n", "5"),
        **{f"matrix-{method}": ("matrix", "-a", "1/2,-1,3", "-e", "0,1/3,2",
                                "--method", method, "--verify-all")
           for method in gstirling.cli.METHODS},
        "network-certify": ("network", "-a", "0,1/2,1/2,1", "-e", "0,1/2,0,1/3",
                            "--certify", "--provenance"),
    }

    @pytest.mark.parametrize("argv", CASES.values(), ids=CASES.keys())
    @pytest.mark.parametrize("fmt", gstirling.cli.FORMATS)
    def test_same_output(self, capsys, monkeypatch, argv, fmt):
        want = run_cli(capsys, *argv, "--format", fmt)

        def unreadable(matrix):
            raise AssertionError("TriMatrix.rows was read")

        monkeypatch.setattr(TriMatrix, "rows", property(unreadable))
        assert run_cli(capsys, *argv, "--format", fmt) == want


class TestTableBuiltLazily:
    """Aligned table lines are built in _emit, and only for table output."""

    CASES = {
        "matrix": ("matrix", "-a", "1/2,-1,3", "-e", "0,1/3,2"),
        "check-provenance": ("check", "-a", "0,1,1,2", "-e", "0,1,0,1", "--provenance"),
        "network-certify": ("network", "-a", "0,1/2,1/2,1", "-e", "0,1/2,0,1/3",
                            "--certify", "--provenance"),
        "chordal": ("chordal", "--from-rgs", "0,1,0,2,1,3"),
        "rook": ("rook", "-b", "1,2,2,3"),
        "eulerian": ("eulerian", "-n", "4"),
    }

    @pytest.mark.parametrize("argv", CASES.values(), ids=CASES.keys())
    @pytest.mark.parametrize("fmt", gstirling.cli.FORMATS)
    def test_aligned_only_for_table(self, capsys, monkeypatch, argv, fmt):
        want = run_cli(capsys, *argv, "--format", fmt)
        calls = []
        real = gstirling.cli._aligned
        monkeypatch.setattr(gstirling.cli, "_aligned",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        assert run_cli(capsys, *argv, "--format", fmt) == want
        if fmt == "table":
            assert calls
        else:
            assert calls == []


_cells = st.text(alphabet="0123456789-/a=", max_size=6)


class TestAligned:
    @given(st.lists(st.lists(_cells, max_size=5), max_size=5))
    @example([])
    @example([[]])
    @example([[], ["1"], ["-12/7", "3"]])
    def test_matches_per_cell_formula(self, rows):
        width = max((len(c) for row in rows for c in row), default=1)
        want = ["  " + " ".join(c.rjust(width) for c in row) for row in rows]
        assert gstirling.cli._aligned(rows) == want


class TestParserOnce:
    def test_built_once_across_calls(self, capsys, monkeypatch):
        built = []
        real = gstirling.cli.build_parser
        monkeypatch.setattr(gstirling.cli, "build_parser",
                            lambda: built.append(1) or real())
        gstirling.cli._parser.cache_clear()
        for argv in (("matrix", "--preset", "lah", "-n", "2"), ("eulerian", "-n", "2"),
                     ("rook", "-b", "1,2")):
            assert run_cli(capsys, *argv)[0] == 0
        assert built == [1]

    def test_pivot_default_does_not_leak(self, capsys):
        code, first = run_json(capsys, "network", "-a", "0,1,2", "-e", "0,1,1",
                               "--pivot", "1,1")
        assert code == 0 and first["applied_pivots"] == [[1, 1]]
        code, second = run_json(capsys, "network", "-a", "0,1,2", "-e", "0,1,1")
        assert code == 0 and second["applied_pivots"] == []
        assert second["result"] is None


class TestFormatSelection:
    def test_env_variable_sets_default(self, capsys, monkeypatch):
        monkeypatch.setenv("GSTIRLING_FORMAT", "json")
        code, out, _ = run_cli(capsys, "eulerian", "-n", "3")
        assert code == 0
        json.loads(out)

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("GSTIRLING_FORMAT", "json")
        code, out, _ = run_cli(capsys, "eulerian", "-n", "3", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "m,k,value"

    def test_unknown_env_format_is_an_error(self, capsys, monkeypatch):
        monkeypatch.setenv("GSTIRLING_FORMAT", "yaml")
        code, _, err = run_cli(capsys, "eulerian", "-n", "3")
        assert code == 1
        assert "unknown format" in err


class TestFileInputs:
    def test_pair_file(self, capsys, tmp_path):
        path = tmp_path / "pair.txt"
        path.write_text("# a then e\n0, 1, 2\n0 1 1  # spaces work too\n")
        code, payload = run_json(capsys, "check", "--file", str(path))
        assert code == 0
        assert payload["a"] == ["0", "1", "2"]
        assert payload["e"] == ["0", "1", "1"]

    def test_pair_file_wrong_shape(self, capsys, tmp_path):
        path = tmp_path / "pair.txt"
        path.write_text("1,2\n")
        code, _, err = run_cli(capsys, "matrix", "--file", str(path))
        assert code == 1
        assert "two content lines" in err

    def test_board_file(self, capsys, tmp_path):
        path = tmp_path / "board.txt"
        path.write_text("# heights\n1\n2, 4\n")
        code, payload = run_json(capsys, "rook", "--file", str(path), "--gjw")
        assert code == 0
        assert payload["heights"] == [1, 2, 4]

    def test_errors_name_the_file_and_line(self, capsys, tmp_path):
        cases = [
            ("chordal", "n x\n1 2\n", "line 1: 'x' is not an integer"),
            ("chordal", "n 3\n1 2\n2 y\n", "line 3: 'y' is not an integer"),
            ("rook", "1\n2, q\n", "line 2: 'q' is not an integer"),
            ("matrix", "0, 1\n0, x\n", "line 2: entry 2 ('x') is not a rational"),
            ("matrix", "0, 1e99999\n0, 1\n", "line 1: entry 2 has more than"),
        ]
        for command, text, message in cases:
            path = tmp_path / f"{command}.txt"
            path.write_text(text)
            code, _, err = run_cli(capsys, command, "--file", str(path))
            assert code == 1
            assert err.startswith(f"error: {path}: {message}")

    @pytest.mark.parametrize("command", ["chordal", "matrix", "rook"])
    def test_non_utf8_file_names_the_path_and_line(self, capsys, tmp_path, command):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"# comment\r\n1, 2\r\n\xe9\n")
        code, _, err = run_cli(capsys, command, "--file", str(path))
        assert code == 1
        assert err == f"error: {path}: line 3: byte 0xe9 is not valid UTF-8\n"

    def test_oversized_inline_entry(self, capsys):
        code, _, err = run_cli(capsys, "check", "-a", "0,1,1e999999", "-e", "0,0,0")
        assert code == 1
        assert err.startswith("error: -a: entry 3 has more than ")

    def test_size_disagreement(self, capsys):
        code, _, err = run_cli(capsys, "matrix", "-a", "0,1", "-e", "0,1", "-n", "3")
        assert code == 1
        assert "disagrees" in err


# tokens a parser must refuse, or that are numbers spelled another way
_JUNK = ["", "x", "1/0", "3/", "1.5", "1e999999", "0.5", "-1.25", " 2 ", "-1"]
_COMMANDS = ["matrix", "check", "network", "chordal", "rook", "eulerian"]


@st.composite
def _tokens(draw, values, sort=False, size=None):
    """Up to six values (size of them, when given) as text; now and then
    one is swapped for junk."""
    low, high = (0, 6) if size is None else (size, size)
    vals = draw(st.lists(values, min_size=low, max_size=high))
    if sort:
        vals.sort()
    text = [str(v) for v in vals]
    if text and draw(st.integers(0, 5)) == 0:
        text[draw(st.integers(0, len(text) - 1))] = draw(st.sampled_from(_JUNK))
    return text


@st.composite
def _growth(draw):
    """An integer restricted-growth string, or now and then any ints."""
    if draw(st.integers(0, 3)) == 0:
        return draw(_tokens(st.integers(-1, 6)))
    e = [0][:draw(st.integers(0, 1))]
    for _ in range(draw(st.integers(0, 5)) if e else 0):
        e.append(draw(st.integers(0, max(e) + 1)))
    return [str(v) for v in e]


@st.composite
def _graph_text(draw):
    n = draw(st.integers(0, 6))
    label = st.integers(1, max(n, 1))
    edges = draw(st.lists(st.tuples(label, label).filter(lambda uv: uv[0] != uv[1]),
                          max_size=8))
    lines = [f"n {n}", *(f"{u} {v}" for u, v in edges), "# end"]
    if draw(st.integers(0, 5)) == 0:
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(["n", "m 3", "1", "1 2 3", "0 1", "n -1"])))
    return "\n".join(lines)


@st.composite
def _argv(draw):
    """(argv, files): a command line for one of the six subcommands, and the
    files it names as (name, bytes) pairs, to be written to one directory.
    Each takes one input source most of the time, mostly well formed, with
    sizes and colour counts up to 6."""
    command = draw(st.sampled_from(_COMMANDS))
    argv, files = [command], []

    def option(name, value):
        # a value starting with '-' is attached, so that it stays a value
        if value.startswith("-"):
            argv.append(f"{name}={value}" if name.startswith("--") else name + value)
        else:
            argv.extend([name, value])

    def maybe(name, values):
        if draw(st.booleans()):
            option(name, draw(values))

    def flag(name):
        if draw(st.booleans()):
            argv.append(name)

    def add_file(text):
        tail = draw(st.sampled_from([b"", b"\n", b"\n", b"\xe9\n"]))
        files.append((f"input-{len(files)}.txt", text.encode() + tail))
        option("--file", files[-1][0])

    # two sources, or none, now and then; one otherwise
    sources = draw(st.sampled_from([1] * 10 + [0, 2]))
    orders = st.sampled_from(["0"] + [str(k) for k in range(1, 8)] * 2)
    if command in ("matrix", "check", "network"):
        kinds = draw(st.permutations(["inline", "inline", "preset", "file"]))
        n = draw(st.integers(0, 6))
        pair = st.fractions(-3, 6, max_denominator=3)
        for kind in kinds[:sources]:
            if kind == "inline":
                a = draw(_tokens(pair, sort=draw(st.integers(0, 3)) > 0, size=n))
                e = draw(_tokens(pair, size=n))
                option("-a", ",".join(a))
                if draw(st.integers(0, 7)):
                    option("-e", ",".join(e))
            elif kind == "preset":
                option("--preset", draw(st.sampled_from(PRESET_NAMES)))
                if draw(st.integers(0, 7)):
                    option("-n", str(n))
            else:
                a = draw(_tokens(pair, sort=True, size=n))
                e = draw(_tokens(pair, size=n))
                add_file(f"# a then e\n{', '.join(a)}\n{' '.join(e)}\n")
    if command == "matrix":
        maybe("--method", st.sampled_from(gstirling.cli.METHODS))
        flag("--verify-all")
    elif command == "check":
        flag("--exhaustive")
        flag("--exhaustive-only")
        maybe("--max-minor-order", orders)
        flag("--provenance")
    elif command == "network":
        for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
            option("--pivot", draw(st.one_of(
                st.builds("{},{}".format, st.integers(0, 7), st.integers(0, 7)),
                st.sampled_from(["1", "a,b", ""]))))
        flag("--certify")
        flag("--provenance")
    elif command == "chordal":
        for kind in draw(st.permutations(["rgs", "file"]))[:sources]:
            if kind == "rgs":
                option("--from-rgs", ",".join(draw(_growth())))
            else:
                add_file(draw(_graph_text()))
        flag("--find-peo")
        flag("--check-all")
        maybe("--chromatic", _tokens(st.integers(0, 6)).map(",".join))
        maybe("--max-minor-order", orders)
    elif command == "rook":
        for kind in draw(st.permutations(["inline", "file"]))[:sources]:
            heights = draw(_tokens(st.integers(0, 6), sort=draw(st.integers(0, 5)) > 0))
            if kind == "inline":
                option("-b", ",".join(heights))
            else:
                add_file(draw(st.sampled_from([",", "\n"])).join(heights))
        flag("--gjw")
        flag("--check-tnn")
        maybe("--max-minor-order", orders)
    else:
        maybe("-n", st.integers(-1, 6).map(str))
        maybe("--max-minor-order", orders)
    maybe("--format", st.sampled_from(gstirling.cli.FORMATS))
    return argv, files


def _call_main(argv):
    """(exit code, stdout, stderr) of main(argv) in this process; argparse's
    usage errors exit through SystemExit(1)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 1, argv
            code = 1
    return code, out.getvalue(), err.getvalue()


class TestMainFuzz:
    """Every subcommand keeps the 0/2/1 contract on drawn command lines:
    no exception escapes, no traceback is printed, JSON results fit the
    schema and a second run prints the same bytes."""

    @settings(max_examples=300)
    @given(_argv())
    def test_exit_contract(self, drawn):
        argv, files = drawn
        with tempfile.TemporaryDirectory() as tmp:
            for name, data in files:
                (Path(tmp) / name).write_bytes(data)
            argv = [f"{tmp}/{a}" if a.startswith("input-") else a for a in argv]
            first = _call_main(argv)
            second = _call_main(argv)
        code, out, err = first
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err
        if code in (0, 2) and argv[-2:] == ["--format", "json"]:
            jsonschema.validate(json.loads(out), SCHEMA)
        assert second == first


_json_text = st.text(max_size=6) | st.sampled_from(
    ['"', "\\", 'a"b\\c', "\n\t\r\x00\x1f\x7f", "é€😀", "\ud800", ""])
_json_ints = st.integers() | st.integers(min_value=-10**40, max_value=10**40)
# homogeneous lists take _dumps' one-pass path; bools mixed in must not
_json_leaves = (st.none() | st.booleans() | _json_ints | _json_text
                | st.lists(_json_ints | st.booleans(), max_size=4)
                | st.lists(st.lists(_json_text, max_size=3), max_size=3)
                | st.lists(st.lists(_json_ints | st.booleans(), max_size=3), max_size=3)
                | st.lists(st.lists(st.lists(_json_ints, max_size=2), max_size=2),
                           max_size=2))
_json_values = st.recursive(
    _json_leaves,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(_json_text, kids, max_size=4),
    max_leaves=8,
)


class TestDumps:
    """cli._dumps writes what json.dumps(indent=2) writes, byte for byte."""

    @settings(max_examples=100)
    @given(_json_values)
    @example([[[]], {"": {"a": []}}, [{}], [[1], []], [[True, 1]], [[[1, 2], [3]]],
              [[1], ["a"]], [["b"], [2, None]]])
    def test_matches_json_dumps(self, value):
        assert gstirling.cli._dumps(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [1.5, [0, 2.5], {1: "a"}, {"a": {2: []}}, (1, 2)])
    def test_other_types_raise(self, value):
        with pytest.raises(TypeError):
            gstirling.cli._dumps(value)


def _readme_examples():
    """Each ``$ gstirling ...`` example in README.md as [argv, stdout, exit
    code or None]: stdout is the lines up to the next ``$`` line or the end
    of the block, the exit code the line after a following ``$ echo $?``."""
    text = (Path(__file__).parent.parent / "README.md").read_text()
    examples = []
    for block in text.split("```")[1::2]:
        field = None
        for line in block.splitlines(keepends=True)[1:]:
            if line.startswith("$ gstirling "):
                examples.append([shlex.split(line[2:])[1:], "", None])
                field = 1
            elif line == "$ echo $?\n":
                field = 2
            elif field == 1:
                examples[-1][1] += line
            elif field == 2:
                examples[-1][2] = int(line)
                field = None
    return examples


README_EXAMPLES = _readme_examples()


def test_readme_has_examples():
    assert len(README_EXAMPLES) == 4


@pytest.mark.parametrize("argv, stdout, code", README_EXAMPLES,
                         ids=[" ".join(argv) for argv, _, _ in README_EXAMPLES])
def test_readme_example(capsys, argv, stdout, code):
    got_code, out, _ = run_cli(capsys, *argv, "--format", "table")
    assert out == stdout
    if code is not None:
        assert got_code == code


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "gstirling.cli", "matrix", "--preset", "lah", "-n", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "S matrix" in proc.stdout
