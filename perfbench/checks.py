"""Output checks, run on every operation outside its timed region.

Each check recomputes the answer with the benchmark's own mathematics
(reference.py) or tests a property the method must have; none compares
against a stored copy of earlier output.  JSON output is also validated
against the repository's docs/cli-output.schema.json.  A failed check raises
CheckFailure.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

import reference as ref

RATIONAL = r"-?\d+(?:\.\d+)?(?:/\d+)?"
_PROVENANCE = re.compile(rf"a(\d+)-e(\d+)=({RATIONAL})")
OK, WITNESS = 0, 2


class CheckFailure(Exception):
    pass


def expect(cond, message: str) -> None:
    if not cond:
        raise CheckFailure(message)


def rational(text: str) -> Fraction:
    expect(re.fullmatch(RATIONAL, text) is not None, f"not a rational: {text!r}")
    return Fraction(text)


def _ints(text: str, sep: str | None = None) -> list[int]:
    try:
        return [int(t) for t in text.split(sep)] if text.strip() else []
    except ValueError:
        raise CheckFailure(f"not a list of integers: {text!r}")


class Lines:
    """Cursor over table output lines."""

    def __init__(self, out: str):
        expect(out.endswith("\n"), "output does not end with a newline")
        self.lines = out[:-1].split("\n")
        self.i = 0

    def take(self) -> str:
        expect(self.i < len(self.lines), "output ends early")
        self.i += 1
        return self.lines[self.i - 1]

    def exact(self, text: str) -> None:
        line = self.take()
        expect(line == text, f"line {self.i}: expected {text!r}, got {line[:80]!r}")

    def prefixed(self, prefix: str) -> str:
        line = self.take()
        expect(line.startswith(prefix), f"line {self.i}: expected {prefix!r}...")
        return line[len(prefix):]

    def match(self, pattern: str) -> tuple[str, ...]:
        line = self.take()
        found = re.fullmatch(pattern, line)
        expect(found is not None, f"line {self.i}: {line[:80]!r} does not match {pattern!r}")
        return found.groups()

    def rows(self, count: int) -> list[list[str]]:
        """count lines of a triangle: the r-th (from 0) holds r+1 entries."""
        out = []
        for r in range(count):
            toks = self.take().split()
            expect(len(toks) == r + 1, f"line {self.i}: {len(toks)} entries")
            out.append(toks)
        return out

    def end(self) -> None:
        expect(self.i == len(self.lines), f"unexpected line {self.i + 1}")


def _seq(values) -> list[Fraction]:
    return [Fraction(v) for v in values]


def _same_seq(got: list[str], want) -> None:
    expect([rational(t) for t in got] == _seq(want), "sequence echo differs from input")


def _matrix(rows: list[list[str]], S: ref.Scaled) -> None:
    expect(len(rows) == S.n + 1, f"matrix has {len(rows)} rows, expected {S.n + 1}")
    for m, row in enumerate(rows):
        expect(len(row) == m + 1, f"matrix row {m} has {len(row)} entries")
        for k, tok in enumerate(row):
            expect(S.equals(m, k, rational(tok)), f"matrix entry ({m},{k}) = {tok} is wrong")


def _csv_matrix(out: str, S: ref.Scaled) -> None:
    lines = Lines(out)
    lines.exact("m,k,value")
    seen = {}
    for line in lines.lines[1:]:
        m, k, value = line.split(",")
        seen[(int(m), int(k))] = rational(value)
    n = S.n
    expect(len(seen) == len(lines.lines) - 1, "repeated csv position")
    expect(set(seen) == {(m, k) for m in range(n + 1) for k in range(m + 1)},
           "csv positions do not cover the triangle")
    for (m, k), q in seen.items():
        expect(S.equals(m, k, q), f"csv entry ({m},{k}) is wrong")


def _scaled_weight(q: Fraction, scale: int) -> int:
    expect(scale % q.denominator == 0, f"weight {q} is not of the form a_f - e_g")
    return q.numerator * (scale // q.denominator)


def _weights(rows: list[list[str]], a, e, provenance: bool):
    """Parse a weight array; with provenance each entry reads a{f}-e{g}=v and
    v must equal a_f - e_g.  Returns (values, provenance pairs or None)."""
    values, pairs = [], []
    for r, row in enumerate(rows, start=1):
        vrow, prow = [], []
        for tok in row:
            if provenance:
                found = _PROVENANCE.fullmatch(tok)
                expect(found is not None, f"row {r}: {tok!r} carries no provenance")
                f, g, v = int(found[1]), int(found[2]), rational(found[3])
                expect(1 <= f <= len(a) and 1 <= g <= len(e) and v == a[f - 1] - e[g - 1],
                       f"row {r}: {tok} is not a_{f} - e_{g}")
                prow.append((f, g))
            else:
                v = rational(tok)
            vrow.append(v)
        values.append(vrow)
        pairs.append(prow)
    return values, (pairs if provenance else None)


def _final_array(values, S: ref.Scaled, holds: bool, violation) -> None:
    """A certificate's final array must still realize S (pivots keep the
    path matrix), be non-negative when growth holds, and expose the weight
    a_f - e_i < 0 at the violation [i, f] when it does not."""
    n = S.n
    expect(len(values) == n and all(len(r) == m for m, r in enumerate(values, 1)),
           "final array has the wrong shape")
    scaled = [[_scaled_weight(q, S.scale) for q in row] for row in values]
    sums = ref.path_sums(scaled)
    expect(sums == S.rows, "path sums of the final array differ from S")
    negative = any(q < 0 for row in values for q in row)
    if holds:
        expect(not negative, "final array has a negative weight")
    else:
        i, f = violation
        expect(values[i - 1][f - 1] < 0, f"no negative weight exposed at [{i},{f}]")


def _minor_witness(S: ref.Scaled, rows, cols, value: Fraction) -> None:
    expect(len(rows) == len(cols) >= 1, "malformed minor witness")
    own = ref.minor(S.value, rows, cols)
    expect(own == value, f"minor rows {rows} cols {cols} is {own}, reported {value}")
    expect(own < 0, f"reported minor rows {rows} cols {cols} is not negative")


def _pivots_text(pivots) -> str:
    return " ".join(f"[{i},{f}]" for i, f in pivots) or "(none)"


class Checker:
    def __init__(self, schema_path: str):
        import jsonschema

        with open(schema_path, encoding="utf-8") as fh:
            self.validator = jsonschema.Draft202012Validator(json.load(fh))
        self._memo: dict = {}

    def _cached(self, key, fn):
        if key not in self._memo:
            self._memo[key] = fn()
        return self._memo[key]

    def judge(self, spec: dict, code: int, out: str, err: str) -> tuple[str | None, str]:
        """(None, "") for a right answer; ("error", message) when the program
        exited with an error instead of answering; ("wrong", message) when
        its answer fails a check."""
        if code not in (OK, WITNESS):
            return "error", f"exit {code}: {err.strip()[:200]}"
        try:
            self.check(spec, code, out)
        except CheckFailure as exc:
            return "wrong", str(exc)
        except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
            return "wrong", f"malformed output: {type(exc).__name__}: {exc}"
        return None, ""

    def check(self, spec: dict, code: int, out: str) -> None:
        doc = None
        if spec["fmt"] == "json":
            try:
                doc = json.loads(out)
            except ValueError as exc:
                raise CheckFailure(f"invalid JSON: {exc}")
            error = next(iter(self.validator.iter_errors(doc)), None)
            expect(error is None, f"JSON fails the schema: {error and error.message[:200]}")
        getattr(self, "_" + spec["cmd"])(spec, code, out, doc)

    # -------------------------------------------------------------- matrix
    def _stirling(self, a, e) -> ref.Scaled:
        return self._cached(("S", tuple(a), tuple(e)), lambda: ref.stirling(a, e))

    def _matrix(self, spec, code, out, doc):
        a, e = spec["a"], spec["e"]
        S = self._stirling(a, e)
        expect(code == OK, f"exit {code}, expected 0")
        routes = ["recurrence", "explicit", "symmetric", "network"]
        if spec["fmt"] == "csv":
            return _csv_matrix(out, S)
        if doc is not None:
            expect(doc["command"] == "matrix" and doc["n"] == len(a), "wrong header")
            _same_seq(doc["a"], a)
            _same_seq(doc["e"], e)
            expect(doc["method"] == spec["method"], "wrong method")
            expect(doc["verified"] == (routes if spec["verify_all"] else None),
                   "wrong verified routes")
            return _matrix(doc["matrix"], S)
        lines = Lines(out)
        _same_seq(lines.prefixed("a: ").split(", "), a)
        _same_seq(lines.prefixed("e: ").split(", "), e)
        lines.exact(f"S matrix ({spec['method']}):")
        _matrix(lines.rows(len(a) + 1), S)
        if spec["verify_all"]:
            lines.exact("routes agree: " + ", ".join(routes))
        lines.end()

    # --------------------------------------------------------------- check
    def _check(self, spec, code, out, doc):
        a, e = _seq(spec["a"]), _seq(spec["e"])
        S = self._stirling(a, e)
        if spec["mode"] == "exhaustive-only":
            return self._check_scan_only(spec, code, out, doc, a, e, S)
        holds, caps, pivots, violation = ref.growth(a, e)
        expect(code == (OK if holds else WITNESS), f"exit {code}, growth holds: {holds}")
        if doc is not None:
            expect(doc["command"] == "check" and doc["mode"] == "certified"
                   and doc["n"] == len(a), "wrong header")
            _same_seq(doc["a"], a)
            _same_seq(doc["e"], e)
            expect(doc["is_tnn"] == holds, "verdict disagrees with the growth test")
            expect(doc["cap_indices"] == caps, "cap indices differ")
            if holds:
                expect(doc["violation"] is None and doc["entry_witness"] is None,
                       "witness reported for a TNN pair")
                cert = doc["certificate"]
                expect(cert is not None and cert["all_nonnegative"], "no certificate")
                expect([tuple(p) for p in cert["pivots"]] == pivots, "pivots differ")
                values, _ = _weights(cert["final"], a, e, False)
                _final_array(values, S, True, None)
            else:
                expect(doc["certificate"] is None, "certificate for a non-TNN pair")
                expect(doc["violation"] == {"index": violation[0], "level": violation[1]},
                       "violation differs")
                w = doc["entry_witness"]
                self._entry_witness(S, violation, w["row"], w["col"], rational(w["value"]))
            if spec["mode"] == "exhaustive":
                block = doc["exhaustive"]
                expect(block is not None and block["agrees"] is True, "no exhaustive block")
                mw = block["minor_witness"]
                if holds:
                    expect(mw is None, "negative minor reported for a TNN pair")
                else:
                    expect(mw is not None, "no minor witness for a non-TNN pair")
                    _minor_witness(S, mw["rows"], mw["cols"], rational(mw["value"]))
            else:
                expect(doc["exhaustive"] is None, "unrequested exhaustive block")
            return
        lines = Lines(out)
        _same_seq(lines.prefixed("a: ").split(", "), a)
        _same_seq(lines.prefixed("e: ").split(", "), e)
        expect(_ints(lines.prefixed("caps: ")) == caps, "caps differ")
        lines.exact(f"verdict: {'TNN' if holds else 'NOT TNN'}")
        if holds:
            lines.exact("certificate pivots: " + _pivots_text(pivots))
            lines.exact("final array (all weights non-negative):")
            values, _ = _weights(lines.rows(len(a)), a, e, spec["provenance"])
            _final_array(values, S, True, None)
        else:
            i, f, f2, cap = lines.match(
                rf"violation: e_(\d+) exceeds the level-(\d+) cap a_(\d+) = ({RATIONAL})")
            expect((int(i), int(f)) == violation and f2 == f, "violation differs")
            expect(rational(cap) == a[violation[1] - 1], "cap value differs")
            row, col, value = lines.match(rf"entry witness: S\((\d+),(\d+)\) = ({RATIONAL}) < 0")
            self._entry_witness(S, violation, int(row), int(col), rational(value))
        if spec["mode"] == "exhaustive":
            lines.exact("exhaustive minor scan agrees")
        lines.end()

    @staticmethod
    def _entry_witness(S, violation, row, col, value) -> None:
        """The growth violation (i, f) locates a negative entry S(i, f-1)."""
        i, f = violation
        expect((row, col) == (i, f - 1), f"witness at ({row},{col}), expected ({i},{f - 1})")
        expect(S.equals(row, col, value), f"witness value {value} differs from S({row},{col})")
        expect(value < 0, "entry witness is not negative")

    def _check_scan_only(self, spec, code, out, doc, a, e, S):
        tnn = spec["expect_tnn"]
        expect(code == (OK if tnn else WITNESS), f"exit {code}, expected TNN: {tnn}")
        if doc is not None:
            expect(doc["command"] == "check" and doc["mode"] == "exhaustive-only"
                   and doc["n"] == len(a), "wrong header")
            _same_seq(doc["a"], a)
            _same_seq(doc["e"], e)
            expect(doc["is_tnn"] == tnn, "wrong verdict")
            mw = doc["minor_witness"]
            if tnn:
                expect(mw is None, "negative minor reported for a TNN pair")
            else:
                expect(mw is not None, "no minor witness")
                _minor_witness(S, mw["rows"], mw["cols"], rational(mw["value"]))
            return
        lines = Lines(out)
        _same_seq(lines.prefixed("a: ").split(", "), a)
        _same_seq(lines.prefixed("e: ").split(", "), e)
        lines.exact("mode: exhaustive-only (a not non-decreasing)")
        lines.exact(f"verdict: {'TNN' if tnn else 'NOT TNN'}")
        if not tnn:
            rows, cols, value = lines.match(
                rf"negative minor: rows \[([\d, ]*)\] cols \[([\d, ]*)\] value ({RATIONAL})")
            _minor_witness(S, _ints(rows, ","), _ints(cols, ","), rational(value))
        lines.end()

    # ------------------------------------------------------------- network
    def _network(self, spec, code, out, doc):
        a, e = _seq(spec["a"]), _seq(spec["e"])
        n = len(a)
        S = self._stirling(a, e)
        holds, _, pivots, violation = ref.growth(a, e)
        expect(code == (OK if holds else WITNESS), f"exit {code}, growth holds: {holds}")
        init_pairs = [[(k, m - k + 1) for k in range(1, m + 1)] for m in range(1, n + 1)]
        init_values = [[a[f - 1] - e[g - 1] for f, g in row] for row in init_pairs]
        if doc is not None:
            expect(doc["command"] == "network" and doc["n"] == n, "wrong header")
            _same_seq(doc["a"], a)
            _same_seq(doc["e"], e)
            expect([[rational(t) for t in row] for row in doc["initial"]] == init_values,
                   "initial array differs")
            expect(doc["applied_pivots"] == [] and doc["result"] is None, "unrequested pivots")
            expect(doc["provenance"] == [[list(p) for p in row] for row in init_pairs],
                   "provenance differs")
            cert = doc["certificate"]
            expect(cert is not None and cert["all_nonnegative"] == holds, "certificate verdict")
            expect([tuple(p) for p in cert["pivots"]] == pivots, "pivots differ")
            values, _ = _weights(cert["final"], a, e, False)
            return _final_array(values, S, holds, violation)
        lines = Lines(out)
        _same_seq(lines.prefixed("a: ").split(", "), a)
        _same_seq(lines.prefixed("e: ").split(", "), e)
        lines.exact("initial array:")
        values, pairs = _weights(lines.rows(n), a, e, True)
        expect(pairs == init_pairs, "initial provenance differs")
        lines.exact("certificate pivots: " + _pivots_text(pivots))
        lines.exact("final array (" + ("all weights non-negative" if holds
                                       else "negative weight exposed") + "):")
        values, _ = _weights(lines.rows(n), a, e, True)
        _final_array(values, S, holds, violation)
        lines.end()

    # ------------------------------------------------------------- chordal
    def _chordal(self, spec, code, out, doc):
        if spec["rgs"] is not None:
            n = len(spec["rgs"])
        else:
            n, edges = spec["graph"]
        if doc is not None:
            found = doc["found_order"]
            e_seq = doc["peo"]["e_sequence"]
        else:
            lines = Lines(out)
            expect(_ints(lines.prefixed("vertices: ")) == [n], "vertex count differs")
            found = _ints(lines.prefixed("elimination order found: ")) if spec["find_peo"] \
                else None
            e_seq = _ints(lines.prefixed("e-sequence: "))
        if spec["rgs"] is not None:
            expect(found is None, "unrequested elimination order")
            expect(e_seq == spec["rgs"], "e-sequence differs from the growth string")
        else:
            expect(found is not None and sorted(found) == list(range(1, n + 1)),
                   "found order is not a permutation")
            counts, is_peo = ref.earlier_counts(n, edges, found)
            expect(is_peo, "found order is not a perfect elimination order")
            expect(e_seq == counts, "e-sequence differs from earlier-neighbour counts")
        a = list(range(n))
        S = self._stirling(a, e_seq)
        holds = ref.growth(a, e_seq)[0]
        inv = ref.unit_lower_inverse(S.rows)
        sign_ok = all((-1) ** (m - k) * inv[m][k] >= 0 for m in range(n + 1) for k in range(m + 1))
        zeros = [[m, k] for m in range(n + 1) for k in range(m) if inv[m][k] == 0]
        checks_ok = (not spec["check_all"] or (holds and sign_ok))
        expect(code == (OK if checks_ok else WITNESS), f"exit {code}")
        if doc is not None:
            expect(doc["command"] == "chordal" and doc["n"] == n
                   and doc["order"] == list(range(1, n + 1)), "wrong header")
            expect(doc["peo"]["is_peo"] is True and doc["peo"]["failure"] is None,
                   "order not verified")
            _matrix(doc["matrix"], S)
            checks = doc["checks"]
            if not spec["check_all"] and not spec["chromatic"]:
                return expect(checks is None, "unrequested checks")
            want = {}
            if spec["check_all"]:
                expect(holds and sign_ok, "own scan disagrees")
                want.update(tnn_witness=None, sign_violation=None, zero_inverse_entries=zeros)
            if spec["chromatic"]:
                want["chromatic"] = [{"x": x, "ok": True} for x in spec["chromatic"]]
            return expect(checks == want, "checks block differs")
        lines.exact("order verified: perfect elimination order")
        lines.exact("graph Stirling matrix:")
        _matrix(lines.rows(n + 1), S)
        if spec["check_all"]:
            expect(holds and sign_ok, "own scan disagrees")
            lines.exact("minor scan: no negative minor")
            lines.exact("inverse sign pattern: holds")
            if zeros:
                lines.exact("zero inverse entries: "
                            + " ".join(f"({m},{k})" for m, k in zeros))
        if spec["chromatic"]:
            lines.exact("chromatic check: " + " ".join(f"x={x}:ok" for x in spec["chromatic"]))
        lines.end()

    # ---------------------------------------------------------------- rook
    def _rook(self, spec, code, out, doc):
        hs = spec["heights"]
        n = len(hs)
        a = list(range(n))
        e = [i - h for i, h in enumerate(hs)]
        R = self._cached(("rook", tuple(hs)), lambda: ref.rook_numbers(hs))
        S = ref.Scaled(R, 1)
        holds = ref.growth(a, e)[0]
        tnn_ok = not spec["check_tnn"] or holds
        # the factorization identity holds for every Ferrers board
        expect(code == (OK if tnn_ok else WITNESS), f"exit {code}")
        if doc is not None:
            expect(doc["command"] == "rook" and doc["heights"] == hs, "wrong header")
            _same_seq(doc["a"], a)
            _same_seq(doc["e"], e)
            _matrix(doc["matrix"], S)
            expect(doc["gjw"] == ({"ok": True} if spec["gjw"] else None), "gjw block differs")
            if not spec["check_tnn"]:
                return expect(doc["tnn"] is None, "unrequested scan")
            mw = doc["tnn"]["minor_witness"]
            if holds:
                return expect(mw is None, "negative minor reported for a rook matrix")
            return _minor_witness(S, mw["rows"], mw["cols"], rational(mw["value"]))
        lines = Lines(out)
        expect(_ints(lines.prefixed("heights: "), ",") == hs, "heights differ")
        _same_seq(lines.prefixed("a: ").split(", "), a)
        _same_seq(lines.prefixed("e: ").split(", "), e)
        lines.exact("rook matrix (entry (m,k) = #placements of m-k rooks on first m columns):")
        _matrix(lines.rows(n + 1), S)
        if spec["gjw"]:
            lines.exact("factorization identity: holds")
        if spec["check_tnn"]:
            lines.exact("minor scan: " + ("no negative minor" if holds else "negative minor found"))
        lines.end()

    # ------------------------------------------------------------ eulerian
    def _eulerian(self, spec, code, out, doc):
        n = spec["n"]
        E = self._cached(("eul", n), lambda: ref.eulerian(n))
        S = ref.Scaled(E, 1)
        count = self._cached(("pairs", n), lambda: ref.nonzero_pattern_pairs(n + 1))
        neg = self._cached(("eulscan", n),
                           lambda: ref.first_negative_minor(S.value, n + 1))
        expect(code == (OK if neg is None else WITNESS), f"exit {code}")
        if doc is not None:
            expect(doc["command"] == "eulerian" and doc["n"] == n, "wrong header")
            _matrix(doc["matrix"], S)
            checked, w = doc["minors_checked"], doc["witness"]
            witness = w and (w["rows"], w["cols"], rational(w["value"]))
        else:
            lines = Lines(out)
            lines.exact(f"Eulerian triangle up to n = {n}:")
            _matrix(lines.rows(n + 1), S)
            checked = _ints(lines.prefixed("minors checked: "))[0]
            if neg is None:
                lines.exact("no negative minor found")
                witness = None
            else:
                rows, cols, value = lines.match(
                    rf"NEGATIVE MINOR: rows \[([\d, ]*)\] cols \[([\d, ]*)\] value ({RATIONAL})")
                witness = (_ints(rows, ","), _ints(cols, ","), rational(value))
            lines.end()
        if neg is None:
            expect(witness is None, "negative minor reported")
            expect(checked == count, f"minors checked {checked}, expected {count}")
        else:
            expect(witness is not None and 1 <= checked <= count, "no witness")
            _minor_witness(S, *witness)
