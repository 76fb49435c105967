"""Spans around the public functions of each gstirling layer.

Modules bind functions with ``from .x import y``, so a wrapper replaces a
function under every name, in every gstirling module, that is bound to it;
``uninstall`` puts the originals back.  Each span records its name, start,
end and parent; self time is a span's time minus that of its child spans.
Spans are kept per operation and folded into totals when it ends.
"""

from __future__ import annotations

import sys
from math import comb
from time import perf_counter

# layer -> public functions timed as spans
SPANS = {
    "core": ("format_rational",),
    "stirling": ("stirling_recurrence", "stirling_explicit", "stirling_symmetric",
                 "rgs_check"),
    "network": ("build_initial", "path_matrix", "certify", "pivot"),
    "tnn": ("decide_tnn", "is_tnn_exhaustive", "det_exact", "unit_lower_inverse"),
    "chordal": ("graph_from_rgs", "find_peo", "verify_peo", "signed_inverse_check",
                "chromatic_check"),
    "rook": ("rook_matrix", "gjw_check"),
}
ROOT = "cli.main"
_CONSTRUCTIONS = ("stirling.stirling_recurrence", "stirling.stirling_explicit",
                  "stirling.stirling_symmetric")


def _lex_rank(combo: tuple[int, ...], size: int) -> int:
    """Position of a combination among all of its length in lexicographic
    order over range(size)."""
    rank, prev, k = 0, -1, len(combo)
    for i, c in enumerate(combo):
        for v in range(prev + 1, c):
            rank += comb(size - 1 - v, k - 1 - i)
        prev = c
    return rank


def pairs_before(rows, cols, size: int) -> int:
    """How many (rows, cols) pairs a scan in iter_minors order (ascending
    order, then rows, then cols, lexicographically) has met up to and
    including this one."""
    k = len(rows)
    done = sum(comb(size, j) ** 2 for j in range(1, k))
    return done + _lex_rank(rows, size) * comb(size, k) + _lex_rank(cols, size) + 1


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index) of this operation
        self._stack: list[int] = []
        self._patched: list = []
        self.totals: dict[str, list[float]] = {}  # name -> [calls, total_s, self_s]
        self.counts = {"entries_built": 0, "max_entry_bits": 0, "minors_scanned": 0,
                       "minor_pairs_enumerated": 0, "output_bytes": 0}
        self.ops = 0

    # ------------------------------------------------------------ wrapping
    def _span(self, name, fn, after=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _count_entries(self, args, result) -> None:
        self.counts["entries_built"] += sum(len(row) for row in result.rows)

    def _entry_bits(self, args, result) -> None:
        q = args[0]
        bits = max(q.numerator.bit_length(), q.denominator.bit_length())
        if bits > self.counts["max_entry_bits"]:
            self.counts["max_entry_bits"] = bits

    def _minor_counter(self, fn):
        counts = self.counts

        def iter_minors(matrix, max_order=None):
            size = matrix.n + 1
            top = size if max_order is None else min(max_order, size)
            yielded, last, finished = 0, None, False
            try:
                for item in fn(matrix, max_order=max_order):
                    yielded += 1
                    last = item
                    yield item
                finished = True
            finally:
                counts["minors_scanned"] += yielded
                if finished:
                    counts["minor_pairs_enumerated"] += sum(
                        comb(size, k) ** 2 for k in range(1, top + 1))
                elif last is not None:
                    counts["minor_pairs_enumerated"] += pairs_before(last[0], last[1], size)

        return iter_minors

    def install(self) -> None:
        mods = {name: m for name, m in sys.modules.items()
                if name == "gstirling" or name.startswith("gstirling.")}
        wrappers = {}
        for layer, names in SPANS.items():
            for fname in names:
                orig = getattr(mods[f"gstirling.{layer}"], fname)
                full = f"{layer}.{fname}"
                after = (self._count_entries if full in _CONSTRUCTIONS
                         else self._entry_bits if fname == "format_rational" else None)
                wrappers[id(orig)] = (orig, self._span(full, orig, after))
        orig = mods["gstirling.tnn"].iter_minors
        wrappers[id(orig)] = (orig, self._minor_counter(orig))
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    # ---------------------------------------------------------- operations
    def run(self, main, argv):
        """Call main(argv) as the root span of one operation."""
        self.spans.clear()
        return self._span(ROOT, main)(argv)

    def fold(self, output_bytes: int, speed: float) -> list:
        """Add this operation's spans, times scaled by speed, to the totals
        and return them unscaled, with repeated leaf spans under one parent
        merged into one record."""
        spans = self.spans
        child = [0.0] * len(spans)
        has_child = [False] * len(spans)
        for name, t0, t1, parent in spans:
            if parent >= 0:
                child[parent] += t1 - t0
                has_child[parent] = True
        records, merged = [], {}
        for i, (name, t0, t1, parent) in enumerate(spans):
            dur = t1 - t0
            tot = self.totals.setdefault(name, [0, 0.0, 0.0])
            tot[0] += 1
            tot[1] += dur * speed
            tot[2] += (dur - child[i]) * speed
            if has_child[i]:
                records.append({"id": i, "name": name, "start": t0, "end": t1,
                                "parent": parent, "self": dur - child[i]})
                continue
            key = (name, parent)
            if key not in merged:
                merged[key] = {"id": i, "name": name, "start": t0, "end": t1,
                               "parent": parent, "self": 0.0, "count": 0}
                records.append(merged[key])
            rec = merged[key]
            rec["end"] = t1
            rec["self"] += dur
            rec["count"] += 1
        self.ops += 1
        self.counts["output_bytes"] += output_bytes
        return records

    def metrics(self) -> dict:
        """Per-layer metrics, per traced operation unless named otherwise."""
        ops = max(self.ops, 1)
        calls = lambda name: self.totals.get(name, (0, 0.0, 0.0))[0]
        total = lambda name: self.totals.get(name, (0, 0.0, 0.0))[1] / ops
        own = lambda name: self.totals.get(name, (0, 0.0, 0.0))[2] / ops
        out = {"cli.self_s": (own(ROOT), "s/op"),
               "cli.output_bytes": (self.counts["output_bytes"] / ops, "bytes/op")}
        for layer, names in SPANS.items():
            for fname in names:
                full = f"{layer}.{fname}"
                out[f"{full}_s"] = (total(full), "s/op")
        for full in ("network.certify", "tnn.decide_tnn", "tnn.is_tnn_exhaustive",
                     "chordal.signed_inverse_check", "chordal.chromatic_check",
                     "chordal.find_peo", "rook.rook_matrix"):
            out[f"{full}.self_s"] = (own(full), "s/op")
        scanned = self.counts["minors_scanned"]
        pairs = self.counts["minor_pairs_enumerated"]
        out.update({
            "core.format_rational_calls": (calls("core.format_rational") / ops, "count/op"),
            "core.max_entry_bits": (self.counts["max_entry_bits"], "bits"),
            "stirling.entries_built": (self.counts["entries_built"] / ops, "count/op"),
            "network.pivots": (calls("network.pivot") / ops, "count/op"),
            "tnn.det_calls": (calls("tnn.det_exact") / ops, "count/op"),
            "tnn.minors_scanned": (scanned / ops, "count/op"),
            "tnn.minor_pairs_enumerated": (pairs / ops, "count/op"),
            "tnn.scan_useful_ratio": (scanned / pairs if pairs else 0.0, "ratio"),
            "tnn.unit_lower_inverse_calls": (calls("tnn.unit_lower_inverse") / ops, "count/op"),
            "chordal.verify_peo_calls": (calls("chordal.verify_peo") / ops, "count/op"),
        })
        return out
