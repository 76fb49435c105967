"""Tests of the benchmark's output checks.

    python3 perfbench/selfcheck.py

Runs one round of every workload in-process and requires each operation to
pass its checks, except the `rook --gjw` operations on boards wider than 10
columns, which must fail with an error (a known fault).  Then it alters
every output, once per sampled value (one entry changed) and once with the
other exit code, and requires each altered output to be counted as failed.
Exits 1 if any check misses.
"""

from __future__ import annotations

import os
import re
import shutil
import sys
import tempfile
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import workloads  # noqa: E402
from checks import Checker  # noqa: E402
from worker import call  # noqa: E402

SEED = 1
PER_OP = 6  # values altered in each output

# a number standing alone: a matrix or array entry, an index, a count
VALUE = re.compile(r'(?:(?<=[\s="\[,(])|^)(-?\d+(?:\.\d+)?(?:/\d+)?)(?=[\s",\]):]|$)',
                   re.MULTILINE)


def mutations(out: str, per_op: int):
    """Outputs with one value changed, at per_op places spread over it."""
    spots = list(VALUE.finditer(out))
    if not spots:
        return
    step = max(1, len(spots) // per_op)
    for found in spots[::step][:per_op] + [spots[-1]]:
        changed = str(Fraction(found[1]) + 1)
        yield found[1], out[:found.start(1)] + changed + out[found.end(1):]


def main() -> int:
    from gstirling import cli

    checker = Checker(os.path.join(ROOT, "docs", "cli-output.schema.json"))
    misses, tried = [], 0
    workdir = tempfile.mkdtemp(dir=HERE, prefix="selfcheck-")
    try:
        for name in workloads.WORKLOADS:
            for op in workloads.build(name, SEED, workdir):
                for path, text in op.files.items():
                    with open(path, "w", encoding="utf-8") as fh:
                        fh.write(text)
                code, out, err, _ = call(cli.main, op.argv)
                label = " ".join(op.argv)[:70]
                kind, problem = checker.judge(op.spec, code, out, err)
                if op.known_fault:
                    if kind != "error":
                        misses.append(f"{label}: known fault did not fail ({kind})")
                    continue
                if kind is not None:
                    misses.append(f"{label}: right output rejected: {problem}")
                    continue
                for wrong_code in {0, 1, 2} - {code}:
                    tried += 1
                    if checker.judge(op.spec, wrong_code, out, err)[0] is None:
                        misses.append(f"{label}: exit {wrong_code} accepted")
                for value, bad in mutations(out, PER_OP):
                    tried += 1
                    if checker.judge(op.spec, code, bad, err)[0] is None:
                        misses.append(f"{label}: changing {value} went unnoticed")
            print(f"{name}: checked", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in misses:
        print("MISS", line)
    print(f"{tried} altered outputs, {len(misses)} missed")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
