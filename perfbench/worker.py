"""One workload in one fresh process: set up, then run whole rounds of
operations in a closed loop (one client, one thread), each a call of
gstirling.cli.main(argv) with stdout and stderr captured.

Talks to run.py over its stdin/stdout in JSON lines.  After each operation
it sends the exit code, output and time, then waits for "next" or "stop", so
that the parent's output checks never overlap a timed operation.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# On a shared host the interpreter's speed drifts by up to 1.7x over a few
# seconds, which no run length averages away.  A fixed pure-Python kernel,
# timed right before and right after each operation, measures the speed at
# that moment, and each time is also reported scaled to the speed at which
# the kernel takes REFERENCE_KERNEL_S.  That is the kernel's median time over
# the reference runs in README.md (2-vCPU Xeon VM, Python 3.11), so a scaled
# time reads as wall-clock time at that host's median speed.  It must stay
# the same for figures to be comparable.
REFERENCE_KERNEL_S = 0.0046


def kernel() -> str:
    """Exact rational recurrence plus rendering: the kind of work gstirling
    does, written apart from it so that no change to it moves the yardstick."""
    row = [Fraction(1)]
    for m in range(1, 36):
        e = Fraction(m % 5, 3)
        row = ([row[0] * (1 - e)]
               + [row[k - 1] + (Fraction(k + 1, 2) - e) * row[k] for k in range(1, m)]
               + [Fraction(1)])
    return " ".join(str(q) for q in row)


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def call(main, argv) -> tuple[int, str, str, float]:
    """(exit code, stdout, stderr, seconds) of one operation; exit code -1
    stands for an exception escaping main."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # reported as a failed operation
            print(f"{type(exc).__name__}: {exc}", file=err)
            code = -1
        text = out.getvalue()
        dt = time.perf_counter() - t0
    return code, text, err.getvalue(), dt


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--t0", type=float, required=True,
                   help="time.monotonic() in the parent just before spawning")
    p.add_argument("--mode", choices=("setup", "plain", "trace"), required=True)
    args = p.parse_args()
    pipe = sys.stdout

    def send(msg: dict) -> None:
        pipe.write(json.dumps(msg) + "\n")
        pipe.flush()

    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from gstirling import cli

    import workloads

    ops = workloads.build(args.workload, args.seed, args.workdir)
    for op in ops:
        for path, text in op.files.items():
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
    for op in workloads.warmup(args.workload):
        call(cli.main, op.argv)
    setup = time.monotonic() - args.t0
    speed = REFERENCE_KERNEL_S / statistics.median(kernel_seconds() for _ in range(3))
    send({"type": "ready", "setup_s": setup, "setup_scaled": setup * speed})
    if args.mode == "setup":
        return 0

    tracer = None
    if args.mode == "trace":
        from spans import Tracer

        tracer = Tracer()
    traced_ops = []
    passes = ("plain", "traced") if tracer else ("plain",)
    while True:
        stop = False
        for i, op in enumerate(ops):
            for kind in passes:
                gc.collect()
                before = kernel_seconds()
                if kind == "traced":
                    tracer.install()
                    try:
                        code, out, err, dt = call(lambda argv: tracer.run(cli.main, argv),
                                                  op.argv)
                    finally:
                        tracer.uninstall()
                else:
                    code, out, err, dt = call(cli.main, op.argv)
                speed = 2 * REFERENCE_KERNEL_S / (before + kernel_seconds())
                if kind == "traced":
                    traced_ops.append({"op": i, "seconds": dt,
                                       "spans": tracer.fold(len(out.encode()), speed)})
                send({"type": "op", "i": i, "pass": kind, "code": code, "out": out,
                      "err": err, "seconds": dt, "scaled": dt * speed})
                reply = sys.stdin.readline().strip()
                if not reply:
                    return 1  # the parent is gone
                stop = reply == "stop"
        if stop:
            break
    done = {"type": "done",
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer:
        done["layers"] = tracer.metrics()
        done["spans"] = traced_ops
    send(done)
    return 0


if __name__ == "__main__":
    sys.exit(main())
