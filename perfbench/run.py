"""Benchmark of the gstirling command line, run in-process.

    python3 perfbench/run.py --workload construct --seed 1 --seconds 15 --trace 0

Run from the repository root.  Each workload runs in fresh worker processes
(worker.py) that call gstirling.cli.main(argv) with stdout captured; this
process checks every output (checks.py) between timed operations and prints
one JSON object as the last line of its stdout.  With --trace 0 it reports
the end-to-end metrics, with --trace 1 the per-layer ones (spans.py).  Run
and span records are written under perfbench/out/.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SCHEMA = os.path.join(ROOT, "docs", "cli-output.schema.json")
SETUP_PROBES = 4  # extra processes that only set up; setup_s is the median
TAIL_BEYOND = 10  # samples above the reported tail latency

sys.path.insert(0, HERE)
import workloads  # noqa: E402
from checks import Checker  # noqa: E402


class Worker:
    """A worker process speaking JSON lines over its stdin/stdout."""

    def __init__(self, args, mode: str, workdir: str):
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--workdir", workdir, "--mode", mode]
        t0 = time.monotonic()
        self.proc = subprocess.Popen(cmd + ["--t0", repr(t0)], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True, cwd=ROOT)

    def recv(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited early (code {self.proc.wait()})")
        return json.loads(line)

    def send(self, word: str) -> None:
        self.proc.stdin.write(word + "\n")
        self.proc.stdin.flush()

    def close(self) -> int:
        if self.proc.poll() is None and self.proc.stdin:
            try:
                self.proc.stdin.close()
            except BrokenPipeError:
                pass
        try:
            return self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            return self.proc.wait()


def tail(samples: list[float]) -> float:
    """The highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(samples)
    return ordered[max(len(ordered) - 1 - TAIL_BEYOND, 0)]


def measure(args, ops, checker, workdir) -> dict:
    setups = []
    for _ in range(SETUP_PROBES):
        probe = Worker(args, "setup", workdir)
        try:
            setups.append(probe.recv())
        finally:
            if probe.close() != 0:
                raise RuntimeError("set-up probe failed")
    worker = Worker(args, "trace" if args.trace else "plain", workdir)
    passes = 2 if args.trace else 1
    per_round = len(ops) * passes
    # operation times scaled to the reference interpreter speed (worker.py);
    # raw wall-clock times are kept in the record
    seconds = {"plain": [], "traced": []}
    raw_seconds = {"plain": [], "traced": []}
    ok_seconds = {"plain": [], "traced": []}
    failures, verified = [], {}
    correct = True
    try:
        setups.append(worker.recv())
        timed, received = 0.0, 0
        while True:
            msg = worker.recv()
            if msg["type"] == "done":
                break
            received += 1
            op = ops[msg["i"]]
            code, out = msg["code"], msg["out"]
            seconds[msg["pass"]].append(msg["scaled"])
            raw_seconds[msg["pass"]].append(msg["seconds"])
            timed += msg["scaled"]
            # an output equal to one already checked for the same operation
            # is right; any other output is checked in full, and must also
            # not differ from an earlier one (identical invocations give
            # identical bytes)
            kind, problem = None, ""
            if verified.get(msg["i"]) != (code, out):
                kind, problem = checker.judge(op.spec, code, out, msg["err"])
                if kind is None and msg["i"] in verified:
                    kind, problem = "wrong", "output differs between identical invocations"
                elif kind is None:
                    verified[msg["i"]] = (code, out)
            if kind is None:
                ok_seconds[msg["pass"]].append(msg["scaled"])
            else:
                # only the known fault may fail, and only by exiting with an
                # error; an error anywhere else is as wrong as a wrong answer
                correct = correct and kind == "error" and op.known_fault
                failures.append({"argv": list(op.argv)[:3], "code": code, "kind": kind,
                                 "problem": problem})
            round_done = received % per_round == 0
            worker.send("stop" if round_done and timed >= args.seconds else "next")
        done = msg
    finally:
        status = worker.close()
    if status != 0:
        raise RuntimeError(f"worker exited with code {status}")
    attempted = sum(len(v) for v in seconds.values())
    plain = ok_seconds["plain"]
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
    }
    if args.trace:
        layers = dict(done["layers"])
        traced, untraced = sum(seconds["traced"]), sum(seconds["plain"])
        layers["trace.overhead_pct"] = (100.0 * (traced / untraced - 1.0), "%")
        layers["trace.ops_per_s"] = (len(ok_seconds["traced"]) / traced, "1/s")
        metrics = layers
    else:
        metrics = {
            "setup_s": (statistics.median(x["setup_scaled"] for x in setups), "s"),
            "ops_per_s": (len(plain) / sum(seconds["plain"]), "1/s"),
            "latency_p50_ms": (1000.0 * statistics.median(plain), "ms"),
            "latency_tail_ms": (1000.0 * tail(plain), "ms"),
            "peak_rss_mb": (done["peak_rss_mb"], "MB"),
        }
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "result": result, "setup_samples": setups,
              "rounds": received // per_round, "ops_per_round": len(ops),
              "op_seconds": seconds, "op_raw_seconds": raw_seconds, "failures": failures}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, name + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-spans.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(done["spans"], fh)
    return result


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="operation time to measure (scaled, see worker.py); whole "
                        "rounds are always completed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "src", "gstirling")):
        print(f"error: no gstirling sources under {ROOT}", file=sys.stderr)
        return 1
    checker = Checker(SCHEMA)
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        ops = workloads.build(args.workload, args.seed, workdir)
        result = measure(args, ops, checker, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
