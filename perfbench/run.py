#!/usr/bin/env python3
"""Builds and runs the Focus end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload ingest_backlog --seed 1 --seconds 10 --trace 0

The first run configures and builds perfbench/ (the library sources under src/
plus the harness) into .bench_build/perfbench; later runs reuse that build.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: every end-to-end metric with --trace 0, every
per-layer metric with --trace 1. Traced runs also write the span ledger to
.bench_build/perfbench/ledger/ and report the tracing overhead: the traced
values against the untraced runs of the same workload and the same binary
stored in .bench_build/perfbench/results/. When there are none, the traced
invocation first makes an untraced run at the same seed.
"""
import argparse
import glob
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("ingest_backlog", "query_fleet", "live_mixed")
# Wall budget of the runs of one invocation (the build not included).
RUN_BUDGET_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the benchmark binary; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "fleet.h")):
        fail("library sources not found under src/ (run from a full checkout)")
    binary = os.path.join(BUILD, "focus_perfbench")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4", "--target", "focus_perfbench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    if not os.path.isfile(binary):
        fail("build produced no binary")
    return binary


def remove_segments(pid):
    """Unlinks shared-memory segments a crashed run left behind."""
    for path in glob.glob("/dev/shm/focus_perfbench_%d_*" % pid):
        try:
            os.unlink(path)
        except OSError:
            pass


def run_binary(binary, args, work_dir, trace_out, deadline):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--trace", str(args.trace), "--work-dir", work_dir]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        remove_segments(proc.pid)
        fail("runs exceeded %d s" % RUN_BUDGET_S)
    finally:
        # Worker processes the run forked exit with it; reap any straggler.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except OSError:
            pass
        remove_segments(proc.pid)
    if proc.returncode != 0:
        sys.stdout.write(out)
        fail("benchmark binary exited with %d" % proc.returncode)
    return out


def parse(out):
    e2e = layer = ops = None
    for line in out.splitlines():
        if line.startswith("E2E "):
            e2e = json.loads(line[4:])
        elif line.startswith("LAYER "):
            layer = json.loads(line[6:])
        elif line.startswith("OPS "):
            ops = json.loads(line[4:])
    if e2e is None or layer is None or ops is None:
        fail("benchmark output is missing its result lines")
    return e2e, layer, ops


def binary_hash(binary):
    with open(binary, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def result_path(results_dir, workload, seed, trace):
    return os.path.join(results_dir, "%s-seed%d-trace%d.json" % (workload, seed, trace))


def stored_untraced(results_dir, workload, binary):
    """End-to-end metrics of the stored untraced runs made by |binary|."""
    runs = []
    for path in glob.glob(os.path.join(results_dir, workload + "-seed*-trace0.json")):
        try:
            with open(path) as f:
                stored = json.load(f)
        except (OSError, ValueError):
            continue
        if isinstance(stored, dict) and stored.get("binary") == binary:
            runs.append(stored["metrics"])
    return runs


def tracing_overhead(untraced, traced_e2e):
    """Traced value minus the median of the untraced runs, per metric."""
    overhead = {}
    for name, metric in traced_e2e.items():
        base = [r[name]["value"] for r in untraced if name in r]
        if base:
            median = statistics.median(base)
            overhead[name] = {"traced": metric["value"], "untraced_median": median,
                              "delta": metric["value"] - median, "untraced_runs": len(base)}
    return overhead


def measure(binary, args, trace, deadline, trace_out=None):
    """One run of the binary in a fresh work directory; returns its output."""
    work_dir = os.path.join(BUILD, "work", "%s-%d-%d-%d" %
                            (args.workload, args.seed, trace, os.getpid()))
    run_args = argparse.Namespace(**vars(args))
    run_args.trace = trace
    try:
        return run_binary(binary, run_args, work_dir, trace_out, deadline)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def store(results_dir, args, trace, binary, e2e):
    with open(result_path(results_dir, args.workload, args.seed, trace), "w") as f:
        json.dump({"binary": binary, "metrics": e2e}, f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be >= 1")

    binary = build()
    digest = binary_hash(binary)
    deadline = time.monotonic() + RUN_BUDGET_S
    results_dir = os.path.join(BUILD, "results")
    ledger_dir = os.path.join(BUILD, "ledger")
    os.makedirs(results_dir, exist_ok=True)
    os.makedirs(ledger_dir, exist_ok=True)
    if args.trace:
        untraced = stored_untraced(results_dir, args.workload, digest)
        if not untraced:
            print("perfbench: no stored untraced run of this binary; making one at seed %d"
                  % args.seed, file=sys.stderr)
            base_e2e, _, base_ops = parse(measure(binary, args, 0, deadline))
            if base_ops["correct"]:
                store(results_dir, args, 0, digest, base_e2e)
            untraced = [base_e2e]
        trace_out = os.path.join(ledger_dir, "%s-seed%d.json" % (args.workload, args.seed))
        out = measure(binary, args, 1, deadline, trace_out)
    else:
        out = measure(binary, args, 0, deadline)
    e2e, layer, ops = parse(out)
    sys.stdout.write(out)
    if ops["correct"]:
        store(results_dir, args, args.trace, digest, e2e)

    if args.trace:
        overhead = tracing_overhead(untraced, e2e)
        for name, o in overhead.items():
            print("tracing overhead %-22s traced %.6g untraced median %.6g (%d runs) delta %+.6g"
                  % (name, o["traced"], o["untraced_median"], o["untraced_runs"], o["delta"]))
        if os.path.isfile(trace_out):
            with open(trace_out) as f:
                trace = json.load(f)
            trace["tracing_overhead"] = overhead
            with open(trace_out, "w") as f:
                json.dump(trace, f)
        metrics = layer
    else:
        metrics = e2e
    print(json.dumps({"correct": bool(ops["correct"]), "attempted": int(ops["attempted"]),
                      "failed": int(ops["failed"]), "metrics": metrics}))


if __name__ == "__main__":
    main()
