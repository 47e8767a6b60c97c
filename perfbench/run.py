#!/usr/bin/env python3
"""Build the benchmark from this checkout's sources and run one workload.

    python3 perfbench/run.py --workload snapshot|series|ingest \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds
perfbench/ (CMake, Release at -O2) into .bench_build/perfbench; later
runs only rebuild what changed.

An untraced run starts the workload in PROCESSES processes one after the
other, each with one set-up and an equal share of --seconds, and pools
their samples: setup_s is the median set-up, op_p50_ms the median of all
ops, ops_per_s all ops over all op time, and peak_rss_mb the median of
the processes' peaks. Set-ups and ops are timed in the process's CPU
time (see the README). Ops within one process agree closely; processes
do not, so a run pools several. Every process
checks each of its ops; the first also makes the once-per-process checks,
which would repeat the same samples in the others.

The workload's progress goes to stderr, and the last line of stdout is
the result:

    {"correct": ..., "attempted": N, "failed": F, "metrics": {...}}

--seed N seeds every check's sample. The scenario and its evolution stay
at the program's defaults, ScenarioConfig::seed 22 and EvolutionConfig::seed 2022, in
every run: see the README for why.
--trace 1 runs the traced per-layer pass instead of the untraced one and
writes its spans to .bench_build/trace-<workload>-<seed>.json.
"""

import argparse
import fcntl
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

WORKLOADS = ("snapshot", "series", "ingest")
PROCESSES = 2
BUILD_TIMEOUT_S = 850
SEED_MASK = (1 << 64) - 1

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "manrs_perfbench")


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then build; serialized by a lock on the build dir."""
    for needed in ("src", os.path.join("bench", "series.cpp")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("%s is missing: run from the root of a full checkout" % needed,
                 2)
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            subprocess.run(configure, stdout=sys.stderr, check=True,
                           timeout=BUILD_TIMEOUT_S)
        subprocess.run(["cmake", "--build", BUILD_DIR, "-j",
                        str(os.cpu_count() or 1)],
                       stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """The result line, if it is well formed and names every metric."""
    try:
        result = json.loads(line)
    except ValueError:
        return None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return None
    metrics = result["metrics"]
    expected = declared_metrics(trace)
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        print("perfbench: metrics missing %s, undeclared %s" % (missing, extra),
              file=sys.stderr)
        return None
    for name, unit in expected.items():
        if metrics[name].get("unit") != unit:
            print("perfbench: %s has unit %r, declared %r" %
                  (name, metrics[name].get("unit"), unit), file=sys.stderr)
            return None
    if result["attempted"] < 1:
        return None
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=22)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1", 2)

    try:
        build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)

    command = [BINARY, "--workload", args.workload,
               "--seed", str(args.seed & SEED_MASK), "--trace", str(args.trace)]
    # For all processes of one run together: their set-ups (under 10 s
    # each on the reference host), their checks, and the measured time.
    deadline = time.monotonic() + 120 + 2 * args.seconds
    if args.trace:
        result = run_process(command + [
            "--seconds", str(args.seconds), "--trace-out",
            os.path.join(ROOT, ".bench_build",
                         "trace-%s-%d.json" % (args.workload, args.seed))],
            deadline)[1]
    else:
        result = pooled([run_process(command + [
            "--seconds", repr(args.seconds / PROCESSES),
            "--verify", "1" if i == 0 else "0"], deadline)
            for i in range(PROCESSES)])
    if check_result(result, args.trace) is None:
        fail("%s gave no well-formed result" % args.workload)
    print(result)


def run_process(command, deadline):
    """(samples, result) lines of one workload process.

    The process runs in a session of its own, so that on a timeout the
    ingest set-up's child is stopped with it.
    """
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("the run did not finish in time")
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("%s exited with %d" % (command[2], proc.returncode))
    for line in lines[:-2]:
        print(line, file=sys.stderr)
    return (lines[-2] if len(lines) > 1 else None), lines[-1]


def pooled(runs):
    """One result line from the samples of several processes."""
    setups, ops, peaks = [], [], []
    attempted = failed = 0
    correct = True
    for samples, line in runs:
        result = json.loads(line)
        data = json.loads(samples)["samples"]
        setups.append(data["setup_s"])
        ops += data["op_ms"]
        peaks.append(data["peak_rss_mb"])
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["correct"]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_ms": (statistics.median(ops), "ms"),
        "ops_per_s": (len(ops) / (sum(ops) / 1000.0), "1/s"),
        "peak_rss_mb": (statistics.median(peaks), "MB"),
    }
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}})

if __name__ == "__main__":
    main()
