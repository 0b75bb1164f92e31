#!/usr/bin/env python3
"""Builds and runs the uobench benchmark from the root of a checkout.

    python3 uobench/run.py --workload uo_cold --seed 1 --seconds 20 --trace 0

Builds the engine library from ../src together with the uobench program
(CMake, Release) into $CARGO_TARGET_DIR or .bench_build, runs one workload
and prints the program's full report followed, as the last line, by
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. Exits non-zero when the
build fails or any response was wrong.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("uo_cold", "uo_hot_http", "uo_rw")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[uobench] {msg}", file=sys.stderr, flush=True)


def build(build_root):
    """Configures (once) and builds uobench; returns the binary path."""
    src = os.path.join(HERE, "..", "src")
    if not os.path.isdir(src):
        log(f"engine sources not found at {os.path.normpath(src)}")
        return None
    build_dir = os.path.join(build_root, "uobench")
    tmp_dir = os.path.join(build_root, "tmp")  # keeps compiler temporaries here
    os.makedirs(build_dir, exist_ok=True)
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "--target", "uobench",
                      "-j", jobs])
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                      env=env)
            except OSError as err:
                log(f"cannot run {cmd[0]}: {err}")
                return None
            if done.returncode != 0:
                log(f"build step failed: {' '.join(cmd)}")
                return None
    binary = os.path.join(build_dir, "uobench")
    return binary if os.path.exists(binary) else None


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, if it is present."""
    path = os.path.join(HERE, "..", "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                 or ".bench_build")
    binary = build(build_root)
    if binary is None:
        return 2
    work_dir = os.path.join(build_root, "uobench-work")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 3
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    if not lines:
        log(f"uobench printed no report (exit {done.returncode})")
        return 3
    report = json.loads(lines[-1])
    for err in report["errors"]:
        log(f"error: {err}")
    metrics = report["per_layer" if args.trace else "end_to_end"]
    names = expected_metrics(args.trace)
    missing = [n for n in names or [] if n not in metrics]
    if missing:
        log(f"report lacks metrics {missing}")
        return 1 if not report["correct"] else 4
    if names is not None:
        metrics = {n: metrics[n] for n in names}
    print(json.dumps({"context": report["context"],
                      "end_to_end": report["end_to_end"],
                      "per_layer": report["per_layer"]}, indent=1,
                     sort_keys=True))
    correct = bool(report["correct"]) and done.returncode == 0
    print(json.dumps({"correct": correct,
                      "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
