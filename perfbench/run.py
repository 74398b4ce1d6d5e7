#!/usr/bin/env python3
"""Builds and runs the cmarkov wire-to-verdict benchmark.

One run of one workload (the last line of standard output is the JSON
result):

    python3 perfbench/run.py --workload wire-steady --seed 1 --seconds 10 --trace 0

Every workload, end-to-end metrics printed by name with their units and
operation counts (exits non-zero if any run is incorrect or fails an
operation):

    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

The benchmark's own unit test:

    python3 perfbench/run.py --self-test

The program is built from the checkout's sources with CMake into the
directory named by CARGO_TARGET_DIR (default .bench_build), relative to the
checkout root. Build output goes to standard error.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["wire-steady", "wire-audit", "wire-churn", "train"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(target):
    """Configures and builds `target` (incrementally); returns its path."""
    out = build_dir()
    steps = [["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", out, "-j3", "--target", target]]
    for step in steps:
        result = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if result.returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(step))
    return os.path.join(out, target)


def run_once(binary, workload, seed, seconds, trace, capture):
    args = [binary, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--out-dir", os.path.join(ROOT, ".bench_out")]
    return subprocess.run(args, cwd=ROOT, timeout=RUN_TIMEOUT_S, text=True,
                          stdout=subprocess.PIPE if capture else None)


def run_all(binary, seed, seconds, trace):
    ok = True
    rows = []
    for workload in WORKLOADS:
        result = run_once(binary, workload, seed, seconds, trace, capture=True)
        lines = result.stdout.strip().splitlines()
        if result.returncode != 0 or not lines:
            print(f"{workload}: run failed (exit {result.returncode})")
            ok = False
            if not lines:
                continue
        report = json.loads(lines[-1])
        ok = ok and report["correct"] and report["failed"] == 0
        print(f"{workload}: correct={report['correct']} "
              f"attempted={report['attempted']} failed={report['failed']}")
        for line in lines:
            if "overload_transitions" in line and line.startswith("operations"):
                print("  " + line)
        for name, metric in report["metrics"].items():
            rows.append((workload, name, metric["value"], metric["unit"]))
    width = max(len(name) for _, name, _, _ in rows) if rows else 0
    for workload, name, value, unit in rows:
        print(f"{workload:12} {name:{width}} {value:14.6g} {unit}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not (args.all or args.self_test or args.workload):
        parser.error("one of --workload, --all or --self-test is required")

    try:
        if args.self_test:
            return subprocess.run([build("perfbench_stats_test")],
                                  cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
        binary = build("perfbench")
        if args.all:
            return run_all(binary, args.seed, args.seconds, args.trace)
        return run_once(binary, args.workload, args.seed, args.seconds,
                        args.trace, capture=False).returncode
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
