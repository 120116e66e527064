#!/usr/bin/env python3
"""Builds and runs the layered benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload pevpm_jacobi --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-test

The benchmark and the simulator sources it measures are built (Release)
into .bench_build/ at the repository root; the build is incremental. Build
output goes to stderr, so the last line on stdout is the benchmark's JSON
result. Traced runs also write their spans to .bench_build/traces/.
"""

import argparse
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(REPO_ROOT, ".bench_build")
WORKLOADS = ("mpibench_seq", "mpibench_part", "pevpm_jacobi", "pevpmd_mixed")
# Each run must end well inside three minutes; the build is not counted.
RUN_TIMEOUT_S = 170


def build(target):
    """Configures (once) and builds `target`; returns the path of the binary."""
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = []
    # cmake_install.cmake appears only once a configure has succeeded.
    if not os.path.exists(os.path.join(BUILD_DIR, "cmake_install.cmake")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", target,
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              check=False)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(step))
    return os.path.join(BUILD_DIR, target)


def run(command):
    """Runs `command`, passing its output through; returns its exit code."""
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S,
                              check=False).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the checks' self-tests")
    args = parser.parse_args()

    if args.self_test:
        return run([build("perfbench_selftest")])
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    binary = build("perfbench")
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for workload in workloads:
        command = [binary, "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            traces = os.path.join(BUILD_DIR, "traces")
            os.makedirs(traces, exist_ok=True)
            command += ["--trace-out", os.path.join(
                traces, "%s-seed%d.json" % (workload, args.seed))]
        status = run(command) or status
    return status


if __name__ == "__main__":
    sys.exit(main())
