#!/usr/bin/env python3
"""Builds the benchmark from the checkout it runs in, then runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The build (CMake, Release) goes to
.bench_build/perfbench and is reused by later runs; the on-disk indexes live
under .bench_build/work-<pid> and are removed when the run ends. The last
line of standard output is the run's JSON result. Without the library's
sources the build fails, and the script exits non-zero without a result.
"""
import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "spb_perfbench")
WORKLOADS = ("wire-read", "wire-mixed", "inproc-cold")


def build():
    """Configures on first use, then brings the binary up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no library sources under ./src; run from the root "
                 "of a checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "spb_perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)  # BENCHMARK.json run_seconds
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    build()
    if args.self_test:
        sys.exit(subprocess.run([BINARY, "--self-test"]).returncode)
    work = os.path.join(ROOT, ".bench_build", "work-%d" % os.getpid())
    try:
        proc = subprocess.run(
            [BINARY, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work-dir", work],
            stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout)
        sys.exit("run.py: benchmark exited with code %d" % proc.returncode)
    print(lines[-1])


if __name__ == "__main__":
    main()
