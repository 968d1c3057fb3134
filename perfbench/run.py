#!/usr/bin/env python3
"""Builds tempo's benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload paper_join --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --selftest

The benchmark is its own CMake package (perfbench/CMakeLists.txt) that
compiles the repository's libraries from ../src. The build goes to
.bench_build/perfbench; a traced run (--trace 1) writes its span file to
.bench_build/spans/<workload>-seed<n>.json. The last line of standard output
is the run's JSON result; build output goes to standard error. --selftest
builds and runs the benchmark's own tests instead.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("paper_join", "service_mix", "sequenced_pipeline")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; returns the exit code."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        return -1


def build(root, build_dir, target):
    source = root / "perfbench"
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail(f"tempo sources not found under {root / 'src'}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (build_dir / "CMakeCache.txt").is_file():
        code = run_logged(["cmake", "-S", str(source), "-B", str(build_dir),
                           "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
        if code != 0:
            fail("cmake configure failed")
    code = run_logged(["cmake", "--build", str(build_dir), "--target", target,
                       "-j", jobs], BUILD_TIMEOUT_S)
    if code != 0:
        fail("build failed")
    return build_dir / target


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    root = Path(__file__).resolve().parent.parent
    build_dir = root / ".bench_build" / "perfbench"

    if args.selftest:
        binary = build(root, build_dir, "perfbench_test")
        return subprocess.run([str(binary)]).returncode

    binary = build(root, build_dir, "perfbench")
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = root / ".bench_build" / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans",
                str(spans_dir / f"{args.workload}-seed{args.seed}.json")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
