#!/usr/bin/env python3
"""Build and run the YOLoC serving-stack benchmark.

    python3 perfbench/run.py --workload detector_batch --seed 1 --seconds 10 --trace 0

Builds the repository's library and the benchmark program (CMake, Release)
into $CARGO_TARGET_DIR, or .bench_build at the repository root when that is
unset, then runs one measurement. The program's last stdout line is the
result object; build output goes to stderr. See perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("analog_http", "detector_batch")
RUN_TIMEOUT_S = 175


def build(build_dir, env):
    """Configure (cheap when cached), build incrementally; returns the
    program path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr, env=env)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(REPO_ROOT, "src", "runtime",
                                       "deployment_plan.hpp")):
        print("perfbench: the yoloc sources (src/) are missing next to the "
              "benchmark; nothing to measure", file=sys.stderr)
        return 2

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(REPO_ROOT, build_dir)
    # Keep the compiler's and the benchmark's scratch files inside the build
    # tree.
    tmp_dir = os.path.join(build_dir, "tmp")
    work_dir = os.path.join(build_dir, "work")
    os.makedirs(tmp_dir, exist_ok=True)
    os.makedirs(work_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    try:
        program = build(build_dir, env)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    cmd = [program, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    try:
        return subprocess.run(cmd, cwd=REPO_ROOT, env=env,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
