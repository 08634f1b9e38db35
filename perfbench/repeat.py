#!/usr/bin/env python3
"""Run one benchmark workload N times and summarise every metric.

    python3 perfbench/repeat.py --workload analog_http --runs 10 --seconds 10
    python3 perfbench/repeat.py --workload detector_batch --runs 5 --trace 1

Run i uses seed first_seed + i. For each metric it prints the median, the
first and third quartiles (statistics.quantiles(values, n=4)) and the
spread (q3 - q1) / median. With BENCHMARK.json next to the benchmark it
also marks end-to-end spreads that exceed their bound, or a third of it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)


def bounds():
    path = os.path.join(REPO_ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return {}
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=REPO_ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"seed {seed}: exit code {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"seed {seed}: run reported correct=false")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    values, units = {}, {}
    for i in range(args.runs):
        seed = args.first_seed + i
        result = run_once(args.workload, seed, args.seconds, args.trace)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"run {i + 1}/{args.runs} seed {seed}: attempted "
              f"{result['attempted']} failed {result['failed']}",
              file=sys.stderr)

    limits = bounds() if args.trace == 0 else {}
    print(f"{args.workload}: {args.runs} runs, seeds {args.first_seed}.."
          f"{args.first_seed + args.runs - 1}, --seconds {args.seconds}, "
          f"--trace {args.trace}")
    print(f"{'metric':40s} {'median':>14s} {'q1':>14s} {'q3':>14s} "
          f"{'spread':>8s}  unit")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                     else (vals[0], None, vals[0]))
        spread = (q3 - q1) / med if med else float("nan")
        flag = ""
        if name in limits and name != "setup_s":
            if spread > limits[name]:
                flag = "  OVER BOUND"
            elif spread > limits[name] / 3:
                flag = "  over bound/3"
        print(f"{name:40s} {med:14.6g} {q1:14.6g} {q3:14.6g} "
              f"{spread:8.4f}  {units[name]}{flag}")


if __name__ == "__main__":
    main()
