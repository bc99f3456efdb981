#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 leafbench/run.py --workload table4|fleet|rpc|all --seed N \
        --seconds S --trace 0|1
    python3 leafbench/run.py --selftest

Builds leafbench (and the library sources in src/) with CMake into
.bench_build/leafbench at the repository root, then runs the leafbench
binary.  The last line of standard output is its JSON result; build output
goes to standard error.  Exits non-zero, without a result line, when the
build fails, a verification fails or the run takes longer than 170 s.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "leafbench")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("table4", "fleet", "rpc")
RUN_TIMEOUT_S = 170


def build(target):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.stderr.write("leafbench: build step failed: %s\n" % " ".join(cmd))
            return False
    return True


def run_one(workload, seed, seconds, trace):
    """Runs the leafbench binary; returns (exit code, stdout lines)."""
    cmd = [os.path.join(BUILD, "leafbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", OUT]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("leafbench: %s timed out\n" % workload)
        return 1, []
    return proc.returncode, proc.stdout.splitlines()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the statistics self-test")
    args = ap.parse_args()

    if args.selftest:
        if not build("leafbench_selftest"):
            return 1
        return subprocess.run([os.path.join(BUILD, "leafbench_selftest")],
                              timeout=RUN_TIMEOUT_S).returncode
    if args.workload is None:
        ap.error("--workload is required")
    if not build("leafbench"):
        return 1
    os.makedirs(OUT, exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        code, lines = run_one(name, args.seed, args.seconds, args.trace)
        if code != 0 or not lines:
            for line in lines:
                sys.stderr.write(line + "\n")
            sys.stderr.write("leafbench: %s failed (exit %d)\n" % (name, code))
            return 1
        if len(names) == 1:
            print("\n".join(lines))
            return 0
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            merged["metrics"][name + "." + key] = metric
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
