#!/usr/bin/env python3
"""Steadiness check: are the benchmark's end-to-end metrics steady?

    python3 leafbench/steady.py [--workloads table4,fleet,rpc] [--seeds 10]
                                [--sets 2] [--seconds S] [--first-seed N]

Runs `leafbench/run.py --trace 0` on every workload once per seed, for
`--sets` sets of runs of the same build (each set on its own seeds), and
prints for every end-to-end metric each set's median, quartiles and spread
(Q3 - Q1 over the median, from statistics.quantiles(n=4)) against the
metric's bound in BENCHMARK.json, plus how far the last set's median moved
from the first set's in the metric's worse direction.  It also prints the
spread of the raw values (before host-speed scaling, see README.md) and
each set's host reference times.

Verdict, for every metric, setup_s included: "steady" when every spread is
below a third of its bound and no median moved by more than its bound
(exit 0); "within bounds" when every spread and move is within its bound
but some spread is not below a third of it (exit 1); otherwise "over
bound" (exit 2).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit("%s seed %d failed (exit %d)" %
                         (workload, seed, proc.returncode))
    info = json.loads(lines[-2])
    return (json.loads(lines[-1])["metrics"], info["raw"],
            info["host_reference_ms"])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def moved(sets, name, better):
    """How far the last set's median moved from the first's, worse > 0."""
    first = statistics.median(sets[0][name])
    last = statistics.median(sets[-1][name])
    worse = (last - first) / first
    return -worse if better == "higher" else worse


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=101)
    args = ap.parse_args()

    metrics = {m["name"]: m for m in bench["end_to_end"]}
    over, loose = [], []
    for workload in args.workloads.split(","):
        sets, raws, refs = [], [], []
        for s in range(args.sets):
            seeds = [args.first_seed + 1000 * s + i for i in range(args.seeds)]
            runs = [run(workload, seed, args.seconds) for seed in seeds]
            sets.append({name: [r[0][name]["value"] for r in runs]
                         for name in metrics})
            raws.append({name: [r[1][name] for r in runs] for name in metrics})
            refs.append([r[2] for r in runs])
        print("%s (%d seeds x %d sets, %g s)" %
              (workload, args.seeds, args.sets, args.seconds))
        print("  host reference ms, per run of each set:")
        for v in refs:
            print("    " + " ".join("%.4g" % x for x in v))
        for name, m in metrics.items():
            key = workload + "/" + name
            cells = []
            for st in sets:
                med, q1, q3, spread = summary(st[name])
                cells.append("median %.6g [%.6g, %.6g] spread %.3f" %
                             (med, q1, q3, spread))
                if spread > m["bound"]:
                    over.append(key)
                elif spread >= m["bound"] / 3:
                    loose.append(key)
            line = "  %-12s bound %.3f  %s" % (name, m["bound"],
                                                 " | ".join(cells))
            if len(sets) > 1:
                worse = moved(sets, name, m["better"])
                line += "  moved %+.3f" % worse
                if worse > m["bound"]:
                    over.append(key)
            line += "  (raw spread %s" % " | ".join(
                "%.3f" % summary(rw[name])[3] for rw in raws)
            if len(raws) > 1:
                line += ", moved %+.3f" % moved(raws, name, m["better"])
            line += ")"
            print(line)
            for st in sets:
                print("    " + " ".join("%.6g" % v for v in st[name]))
        sys.stdout.flush()
    if over:
        print("over bound: " + ", ".join(sorted(set(over))))
        return 2
    if loose:
        print("within bounds; spread not below a third of the bound: " +
              ", ".join(sorted(set(loose))))
        return 1
    print("steady")
    return 0


if __name__ == "__main__":
    sys.exit(main())
