#!/usr/bin/env python3
"""Runs the benchmark over several seeds and prints, per workload and metric,
the median and the quartile spread (Q3 - Q1 of `statistics.quantiles(n=4)`,
as a share of the median) - the same figure the acceptance rule uses.

usage: tools/spread.py <binary> [--seeds 1-10] [--seconds 30] [--trace 0]
                       [--workloads a,b] [--sets 1] [--json out.json]

With --sets N the seed list is run N times (N same-code sets); the report
then also gives, per metric, the largest relative distance between two
sets' medians.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time

WORKLOADS = ["ingest_drift", "archive_cold", "live_mixed", "fleet_scatter"]


def run(binary, workload, seed, seconds, trace):
    started = time.time()
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True)
    wall = time.time() - started
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"{workload} seed {seed}: no output\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    result["exit"] = proc.returncode
    result["laps"] = next((l for l in lines if l.startswith("# laps")), "")
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("binary")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="30")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--json")
    args = ap.parse_args()
    lo, _, hi = args.seeds.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    everything = {}
    for workload in args.workloads.split(","):
        sets = []
        for s in range(args.sets):
            runs = [run(args.binary, workload, seed, args.seconds, args.trace) for seed in seeds]
            sets.append(runs)
            bad = [(seed, r["failed"]) for seed, r in zip(seeds, runs) if not r["correct"] or r["exit"]]
            print(f"# {workload} set {s}: wall {statistics.median(r['wall_s'] for r in runs):.1f} s/run, "
                  f"{runs[0]['laps']}, incorrect runs {bad}", flush=True)
        everything[workload] = sets
        names = list(sets[0][0]["metrics"])
        print(f"{'metric':42} {'median':>14} {'min':>12} {'max':>12} {'spread':>8}" + ("  set-to-set" if args.sets > 1 else ""))
        for name in names:
            per_set = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            values = per_set[0]
            line = (f"{name:42} {statistics.median(values):14.6g} {min(values):12.6g} "
                    f"{max(values):12.6g} {spread(values) if len(values) > 1 else 0:8.4f}")
            if args.sets > 1:
                medians = [statistics.median(v) for v in per_set]
                base = statistics.median(medians)
                line += f"  {(max(medians) - min(medians)) / base if base else 0:8.4f}"
            print(line, flush=True)
    if args.json:
        with open(args.json, "w") as out:
            json.dump(everything, out)


if __name__ == "__main__":
    main()
