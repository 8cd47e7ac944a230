#!/usr/bin/env python3
"""Turns the JSON `spread.py --sets N --json` wrote into the tables of
REPEATABILITY.md (markdown on standard output).

usage: tools/repeatability.py campaign.json ../BENCHMARK.json
"""
import json
import re
import statistics
import sys


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def main():
    campaign = json.load(open(sys.argv[1]))
    manifest = json.load(open(sys.argv[2]))
    bounds = {m["name"]: m for m in manifest["end_to_end"]}
    for workload, sets in campaign.items():
        laps = [int(re.search(r"laps (\d+)", r["laps"]).group(1)) for runs in sets for r in runs]
        samples = [int(re.search(r"samples (\d+)", r["laps"]).group(1)) for runs in sets for r in runs]
        wall = [r["wall_s"] for runs in sets for r in runs]
        wrong = sum(1 for runs in sets for r in runs if not r["correct"] or r["exit"])
        print(f"### `{workload}`\n")
        print(f"{len(sets)} sets x {len(sets[0])} runs; laps per run {min(laps)}-{max(laps)} "
              f"(median {statistics.median(laps):g}), latency samples per run {min(samples)}-{max(samples)}, "
              f"wall time per run {statistics.median(wall):.1f} s (max {max(wall):.1f} s), "
              f"runs not `correct`: {wrong}.\n")
        print("| metric | bound | median | spread per set (Q3-Q1)/median | max spread | max set-to-set | spread <= bound/3 | spread <= bound |")
        print("|---|---|---|---|---|---|---|---|")
        for name, meta in bounds.items():
            per_set = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            spreads = [spread(v) for v in per_set]
            medians = [statistics.median(v) for v in per_set]
            overall = statistics.median(medians)
            shift = (max(medians) - min(medians)) / overall if overall else 0.0
            thirds = sum(1 for s in spreads if s <= meta["bound"] / 3)
            within = sum(1 for s in spreads if s <= meta["bound"])
            print(f"| `{name}` | {meta['bound']} | {overall:.6g} | "
                  + " ".join(f"{s:.3f}" for s in spreads)
                  + f" | {max(spreads):.3f} | {shift:.3f} | {thirds} of {len(spreads)} sets | {within} of {len(spreads)} sets |")
        print()


if __name__ == "__main__":
    main()
