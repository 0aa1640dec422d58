#!/usr/bin/env python3
"""Measures how steady the benchmark is and derives its bounds.

Runs every workload in two interleaved sets (A and B, each --runs runs,
every run with its own seed) and prints, for every end-to-end metric of
BENCHMARK.json, each set's median and quartiles, its spread (interquartile
distance over the median), the set-to-set difference of the medians, the
bound in force and a bound derived from these figures. Every run lasts
BENCHMARK.json's run_seconds, the length the bounds hold for. Run it from
the root of a checkout:

    python3 perfbench/steady.py [--runs 10] [--workloads svc-mixed,embed-churn]

The derived bound is max(3 x the larger spread, 2 x |difference|), rounded up
to a whole percent, at least 0.05 and at most 0.25, for every metric.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else math.inf


def derive(spread_a, spread_b, diff):
    need = max(2 * abs(diff), 3 * max(spread_a, spread_b))
    return min(0.25, max(0.05, math.ceil(need * 100) / 100))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    ap.add_argument("--workloads", default="", help="comma-separated subset (default: all)")
    ap.add_argument("--json", default="", help="also write every run's result to this file")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    results = {w: {"A": [], "B": []} for w in workloads}
    for i in range(args.runs):
        for s, base in (("A", 1), ("B", 1001)):
            for w in workloads:
                r = run_once(bench["command"], w, base + i, seconds)
                if not r["correct"]:
                    sys.exit(f"{w} set {s} run {i}: correct is false")
                results[w][s].append(r)
                print(f"{w} {s}{i} seed={base + i} " + " ".join(
                    f"{k}={v['value']:.4g}" for k, v in sorted(r["metrics"].items())), flush=True)

    if args.json:
        with open(args.json, "w") as f:
            json.dump(results, f)

    print()
    print(f"{'workload':12} {'metric':17} {'A median':>10} {'A q1':>10} {'A q3':>10} {'A sprd':>7}"
          f" {'B median':>10} {'B q1':>10} {'B q3':>10} {'B sprd':>7} {'B-A':>7} {'bound':>6} {'derive':>6}")
    worst = {}
    for w in workloads:
        for s in ("A", "B"):
            att = sum(r["attempted"] for r in results[w][s])
            fail = sum(r["failed"] for r in results[w][s])
            print(f"# {w} set {s}: failed {fail} of {att} attempted")
        for name in bounds:
            va = [r["metrics"][name]["value"] for r in results[w]["A"]]
            vb = [r["metrics"][name]["value"] for r in results[w]["B"]]
            ma, qa1, qa3, sa = summary(va)
            mb, qb1, qb3, sb = summary(vb)
            diff = (mb - ma) / ma if ma else math.inf
            d = derive(sa, sb, diff)
            worst[name] = max(worst.get(name, 0), d)
            print(f"{w:12} {name:17} {ma:10.4g} {qa1:10.4g} {qa3:10.4g} {sa:7.3f}"
                  f" {mb:10.4g} {qb1:10.4g} {qb3:10.4g} {sb:7.3f} {diff:+7.3f} {bounds[name]:6.2f} {d:6.2f}")
    print()
    print("derived bounds (worst over workloads):")
    for name, d in worst.items():
        print(f"  {name:17} {d:.2f} (in force {bounds[name]:.2f})")


if __name__ == "__main__":
    main()
