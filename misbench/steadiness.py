#!/usr/bin/env python3
"""Steadiness check: two sets of benchmark runs of one build, apart in time.

    python3 misbench/steadiness.py

Run from the root of a checkout. Each set runs every workload of
BENCHMARK.json RUNS times with seeds 1..RUNS (the same seeds in both
sets), untraced, for the BENCHMARK.json run length; the second set starts
GAP_S seconds after the first ends. For every set it prints each end-to-end
metric's median and quartiles and the quartile spread as a share of the
median. Then it says, per metric and workload, whether every spread stays
within the metric's bound and whether the two sets' medians differ by no
more than the bound, in either direction. Exits 1 if any check fails.
"""
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
SETS = 2
GAP_S = 300


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(lines[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def drift(first, later):
    """How far `later` lies from `first`, either way, as a share of `first`."""
    if first == 0:
        return 0.0 if later == first else float("inf")
    return abs(later - first) / abs(first)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]
    workloads = [w["name"] for w in bench["workloads"]]

    sets = []  # sets[s][workload] = list of results
    for s in range(SETS):
        if s > 0:
            print(f"# waiting {GAP_S} s before set {s + 1}", flush=True)
            time.sleep(GAP_S)
        results = {}
        for w in workloads:
            results[w] = [run_once(w, seed, bench["run_seconds"])
                          for seed in range(1, RUNS + 1)]
            print(f"\n## set {s + 1}, {w}", flush=True)
            for m in metrics:
                vals = [r["metrics"][m["name"]]["value"] for r in results[w]]
                q1, q2, q3, spread = summary(vals)
                print(f"  {m['name']:<18} median {q2:<14.6g} q1 {q1:<14.6g} "
                      f"q3 {q3:<14.6g} spread {spread:7.4f} (bound {m['bound']}) "
                      f"{'ok' if spread <= m['bound'] else 'WIDE'}", flush=True)
        sets.append(results)

    failures = 0
    for w in workloads:
        for r in sets[0][w] + sets[1][w]:
            if not r["correct"]:
                print(f"FAIL {w}: a run reported correct = false")
                failures += 1
        shares = {round(sum(r["failed"] for r in s[w]) / sum(r["attempted"] for r in s[w]), 12)
                  for s in sets}
        if len(shares) != 1:
            print(f"FAIL {w}: failed share differs between sets: {sorted(shares)}")
            failures += 1
        for m in metrics:
            per_set = [summary([r["metrics"][m["name"]]["value"] for r in s[w]]) for s in sets]
            for i, (_, _, _, spread) in enumerate(per_set):
                if spread > m["bound"]:
                    print(f"FAIL {w} {m['name']}: set {i + 1} spread {spread:.4f} > {m['bound']}")
                    failures += 1
            share = drift(per_set[0][1], per_set[1][1])
            print(f"  {w} {m['name']}: medians differ by {share:.4f} (bound {m['bound']})")
            if share > m["bound"]:
                print(f"FAIL {w} {m['name']}: medians differ by {share:.4f} > {m['bound']}")
                failures += 1
    print(f"\n{'agree' if failures == 0 else 'DISAGREE'}: {failures} failed checks "
          f"over {SETS} sets x {RUNS} runs x {len(workloads)} workloads")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
