#!/usr/bin/env python3
"""Measures the run-to-run spread of every end-to-end metric and checks the
bounds in BENCHMARK.json against it.

    python3 benchmark/calibrate.py [--write-baseline]

Per workload it runs seeds 1-10 once each, then seed 1 four more times:
five runs of seed 1, as the calibration rule asks, and ten seeds for the
quartile spread. The runs land in .bench_runs/calibrate.jsonl. For each
metric it prints:

  - the spread across seeds: the distance between the first and third
    quartile (statistics.quantiles, n=4) as a share of the median. It must
    stay below a third of the bound;
  - the range across seeds as a share of the median;
  - the range across the seed-1 repeats (host-clock noise; modeled metrics
    must repeat bit for bit);
  - the bound the calibration rule gives: 10 % for host metrics,
    max(1 %, 1.5 x the seed range) for modeled ones, and never below three
    times the spread. A modeled metric whose rule exceeds 20 % needs more
    queries in its workload, not a wider bound.

Then, per metric, the largest bound the rule gives over all workloads,
which is the bound BENCHMARK.json should hold (setup_s keeps the widest
bound of all, 0.25).

--write-baseline stores the medians and spreads in benchmark/baseline.json.
Exits 1 if a spread reaches a third of its bound, a bound is tighter than
the rule, a modeled metric needs more than 20 %, a modeled metric does not
repeat exactly, or a run reported wrong results.
"""

import argparse
import json
import math
import os
import platform
import sys
from pathlib import Path

import runs

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEEDS = list(range(1, 11)) + [1] * 4
OUT = ROOT / ".bench_runs" / "calibrate.jsonl"
MAX_MODELED_BOUND = 0.20


def rule(metric, seed_range, spread):
    """The bound the calibration rule gives, rounded up to a thousandth."""
    base = 0.10 if metric in runs.HOST_METRICS else max(0.01, 1.5 * seed_range)
    return math.ceil(max(base, 3 * spread) * 1000) / 1000


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args()

    spec = runs.load_spec(ROOT)
    if OUT.exists():
        OUT.unlink()
    for w in runs.WORKLOADS:
        for seed in SEEDS:
            runs.append(OUT, runs.run(ROOT, w, seed))
            print(f"{w} seed {seed}: done", file=sys.stderr)
    records = runs.load(OUT)

    problems = []
    if any(not r["result"]["correct"] for r in records):
        problems.append("a run reported wrong results")
    baseline = {"run_seconds": spec["run_seconds"],
                "machine": {"cpus": os.cpu_count(),
                            "processor": platform.processor() or
                            platform.machine()},
                "workloads": {}}
    largest = {m["name"]: 0.0 for m in spec["end_to_end"]}
    print(f"{'workload':8} {'metric':22} {'median':>12} {'spread':>8} "
          f"{'range':>8} {'seed1':>8} {'bound':>6} {'rule':>6}  status")
    for w in runs.WORKLOADS:
        seed_runs = []
        seen = set()
        for r in records:
            if r["workload"] == w and r["seed"] not in seen:
                seen.add(r["seed"])
                seed_runs.append(r)
        seed1 = [r for r in records if r["workload"] == w and r["seed"] == 1]
        baseline["workloads"][w] = {}
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            xs = runs.values(seed_runs, w, name)
            ys = runs.values(seed1, w, name)
            q1, med, q3 = runs.quartiles(xs)
            spread = runs.share(q3 - q1, med)
            seed_range = runs.share(max(xs) - min(xs), med)
            repeat_range = runs.share(max(ys) - min(ys), runs.quartiles(ys)[1])
            suggested = rule(name, seed_range, spread)
            largest[name] = max(largest[name], suggested)
            status = "ok"
            if spread >= bound / 3:
                status = "SPREAD"
                problems.append(f"{w} {name}: spread {spread:.3f} >= "
                                f"bound/3 {bound / 3:.3f}")
            if name not in runs.HOST_METRICS:
                if repeat_range != 0:
                    status = "NOT-REPEATED"
                    problems.append(f"{w} {name}: modeled metric differs "
                                    "between seed-1 repeats")
                if suggested > MAX_MODELED_BOUND:
                    status = "TOO-NOISY"
                    problems.append(f"{w} {name}: the rule gives "
                                    f"{suggested:.3f}; add queries")
            print(f"{w:8} {name:22} {med:12.6g} {spread:8.4f} "
                  f"{seed_range:8.4f} {repeat_range:8.4f} {bound:6.3f} "
                  f"{suggested:6.3f}  {status}")
            baseline["workloads"][w][name] = {
                "unit": m["unit"],
                "seed1_median": runs.quartiles(ys)[1],
                "seed_median": med,
                "seed_spread": spread,
                "seed_range": seed_range,
                "seed1_range": repeat_range,
            }
    print()
    for m in spec["end_to_end"]:
        name = m["name"]
        print(f"{name:22} bound {m['bound']:.3f}, "
              f"largest rule over workloads {largest[name]:.3f}")
        if m["bound"] < largest[name]:
            problems.append(f"{name}: bound {m['bound']:.3f} is tighter "
                            f"than the rule's {largest[name]:.3f}")
    if args.write_baseline:
        (BENCH_DIR / "baseline.json").write_text(
            json.dumps(baseline, indent=2, sort_keys=True) + "\n")
    for p in problems:
        print("PROBLEM:", p)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
