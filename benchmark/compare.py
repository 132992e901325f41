#!/usr/bin/env python3
"""Compares benchmark runs of a parent and a change, metric by metric.

    python3 benchmark/compare.py PARENT.jsonl CHANGE.jsonl
    python3 benchmark/compare.py --collect PARENT_CHECKOUT CHANGE_CHECKOUT

Input files hold one record per untraced run ({"workload", "seed",
"end_to_end", "result"}, the result being run.py's JSON), as calibrate.py
and --collect write them. The i-th parent run of a workload pairs with the
i-th change run of it. --collect makes the runs: for every workload, ten
pairs, pair i running seed i on both sides and alternating which side goes
first; the records land in parent.jsonl and change.jsonl under
.bench_runs/ at the root of the checkout that holds this script.

The metrics and their bounds are the parent records' "end_to_end": a
change is judged by its parent's bar, not by one it sets itself. Every
(workload, metric) gets one row with each side's median and quartiles, the
change/parent ratio next to its base, the pairs the change won, and a
verdict:

  regressed   the change failed more queries of the workload than the
              parent did (every metric of the workload then reads
              regressed), or its median is worse than the parent's by
              more than the metric's bound;
  improved    the change won at least 9 of 10 pairs (ties count for
              neither side), at least 10 pairs ran, and the medians differ
              by more than the parent's own quartile spread;
  unresolved  either side's quartile spread, as a share of its median, is
              wider than the bound, unless every change run beats every
              parent run;
  unchanged   otherwise.

Exits 1 if anything regressed or a run reported wrong results.
"""

import argparse
import sys
from pathlib import Path

import runs

PAIRS = 10
WIN_SHARE = 0.9
OUT_DIR = Path(__file__).resolve().parent.parent / ".bench_runs"


def better(a, b, direction):
    """True if value a is strictly better than b."""
    return a < b if direction == "lower" else a > b


def gains(parent, change, direction):
    """True if the change beats the parent by the pair rule."""
    pq1, pmed, pq3 = runs.quartiles(parent)
    cmed = runs.quartiles(change)[1]
    wins = sum(1 for p, c in zip(parent, change) if better(c, p, direction))
    return (len(parent) >= PAIRS and wins >= WIN_SHARE * len(parent) and
            better(cmed, pmed, direction) and abs(cmed - pmed) > pq3 - pq1)


def verdict(parent, change, direction, bound, more_failures):
    if more_failures:
        return "regressed"
    pq1, pmed, pq3 = runs.quartiles(parent)
    cq1, cmed, cq3 = runs.quartiles(change)
    worse = (cmed - pmed) if direction == "lower" else (pmed - cmed)
    if runs.share(worse, abs(pmed)) > bound:
        return "regressed"
    if gains(parent, change, direction):
        return "improved"
    spread = max(runs.share(pq3 - pq1, abs(pmed)),
                 runs.share(cq3 - cq1, abs(cmed)))
    all_better = all(better(c, p, direction) for c in change for p in parent)
    if spread > bound and not all_better:
        return "unresolved"
    return "unchanged"


def failures(records, workload, n):
    """Failed queries over the first n runs of `workload`."""
    rs = [r for r in records if r["workload"] == workload][:n]
    return sum(r["result"]["failed"] for r in rs)


def report(parent_records, change_records):
    bad = [r for r in parent_records + change_records
           if not r["result"]["correct"]]
    for r in bad:
        print(f"WRONG RESULTS: {r['workload']} seed {r['seed']}")
    metrics = parent_records[0]["end_to_end"]
    workloads = [w for w in runs.WORKLOADS
                 if any(r["workload"] == w for r in parent_records)]
    print(f"{'workload':8} {'metric':22} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'change/parent':>28} "
          f"{'wins':>6}  verdict")
    regressed = False
    for w in workloads:
        n = min(sum(1 for r in parent_records if r["workload"] == w),
                sum(1 for r in change_records if r["workload"] == w))
        if n == 0:
            continue
        pfail = failures(parent_records, w, n)
        cfail = failures(change_records, w, n)
        print(f"{w:8} {'failed queries':22} {pfail:>34} {cfail:>34}")
        for m in metrics:
            parent = runs.values(parent_records, w, m["name"])[:n]
            change = runs.values(change_records, w, m["name"])[:n]
            v = verdict(parent, change, m["better"], m["bound"],
                        cfail > pfail)
            wins = sum(1 for p, c in zip(parent, change)
                       if better(c, p, m["better"]))
            regressed = regressed or v == "regressed"
            pq1, pmed, pq3 = runs.quartiles(parent)
            cq1, cmed, cq3 = runs.quartiles(change)
            ratio = f"{runs.share(cmed, pmed):.4f} of {pmed:.6g} {m['unit']}"
            print(f"{w:8} {m['name']:22} "
                  f"{pmed:12.6g} [{pq1:.6g}, {pq3:.6g}] "
                  f"{cmed:12.6g} [{cq1:.6g}, {cq3:.6g}] "
                  f"{ratio:>28} {wins:>2}/{n:<3}  {v}")
    return 1 if regressed or bad else 0


def collect(parent_dir, change_dir):
    parent_path = OUT_DIR / "parent.jsonl"
    change_path = OUT_DIR / "change.jsonl"
    for p in (parent_path, change_path):
        if p.exists():
            p.unlink()
    for w in runs.WORKLOADS:
        for i in range(PAIRS):
            sides = [(parent_dir, parent_path), (change_dir, change_path)]
            if i % 2 == 1:
                sides.reverse()
            for checkout, path in sides:
                runs.append(path, runs.run(checkout, w, i + 1))
            print(f"{w} pair {i + 1}/{PAIRS}: done", file=sys.stderr)
    return parent_path, change_path


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", help="parent runs (.jsonl) or checkout")
    parser.add_argument("change", help="change runs (.jsonl) or checkout")
    parser.add_argument("--collect", action="store_true",
                        help="run both checkouts first (paths are checkouts)")
    args = parser.parse_args()

    parent, change = args.parent, args.change
    if args.collect:
        parent, change = collect(Path(parent).resolve(),
                                 Path(change).resolve())
    sys.exit(report(runs.load(parent), runs.load(change)))


if __name__ == "__main__":
    main()
