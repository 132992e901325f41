#!/usr/bin/env python3
"""Diffs regenerated BENCH_*.json against committed baselines.

The bench tables use unitless numeric cells with the unit in the header
("time [s]", "cost [USD]", "bandwidth [MiB/s]"), so perf metrics diff
numerically. This script matches rows between a baseline (a git ref by
default) and the working-tree files, classifies each column as
lower-is-better (times, costs) or higher-is-better (rates/bandwidth) from
its header, and flags changes beyond a threshold.

Exit code: 0 when clean or when only warnings were found without --strict;
1 when regressions were found and --strict is set; 2 on usage errors.

Usage:
  scripts/check_bench_regression.py                      # HEAD vs worktree
  scripts/check_bench_regression.py --threshold 0.05 --strict
  scripts/check_bench_regression.py --baseline-dir /tmp/old BENCH_fig09.json
"""

import argparse
import glob
import json
import os
import subprocess
import sys

LOWER_BETTER_MARKS = ("[s]", "[ms]", "[min]", "[usd", "time", "cost",
                      "latency")
HIGHER_BETTER_MARKS = ("ib/s]", "b/s]", "[1/s]", "bandwidth", "throughput")


def classify(header):
    """Returns 'lower', 'higher', or None for a column header."""
    h = header.lower()
    if any(m in h for m in HIGHER_BETTER_MARKS):
        return "higher"
    if any(m in h for m in LOWER_BETTER_MARKS):
        return "lower"
    return None


def as_number(cell):
    if isinstance(cell, (int, float)) and not isinstance(cell, bool):
        return float(cell)
    return None


def rows_by_key(table):
    """Maps a row's identity — its non-numeric cells — to its rows, in
    table order. Every numeric cell is treated as a metric: unit-headed
    ones get a direction, unit-less ones (counts, request totals) are
    diffed as plain changes. Keying on numeric cells would let a changed
    count silently un-key its row and dodge the diff entirely. Rows that
    share a string key (e.g. one per worker count) match positionally,
    which is stable because the sim benches emit rows deterministically.
    """
    out = {}
    for row in table.get("rows", []):
        key = tuple(str(cell) for cell in row if as_number(cell) is None)
        out.setdefault(key, []).append(row)
    return out


def project(table, headers):
    """The table restricted to the columns named by `headers`, in order."""
    cols = [table["headers"].index(h) for h in headers]
    return {"headers": headers,
            "rows": [[row[c] for c in cols] for row in table.get("rows", [])]}


def iter_tables(doc):
    for ei, exp in enumerate(doc.get("experiments", [])):
        for i, table in enumerate(exp.get("tables", [])):
            # The experiment ordinal keeps labels unique: several
            # experiments in one file share an id (e.g. four 'Figure 12'
            # entries), and without it their tables would collide and be
            # diffed against the wrong baseline.
            caption = table.get("caption", "") or f"table{i}"
            yield f"{exp.get('id', '?')}#{ei} / {caption}", table


def compare_lambada(name, baseline, current, threshold, report):
    base_tables = dict(iter_tables(baseline))
    for label, table in iter_tables(current):
        base = base_tables.get(label)
        if base is None:
            report.note(f"{name}: new table '{label}' (no baseline)")
            continue
        headers = table.get("headers", [])
        base_headers = base.get("headers", [])
        if headers != base_headers:
            # Diff the columns both versions share, matched by header, so
            # dropping or adding a column cannot hide a change in another;
            # rows then key on the shared non-numeric cells.
            headers = [h for h in headers if h in base_headers]
            report.note(f"{name}: headers changed in '{label}' "
                        f"(diffing the {len(headers)} shared columns)")
            table, base = project(table, headers), project(base, headers)
        base_rows = rows_by_key(base)
        cur_rows = rows_by_key(table)
        for key in base_rows:
            if key not in cur_rows:
                report.note(f"{name}: {label} :: baseline row "
                            f"'{' '.join(key) or '(row)'}' disappeared; "
                            "not diffed")
        for key, rows in cur_rows.items():
            olds = base_rows.get(key)
            if olds is None or len(olds) != len(rows):
                # A key mismatch means an identity cell changed (rows keyed
                # by their non-metric cells) — a silent skip here would
                # hide whatever regressed alongside it, so say so.
                report.note(f"{name}: {label} :: row "
                            f"'{' '.join(key) or '(row)'}' has no matching "
                            "baseline (identity cells changed?); not diffed")
                continue
            for old_row, new_row in zip(olds, rows):
                for col, header in enumerate(headers):
                    old = as_number(old_row[col])
                    new = as_number(new_row[col])
                    if old is None or new is None or old <= 0:
                        continue
                    direction = classify(header)
                    delta = (new - old) / old
                    if direction == "higher":
                        delta = -delta
                    where = (f"{name}: {label} :: {' '.join(key) or '(row)'}"
                             f" :: {header}")
                    if direction is None:
                        # No unit to give a direction: any sizeable change
                        # in a deterministic figure is suspect, so flag it
                        # (counts as a regression under --strict).
                        if abs(delta) > threshold:
                            report.change(where, old, new, abs(delta))
                    elif delta > threshold:
                        report.regression(where, old, new, delta)
                    elif delta < -threshold:
                        report.improvement(where, old, new, -delta)


def compare_google_benchmark(name, baseline, current, threshold, report):
    base = {b.get("name"): b for b in baseline.get("benchmarks", [])}
    for bench in current.get("benchmarks", []):
        old_bench = base.get(bench.get("name"))
        if old_bench is None:
            continue
        old = as_number(old_bench.get("real_time"))
        new = as_number(bench.get("real_time"))
        if old is None or new is None or old <= 0:
            continue
        delta = (new - old) / old
        where = f"{name}: {bench.get('name')} real_time"
        if delta > threshold:
            report.regression(where, old, new, delta)
        elif delta < -threshold:
            report.improvement(where, old, new, -delta)


class Report:
    def __init__(self):
        self.regressions = []
        self.improvements = []
        self.notes = []

    def regression(self, where, old, new, delta):
        self.regressions.append(
            f"REGRESSION {where}: {old:g} -> {new:g} (+{delta:.1%})")

    def change(self, where, old, new, delta):
        self.regressions.append(
            f"CHANGED {where}: {old:g} -> {new:g} "
            f"(±{delta:.1%}, unclassified metric)")

    def improvement(self, where, old, new, delta):
        self.improvements.append(
            f"improvement {where}: {old:g} -> {new:g} (-{delta:.1%})")

    def note(self, text):
        self.notes.append(f"note: {text}")


def load_baseline(path, args, repo_root):
    if args.baseline_dir:
        candidate = os.path.join(args.baseline_dir, os.path.basename(path))
        if not os.path.exists(candidate):
            return None
        with open(candidate, encoding="utf-8") as f:
            return json.load(f)
    rel = os.path.relpath(path, repo_root)
    proc = subprocess.run(
        ["git", "show", f"{args.baseline_ref}:{rel}"],
        cwd=repo_root, capture_output=True, text=True)
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout)


def main():
    parser = argparse.ArgumentParser(
        description="Flag perf regressions between BENCH_*.json snapshots")
    parser.add_argument("files", nargs="*",
                        help="bench JSON files (default: BENCH_*.json)")
    parser.add_argument("--baseline-ref", default="HEAD",
                        help="git ref holding the baselines (default HEAD)")
    parser.add_argument("--baseline-dir", default=None,
                        help="directory of baseline files (overrides the ref)")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="relative slowdown that counts as a regression")
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 when regressions are found")
    args = parser.parse_args()

    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    files = args.files or sorted(glob.glob(os.path.join(repo_root,
                                                        "BENCH_*.json")))
    if not files:
        print("check_bench_regression: no BENCH_*.json files found",
              file=sys.stderr)
        return 2

    report = Report()
    compared = 0
    for path in files:
        name = os.path.basename(path)
        try:
            with open(path, encoding="utf-8") as f:
                current = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            print(f"check_bench_regression: cannot read {name}: {e}",
                  file=sys.stderr)
            return 2
        baseline = load_baseline(path, args, repo_root)
        if baseline is None:
            # Machine-local files (BENCH_micro_kernels.json) have no
            # committed baseline; that is expected, not an error.
            report.note(f"{name}: no baseline, skipped")
            continue
        compared += 1
        if current.get("schema") == "lambada-bench-v1":
            compare_lambada(name, baseline, current, args.threshold, report)
        elif "benchmarks" in current:
            compare_google_benchmark(name, baseline, current,
                                     args.threshold, report)
        else:
            report.note(f"{name}: unknown schema, skipped")

    for line in report.notes + report.improvements + report.regressions:
        print(line)
    print(f"check_bench_regression: {compared} file(s) compared, "
          f"{len(report.regressions)} regression(s), "
          f"{len(report.improvements)} improvement(s) beyond "
          f"{args.threshold:.0%}")
    if report.regressions and args.strict:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
