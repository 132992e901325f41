#!/usr/bin/env python3
"""Aggregates a lambada Chrome trace JSON (obs::Tracer::ChromeTraceJson, as
examples/trace_demo writes it) into a per-phase virtual-time breakdown.

The tracer's span taxonomy (docs/OBSERVABILITY.md) nests request-level
spans under operator spans, so a naive sum over every event double-counts.
This script sums only the top operator spans of each phase:

  scan      "scan" / "scan-build" spans (cat "scan")
  exchange  "exchange" spans (cat "exchange")
  join      "join" spans (cat "join")
  merge     the driver's "merge" span (cat "driver")

and reports, per phase: total virtual seconds across the fleet, the span
count, and min/max per span. Driver phases (plan, upload-plan, invoke,
collect) and instant-event tallies (faults, retries, hedges, re-invokes)
are listed separately. All times are virtual (simulated) seconds.

Usage: scripts/summarize_trace.py <trace.json>
Exit code: 0 on success, 1 on malformed input.
"""

import json
import sys
from collections import defaultdict

# (phase, category, span-name) selectors for the operator rows.
PHASES = [
    ("scan", "scan", {"scan", "scan-build"}),
    ("exchange", "exchange", {"exchange"}),
    ("join", "join", {"join"}),
    ("merge", "driver", {"merge"}),
]

DRIVER_PHASES = ["plan", "upload-plan", "invoke", "collect", "merge"]


def instant_group(name):
    """Folds instant-event names into stable tally keys."""
    if name.startswith("reinvoke "):
        return "reinvoke"
    return name


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[-3].strip(), file=sys.stderr)
        return 1
    try:
        with open(argv[1], "r", encoding="utf-8") as f:
            trace = json.load(f)
        events = trace["traceEvents"]
    except (OSError, ValueError, KeyError) as e:
        print(f"error: cannot read trace: {e}", file=sys.stderr)
        return 1

    spans = [e for e in events if e.get("ph") == "X"]
    instants = [e for e in events if e.get("ph") == "i"]

    print(f"{argv[1]}: {len(spans)} spans, {len(instants)} instants, "
          f"{len({e['pid'] for e in spans})} tracks")

    root = next((e for e in spans if e.get("name") == "query"), None)
    if root is not None:
        print(f"query: {root['dur'] / 1e6:.6f} s virtual")

    print("\nper-phase virtual time (top operator spans only):")
    print(f"  {'phase':<10} {'total [s]':>12} {'spans':>7} "
          f"{'min [s]':>10} {'max [s]':>10}")
    for phase, cat, names in PHASES:
        durs = [e["dur"] / 1e6 for e in spans
                if e.get("cat") == cat and e.get("name") in names]
        if not durs:
            print(f"  {phase:<10} {'-':>12} {0:>7}")
            continue
        print(f"  {phase:<10} {sum(durs):>12.6f} {len(durs):>7} "
              f"{min(durs):>10.6f} {max(durs):>10.6f}")

    driver = {e["name"]: e["dur"] / 1e6 for e in spans
              if e.get("cat") == "driver" and e.get("name") in DRIVER_PHASES}
    if driver:
        print("\ndriver phases:")
        for name in DRIVER_PHASES:
            if name in driver:
                print(f"  {name:<12} {driver[name]:.6f} s")

    if instants:
        tallies = defaultdict(int)
        for e in instants:
            tallies[instant_group(e.get("name", "?"))] += 1
        print("\ninstant events:")
        for name in sorted(tallies):
            print(f"  {name:<24} {tallies[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
