"""Shared by calibrate.py and compare.py: running benchmark/run.py in a
checkout, storing its results as JSON lines, and summarising them."""

import json
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("scan", "join", "fleet", "serve")
# The host-clock end-to-end metrics: the others are modeled (virtual
# seconds, USD) and repeat exactly for a given seed.
HOST_METRICS = ("setup_s",)


def load_spec(checkout):
    return json.loads((Path(checkout) / "BENCHMARK.json").read_text())


def run(checkout, workload, seed):
    """Runs one untraced workload in `checkout` with the spec's run_seconds
    and returns a record {"workload", "seed", "end_to_end", "result"}.
    "end_to_end" is the checkout's own metric list with its bounds, so a
    comparison can judge a change by its parent's bounds."""
    spec = load_spec(checkout)
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          text=True)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{workload} seed {seed} in {checkout}: no result "
                           f"(exit {done.returncode})")
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(f"warning: {workload} seed {seed} in {checkout} reported "
              "wrong results", file=sys.stderr)
    return {"workload": workload, "seed": seed,
            "end_to_end": spec["end_to_end"], "result": result}


def append(path, record):
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a") as f:
        f.write(json.dumps(record) + "\n")


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def values(records, workload, metric):
    return [r["result"]["metrics"][metric]["value"] for r in records
            if r["workload"] == workload and
            metric in r["result"]["metrics"]]


def quartiles(xs):
    """(q1, median, q3) as statistics.quantiles(xs, n=4) gives them."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return q1, med, q3


def share(part, base):
    return part / base if base else float("inf")
