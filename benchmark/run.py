#!/usr/bin/env python3
"""Builds the benchmark harness from source and runs one workload.

    python3 benchmark/run.py --workload <scan|join|fleet|serve> --seed <n>
                             [--seconds <s>] [--trace <0|1>]
    python3 benchmark/run.py --smoke

Run from the root of a checkout. The harness is built with CMake into the
directory named by CARGO_TARGET_DIR (default `.bench_build`), then runs the
workload in one single-threaded process. Every metric the harness prints
("<name> <value> <unit>") is echoed; the last line of standard output is
one JSON object:

    {"correct": true, "attempted": 200, "failed": 0,
     "metrics": {"latency_p50_s": {"value": 4.0045, "unit": "s"}, ...}}

holding the `end_to_end` metrics of BENCHMARK.json with --trace 0 and its
`per_layer` metrics with --trace 1. A wrong query result prints the object
with "correct": false and exits 1. Anything else that goes wrong (no
engine sources next to the benchmark, a build failure, a crash, a metric
missing) exits non-zero without printing a result.

--smoke runs every workload, untraced and traced, at four queries each
(the serve sweep at two rates) with the same checks: a pre-flight that
takes well under a minute once the harness is built.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("scan", "join", "fleet", "serve")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    configured = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = Path(configured)
    return path if path.is_absolute() else ROOT / path


def build():
    """Configures (once) and builds the harness; returns the binary path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no engine sources next to the benchmark (looked in {ROOT})")
    out = build_dir()
    # The compiler's temporary files stay inside the build tree too.
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j4",
                  "--target", "lambada_benchmark"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, env=env)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail("build failed: " + " ".join(cmd))
    return out / "lambada_benchmark"


def parse_lines(text):
    """Parses '<name> <value> <unit>' lines into {name: (value, unit)}."""
    values = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) != 3:
            continue
        try:
            values[parts[0]] = (float(parts[1]), parts[2])
        except ValueError:
            continue
    return values


def run_harness(binary, args):
    try:
        done = subprocess.run([str(binary)] + args, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness timed out after {RUN_TIMEOUT_S} s")
    return done.returncode, done.stdout


def run_one(binary, args):
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found at the checkout root")
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    code, stdout = run_harness(binary, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(int(args.trace))])
    if code not in (0, 3):
        sys.stdout.write(stdout)
        fail(f"harness exited with code {code}")
    values = parse_lines(stdout)
    for key in ("correct", "attempted", "failed"):
        if key not in values:
            fail(f"harness printed no '{key}' line")

    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            fail(f"harness printed no metric '{m['name']}'")
        value, unit = values[m["name"]]
        if unit != m["unit"]:
            fail(f"metric '{m['name']}' is in {unit}, BENCHMARK.json says "
                 f"{m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": unit}

    correct = code == 0 and values["correct"][0] == 1
    sys.stdout.write(stdout)
    print(json.dumps({
        "correct": correct,
        "attempted": int(values["attempted"][0]),
        "failed": int(values["failed"][0]),
        "metrics": metrics,
    }))
    return 0 if correct else 1


def smoke(binary):
    started = time.monotonic()
    failures = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            t0 = time.monotonic()
            code, stdout = run_harness(binary, [
                "--workload", workload, "--seed", "1", "--smoke",
                "--trace", str(trace)])
            ok = code == 0 and parse_lines(stdout).get("correct") == (1.0,
                                                                       "bool")
            failures += 0 if ok else 1
            print(f"{workload:6} trace={trace} "
                  f"{'ok' if ok else f'FAILED (exit {code})'} "
                  f"{time.monotonic() - t0:5.1f} s")
    print(f"smoke: {8 - failures}/8 passed in "
          f"{time.monotonic() - started:.1f} s")
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or --smoke)")
    binary = build()
    sys.exit(smoke(binary) if args.smoke else run_one(binary, args))


if __name__ == "__main__":
    main()
