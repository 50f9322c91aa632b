#!/usr/bin/env python3
"""Runs one workload of the repo benchmark and prints its result.

    python3 perfbench/run.py --workload paper_grid|serve_read|serve_swap \
        --seed N --seconds S --trace 0|1

Run from the repository root. Every run first brings the perfbench binary
(and the libraries it measures) up to date in .bench_build/perfbench and
runs the benchmark's own unit tests. Each run then prints the binary's
report, one line per figure with its unit and sample count, and as its last
line a JSON object with the keys correct, attempted, failed and metrics:
every end-to-end metric of BENCHMARK.json with --trace 0, every per-layer
metric with --trace 1. A per-layer metric of a layer the workload does not
use reads 0. Per-run JSON and span logs go to .bench_build/out/.

The program runs in its default configuration: TAAMR_* variables are
removed from the environment it sees.
"""
import argparse
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path.cwd()
HERE = pathlib.Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_build" / "out"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(1)


def clean_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("TAAMR_")}


def build():
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "Makefile").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    steps.append([str(BUILD / "perfbench_tests"), "--gtest_brief=1"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=clean_env()).returncode:
            fail(f"step failed: {' '.join(cmd)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    build()

    cmd = [str(BUILD / "perfbench"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(OUT)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=clean_env(),
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"perfbench exited with {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    run = json.loads(lines[-1])

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {}
    for spec in wanted:
        got = run["metrics"].get(spec["name"])
        if got is None and not args.trace:
            fail(f"end-to-end metric {spec['name']} missing from the run")
        if got is not None and got["unit"] != spec["unit"]:
            fail(f"metric {spec['name']} has unit {got['unit']}, "
                 f"BENCHMARK.json says {spec['unit']}")
        metrics[spec["name"]] = {"value": got["value"] if got else 0.0, "unit": spec["unit"]}
    unlisted = set(run["metrics"]) - {spec["name"] for spec in wanted}
    if unlisted:
        fail(f"metrics missing from BENCHMARK.json: {sorted(unlisted)}")
    print(json.dumps({"correct": run["correct"], "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
