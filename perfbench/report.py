#!/usr/bin/env python3
"""Summarises a set of benchmark runs from their per-run JSON files.

    python3 perfbench/report.py [DIR]     # DIR defaults to .bench_build/out

For every workload: each metric's median, quartiles and spread (the
distance between the quartiles as a share of the median, as
statistics.quantiles(values, n=4) gives them), over the untraced runs for
end-to-end metrics and over the traced runs for per-layer ones. For
paper_grid it also states how many distinct grid_result_digest values the
runs of each seed produced: one seed should always give one digest, and
more than one shows that the grid does not repeat itself.
"""
import collections
import json
import pathlib
import statistics
import sys


def main():
    out = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".bench_build/out")
    runs = collections.defaultdict(list)
    for path in sorted(out.glob("*-trace[01]-*.json")):
        run = json.loads(path.read_text())
        runs[(run["workload"], run["trace"])].append(run)
    if not runs:
        sys.exit(f"no runs in {out}")
    for (workload, trace), group in sorted(runs.items()):
        failed = sum(r["failed"] for r in group)
        attempted = sum(r["attempted"] for r in group)
        print(f"{workload} ({'traced' if trace else 'untraced'}): {len(group)} runs, "
              f"{attempted} operations, {failed} failed, "
              f"{sum(not r['correct'] for r in group)} incorrect runs")
        for name in group[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in group if name in r["metrics"]]
            unit = group[0]["metrics"][name]["unit"]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = f"spread {(q3 - q1) / med:7.4f}" if med else "spread    n/a"
                print(f"  {name:40s} {med:14.6g} {unit:8s} q1 {q1:12.6g} q3 {q3:12.6g} "
                      f"{spread} (n={len(values)})")
            else:
                print(f"  {name:40s} {med:14.6g} {unit:8s} (n=1)")
        if workload == "paper_grid" and not trace:
            digests = collections.defaultdict(set)
            for r in group:
                for note in r.get("notes", []):
                    if note.startswith("grid_result_digest = "):
                        digests[r["seed"]].add(note.split(" = ", 1)[1])
            for seed, seen in sorted(digests.items()):
                n = sum(1 for r in group if r["seed"] == seed)
                print(f"  seed {seed}: {n} runs, {len(seen)} distinct grid_result_digest")


if __name__ == "__main__":
    main()
