#!/usr/bin/env python3
"""Summarise repeated benchmark runs: per metric, the median and the
interquartile range as a share of the median (the steadiness measure the
bounds in BENCHMARK.json are checked against).

    python3 perfbench/tools/spread.py RESULT.json [RESULT.json ...]

Each RESULT.json holds the last stdout line of one run; files are grouped
by the workload name before the first dot of the file name.
"""
import collections
import json
import os
import statistics
import sys


def main(paths):
    runs = collections.defaultdict(list)
    for p in paths:
        with open(p) as f:
            text = f.read().strip()
        if not text:
            print(f"{p}: empty", file=sys.stderr)
            continue
        runs[os.path.basename(p).split(".")[0]].append(json.loads(text))
    for workload, results in sorted(runs.items()):
        bad = [r for r in results if not r["correct"] or r["failed"]]
        print(f"== {workload}: {len(results)} runs, {len(bad)} incorrect")
        names = results[0]["metrics"].keys()
        for name in names:
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            if len(values) >= 2:
                q = statistics.quantiles(values, n=4)
                spread = (q[2] - q[0]) / med if med else float("inf")
            else:
                spread = 0.0
            print(f"  {name:<34} median {med:>14.4f}  iqr/median {spread:6.3f}  "
                  f"min {min(values):.4f} max {max(values):.4f}")


if __name__ == "__main__":
    main(sys.argv[1:])
