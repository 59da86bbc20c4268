#!/usr/bin/env python3
"""Summarise repeated benchmark runs: median and quartile spread per metric.

    python3 perfbench/spread.py RESULT_FILE...

Each file holds the standard output of one run (the JSON result is its
last line). Files are grouped by the workload named in their header line.
For every metric the script prints the median and the distance between
the first and third quartile (statistics.quantiles, n=4) as a share of
the median, next to the metric's bound from BENCHMARK.json.
"""

import json
import os
import statistics
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    groups: dict = {}
    for path in sys.argv[1:]:
        with open(path) as f:
            lines = [l for l in f.read().splitlines() if l.strip()]
        if not lines:
            print(f"{path}: empty", file=sys.stderr)
            continue
        header = next((l for l in lines if l.startswith("== perfbench ")), "== perfbench ?")
        workload = header.split()[2]
        result = json.loads(lines[-1])
        if not result["correct"]:
            print(f"{path}: correct=false ({result['failed']} of {result['attempted']} failed)")
        groups.setdefault(workload, []).append(result["metrics"])
    for workload, runs in sorted(groups.items()):
        print(f"{workload}: {len(runs)} runs")
        for name in runs[0]:
            values = [r[name]["value"] for r in runs if r.get(name, {}).get("value") is not None]
            if len(values) < 2:
                continue
            med = statistics.median(values)
            q = statistics.quantiles(values, n=4)
            spread = (q[2] - q[0]) / med if med else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  <-- above a third of the bound"
            print(f"  {name:<32} median {med:<14.6g} spread {spread:7.4f}  bound {bound}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
