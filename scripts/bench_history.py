#!/usr/bin/env python3
"""Read the BENCH_*.json history: parent -> change medians per file, workload and metric.

Each BENCH_<pr>.json at the repository root holds alternating parent/change
perfbench runs and their medians under workloads.<name>.summary.<metric>.
This prints one line per file, workload and metric, in PR order, with the
change's share of pairs won; the metric a file claims (its optional `claimed`
key) is marked with *.

    python3 scripts/bench_history.py
"""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    for path in sorted(ROOT.glob("BENCH_*.json"), key=lambda p: int(p.stem.split("_")[1])):
        bench = json.loads(path.read_text())
        claimed = bench.get("claimed") or {}
        for workload, body in bench["workloads"].items():
            for metric, entry in body["summary"].items():
                mark = "*" if (claimed.get("workload"), claimed.get("metric")) == (workload, metric) else " "
                parent, change = entry["parent"]["median"], entry["change"]["median"]
                wins, pairs = entry.get("change_wins"), entry.get("pairs")
                print(f"{mark} {path.name:14s} {workload:12s} {metric:20s} {parent:.6g} -> {change:.6g}  won {wins}/{pairs}")


if __name__ == "__main__":
    main()
