#!/usr/bin/env python3
"""Read the BENCH_*.json history: parent -> change medians per file, workload and metric.

Each BENCH_<pr>.json at the repository root holds alternating parent/change
perfbench runs and their medians under workloads.<name>.summary.<metric>.
This prints one line per file, workload and metric, in PR order, with the
change's share of pairs won, the median gap in the metric's better direction
(BENCHMARK.json's `better`) and the parent's IQR. A gain claim holds when the
change wins at least 9 of 10 pairs and the gap exceeds the parent IQR; the
line ends in `holds` or `fails` by that rule, or `?` for a metric with no
declared direction. The metric a file claims (its optional `claimed` key) is
marked with *.

    python3 scripts/bench_history.py
"""

import json
import signal
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def directions() -> dict[str, str]:
    """Metric name -> "lower" or "higher", from BENCHMARK.json's end-to-end and per-layer lists."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for key in ("end_to_end", "per_layer") for m in declared[key]}


def verdict(better, parent, change, wins, pairs) -> str:
    """The median gap in the better direction, the parent IQR and whether the claim rule holds."""
    iqr = parent["iqr"]
    if better is None:
        return f"gap ? iqr {iqr:.3g}  ?"
    gap = parent["median"] - change["median"] if better == "lower" else change["median"] - parent["median"]
    holds = wins is not None and 10 * wins >= 9 * pairs and gap > iqr
    return f"gap {gap:.3g} iqr {iqr:.3g}  {'holds' if holds else 'fails'}"


def main():
    better = directions()
    for path in sorted(ROOT.glob("BENCH_*.json"), key=lambda p: int(p.stem.split("_")[1])):
        bench = json.loads(path.read_text())
        claimed = bench.get("claimed") or {}
        for workload, body in bench["workloads"].items():
            for metric, entry in body["summary"].items():
                mark = "*" if (claimed.get("workload"), claimed.get("metric")) == (workload, metric) else " "
                parent, change = entry["parent"], entry["change"]
                wins, pairs = entry.get("change_wins"), entry.get("pairs")
                print(
                    f"{mark} {path.name:14s} {workload:12s} {metric:20s} {parent['median']:.6g} -> "
                    f"{change['median']:.6g}  won {wins}/{pairs}  {verdict(better.get(metric), parent, change, wins, pairs)}"
                )


if __name__ == "__main__":
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)  # a closed reader, such as `| head`, ends the script quietly
    main()
