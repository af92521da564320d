"""Median, quartiles and spread of each metric over recorded runs.

    python3 perfbench/summarize.py [RESULTS_DIR] [--out FILE]

Reads the records run.py leaves in .perfbench_out/results/ and prints, per
workload and metric, the run count, median, first and third quartile, and
the spread (Q3 - Q1) / median that the bounds in BENCHMARK.json are checked
against. Untraced runs give the end-to-end metrics and error_rate, traced
runs the per-layer ones. With --out it also writes them as JSON, with the
environment of the last run, for use as a baseline.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

KINDS = ("end_to_end", "per_layer")  # indexed by the run's --trace value


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("results", nargs="?", type=Path, default=Path(".perfbench_out/results"))
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    values = {kind: defaultdict(lambda: defaultdict(list)) for kind in KINDS}
    env = {}
    for path in sorted(args.results.glob("*.json")):
        rec = json.loads(path.read_text())
        env = rec["env"]
        runs = values[KINDS[rec["trace"]]][rec["workload"]]
        for name, metric in rec["metrics"].items():
            runs[name].append(metric["value"])
        if not rec["trace"]:
            runs["error_rate"].append(rec["failed"] / rec["attempted"])

    summary = {"env": env}
    for kind in KINDS:
        summary[kind] = {}
        for workload, metrics in sorted(values[kind].items()):
            summary[kind][workload] = {}
            for name, vals in metrics.items():
                med = statistics.median(vals)
                q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med,) * 3
                spread = (q3 - q1) / med if med else 0.0
                summary[kind][workload][name] = {
                    "runs": len(vals), "median": med, "q1": q1, "q3": q3, "spread": spread}
                print(f"{workload:18s} {name:42s} n={len(vals):2d} median={med:<12.6g} "
                      f"q1={q1:<12.6g} q3={q3:<12.6g} spread={spread:.4f}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
