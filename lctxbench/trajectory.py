"""Summarise untraced result files into one trajectory point.

    python3 lctxbench/trajectory.py [--label TEXT] [--append]

Reads lctxbench/.runs/*-trace0.json (one file per workload and seed) and
prints, per workload and metric, the median over seeds and the spread
between the first and third quartile as a share of the median. --append
adds the point to lctxbench/trajectory.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

HERE = Path(__file__).resolve().parent


def summarise(results: list[dict]) -> dict:
    by_workload: dict[str, list[dict]] = {}
    for r in results:
        by_workload.setdefault(r["workload"], []).append(r)
    point = {"environment": results[0]["environment"], "workloads": {}}
    for name, runs in sorted(by_workload.items()):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for r in runs:
            metrics = {**r["named"], **r["result"]["metrics"]}
            for metric, m in metrics.items():
                values.setdefault(metric, []).append(m["value"])
                units[metric] = m["unit"]
        rows = {}
        for metric, vals in values.items():
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med, med, med]
            rows[metric] = {"median": med, "iqr_share": (q[2] - q[0]) / med if med else 0.0,
                            "unit": units[metric]}
        point["workloads"][name] = {
            "seeds": sorted(r["seed"] for r in runs),
            "seconds": runs[0]["seconds"],
            "all_correct": all(r["result"]["correct"] for r in runs),
            "metrics": rows,
        }
    return point


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", default="")
    p.add_argument("--append", action="store_true")
    args = p.parse_args()
    results = [json.loads(f.read_text()) for f in sorted((HERE / ".runs").glob("*-trace0.json"))]
    if not results:
        print("no result files under lctxbench/.runs")
        return 1
    point = {"label": args.label, **summarise(results)}
    for name, w in point["workloads"].items():
        print(f"{name}: seeds {w['seeds']}")
        for metric, m in w["metrics"].items():
            print(f"   {metric:28s} {m['median']:>14.6g} {m['unit']:12s} "
                  f"iqr/median {m['iqr_share']:.4f}")
    if args.append:
        path = HERE / "trajectory.json"
        points = json.loads(path.read_text()) if path.exists() else []
        path.write_text(json.dumps(points + [point], indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
