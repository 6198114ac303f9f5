"""Summarize repeated benchmark runs: per workload and metric, the median of
the runs' values, their quartiles and the spread (quartile distance over the
median), the way the acceptance check computes them.

Usage: python3 bench/summarize.py [RECORD.json ...]
With no arguments it reads every .bench_out/*-trace0.json record.  The
output is one JSON object that ends with "claim": null; a change that claims
a gain compares two such summaries made with the same benchmark code.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(records: list[dict]) -> dict:
    by_workload: dict[str, dict[str, list[float]]] = {}
    seeds: dict[str, list[int]] = {}
    for rec in records:
        metrics = by_workload.setdefault(rec["workload"], {})
        seeds.setdefault(rec["workload"], []).append(rec["seed"])
        for name, m in rec["metrics"].items():
            metrics.setdefault(name, []).append(m["value"])
    out = {}
    for workload, metrics in sorted(by_workload.items()):
        rows = {"seeds": sorted(seeds[workload])}
        for name, values in metrics.items():
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            rows[name] = {"median": median, "q1": q1, "q3": q3, "runs": len(values),
                          "spread": (q3 - q1) / median if median else 0.0}
        out[workload] = rows
    env = records[0]["environment"] if records else {}
    return {"environment": {k: env.get(k) for k in ("commit", "python", "numpy", "scipy", "nproc")},
            "workloads": out, "claim": None}


def main(argv: list[str]) -> int:
    paths = [Path(a) for a in argv] or sorted((ROOT / ".bench_out").glob("*-trace0.json"))
    if not paths:
        print("no run records found", file=sys.stderr)
        return 1
    records = [json.loads(p.read_text()) for p in paths]
    print(json.dumps(summarize(records), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
