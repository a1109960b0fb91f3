#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark results.

    python3 benchmarks/e2e/compare.py BASE.jsonl CHANGE.jsonl

Each set is the JSON-lines file that ``run.py --out`` appends to.  For
every workload and end-to-end metric of ``BENCHMARK.json`` it reports
each side's median and quartiles, the share of runs paired by seed in
which the change's run reads better (ties count for neither), and the
metric's bound check:

* ``ok`` -- the change's median is no worse than the base's by more
  than the bound;
* ``regressed`` -- it is worse by more than the bound;
* ``unresolved`` -- a side's spread (quartile distance over median)
  exceeds the bound, unless every change run beats every base run;
* ``gain`` -- the change wins at least nine tenths of the pairs and
  the medians differ by more than the base's quartile distance.

The exit code is 1 when any metric regressed or is unresolved, or when
any run reported incorrect results.  Comparing two sets of the same
code is the benchmark's repeatability check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List

BENCHMARK = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"


def load(path: Path) -> List[dict]:
    """The untraced runs of one result set."""
    runs = []
    for line in path.read_text().splitlines():
        if line.strip():
            run = json.loads(line)
            if not run["meta"]["trace"]:
                runs.append(run)
    return runs


def summary(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4) \
        if len(values) > 1 else (values[0],) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "n": len(values)}


def judge(base: List[tuple], change: List[tuple], better: str,
          bound: float) -> dict:
    """Compare (seed, value) lists of one workload x metric."""
    sign = 1.0 if better == "higher" else -1.0
    a = summary([v for _, v in base])
    b = summary([v for _, v in change])
    by_seed = dict(base)
    pairs = [(by_seed[seed], value) for seed, value in change
             if seed in by_seed]
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    win_fraction = wins / len(pairs) if pairs else 0.0
    worse_by = -sign * (b["median"] - a["median"]) / a["median"] \
        if a["median"] else 0.0
    dominates = min(sign * v for _, v in change) > \
        max(sign * v for _, v in base)
    if worse_by > bound:
        status = "regressed"
    elif max(a["spread"], b["spread"]) > bound and not dominates:
        status = "unresolved"
    elif win_fraction >= 0.9 and \
            abs(b["median"] - a["median"]) > a["q3"] - a["q1"]:
        status = "gain"
    else:
        status = "ok"
    return {"base": a, "change": b, "pairs": len(pairs),
            "win_fraction": win_fraction, "worse_by": worse_by,
            "bound": bound, "status": status}


def compare(base_runs: List[dict], change_runs: List[dict],
            spec: dict) -> dict:
    """Per workload and metric verdicts, plus the incorrect runs."""
    report: Dict[str, Dict[str, dict]] = {}
    workloads = sorted({r["meta"]["workload"] for r in base_runs}
                       & {r["meta"]["workload"] for r in change_runs})
    for workload in workloads:
        rows = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]

            def values(runs):
                return [(r["meta"]["seed"],
                         r["result"]["metrics"][name]["value"])
                        for r in runs if r["meta"]["workload"] == workload]

            rows[name] = judge(values(base_runs), values(change_runs),
                               metric["better"], metric["bound"])
        report[workload] = rows
    incorrect = [f"{r['meta']['workload']} seed {r['meta']['seed']}"
                 for r in base_runs + change_runs
                 if not r["result"]["correct"]]
    return {"workloads": report, "incorrect": incorrect}


def format_report(report: dict) -> str:
    lines = [f"{'workload':<12} {'metric':<16} {'base median':>12} "
             f"{'spread':>7} {'change median':>13} {'spread':>7} "
             f"{'worse by':>9} {'bound':>6} {'wins':>5}  status"]
    for workload, rows in report["workloads"].items():
        for name, row in rows.items():
            lines.append(
                f"{workload:<12} {name:<16} {row['base']['median']:>12.5g} "
                f"{row['base']['spread']:>7.2%} "
                f"{row['change']['median']:>13.5g} "
                f"{row['change']['spread']:>7.2%} {row['worse_by']:>9.2%} "
                f"{row['bound']:>6.0%} {row['win_fraction']:>5.0%}  "
                f"{row['status']}")
    for run in report["incorrect"]:
        lines.append(f"INCORRECT: {run}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    report = compare(load(args.base), load(args.change), spec)
    print(format_report(report))
    bad = report["incorrect"] or any(
        row["status"] in ("regressed", "unresolved")
        for rows in report["workloads"].values() for row in rows.values())
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
