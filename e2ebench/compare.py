"""Compare two sets of benchmark run reports, workload by workload.

Usage (from the repository root)::

    python3 e2ebench/compare.py BASE CHANGE

``BASE`` and ``CHANGE`` are each a report file or a directory of report
files written by ``run.py`` (``.e2ebench/reports/*.json``); traced reports
are ignored.  For every workload and end-to-end metric it prints each side's
median and quartiles and a verdict, using the bounds in ``BENCHMARK.json``:

* ``better``: the change wins at least nine tenths of the run pairs (runs
  are paired by seed, else in seed order; ties count for neither) and the
  medians differ by more than the base's own quartile spread;
* ``worse``: the change's median is worse than the base's by more than the
  metric's bound;
* ``unresolved``: either side's quartile spread, as a share of its median,
  is wider than the bound, and not every change run reads better than every
  base run;
* ``unchanged``: anything else.

``error_rate`` (failed over attempted, all runs pooled) is ``worse`` as soon
as the change fails more often than the base.  Exits 1 if any row is
``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path


def load_reports(path: Path) -> list[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    reports = [json.loads(f.read_text()) for f in files]
    return [r for r in reports if not r.get("trace")]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _pairs(base: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    by_seed = {r["seed"]: r for r in change}
    if {r["seed"] for r in base} == set(by_seed):
        return [(r, by_seed[r["seed"]]) for r in base]
    ordered = sorted(change, key=lambda r: r["seed"])
    return list(zip(sorted(base, key=lambda r: r["seed"]), ordered))


def verdict(base: list[dict], change: list[dict], metric: str, better: str, bound: float) -> dict:
    """One workload x metric row."""
    sign = 1.0 if better == "higher" else -1.0  # score: higher is better

    def values(reports: list[dict]) -> list[float]:
        return [r["metrics"][metric] for r in reports]

    a, b = values(base), values(change)
    qa, qb = quartiles(a), quartiles(b)
    med_a, med_b = qa[1], qb[1]
    gain = sign * (med_b - med_a)
    pairs = _pairs(base, change)
    wins = sum(sign * (y["metrics"][metric] - x["metrics"][metric]) > 0 for x, y in pairs)
    spread_a = (qa[2] - qa[0]) / abs(med_a) if med_a else 0.0
    spread_b = (qb[2] - qb[0]) / abs(med_b) if med_b else 0.0
    all_better = min(sign * v for v in b) > max(sign * v for v in a)
    if pairs and wins >= 0.9 * len(pairs) and gain > qa[2] - qa[0]:
        result = "better"
    elif med_a and -gain / abs(med_a) > bound:
        result = "worse"
    elif max(spread_a, spread_b) > bound and not all_better:
        result = "unresolved"
    else:
        result = "unchanged"
    return {
        "base": qa, "change": qb, "n": (len(a), len(b)), "wins": (wins, len(pairs)),
        "spread": (spread_a, spread_b), "verdict": result,
    }


def error_rate(reports: list[dict]) -> float:
    attempted = sum(r["attempted"] for r in reports)
    return sum(r["failed"] for r in reports) / attempted if attempted else 0.0


def compare(base: list[dict], change: list[dict], spec: dict) -> list[tuple[str, str, dict]]:
    rows = []
    workloads = sorted({r["workload"] for r in base} & {r["workload"] for r in change})
    for workload in workloads:
        a = [r for r in base if r["workload"] == workload]
        b = [r for r in change if r["workload"] == workload]
        for metric in spec["end_to_end"]:
            rows.append((workload, metric["name"], verdict(a, b, metric["name"], metric["better"], metric["bound"])))
        rate_a, rate_b = error_rate(a), error_rate(b)
        rows.append((workload, "error_rate", {
            "base": (rate_a,) * 3, "change": (rate_b,) * 3, "n": (len(a), len(b)),
            "wins": (0, 0), "spread": (0.0, 0.0),
            "verdict": "worse" if rate_b > rate_a else "unchanged",
        }))
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="report file or directory of the base runs")
    parser.add_argument("change", type=Path, help="report file or directory of the changed runs")
    parser.add_argument("--benchmark", type=Path, default=Path("BENCHMARK.json"))
    args = parser.parse_args(argv)
    spec = json.loads(args.benchmark.read_text())
    base, change = load_reports(args.base), load_reports(args.change)
    if not base or not change:
        print("error: each side needs at least one untraced report", file=sys.stderr)
        return 2
    rows = compare(base, change, spec)
    header = f"{'workload':<10} {'metric':<20} {'base q1/median/q3':>32} {'change q1/median/q3':>32} {'wins':>6}  verdict"
    print(header)
    for workload, metric, row in rows:
        fmt = lambda q: "/".join(f"{v:.4g}" for v in q)  # noqa: E731
        wins = f"{row['wins'][0]}/{row['wins'][1]}"
        print(f"{workload:<10} {metric:<20} {fmt(row['base']):>32} {fmt(row['change']):>32} {wins:>6}  {row['verdict']}")
    return 1 if any(row["verdict"] == "worse" for _, _, row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
