"""Compare two benchmark result sets, for example a parent and a change.

Usage:
    python3 perfbench/compare.py PARENT_RUNS.jsonl CHANGE_RUNS.jsonl

A result set is the ``.perfbench_out/runs.jsonl`` that run.py appends to in
one checkout.  Only untraced runs are read.  Runs of one workload pair up in
file order, so run the two sides alternately (parent, change, change,
parent, ...) with the same --seconds and seeds.

One row per workload and end-to-end metric gives each side's median and
quartiles and a verdict:

- better / worse: with at least 10 pairs, one side wins at least 9 in 10 of
  them (ties count for neither) and the medians differ by more than the
  parent's own interquartile range;
- unresolved: either side's quartile spread, as a share of its median, is
  wider than the metric's bound in BENCHMARK.json, or a side has fewer than
  two runs;
- worse: otherwise, when the change's median is worse than the parent's by
  more than the bound;
- unchanged: otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(path: Path) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for line in path.read_text().splitlines():
        record = json.loads(line)
        if record["trace"] == 0:
            runs.setdefault(record["workload"], []).append(record["metrics"])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    if len(parent) < 2 or len(change) < 2:
        return "unresolved"
    sign = 1.0 if better == "lower" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    gain = sign * (pm - cm)  # positive when the change is better
    pairs = list(zip(parent, change))
    wins = sum(sign * (p - c) > 0 for p, c in pairs)
    losses = sum(sign * (p - c) < 0 for p, c in pairs)
    if len(pairs) >= MIN_PAIRS and abs(gain) > p3 - p1:
        if wins >= WIN_SHARE * len(pairs) and gain > 0:
            return "better"
        if losses >= WIN_SHARE * len(pairs) and gain < 0:
            return "worse"
    if (p3 - p1) > bound * abs(pm) or (c3 - c1) > bound * abs(cm):
        return "unresolved"
    if -gain > bound * abs(pm):
        return "worse"
    return "unchanged"


def compare(parent_path: Path, change_path: Path, spec: dict) -> list[str]:
    parent, change = load_runs(parent_path), load_runs(change_path)
    lines = [
        f"{'workload':16} {'metric':13} {'parent q1/median/q3':>32} "
        f"{'change q1/median/q3':>32} {'pairs':>5}  verdict"
    ]
    for workload in sorted(set(parent) | set(change)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [run[name]["value"] for run in parent.get(workload, []) if name in run]
            c = [run[name]["value"] for run in change.get(workload, []) if name in run]
            cells = [
                "/".join(f"{v:.4g}" for v in quartiles(side)) if len(side) >= 2 else "-"
                for side in (p, c)
            ]
            lines.append(
                f"{workload:16} {name:13} {cells[0]:>32} {cells[1]:>32} "
                f"{min(len(p), len(c)):5d}  {verdict(p, c, metric['better'], metric['bound'])}"
            )
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    print("\n".join(compare(Path(argv[0]), Path(argv[1]), spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
