"""Compare two sets of benchmark results, parent against change.

Usage::

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds result files written by ``run.py --trace 0`` (they land
in ``.perfbench/results/``; copy each side's files to a directory of its
own). With one directory, only its summary is printed.

One row per workload and end-to-end metric shows each side's median, first
and third quartile, and the spread (interquartile range / median), then a
verdict:

* ``improved``: at least ten pairs, the change wins at least 9/10 of them
  (ties count for neither side), the medians differ by more than the
  parent's interquartile range, and the change failed no more commands;
* ``no worse``: the change's median is within the metric's bound of the
  parent's, and both spreads are within the bound;
* ``worse``: the change's median is past the bound while both spreads are
  within it;
* ``unresolved``: a spread is wider than the bound, unless every change run
  is better than every parent run (then ``no worse``).

Runs are paired by seed, in the order of their files.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Optional

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_results(directory: Path) -> dict[str, list[dict]]:
    """workload -> untraced results, ordered by seed then file name."""
    by_workload: dict[str, list[dict]] = {}
    for path in sorted(directory.glob("*.json")):
        result = json.loads(path.read_text(encoding="utf-8"))
        if result.get("trace") == 0:
            by_workload.setdefault(result["workload"], []).append(result)
    for results in by_workload.values():
        results.sort(key=lambda r: r["environment"]["seed"])
    return by_workload


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else float("inf")


def verdict(parent: list[float], change: list[float], bound: float, lower_is_better: bool,
            extra_failures: bool) -> tuple[str, int, int]:
    """(verdict, wins, pairs) for one workload and metric."""
    def better(a: float, b: float) -> bool:
        return a < b if lower_is_better else a > b

    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if better(c, p))
    p_q1, p_median, p_q3 = quartiles(parent)
    c_median = quartiles(change)[1]
    if (len(pairs) >= 10 and wins >= 0.9 * len(pairs) and abs(c_median - p_median) > p_q3 - p_q1
            and not extra_failures):
        return "improved", wins, len(pairs)
    if all(better(c, p) for c in change for p in parent):
        return "no worse", wins, len(pairs)
    if max(spread(parent), spread(change)) > bound:
        return "unresolved", wins, len(pairs)
    worse_by = (c_median - p_median) / p_median
    if not lower_is_better:
        worse_by = -worse_by
    return ("worse" if worse_by > bound else "no worse"), wins, len(pairs)


def _cells(values: list[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:>10.4g} [{q1:.4g}, {q3:.4g}] {100 * spread(values):5.1f}%"


def _failures(results: list[dict]) -> tuple[int, int]:
    return sum(r["failed"] for r in results), sum(r["attempted"] for r in results)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Compare parent and change benchmark results.")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path, nargs="?")
    args = parser.parse_args(argv)

    metrics = json.loads(BENCHMARK.read_text(encoding="utf-8"))["end_to_end"]
    parent = load_results(args.parent)
    change = load_results(args.change) if args.change else {}
    if not parent:
        print(f"error: no untraced results in {args.parent}", file=sys.stderr)
        return 1
    head = f"{'workload':16} {'metric':13} {'parent median [q1, q3] spread':>36}"
    if args.change:
        head += f"   {'change median [q1, q3] spread':>36}  {'wins':>7}  verdict"
    print(head)
    for workload in sorted(set(parent) | set(change)):
        p_runs, c_runs = parent.get(workload, []), change.get(workload, [])
        p_failed, p_attempted = _failures(p_runs)
        c_failed, c_attempted = _failures(c_runs)
        for metric in metrics:
            name = metric["name"]
            p_values = [r["metrics"][name]["value"] for r in p_runs if name in r["metrics"]]
            c_values = [r["metrics"][name]["value"] for r in c_runs if name in r["metrics"]]
            row = f"{workload:16} {name:13} {_cells(p_values) if p_values else '--':>36}"
            if args.change:
                if p_values and c_values:
                    extra_failures = c_failed / max(c_attempted, 1) > p_failed / max(p_attempted, 1)
                    word, wins, pairs = verdict(p_values, c_values, metric["bound"],
                                                metric["better"] == "lower", extra_failures)
                    row += f"   {_cells(c_values):>36}  {wins:>3}/{pairs:<3}  {word}"
                else:
                    row += f"   {'--':>36}  {'':>7}  unresolved (missing runs)"
            print(row)
        line = f"{workload:16} {'failed':13} {p_failed}/{p_attempted} commands"
        if args.change:
            line += f"; change {c_failed}/{c_attempted}"
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
