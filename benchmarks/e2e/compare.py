"""``--compare A B``: is B worse than A by more than a metric's bound?

A and B are JSON-lines files written with ``--out`` (several untraced
runs per workload each). For every workload x end-to-end metric the
medians are compared in the metric's own direction against its own
bound. Where either side's runs disagree among themselves by more than
the bound, the pairing is ``unresolved`` rather than ``ok``: the
benchmark could not have seen a regression of that size.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict

from benchmarks.e2e.metrics import END_TO_END


def load(path: str) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> values, from the untraced records of a file."""
    values: dict[tuple[str, str], list[float]] = defaultdict(list)
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            if record["trace"]:
                continue
            for name, entry in record["metrics"].items():
                values[(record["workload"], name)].append(entry["value"])
    return values


def spread(values: list[float]) -> float:
    """Run-to-run disagreement as a share of the median: the quartile
    distance with four or more runs, the full range with fewer."""
    median = statistics.median(values)
    if len(values) < 2 or not median:
        return 0.0
    if len(values) >= 4:
        first, _, third = statistics.quantiles(values, n=4)
        return (third - first) / median
    return (max(values) - min(values)) / median


def rows(a: dict, b: dict) -> list[dict]:
    out = []
    for name, _unit, better, bound in END_TO_END:
        for workload in sorted({key[0] for key in a if key[1] == name}):
            before, after = a[(workload, name)], b.get((workload, name))
            if not after:
                continue
            base, new = statistics.median(before), statistics.median(after)
            change = (new - base) / base if base else 0.0
            worse = -change if better == "higher" else change
            noise = max(spread(before), spread(after))
            if worse > bound:
                verdict = "REGRESSION"
            elif noise > bound:
                verdict = "unresolved"
            else:
                verdict = "ok"
            out.append(
                {
                    "workload": workload,
                    "metric": name,
                    "a": base,
                    "b": new,
                    "runs": (len(before), len(after)),
                    "worse_by": worse,
                    "spread": noise,
                    "bound": bound,
                    "verdict": verdict,
                }
            )
    return out


def main(path_a: str, path_b: str) -> int:
    table = rows(load(path_a), load(path_b))
    print(
        f"{'workload':16s} {'metric':26s} {'A median':>12s} {'B median':>12s} "
        f"{'worse by':>9s} {'spread':>7s} {'bound':>6s}  verdict"
    )
    for row in table:
        half = "" if row["worse_by"] <= row["bound"] / 2 else "  (> half bound)"
        print(
            f"{row['workload']:16s} {row['metric']:26s} {row['a']:12.4f} "
            f"{row['b']:12.4f} {row['worse_by']:+9.1%} {row['spread']:7.1%} "
            f"{row['bound']:6.0%}  {row['verdict']}{half}"
        )
    missed = [row for row in table if row["verdict"] != "ok"]
    print(f"{len(table)} pairings, {len(missed)} not ok")
    return 1 if missed or not table else 0
