"""Command line of the benchmark of record.

The driver's form (one workload, result as the last line of stdout)::

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

By hand: ``python -m benchmarks.e2e`` runs all four workloads;
``--out FILE`` appends each run's full record as one JSON line;
``--compare A B`` compares two such files against the bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from benchmarks.e2e import compare, metrics, scenario
from benchmarks.e2e.kernel import KERNEL_REF_S, KERNEL_VERSION
from benchmarks.e2e.workloads import Run

HERE = os.path.dirname(os.path.abspath(__file__))
#: Seat stores and traces land here, inside the checkout and ignored.
WORK_DIR = os.path.join(HERE, "results")
DEFAULT_SEED = 1723
DEFAULT_SECONDS = 12


def run_workload(
    name: str,
    seed: int = DEFAULT_SEED,
    seconds: float = DEFAULT_SECONDS,
    trace: bool = False,
    scale: str = "full",
    clock=time.perf_counter,
    work_dir: str = WORK_DIR,
) -> dict:
    """Run one workload; returns its full record."""
    workload = scenario.scaled_workload(scenario.BY_NAME[name], scale)
    run = Run(
        workload, scenario.SCALES[scale], seed, seconds, trace, work_dir, clock
    )
    results = run.execute()
    harness = metrics.harness_values(run, results)
    problems: list[str] = []
    if trace:
        values, problems = metrics.per_layer(run, results, harness)
        declared = metrics.PER_LAYER
        samples = {}
        run.tracer.dump(
            os.path.join(work_dir, f"trace_{name}.json"), run.all_factors()
        )
    else:
        values, samples = metrics.end_to_end(run, results)
        declared = metrics.END_TO_END
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "scale": scale,
        "sizes": vars(scenario.SCALES[scale]),
        "kernel": {"version": KERNEL_VERSION, "ref_s": KERNEL_REF_S},
        "fingerprint": results["fingerprint"],
        "run_wall_s": results["run_wall_s"],
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
        "counter_problems": problems,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit, *_ in declared
        },
        "samples": samples,
        "harness": harness,
    }
    if trace:
        record["budget"] = _budget(values, results)
    return record


def _budget(values: dict, results: dict) -> list[tuple[str, float, float]]:
    """Layer, us per query and share of query wall: the layer budget."""
    queries = results["traced_stats"].queries
    wall_us = results["traced"].total / queries * 1e6
    rows = [
        (name, values[name], values[name] / wall_us)
        for name, unit, _ in metrics.PER_LAYER
        if unit == "us" and "_per_" not in name
    ]
    rows.append(("query wall (traced)", wall_us, 1.0))
    return rows


def _print_record(record: dict, stream) -> None:
    print(
        f"== {record['workload']}  seed={record['seed']} "
        f"trace={int(record['trace'])}  wall={record['run_wall_s']:.1f}s  "
        f"attempted={record['attempted']} failed={record['failed']}",
        file=stream,
    )
    for name, entry in record["metrics"].items():
        count = record["samples"].get(name)
        note = f"  (n={count})" if count else ""
        print(f"  {name:42s} {entry['value']:14.4f} {entry['unit']}{note}",
              file=stream)
    if not record["trace"]:
        for name, value in record["harness"].items():
            print(f"  {name:42s} {value:14.4f}", file=stream)
    for name, micros, share in record.get("budget", ()):
        print(f"  budget {name:35s} {micros:12.1f} us {share:7.1%}",
              file=stream)
    for line in record["failures"] + record["counter_problems"]:
        print(f"  ! {line}", file=stream)
    print(f"  fingerprint {json.dumps(record['fingerprint'])}", file=stream)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e", description=__doc__)
    parser.add_argument("--workload", choices=sorted(scenario.BY_NAME))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="same as --trace 1")
    parser.add_argument("--scale", choices=sorted(scenario.SCALES),
                        default="full")
    parser.add_argument("--out", help="append each record to this JSON-lines file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare.main(*args.compare)
    names = [args.workload] if args.workload else list(scenario.BY_NAME)
    status = 0
    for name in names:
        record = run_workload(
            name, args.seed, args.seconds, bool(args.trace or args.traced),
            args.scale,
        )
        _print_record(record, sys.stdout)
        if args.out:
            with open(args.out, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(record) + "\n")
        print(
            json.dumps(
                {key: record[key]
                 for key in ("correct", "attempted", "failed", "metrics")}
            ),
            flush=True,
        )
        if not record["correct"]:
            status = 1
    return status
