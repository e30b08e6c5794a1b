"""Self-tests of the benchmark harness, at ``--scale tiny``.

Outside tier-1's ``testpaths``; run with
``python -m pytest benchmarks/e2e -q`` (under 30 s).
"""

from __future__ import annotations

import importlib
import json
import os
import re
import sys

import pytest

from benchmarks.e2e import cli, compare, metrics, scenario, tracing
from benchmarks.e2e.harness import FsyncMeter
from benchmarks.e2e.workloads import Run

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAMES = [workload.name for workload in scenario.WORKLOADS]
#: Metrics that are counted, not timed (harness.* describe the run
#: itself; compactions are attributed by timing, see metrics.py).
EXACT_UNITS = ("count", "B", "share")


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    """One tiny run per (workload, traced?), shared by the tests."""
    work_dir = str(tmp_path_factory.mktemp("e2e"))
    cache: dict = {}

    def get(name: str, trace: bool, seed: int = 1723) -> dict:
        key = (name, trace, seed)
        if key not in cache:
            cache[key] = cli.run_workload(
                name, seed=seed, seconds=0, trace=trace, scale="tiny",
                work_dir=work_dir,
            )
        return cache[key]

    return get


def test_benchmark_json_declares_what_the_code_emits():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in declared["end_to_end"]
    ] == list(metrics.END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in declared["per_layer"]
    ] == list(metrics.PER_LAYER)
    assert [(w["name"], w["why"]) for w in declared["workloads"]] == [
        (w.name, w.why) for w in scenario.WORKLOADS
    ]
    assert declared["run_seconds"] == cli.DEFAULT_SECONDS
    assert declared["paths"] == ["benchmarks/e2e"]
    for entry in declared["end_to_end"] + declared["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", entry["name"])
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", entry["unit"])


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", NAMES)
def test_every_declared_metric_is_emitted_once(records, name, trace):
    record = records(name, trace)
    declared = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert list(record["metrics"]) == [entry[0] for entry in declared]
    for entry in declared:
        emitted = record["metrics"][entry[0]]
        assert emitted["unit"] == entry[1]
        assert isinstance(emitted["value"], (int, float))
    assert record["failed"] == 0 and record["correct"], record["failures"]
    assert record["attempted"] >= 1


@pytest.mark.parametrize("name", NAMES)
def test_shares_are_shares_and_counters_agree(records, name):
    record = records(name, True)
    assert record["counter_problems"] == []
    for metric, entry in record["metrics"].items():
        if entry["unit"] == "share":
            assert 0.0 <= entry["value"] <= 1.0, metric


class TickClock:
    """A fake clock: every reading is one tick after the last."""

    def __init__(self, tick: float) -> None:
        self.tick = tick
        self.readings = 0

    def __call__(self) -> float:
        self.readings += 1
        return self.readings * self.tick


def test_a_slow_clock_moves_only_the_raw_numbers(tmp_path):
    def run(tick):
        return cli.run_workload(
            "uncached_inproc", seconds=0, scale="tiny",
            clock=TickClock(tick), work_dir=str(tmp_path),
        )

    fast, slow = run(1e-4), run(1.5e-4)
    for name in ("setup_s", "query_qps", "query_p50_ms", "index_docs_per_s"):
        assert slow["metrics"][name]["value"] == pytest.approx(
            fast["metrics"][name]["value"], rel=1e-9
        ), name
    for name in ("harness.raw_query_p50_ms", "harness.raw_setup_s"):
        assert slow["harness"][name] == pytest.approx(
            1.5 * fast["harness"][name], rel=1e-9
        )
    assert slow["harness"]["harness.raw_query_qps"] == pytest.approx(
        fast["harness"]["harness.raw_query_qps"] / 1.5, rel=1e-9
    )


def test_a_wrong_answer_counts_as_failed(tmp_path):
    class DropsTopHit(Run):
        def _search(self, query):
            return super()._search(query)[1:]

    run = DropsTopHit(
        scenario.scaled_workload(scenario.BY_NAME["uncached_inproc"], "tiny"),
        scenario.TINY, 1723, 0, False, str(tmp_path),
    )
    results = run.execute()
    answered = results["stats"].queries + scenario.TINY.warmup_queries
    assert 0 < run.failed <= answered
    assert "oracle" in run.failures[0]


@pytest.mark.parametrize("name", ["uncached_socket", "zipf_cached"])
def test_exact_counts_repeat_at_a_seed_and_move_with_it(records, tmp_path, name):
    def exact(record):
        return {
            metric: entry["value"]
            for metric, entry in record["metrics"].items()
            if entry["unit"] in EXACT_UNITS
            and not metric.startswith("harness.")
            and metric != "storage.compactions"
        }

    first = exact(records(name, True))
    again = exact(
        cli.run_workload(
            name, seconds=0, trace=True, scale="tiny", work_dir=str(tmp_path)
        )
    )
    assert again == first
    assert exact(records(name, True, seed=7)) != first


def test_wraps_are_fully_removed_after_a_traced_pass(records):
    def targets():
        out = []
        for _name, module_name, path, _leaf in tracing.TARGETS:
            holder = importlib.import_module(module_name)
            owner, _, attribute = path.rpartition(".")
            if owner:
                holder = getattr(holder, owner)
            out.append(vars(holder)[attribute])
        return out

    before = targets()
    records("mixed_rw", True)
    assert all(a is b for a, b in zip(before, targets()))
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro"):
            for value in vars(module).values():
                assert getattr(value, "__name__", "") not in (
                    "span_wrapper", "leaf_wrapper",
                )


def test_traced_pass_writes_its_spans(records, tmp_path_factory):
    record = records("uncached_socket", True)
    assert record["metrics"]["harness.span_coverage_share"]["value"] > 0.9
    assert record["metrics"]["protocol.frames_per_query"]["value"] > 0
    assert records("uncached_inproc", True)["metrics"][
        "protocol.frames_per_query"
    ]["value"] == 0


def test_fsync_meter_restores_os_fsync():
    original = os.fsync
    with FsyncMeter(clock=lambda: 0.0) as meter:
        assert os.fsync is not original
        with open(os.devnull, "w") as handle:
            try:
                os.fsync(handle.fileno())
            except OSError:
                pass  # /dev/null may refuse; the call is still counted
        assert meter.calls == 1
    assert os.fsync is original


def _write(path, workload, values_by_metric):
    with open(path, "w", encoding="utf-8") as handle:
        for run in range(len(next(iter(values_by_metric.values())))):
            record = {
                "workload": workload,
                "trace": False,
                "metrics": {
                    name: {"value": values[run], "unit": "x"}
                    for name, values in values_by_metric.items()
                },
            }
            handle.write(json.dumps(record) + "\n")


def test_compare_verdicts(tmp_path, capsys):
    a, same, worse, noisy = (
        str(tmp_path / f"{name}.jsonl") for name in ("a", "same", "worse", "noisy")
    )
    _write(a, "w", {"query_qps": [100, 101, 99], "query_p50_ms": [10, 10, 10]})
    _write(same, "w", {"query_qps": [100, 99, 101], "query_p50_ms": [10, 10.2, 10]})
    _write(worse, "w", {"query_qps": [60, 61, 59], "query_p50_ms": [10, 10, 10]})
    _write(noisy, "w", {"query_qps": [100, 130, 70], "query_p50_ms": [10, 10, 10]})
    assert compare.main(a, same) == 0
    assert compare.main(a, worse) == 1
    assert compare.main(a, noisy) == 1
    verdicts = {
        (row["metric"], row["verdict"])
        for row in compare.rows(compare.load(a), compare.load(noisy))
    }
    assert ("query_qps", "unresolved") in verdicts
    assert ("query_p50_ms", "ok") in verdicts
    regression = compare.rows(compare.load(a), compare.load(worse))
    assert [r["verdict"] for r in regression if r["metric"] == "query_qps"] == [
        "REGRESSION"
    ]
    capsys.readouterr()
