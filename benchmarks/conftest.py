"""Shared fixtures for the §7 benchmark harness.

Every bench consumes the same scaled ODP-like corpus statistics and query
log. The scale knob (``ZERBER_BENCH_SCALE``, default 0.02) multiplies the
paper's corpus dimensions (237,000 documents / 987,700 terms) AND its
experiment parameters (M values, DF targets), so the default run finishes
in seconds while ``ZERBER_BENCH_SCALE=1.0`` reproduces the full-scale
sweep. Rendered tables are printed and persisted under
``benchmarks/results/`` (``<experiment>.txt``, one per rendered table).
"""

from __future__ import annotations

import os
import pathlib
import time

import pytest

from repro.core.merging.bfm import BreadthFirstMerging, bfm_r_for_list_count
from repro.core.merging.dfm import DepthFirstMerging
from repro.core.merging.udm import UniformDistributionMerging
from repro.corpus.querylog import QueryLogConfig, generate_query_log
from repro.corpus.synthetic import odp_like_statistics, studip_like_statistics

#: The paper's experiment parameters (§7.5-§7.6), scaled per fixture below.
PAPER_M_VALUES = (1024, 2048, 4096, 32768)
PAPER_DF_TARGETS = (1, 1000, 3500)

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def bench_scale() -> float:
    return float(os.environ.get("ZERBER_BENCH_SCALE", "0.02"))


@pytest.fixture(scope="session")
def scale() -> float:
    return bench_scale()


@pytest.fixture(scope="session")
def odp_stats(scale):
    return odp_like_statistics(scale=scale)


@pytest.fixture(scope="session")
def studip_stats(scale):
    return studip_like_statistics(scale=min(1.0, scale * 5))


@pytest.fixture(scope="session")
def probs(odp_stats):
    return odp_stats.term_probabilities()


@pytest.fixture(scope="session")
def dfs(odp_stats):
    return dict(odp_stats.document_frequencies)


@pytest.fixture(scope="session")
def qlog(odp_stats, scale):
    config = QueryLogConfig(
        total_queries=max(10_000, int(7_000_000 * scale * scale)),
        distinct_query_terms=max(500, int(135_000 * scale)),
        # Noise small relative to the singleton head (query rank tracks
        # document rank closely for the head, §7.4.3), plus a uniform
        # tail so arbitrarily rare terms appear in the workload.
        rank_noise=0.005,
        tail_fraction=0.2,
        seed=1723,
    )
    return generate_query_log(odp_stats, config)


@pytest.fixture(scope="session")
def qfs(qlog):
    return qlog.frequencies()


@pytest.fixture(scope="session")
def m_values(scale, odp_stats):
    """(paper_M, scaled_M) pairs, capped below the vocabulary size."""
    vocab = odp_stats.vocabulary_size
    out = []
    for paper_m in PAPER_M_VALUES:
        scaled = max(16, round(paper_m * scale))
        if scaled < vocab:
            out.append((paper_m, scaled))
    return out


@pytest.fixture(scope="session")
def df_targets(scale):
    """(paper_DF, scaled_DF) pairs for the Fig. 10 buckets."""
    return [
        (paper_df, max(1, round(paper_df * scale)))
        for paper_df in PAPER_DF_TARGETS
    ]


class MergeCache:
    """Session-wide cache of (heuristic, M) -> MergeResult.

    BFM input-r calibration (§7.5's "tweaked the input value of r") is
    cached alongside, since DFM reuses it as its target r.
    """

    def __init__(self, probs):
        self._probs = probs
        self._merges = {}
        self._calibrated_r = {}

    def calibrated_r(self, m: int) -> float:
        if m not in self._calibrated_r:
            self._calibrated_r[m] = bfm_r_for_list_count(self._probs, m)
        return self._calibrated_r[m]

    def merge(self, heuristic: str, m: int):
        key = (heuristic, m)
        if key not in self._merges:
            if heuristic == "bfm":
                algo = BreadthFirstMerging(self.calibrated_r(m))
            elif heuristic == "dfm":
                algo = DepthFirstMerging(m, self.calibrated_r(m))
            elif heuristic == "udm":
                algo = UniformDistributionMerging(m)
            else:
                raise ValueError(heuristic)
            self._merges[key] = algo.merge(self._probs)
        return self._merges[key]


@pytest.fixture(scope="session")
def merges(probs):
    return MergeCache(probs)


def timed_pedantic(benchmark, target, rounds: int = 1):
    """``benchmark.pedantic(target)`` and the mean seconds per call.

    Under ``--benchmark-disable`` pedantic calls ``target`` once and
    records no stats (``benchmark.stats`` is None); the seconds are then
    a local best-of ``perf_counter`` over that call and ``rounds - 1``
    more (pedantic would have made them too, so ``target`` is safe to
    repeat whenever ``rounds > 1``).
    """
    seconds: list[float] = []

    def timed():
        start = time.perf_counter()
        try:
            return target()
        finally:
            seconds.append(time.perf_counter() - start)

    result = benchmark.pedantic(timed, rounds=rounds, iterations=1)
    if benchmark.stats is not None:
        return result, benchmark.stats.stats.mean
    for _ in range(rounds - 1):
        timed()
    return result, min(seconds)


def emit(name: str, lines: list[str]) -> None:
    """Print a rendered experiment table and persist it to results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    text = "\n".join(lines)
    print(f"\n{text}\n")
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def metrics_snapshot(cluster) -> dict:
    """Hit rates and latency quantiles from a deployment's registry.

    Embedded into each BENCH_*.json (PR 10) so every benchmark row
    carries the observability picture of the run that produced it —
    the same numbers `repro cluster top` renders.
    """
    from repro.observability.metrics import SampleView

    view = SampleView(cluster.metrics.samples())

    def rate(hits_name, misses_name):
        hits = view.value(hits_name, 0.0)
        misses = view.value(misses_name, 0.0)
        total = hits + misses
        return round(hits / total, 4) if total else None

    def quantiles_ms(name, **labels):
        return {
            key: round(
                (view.value(name, 0.0, quantile=q, **labels) or 0.0) * 1e3,
                3,
            )
            for key, q in (
                ("p50_ms", "0.5"), ("p95_ms", "0.95"), ("p99_ms", "0.99"),
            )
        }

    return {
        "search_queries": int(
            view.value("zerber_search_queries_total", 0.0)
        ),
        "search_latency": quantiles_ms("zerber_search_latency_seconds"),
        "hit_rates": {
            "share_cache": rate(
                "zerber_share_cache_hits", "zerber_share_cache_misses"
            ),
            "l1": rate("zerber_l1_hits", "zerber_l1_misses"),
            "l2": rate(
                "zerber_cache_tier_hits", "zerber_cache_tier_misses"
            ),
        },
        "pod_fetch_latency": {
            pod: quantiles_ms(
                "zerber_pod_fetch_latency_seconds", pod=pod
            )
            for pod in view.label_values(
                "zerber_pod_fetch_latency_seconds_count", "pod"
            )
        },
    }
