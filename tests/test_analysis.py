"""Tests for the §7.2-§7.4 analysis models (formulas 8, 9; storage; bandwidth)."""

from __future__ import annotations

import pytest

from repro.analysis.bandwidth import (
    LAN_100_MBPS,
    WLAN_55_MBPS,
    BandwidthModel,
    compression_experiment,
)
from repro.analysis.storage import storage_report
from repro.analysis.workload import (
    cumulative_workload_curve,
    efficiency_distribution,
    fraction_of_lists_larger_than,
    q_ratio,
    q_ratio_by_document_frequency,
    q_ratio_eff,
    response_size_distribution,
    workload_efficiency_summary,
)
from repro.core.merging.udm import UniformDistributionMerging
from repro.core.posting import PackingSpec
from repro.errors import ReproError


DFS = {"a": 10, "b": 5, "c": 2, "d": 1}
QFS = {"a": 100, "b": 10, "c": 5, "d": 1}


class TestQRatio:
    def test_hand_computed(self):
        members = ["a", "b"]
        # (15 * 110) / (10 * 100)
        assert q_ratio(members, "a", DFS, QFS) == pytest.approx(1.65)
        # (15 * 110) / (5 * 10)
        assert q_ratio(members, "b", DFS, QFS) == pytest.approx(33.0)

    def test_singleton_list_ratio_is_one(self):
        assert q_ratio(["a"], "a", DFS, QFS) == pytest.approx(1.0)

    def test_rare_terms_pay_more(self):
        # Fig. 10's core finding: in the same list, the rarer/less-queried
        # member has the worse ratio.
        members = ["a", "d"]
        assert q_ratio(members, "d", DFS, QFS) > q_ratio(members, "a", DFS, QFS)

    def test_non_member_rejected(self):
        with pytest.raises(ReproError):
            q_ratio(["a"], "b", DFS, QFS)

    def test_unqueried_term_rejected(self):
        with pytest.raises(ReproError):
            q_ratio(["a", "z"], "z", {"a": 1, "z": 1}, {"a": 5})


class TestQRatioEff:
    def test_hand_computed(self):
        assert q_ratio_eff(["a", "b"], "a", DFS) == pytest.approx(10 / 15)

    def test_singleton_is_perfectly_efficient(self):
        assert q_ratio_eff(["a"], "a", DFS) == pytest.approx(1.0)

    def test_efficiencies_sum_to_one_within_list(self):
        members = ["a", "b", "c"]
        total = sum(q_ratio_eff(members, t, DFS) for t in members)
        assert total == pytest.approx(1.0)

    def test_empty_list_rejected(self):
        with pytest.raises(ReproError):
            q_ratio_eff(["z"], "z", {"z": 0})


class TestCurves:
    @pytest.fixture(scope="class")
    def merge_env(self, request):
        probs = {f"t{i:03d}": 1.0 / (i + 1) for i in range(100)}
        total = sum(probs.values())
        probs = {t: p / total for t, p in probs.items()}
        merge = UniformDistributionMerging(num_lists=10).merge(probs)
        dfs = {t: max(1, int(1000 * p)) for t, p in probs.items()}
        qfs = {t: max(1, 500 - 5 * i) for i, t in enumerate(sorted(probs))}
        return merge, dfs, qfs

    def test_cumulative_curve_monotone_to_one(self, merge_env):
        _, dfs, qfs = merge_env
        curve = cumulative_workload_curve(dfs, qfs, points=20)
        fractions = [f for _, f in curve]
        assert all(a <= b + 1e-12 for a, b in zip(fractions, fractions[1:]))
        assert fractions[-1] == pytest.approx(1.0)

    def test_cumulative_curve_is_concave_headed(self, merge_env):
        # Fig. 6: the head of the workload dominates.
        _, dfs, qfs = merge_env
        curve = cumulative_workload_curve(dfs, qfs, points=20)
        mid_rank = curve[len(curve) // 2][0]
        mid_fraction = curve[len(curve) // 2][1]
        assert mid_fraction > mid_rank / curve[-1][0]

    def test_efficiency_distribution_sorted(self, merge_env):
        merge, dfs, qfs = merge_env
        dist = efficiency_distribution(merge, dfs, qfs)
        percentiles = [p for p, _ in dist]
        efficiencies = [e for _, e in dist]
        assert percentiles[-1] == pytest.approx(100.0)
        assert all(a <= b + 1e-12 for a, b in zip(efficiencies, efficiencies[1:]))
        assert all(0 <= e <= 1 for e in efficiencies)

    def test_workload_summary_buckets(self, merge_env):
        merge, dfs, qfs = merge_env
        summary = workload_efficiency_summary(merge, dfs, qfs)
        assert set(summary) == {
            "longest_70pct_mean_eff",
            "next_10pct_mean_eff",
            "shortest_20pct_mean_eff",
        }
        # Longest-running queries are high-DF terms, which dominate their
        # merged lists -> higher efficiency than the short tail.
        assert (
            summary["longest_70pct_mean_eff"]
            >= summary["shortest_20pct_mean_eff"]
        )

    def test_response_sizes(self, merge_env):
        merge, dfs, _ = merge_env
        sizes = response_size_distribution(merge, dfs)
        assert len(sizes) == merge.num_lists
        assert sizes == sorted(sizes)
        assert sum(sizes) == sum(dfs.values())

    def test_fraction_larger_than(self, merge_env):
        merge, dfs, _ = merge_env
        frac = fraction_of_lists_larger_than(merge, dfs, 0)
        assert frac == pytest.approx(1.0)
        assert fraction_of_lists_larger_than(merge, dfs, 10**9) == 0.0

    def test_q_ratio_by_df_buckets(self, merge_env):
        merge, dfs, qfs = merge_env
        targets = [1, max(dfs.values())]
        ratios = q_ratio_by_document_frequency(merge, dfs, qfs, targets)
        assert ratios
        # Rare terms suffer more from merging than the most frequent term.
        if len(ratios) == 2:
            assert ratios[1] >= ratios[max(dfs.values())]


class TestStorage:
    def test_paper_factors(self):
        report = storage_report(num_elements=1000, num_servers=3)
        assert report.per_server_overhead == pytest.approx(1.5)
        assert report.total_overhead == pytest.approx(4.5)
        assert report.plain_element_bits == 64
        assert report.zerber_element_bits == 96

    def test_byte_totals(self):
        report = storage_report(num_elements=1000, num_servers=3)
        assert report.plain_index_bytes == 1000 * 64 // 8
        assert report.zerber_fleet_bytes == 1000 * 96 * 3 // 8

    def test_custom_spec(self):
        spec = PackingSpec(
            doc_id_bits=20, term_id_bits=10, tf_bits=10, element_id_bits=20
        )
        report = storage_report(10, 2, spec)
        assert report.per_server_overhead == pytest.approx(60 / 40)

    def test_validation(self):
        with pytest.raises(ReproError):
            storage_report(-1, 3)
        with pytest.raises(ReproError):
            storage_report(10, 0)


class TestBandwidth:
    def test_link_presets(self):
        # §7.3: 55 Mb/s wireless clients, 100 Mb/s LAN servers.
        assert WLAN_55_MBPS == 55e6
        assert LAN_100_MBPS == 100e6
        model = BandwidthModel()
        assert model.user_bandwidth_bps == WLAN_55_MBPS
        assert model.server_bandwidth_bps == LAN_100_MBPS

    def test_paper_defaults_reproduce_sec_7_3(self):
        report = BandwidthModel().report()
        # "approximately 170 Kb (21.5 KB) per query term response"
        assert report.response_bits_per_query_term == pytest.approx(
            172_800, rel=0.01
        )
        assert report.response_kb_per_query_term == pytest.approx(21.6, rel=0.01)
        # "up to 35 queries/second per user" — same order of magnitude;
        # exact value depends on protocol overheads the paper leaves out.
        assert 30 < report.queries_per_second_user < 140
        # "about 200 queries/second answered by each server"
        assert 150 < report.queries_per_second_server < 300
        # "2.5 KB for the top-10 snippets" and "total ... is 24 KB"
        assert report.snippet_bytes_top_k == pytest.approx(2500)
        assert 20_000 < report.total_response_bytes_top_k < 30_000
        # "1.6 times" Google's 15 KB
        assert report.vs_google == pytest.approx(1.6, rel=0.15)
        assert report.vs_yahoo < 1.0  # smaller than Yahoo's 59 KB

    def test_insert_factor(self):
        model = BandwidthModel()
        assert model.insert_bandwidth_factor(3) == pytest.approx(4.5)
        assert model.delete_equals_insert_cost()
        with pytest.raises(ReproError):
            model.insert_bandwidth_factor(0)

    def test_validation(self):
        with pytest.raises(ReproError):
            BandwidthModel(elements_per_query_term=0)
        with pytest.raises(ReproError):
            BandwidthModel(k=0)

    def test_compression_shares_incompressible(self):
        result = compression_experiment(num_elements=500)
        # Plaintext postings compress well; share streams do not.
        assert result["share_ratio"] > 0.95
        assert result["plaintext_ratio"] < 0.80
        assert result["share_ratio"] > result["plaintext_ratio"]

    def test_compression_validation(self):
        with pytest.raises(ReproError):
            compression_experiment(num_elements=2)
