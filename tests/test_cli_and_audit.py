"""Tests for the CLI entry points and the confidentiality audit."""

from __future__ import annotations

import pytest

from repro.analysis.audit import audit_merge
from repro.cli import main
from repro.core.merging.dfm import DepthFirstMerging
from repro.core.merging.udm import UniformDistributionMerging
from repro.errors import ConfidentialityError


def zipf_probs(n: int) -> dict[str, float]:
    raw = {f"t{i:03d}": 1.0 / (i + 1) for i in range(n)}
    total = sum(raw.values())
    return {t: p / total for t, p in raw.items()}


PROBS = zipf_probs(150)
QFS = {
    t: max(1, 1_000 - 6 * rank)
    for rank, t in enumerate(sorted(PROBS, key=lambda t: -PROBS[t]))
}


class TestAudit:
    def test_fields_consistent(self):
        merge = UniformDistributionMerging(8).merge(PROBS)
        audit = audit_merge(merge, PROBS, query_frequencies=QFS)
        assert audit.resulting_r == pytest.approx(merge.resulting_r(PROBS))
        assert len(audit.weakest_lists) == 3
        weakest_mass = audit.weakest_lists[0][1]
        assert weakest_mass == pytest.approx(min(merge.masses(PROBS)))
        assert audit.mass_quantiles[0] <= audit.mass_quantiles[-1]
        assert audit.singleton_fraction == 0.0
        assert audit.table_exposure == 1.0
        assert audit.band_information is not None
        assert 0.0 < audit.identity_accuracy <= 1.0

    def test_singletons_reported(self):
        merge = DepthFirstMerging(8, target_r=1000).merge(
            zipf_probs(8)
        )
        audit = audit_merge(merge, zipf_probs(8))
        assert audit.singleton_lists == 8
        assert audit.singleton_fraction == 1.0

    def test_table_exposure_with_cutoff(self):
        merge = UniformDistributionMerging(8).merge(PROBS)
        audit = audit_merge(merge, PROBS, table_size=30)
        assert audit.table_exposure == pytest.approx(30 / 150)

    def test_query_channels_optional(self):
        merge = UniformDistributionMerging(8).merge(PROBS)
        audit = audit_merge(merge, PROBS)
        assert audit.band_information is None
        assert audit.identity_accuracy is None

    def test_render_mentions_key_numbers(self):
        merge = UniformDistributionMerging(8).merge(PROBS)
        audit = audit_merge(merge, PROBS, query_frequencies=QFS)
        text = "\n".join(audit.render())
        assert "index-wide r" in text
        assert "band leak" in text

    def test_weakest_validation(self):
        merge = UniformDistributionMerging(8).merge(PROBS)
        with pytest.raises(ConfidentialityError):
            audit_merge(merge, PROBS, weakest=0)


class TestCli:
    def test_demo(self, capsys):
        assert main(["demo", "--documents", "10", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "indexed 10 documents" in out
        assert "hits" in out

    def test_merge_all_heuristics(self, capsys):
        for heuristic in ("dfm", "bfm", "udm"):
            code = main(
                [
                    "merge",
                    "--heuristic",
                    heuristic,
                    "--documents",
                    "400",
                    "--vocabulary",
                    "800",
                    "--lists",
                    "16",
                ]
            )
            assert code == 0
            out = capsys.readouterr().out
            assert heuristic.upper() in out
            assert "resulting r" in out

    def test_audit(self, capsys):
        code = main(
            [
                "audit",
                "--documents",
                "400",
                "--vocabulary",
                "800",
                "--lists",
                "16",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "confidentiality audit" in out
        assert "band leak" in out

    def test_bandwidth(self, capsys):
        assert main(["bandwidth"]) == 0
        out = capsys.readouterr().out
        assert "21.6 KB" in out
        assert "x4.5" in out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_cluster_status(self, capsys):
        code = main(
            [
                "cluster", "status",
                "--documents", "12",
                "--pods", "2",
                "--n", "3",
                "--k", "2",
                "--kill", "0:1",
                "--seed", "3",
                "--l1-entries", "16",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cluster: 2 pods" in out
        assert "pod0: 2/3 seats live" in out
        assert "dead: pod0-server-1" in out
        assert "ewma" in out
        assert "L1 (searcher-local, 1 caches): " in out
        assert "share cache" not in out

    def test_cluster_search_l1_entries_serves_the_repeat(self, capsys):
        """``--l1-entries`` sizes the searcher's L1 with no cache tier:
        the repeat query is answered from it, sending no lookups."""
        code = main(
            [
                "cluster", "search",
                "--documents", "12",
                "--pods", "2",
                "--n", "3",
                "--k", "2",
                "--l1-entries", "32",
            ]
        )
        assert code == 0
        repeat = [
            line
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("repeat query:")
        ]
        assert len(repeat) == 1
        hits = int(repeat[0].split()[2])
        assert hits > 0
        assert repeat[0].endswith(" L1 hits, 0 lookup messages")

    def test_cluster_search_rejects_a_negative_l1_size(self):
        with pytest.raises(SystemExit, match="l1_entries must be >= 0"):
            main(["cluster", "search", "--documents", "4",
                  "--l1-entries", "-1"])

    def test_serve_bounded_duration(self, capsys):
        code = main(
            [
                "serve",
                "--documents", "8",
                "--pods", "2",
                "--n", "3",
                "--k", "2",
                "--replication", "1",
                "--duration", "0.3",
                "--seed", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "serving" in out and "endpoints at 127.0.0.1:" in out

    def test_serve_warns_it_is_outside_the_trust_model(self, capsys):
        """One process hosts every seat of every pod, so it holds all n
        shares of every element: serve must say so on stderr."""
        assert main(["serve", "--documents", "4", "--duration", "0"]) == 0
        err = capsys.readouterr().err
        assert "demo only" in err
        assert "outside the r-confidentiality trust model" in err
        assert "holds all n=" in err

    def test_serve_answers_over_tcp_while_up(self):
        """A second thread queries the served scenario over a raw
        AsyncSocketTransport while the serve loop is still running."""
        import re
        import threading
        import io
        from contextlib import redirect_stdout

        from repro.protocol import AsyncSocketTransport, ServerStatusRequest

        buffer = io.StringIO()

        def run_server():
            with redirect_stdout(buffer):
                main(
                    [
                        "serve",
                        "--documents", "8",
                        "--pods", "2",
                        "--n", "3",
                        "--k", "2",
                        "--replication", "1",
                        "--duration", "2.5",
                        "--seed", "3",
                    ]
                )

        thread = threading.Thread(target=run_server, daemon=True)
        thread.start()
        address = None
        for _ in range(100):
            match = re.search(r"endpoints at ([\d.]+):(\d+)", buffer.getvalue())
            if match:
                address = (match.group(1), int(match.group(2)))
                break
            thread.join(timeout=0.05)
        assert address, "serve never printed its address"
        with AsyncSocketTransport(address) as transport:
            endpoints = transport.endpoints()
            assert any(name.startswith("pod0-server-") for name in endpoints)
            status = transport.call(
                "probe", "pod0-server-0", ServerStatusRequest()
            )
            assert status.num_elements > 0
        thread.join(timeout=10)
        assert not thread.is_alive()


class TestSnippetNetworkAccounting:
    def test_snippet_bytes_hit_the_ledger(self, small_corpus, monkeypatch):
        """Each hit's snippet is a protocol message to its hosting peer
        (not the local fallback), sized with §7.3's XML envelope."""
        from repro.protocol.messages import FetchSnippetRequest
        from tests.helpers import deploy_corpus, owner_of_group

        deployment = deploy_corpus(small_corpus, num_lists=16)
        served = []
        call = deployment.transport.call

        def watching_call(src, dst, request):
            response = call(src, dst, request)
            if isinstance(request, FetchSnippetRequest):
                served.append(response.snippet)
            return response

        monkeypatch.setattr(deployment.transport, "call", watching_call)
        doc = next(iter(small_corpus))
        term = sorted(doc.term_counts)[0]
        user = owner_of_group(doc.group_id)
        searcher = deployment.searcher(user)
        results = searcher.search([term], top_k=3)
        assert results and all(r.snippet for r in results)
        assert [s.text for s in served] == [r.snippet for r in results]
        # Each snippet response carries its XML envelope (§7.3's ~250 B).
        assert sum(s.wire_bytes() for s in served) >= len(results) * 130
