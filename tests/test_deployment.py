"""Tests for the ZerberDeployment facade (the public API surface)."""

from __future__ import annotations

import pytest

from repro.cluster import ClusterDeployment
from repro.core.mapping_table import MappingTable
from repro.core.zerber_index import ZerberDeployment
from repro.corpus.document import Document
from repro.errors import AuthError, ClusterError, ReproError, TransportError


def zipf_probs(n: int) -> dict[str, float]:
    raw = {f"t{i:03d}": 1.0 / (i + 1) for i in range(n)}
    total = sum(raw.values())
    return {t: p / total for t, p in raw.items()}


PROBS = zipf_probs(120)


class TestBootstrap:
    def test_dfm_by_name(self):
        deployment = ZerberDeployment.bootstrap(
            PROBS, heuristic="dfm", num_lists=8
        )
        assert deployment.mapping_table.num_lists == 8
        assert deployment.merge_result.heuristic == "DFM"

    def test_bfm_by_name_with_target_r(self):
        deployment = ZerberDeployment.bootstrap(
            PROBS, heuristic="bfm", target_r=10.0
        )
        assert deployment.merge_result.heuristic == "BFM"
        assert deployment.merge_result.resulting_r(PROBS) <= 10.0 + 1e-9

    def test_udm_by_name(self):
        deployment = ZerberDeployment.bootstrap(
            PROBS, heuristic="udm", num_lists=6
        )
        assert deployment.merge_result.heuristic == "UDM"

    def test_instance_heuristic(self):
        from repro.core.merging.udm import UniformDistributionMerging

        deployment = ZerberDeployment.bootstrap(
            PROBS,
            heuristic=UniformDistributionMerging(5),
        )
        assert deployment.mapping_table.num_lists == 5

    def test_rare_cutoff_applied(self):
        cutoff = sorted(PROBS.values())[len(PROBS) // 2]
        deployment = ZerberDeployment.bootstrap(
            PROBS,
            heuristic="udm",
            num_lists=6,
            rare_cutoff=cutoff,
        )
        assert deployment.mapping_table.table_size < len(PROBS)

    def test_missing_parameters_rejected(self):
        with pytest.raises(ReproError):
            ZerberDeployment.bootstrap(PROBS, heuristic="dfm")
        with pytest.raises(ReproError):
            ZerberDeployment.bootstrap(PROBS, heuristic="udm")
        with pytest.raises(ReproError):
            ZerberDeployment.bootstrap(PROBS, heuristic="bfm")
        with pytest.raises(ReproError):
            ZerberDeployment.bootstrap(PROBS, heuristic="nope", num_lists=4)


class TestPrincipals:
    @pytest.fixture()
    def deployment(self):
        return ZerberDeployment(
            mapping_table=MappingTable({}, num_lists=4),
            seed=2,
        )

    def test_enroll_idempotent(self, deployment):
        token_a = deployment.enroll_user("alice")
        token_b = deployment.enroll_user("alice")
        assert token_a is token_b

    def test_group_lifecycle(self, deployment):
        deployment.create_group(1, coordinator="carol")
        deployment.add_member(1, "dave", actor="carol")
        assert deployment.groups.is_member("dave", 1)
        deployment.remove_member(1, "dave", actor="carol")
        assert not deployment.groups.is_member("dave", 1)

    def test_owner_cached_searcher_fresh(self, deployment):
        deployment.create_group(0, coordinator="alice")
        assert deployment.owner("alice") is deployment.owner("alice")
        assert deployment.searcher("alice") is not deployment.searcher("alice")


class TestNetworkWiring:
    def test_unknown_message_rejected(self):
        # A frame that is not a protocol message the index-server
        # service understands is rejected with a typed error.
        from repro.errors import ProtocolError
        from repro.protocol import FetchSnippetRequest

        deployment = ZerberDeployment(
            mapping_table=MappingTable({}, num_lists=4), seed=3
        )
        token = deployment.enroll_user("alice")
        with pytest.raises(ProtocolError):
            deployment.transport.call(
                "alice",
                deployment.servers[0].server_id,
                FetchSnippetRequest(token=token, doc_id=1, terms=("a",)),
            )

    def test_unknown_endpoint_names_the_endpoint(self):
        from repro.errors import UnknownEndpointError
        from repro.protocol import ServerStatusRequest

        deployment = ZerberDeployment(
            mapping_table=MappingTable({}, num_lists=4), seed=3
        )
        with pytest.raises(UnknownEndpointError) as excinfo:
            deployment.transport.call(
                "alice", "no-such-server", ServerStatusRequest()
            )
        assert excinfo.value.endpoint == "no-such-server"
        assert "no-such-server" in str(excinfo.value)

    def test_expired_token_rejected_through_network(self):
        deployment = ZerberDeployment(
            mapping_table=MappingTable({}, num_lists=4), seed=4
        )
        deployment.create_group(0, coordinator="alice")
        doc = Document(
            doc_id=1, host="h", group_id=0, term_counts={"a": 1}, length=1
        )
        owner = deployment.owner("alice")
        deployment.auth.advance_clock(10_000)
        owner.share_document(doc)
        with pytest.raises(AuthError):
            owner.flush_updates()


@pytest.mark.parametrize(
    "deployment_class, error",
    [(ZerberDeployment, ReproError), (ClusterDeployment, ClusterError)],
)
def test_use_network_true_is_a_typed_error(deployment_class, error):
    """The simulated network is gone: ``use_network`` accepts only
    False, and True names the counters that replaced its ledger."""
    with pytest.raises(error) as excinfo:
        deployment_class(MappingTable({}, num_lists=4), use_network=True)
    message = str(excinfo.value)
    for counter in ("response_bytes", "lookup_messages", "zerber_server_"):
        assert counter in message
    with deployment_class(
        MappingTable({}, num_lists=4), use_network=False
    ) as deployment:
        assert not hasattr(deployment, "network")


class TestFleetAccounting:
    def test_storage_and_elements(self):
        deployment = ZerberDeployment(
            mapping_table=MappingTable({}, num_lists=4),
            seed=5,
        )
        deployment.create_group(0, coordinator="alice")
        doc = Document(
            doc_id=1,
            host="h",
            group_id=0,
            term_counts={"a": 1, "b": 2},
            length=3,
        )
        deployment.share_document("alice", doc)
        assert deployment.flush_all() == 2
        assert deployment.total_elements() == 6  # 2 elements x 3 servers
        per_record = 4 + 4 + 4 + deployment.servers[0].share_bytes
        assert deployment.storage_bytes() == 6 * per_record

    def test_custom_k_n(self):
        deployment = ZerberDeployment(
            mapping_table=MappingTable({}, num_lists=4),
            k=3,
            n=5,
            seed=6,
        )
        assert len(deployment.servers) == 5
        assert deployment.scheme.k == 3
        deployment.create_group(0, coordinator="alice")
        doc = Document(
            doc_id=1, host="h", group_id=0, term_counts={"x": 1}, length=1
        )
        deployment.share_document("alice", doc)
        deployment.flush_all()
        results = deployment.searcher("alice").fetch_elements(["x"])
        assert [e.doc_id for e in results] == [1]
