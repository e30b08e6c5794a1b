"""The paper's single fleet — the library's top-level public API (§5).

§5 puts every merged posting list on every one of the n index servers,
so the single fleet is the cluster shape at one pod of n seats,
replication 1: one fetch path, one write router and one §5.1 "extend
n" for both (see :class:`~repro.cluster.ClusterDeployment`).

Typical use (see ``examples/quickstart.py``)::

    stats = odp_like_statistics(scale=0.01)
    deployment = ZerberDeployment.bootstrap(
        stats.term_probabilities(), k=2, n=3, num_lists=256)
    deployment.create_group(1, coordinator="alice")
    owner = deployment.owner("alice")
    owner.share_document(doc)
    owner.flush_updates()
    results = deployment.searcher("alice").search(["budget"], top_k=10)
"""

from __future__ import annotations

from repro.client.searcher import SearchResult
from repro.cluster.deployment import ClusterDeployment
from repro.core.mapping_table import MappingTable
from repro.server.index_server import IndexServer

#: Re-export under the name the core package advertises.
ZerberSearchResult = SearchResult


class ZerberDeployment(ClusterDeployment):
    """The paper's single fleet: one pod of n seats, replication 1.

    Takes :class:`~repro.cluster.ClusterDeployment`'s keywords except
    ``num_pods`` and ``replication_factor``, which it fixes.
    """

    def __init__(self, mapping_table: MappingTable, **kwargs) -> None:
        super().__init__(
            mapping_table, num_pods=1, replication_factor=1, **kwargs
        )

    @property
    def servers(self) -> tuple[IndexServer, ...]:
        """The pod's seat servers, in slot order (a read-only view)."""
        return tuple(self.pods[0].servers)

    def add_server(self) -> IndexServer:
        """§5.1's (n+1)-th index server (see
        :meth:`~repro.cluster.membership.Membership.add_server`)."""
        (server,) = super().add_server()
        return server
