"""Sharded cluster query engine: pods, placement, failover, caching.

This package composes the seed's pieces — the §5 k-of-n server fleet,
a consistent-hash ring, Shamir reconstruction from any k shares, and
the pluggable transports — into a cluster that shards merged posting
lists across server *pods*, batches multi-term lookups into one message
per server, and survives up to n - k server failures per pod. Repeat
reads are served by the searcher's own L1 of reconstructed postings
(:mod:`repro.cachetier`), which every write invalidates first.

One module per decision:

- :mod:`~repro.cluster.coordinator` — where lists live and who is
  asked: placement, write routing, read ranking, cache epochs, metrics;
- :mod:`~repro.cluster.ring` — the consistent-hash ring the placement
  reads;
- :mod:`~repro.cluster.membership` — seats and pods, kill/restart,
  join/retire, and the one list-transfer path (``ship``);
- :mod:`~repro.cluster.repair` — the staleness ledger and the
  anti-entropy sweep that empties it;
- :mod:`~repro.cluster.deployment` — the facade that wires them up.

The paper's single fleet (:class:`~repro.core.zerber_index.ZerberDeployment`)
is this shape at one pod, and one search client
(:class:`~repro.client.searcher.SearchClient`) reads both.
"""

from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.deployment import ClusterDeployment
from repro.cluster.membership import (
    Pod,
    RebalanceStats,
    ServerSlot,
    attach_wal_to_slot,
)
from repro.cluster.repair import RepairSweepStats, StalenessLedger

__all__ = [
    "ClusterCoordinator",
    "ClusterDeployment",
    "Pod",
    "RebalanceStats",
    "RepairSweepStats",
    "ServerSlot",
    "StalenessLedger",
    "attach_wal_to_slot",
]
