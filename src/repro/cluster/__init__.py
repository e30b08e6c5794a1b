"""Sharded cluster query engine: pods, placement, failover, caching.

This package composes the seed's pieces — the §5 k-of-n server fleet,
the §8 DHT placement sketch, Shamir reconstruction from any k shares,
and the pluggable transports — into a cluster that shards merged posting
lists across server *pods*, batches multi-term lookups into one message
per server, and survives up to n - k server failures per pod. Repeat
reads are served by the searcher's own L1 of reconstructed postings
(:mod:`repro.cachetier`), which every write invalidates first.
"""

from repro.cluster.clients import ClusterDiagnostics, ClusterSearchClient
from repro.cluster.coordinator import (
    ClusterCoordinator,
    Pod,
    RebalanceStats,
    ServerSlot,
    attach_wal_to_slot,
)
from repro.cluster.deployment import ClusterDeployment

__all__ = [
    "ClusterCoordinator",
    "ClusterDeployment",
    "ClusterDiagnostics",
    "ClusterSearchClient",
    "Pod",
    "RebalanceStats",
    "ServerSlot",
    "attach_wal_to_slot",
]
