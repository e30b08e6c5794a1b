"""The consistent-hash ring that places merged lists on pods.

:class:`~repro.cluster.coordinator.ClusterCoordinator` asks
``owners(f"pl:{pl_id}", replicas=replication_factor)`` for each list's
replica pods. The ring's two guarantees, pinned in
``tests/test_dht_rebalancing.py``, are the ones pod joins and
retirements lean on: a membership change moves only the keys whose
owner changed, and an owner set never repeats a peer.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Sequence

from repro.errors import ReproError


def _hash64(value: str) -> int:
    return int.from_bytes(
        hashlib.sha256(value.encode("utf-8")).digest()[:8], "big"
    )


class ConsistentHashRing:
    """Classic consistent hashing with virtual nodes."""

    def __init__(self, peers: Sequence[str], virtual_nodes: int = 64) -> None:
        """Args:
        peers: initial peer names (must be non-empty, unique).
        virtual_nodes: ring points per peer; more = smoother balance.
        """
        if not peers:
            raise ReproError("ring needs at least one peer")
        if len(set(peers)) != len(peers):
            raise ReproError("duplicate peer names")
        if virtual_nodes < 1:
            raise ReproError("need at least one virtual node per peer")
        self._virtual_nodes = virtual_nodes
        self._ring: list[tuple[int, str]] = []
        self._peers: set[str] = set()
        for peer in peers:
            self._insert_peer(peer)

    def _insert_peer(self, peer: str) -> None:
        self._peers.add(peer)
        for v in range(self._virtual_nodes):
            point = _hash64(f"{peer}#{v}")
            bisect.insort(self._ring, (point, peer))

    # -- membership ------------------------------------------------------------

    @property
    def peers(self) -> list[str]:
        return sorted(self._peers)

    def add_peer(self, peer: str) -> None:
        if peer in self._peers:
            raise ReproError(f"peer {peer!r} already on the ring")
        self._insert_peer(peer)

    def remove_peer(self, peer: str) -> None:
        if peer not in self._peers:
            raise ReproError(f"peer {peer!r} not on the ring")
        self._peers.discard(peer)
        self._ring = [(pt, p) for pt, p in self._ring if p != peer]
        if not self._ring:
            raise ReproError("cannot remove the last peer")

    # -- placement -----------------------------------------------------------------

    def owners(self, key: str, replicas: int = 1) -> list[str]:
        """The ``replicas`` distinct peers responsible for ``key``."""
        if replicas < 1:
            raise ReproError("need at least one replica")
        if replicas > len(self._peers):
            raise ReproError(
                f"asked for {replicas} replicas with {len(self._peers)} peers"
            )
        point = _hash64(key)
        start = bisect.bisect_right(self._ring, (point, "￿"))
        owners: list[str] = []
        i = start
        while len(owners) < replicas:
            _, peer = self._ring[i % len(self._ring)]
            if peer not in owners:
                owners.append(peer)
            i += 1
        return owners
