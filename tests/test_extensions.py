"""Tests for the consistent-hash ring that places lists on pods."""

from __future__ import annotations

import pytest

from repro.cluster.ring import ConsistentHashRing
from repro.errors import ReproError


class TestConsistentHashRing:
    def test_owners_stable_and_distinct(self):
        ring = ConsistentHashRing(["p0", "p1", "p2", "p3"])
        owners = ring.owners("pl:7", replicas=2)
        assert len(set(owners)) == 2
        assert ring.owners("pl:7", replicas=2) == owners

    def test_add_remove_peer(self):
        ring = ConsistentHashRing(["p0", "p1"])
        ring.add_peer("p2")
        assert "p2" in ring.peers
        ring.remove_peer("p2")
        assert "p2" not in ring.peers
        with pytest.raises(ReproError):
            ring.remove_peer("p2")
        with pytest.raises(ReproError):
            ring.add_peer("p0")

    def test_validation(self):
        with pytest.raises(ReproError):
            ConsistentHashRing([])
        with pytest.raises(ReproError):
            ConsistentHashRing(["a", "a"])
        ring = ConsistentHashRing(["a"])
        with pytest.raises(ReproError):
            ring.owners("k", replicas=2)
        with pytest.raises(ReproError):
            ring.owners("k", replicas=0)
