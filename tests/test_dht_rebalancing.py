"""Rebalancing edge cases of :mod:`repro.cluster.ring` and the cluster.

The cluster's shard placement rides on the consistent-hash ring, so the
ring's two core guarantees get pinned here: membership changes move only
the minimal key range (keys whose owner actually changed), and
``owners(key, replicas)`` never returns duplicates however small the
peer set or large the virtual-node count. On top of those, the cluster
layer's pod join/retire must actually *move the data* the placement
diff says moved — slot-aligned share transfers — without ever changing
an answer.
"""

from __future__ import annotations

import random

import pytest

from repro.client.batching import BatchPolicy
from repro.cluster import ClusterDeployment
from repro.core.mapping_table import MappingTable
from repro.corpus.document import Document
from repro.errors import ClusterError, ReproError
from repro.cluster.ring import ConsistentHashRing

KEYS = [f"pl:{i}" for i in range(400)]


class TestAddPeerMovesMinimalRange:
    def test_single_owner_keys_move_only_to_the_new_peer(self):
        ring = ConsistentHashRing([f"p{i}" for i in range(4)])
        before = {key: ring.owners(key, 1)[0] for key in KEYS}
        ring.add_peer("p-new")
        moved = 0
        for key in KEYS:
            after = ring.owners(key, 1)[0]
            if after != before[key]:
                # The only legal change is adoption by the new peer.
                assert after == "p-new"
                moved += 1
        # The new peer took roughly 1/5th of the keys, never all of them.
        assert 0 < moved < len(KEYS)

    def test_replicated_owner_sets_only_gain_the_new_peer(self):
        ring = ConsistentHashRing([f"p{i}" for i in range(5)])
        before = {key: set(ring.owners(key, 3)) for key in KEYS}
        ring.add_peer("p-new")
        for key in KEYS:
            after = set(ring.owners(key, 3))
            # Adding a peer can only introduce p-new (displacing at most
            # one old owner); it must never shuffle ownership among the
            # pre-existing peers.
            assert after - before[key] <= {"p-new"}
            assert len(before[key] - after) <= 1

    def test_duplicate_add_rejected(self):
        ring = ConsistentHashRing(["a", "b"])
        with pytest.raises(ReproError):
            ring.add_peer("a")


class TestRemovePeerMovesMinimalRange:
    def test_unaffected_keys_keep_their_owner(self):
        peers = [f"p{i}" for i in range(5)]
        ring = ConsistentHashRing(peers)
        before = {key: ring.owners(key, 1)[0] for key in KEYS}
        ring.remove_peer("p2")
        for key in KEYS:
            after = ring.owners(key, 1)[0]
            if before[key] != "p2":
                assert after == before[key]
            else:
                assert after != "p2"

    def test_surviving_replicas_are_preserved(self):
        ring = ConsistentHashRing([f"p{i}" for i in range(5)])
        before = {key: ring.owners(key, 2) for key in KEYS}
        ring.remove_peer("p1")
        for key in KEYS:
            after = ring.owners(key, 2)
            survivors = [p for p in before[key] if p != "p1"]
            # Old surviving owners stay owners, in the same ring order.
            assert [p for p in after if p in survivors] == survivors

    def test_remove_then_readd_is_identity(self):
        ring = ConsistentHashRing([f"p{i}" for i in range(4)])
        before = {key: ring.owners(key, 2) for key in KEYS}
        ring.remove_peer("p3")
        ring.add_peer("p3")
        assert {key: ring.owners(key, 2) for key in KEYS} == before

    def test_remove_unknown_and_last_peer_rejected(self):
        ring = ConsistentHashRing(["only"])
        with pytest.raises(ReproError):
            ring.remove_peer("ghost")
        with pytest.raises(ReproError):
            ring.remove_peer("only")


class TestOwnersNeverDuplicates:
    @pytest.mark.parametrize("num_peers", [1, 2, 3, 7])
    @pytest.mark.parametrize("virtual_nodes", [1, 8, 64])
    def test_owner_lists_are_duplicate_free(self, num_peers, virtual_nodes):
        ring = ConsistentHashRing(
            [f"p{i}" for i in range(num_peers)], virtual_nodes=virtual_nodes
        )
        for replicas in range(1, num_peers + 1):
            for key in KEYS[:100]:
                owners = ring.owners(key, replicas)
                assert len(owners) == replicas
                assert len(set(owners)) == replicas

    def test_full_replication_covers_every_peer(self):
        peers = [f"p{i}" for i in range(6)]
        ring = ConsistentHashRing(peers)
        for key in KEYS[:50]:
            assert sorted(ring.owners(key, len(peers))) == peers

    def test_owner_bounds_rejected(self):
        ring = ConsistentHashRing(["a", "b"])
        with pytest.raises(ReproError):
            ring.owners("key", 0)
        with pytest.raises(ReproError):
            ring.owners("key", 3)

    def test_membership_churn_keeps_owner_lists_clean(self):
        """Interleaved adds/removes never corrupt the ring."""
        ring = ConsistentHashRing(["a", "b", "c"])
        ring.add_peer("d")
        ring.remove_peer("a")
        ring.add_peer("e")
        ring.remove_peer("c")
        assert ring.peers == ["b", "d", "e"]
        for key in KEYS[:100]:
            owners = ring.owners(key, 3)
            assert sorted(owners) == sorted(set(owners))
            assert set(owners) <= {"b", "d", "e"}


class TestClusterPodJoinReplicaMovement:
    """The cluster's add_pod/retire_pod honour the ring's minimal-move
    guarantee with real data: only changed replica sets transfer, the
    new replica holds the same slot-aligned shares, answers never move.
    """

    NUM_LISTS = 24

    def _cluster(self):
        rng = random.Random(11)
        vocab = [f"w{i}" for i in range(40)]
        cluster = ClusterDeployment(
            MappingTable({}, num_lists=self.NUM_LISTS),
            num_pods=2,
            k=2,
            n=3,
            batch_policy=BatchPolicy(min_documents=1),
            replication_factor=2,
            seed=29,
        )
        cluster.create_group(0, coordinator="owner0")
        for doc_id in range(18):
            terms = rng.sample(vocab, rng.randint(2, 6))
            counts = {t: rng.randint(1, 3) for t in terms}
            cluster.share_document(
                "owner0",
                Document(
                    doc_id=doc_id,
                    host="host0",
                    group_id=0,
                    term_counts=counts,
                    length=sum(counts.values()),
                    text=" ".join(sorted(counts)),
                ),
            )
        cluster.flush_all()
        terms = sorted(vocab)[:6]
        baseline = cluster.searcher("owner0", use_cache=False).search(
            terms, top_k=10, fetch_snippets=False
        )
        return cluster, terms, baseline

    def test_pod_join_moves_only_changed_replica_sets(self):
        cluster, terms, baseline = self._cluster()
        coordinator = cluster.coordinator
        before = {
            pl_id: {p.name for p in coordinator.pods_of(pl_id)}
            for pl_id in range(self.NUM_LISTS)
        }
        stats = cluster.add_pod()
        assert stats.action == "join"
        assert 0 < stats.moved_lists < self.NUM_LISTS
        assert stats.copied_elements > 0
        assert stats.dropped_copy_routes == 0
        moved = 0
        for pl_id in range(self.NUM_LISTS):
            after = {p.name for p in coordinator.pods_of(pl_id)}
            assert len(after) == 2  # replication factor preserved
            # A join may only introduce the new pod, never reshuffle
            # ownership among the old ones.
            assert after - before[pl_id] <= {stats.pod_name}
            if after != before[pl_id]:
                moved += 1
        assert moved == stats.moved_lists
        # The new replica answers interchangeably: kill either old pod.
        assert cluster.searcher("owner0", use_cache=False).search(
            terms, top_k=10, fetch_snippets=False
        ) == baseline
        for victim in (0, 1):
            cluster.kill_pod(victim)
            assert cluster.searcher("owner0", use_cache=False).search(
                terms, top_k=10, fetch_snippets=False
            ) == baseline
            cluster.restart_pod(victim)

    def test_pod_join_garbage_collects_displaced_replicas(self):
        cluster, _terms, _baseline = self._cluster()
        stats = cluster.add_pod()
        # Whatever the new pod gained, someone else dropped: storage
        # does not balloon beyond R x the logical index.
        assert stats.gc_elements == stats.copied_elements
        hosted = {
            pod.name: set() for pod in cluster.pods
        }
        for pl_id in range(self.NUM_LISTS):
            for pod in cluster.coordinator.pods_of(pl_id):
                hosted[pod.name].add(pl_id)
        for pod in cluster.pods:
            for slot in pod.slots:
                stored = {
                    pl_id
                    for pl_id in range(self.NUM_LISTS)
                    if slot.server.export_posting_list(pl_id)
                }
                assert stored <= hosted[pod.name]

    def test_pod_retire_rehomes_and_preserves_answers(self):
        cluster, terms, baseline = self._cluster()
        cluster.add_pod()
        stats = cluster.retire_pod(0)
        assert stats.action == "leave"
        assert stats.moved_lists > 0
        assert [p.name for p in cluster.pods] == ["pod1", "pod2"]
        assert [p.index for p in cluster.pods] == [0, 1]
        assert cluster.searcher("owner0", use_cache=False).search(
            terms, top_k=10, fetch_snippets=False
        ) == baseline

    def test_pod_retire_deletes_orphaned_wals(self, tmp_path):
        """Regression: decommissioning a pod must not leave its seats'
        WAL files behind — the lists now live (and are logged) on their
        new owners, so a retired log is an orphan that would accumulate
        forever and could feed a stale replay to a future same-named
        seat."""
        rng = random.Random(13)
        vocab = [f"w{i}" for i in range(40)]
        cluster = ClusterDeployment(
            MappingTable({}, num_lists=self.NUM_LISTS),
            num_pods=2,
            k=2,
            n=3,
            batch_policy=BatchPolicy(min_documents=1),
            replication_factor=2,
            wal_dir=tmp_path,
            seed=31,
        )
        cluster.create_group(0, coordinator="owner0")
        for doc_id in range(12):
            terms = rng.sample(vocab, rng.randint(2, 6))
            counts = {t: rng.randint(1, 3) for t in terms}
            cluster.share_document(
                "owner0",
                Document(
                    doc_id=doc_id,
                    host="host0",
                    group_id=0,
                    term_counts=counts,
                    length=sum(counts.values()),
                    text=" ".join(sorted(counts)),
                ),
            )
        cluster.flush_all()
        query = sorted(vocab)[:6]
        baseline = cluster.searcher("owner0", use_cache=False).search(
            query, top_k=10, fetch_snippets=False
        )
        cluster.add_pod()
        retiring = cluster.pods[0]
        retired_wals = [slot.wal_path for slot in retiring.slots]
        assert all(path is not None and path.exists() for path in retired_wals)
        cluster.retire_pod(0)
        # The retired seats' logs are gone; every surviving seat's log
        # remains and keeps the cluster restartable.
        assert not any(path.exists() for path in retired_wals)
        surviving = [
            slot.wal_path for pod in cluster.pods for slot in pod.slots
        ]
        assert all(path is not None and path.exists() for path in surviving)
        assert cluster.searcher("owner0", use_cache=False).search(
            query, top_k=10, fetch_snippets=False
        ) == baseline
        # WAL recovery still works on the survivors (crash drill).
        cluster.kill_server(0, 0)
        cluster.restart_server(0, 0)
        assert cluster.searcher("owner0", use_cache=False).search(
            query, top_k=10, fetch_snippets=False
        ) == baseline

    @pytest.mark.parametrize("durable", [False, True])
    def test_add_pod_refuses_a_live_name_before_touching_its_seats(
        self, tmp_path, durable
    ):
        """Regression: ``add_pod(name=<a live pod's name>)`` used to open
        a second store on each live seat's directory (whose crash cleanup
        deletes an in-progress ``.tmp`` snapshot) and only then fail
        with a transport error. The name is refused first, as a
        ClusterError, and the cluster stays usable."""
        cluster = ClusterDeployment(
            MappingTable({}, num_lists=self.NUM_LISTS),
            num_pods=2,
            wal_dir=tmp_path if durable else None,
            seed=37,
        )
        with cluster:
            sentinel = tmp_path / "pod0-server-0" / "snap-00000001.zsnap.tmp"
            if durable:
                sentinel.write_bytes(b"in progress")
            names = [pod.name for pod in cluster.pods]
            with pytest.raises(ClusterError, match="duplicate pod name"):
                cluster.add_pod(name="pod0")
            assert [pod.name for pod in cluster.pods] == names
            if durable:
                assert sentinel.read_bytes() == b"in progress"
            cluster.add_pod()
            assert [pod.name for pod in cluster.pods] == names + ["pod2"]

