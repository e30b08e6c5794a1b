"""Property tests on the operational substrates: seat-store replay,
batching, mix padding, and the DHT ring.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.client.batching import BatchPolicy, UpdateBatcher
from repro.extensions.dht import ConsistentHashRing
from repro.extensions.mixnet import MixMessage, MixRelay
from repro.server.index_server import SeatList
from repro.storage import SegmentedStore
from repro.storage.segment import HEADER_LEN


@st.composite
def wal_operations(draw):
    """A random interleaving of inserts and deletes over a small keyspace."""
    ops = []
    live: set[tuple[int, int]] = set()
    count = draw(st.integers(min_value=1, max_value=60))
    rng = random.Random(draw(st.integers(0, 2**20)))
    for _ in range(count):
        pl = rng.randrange(4)
        eid = rng.randrange(12)
        if (pl, eid) in live and rng.random() < 0.4:
            ops.append(("D", pl, eid, 0, 0))
            live.discard((pl, eid))
        elif (pl, eid) not in live:
            share = rng.getrandbits(40)
            group = rng.randrange(3)
            ops.append(("I", pl, eid, group, share))
            live.add((pl, eid))
    return ops


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    ops=wal_operations(),
    segment_bytes=st.integers(min_value=HEADER_LEN + 1, max_value=256),
    data=st.data(),
)
def test_property_wal_replay_equals_inmemory_state(
    ops, segment_bytes, data, tmp_path
):
    """Replaying the store always rebuilds exactly the in-memory state,
    rows in the order a live seat holds them — across segment rotations,
    an explicit compaction at any point of the history, and a reopen
    from disk."""
    import uuid

    directory = tmp_path / uuid.uuid4().hex
    store = SegmentedStore(
        directory, segment_bytes=segment_bytes, auto_compact=False
    )
    compact_at = data.draw(st.integers(0, len(ops)), label="compact_at")
    expected: dict[int, SeatList] = {}

    def live(state):
        return {pl: recs for pl, recs in state.items() if recs}

    for index, (kind, pl, eid, group, share) in enumerate(ops):
        if index == compact_at:
            store.compact()
            assert live(store.replay()) == live(expected)
        if kind == "I":
            store.append_inserts([pl], [eid], [group], [share])
            expected.setdefault(pl, SeatList()).extend([eid], [group], [share])
        else:
            store.append_deletes([pl], [eid])
            expected[pl].remove(eid)
    assert live(store.replay()) == live(expected)
    # Compacting the whole history preserves the same state, on disk too.
    store.compact()
    store.close()
    reopened = SegmentedStore(directory, auto_compact=False)
    assert live(reopened.replay()) == live(expected)
    reopened.close()


@settings(max_examples=40, deadline=None)
@given(
    doc_sizes=st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=20),
    min_docs=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_property_batcher_never_loses_or_duplicates(doc_sizes, min_docs, seed):
    """Every enqueued operation is released exactly once, whatever the
    trigger sequence."""
    released: list[str] = []
    batcher: UpdateBatcher[str] = UpdateBatcher(
        BatchPolicy(min_documents=min_docs, max_age_ticks=3),
        released.extend,
        rng=random.Random(seed),
    )
    expected = []
    for d, size in enumerate(doc_sizes):
        ops = [f"d{d}op{i}" for i in range(size)]
        expected.extend(ops)
        batcher.enqueue_document(ops)
        if d % 3 == 2:
            batcher.tick()
    batcher.flush()
    assert sorted(released) == sorted(expected)


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=0, max_value=5_000), min_size=1, max_size=30),
    pad=st.integers(min_value=1, max_value=2_048),
)
def test_property_mix_padding_uniform_and_monotone(sizes, pad):
    """Padded sizes are multiples of the pad, >= the payload, and
    monotone in the payload size."""
    mix = MixRelay(lambda *a: None, pad_to_multiple=pad)
    padded = [mix.padded_size(s) for s in sizes]
    for raw, out in zip(sizes, padded):
        assert out % pad == 0
        assert out >= max(raw, 1)
        assert out - raw < pad or raw == 0
    ordered = sorted(zip(sizes, padded))
    for (s1, p1), (s2, p2) in zip(ordered, ordered[1:]):
        assert p1 <= p2


@settings(max_examples=30, deadline=None)
@given(
    num_peers=st.integers(min_value=2, max_value=12),
    replicas=st.integers(min_value=1, max_value=3),
    keys=st.lists(st.text(min_size=1, max_size=8), min_size=1, max_size=25),
)
def test_property_ring_assignments_stable_and_valid(num_peers, replicas, keys):
    """Consistent-hash placements are deterministic, distinct, and only
    keys near the departed peer move on membership change."""
    replicas = min(replicas, num_peers - 1) or 1
    peers = [f"p{i}" for i in range(num_peers)]
    ring_a = ConsistentHashRing(peers, virtual_nodes=16)
    ring_b = ConsistentHashRing(peers, virtual_nodes=16)
    before = {}
    for key in keys:
        owners = ring_a.owners(key, replicas)
        assert len(set(owners)) == replicas
        assert owners == ring_b.owners(key, replicas)
        before[key] = owners
    # Remove one peer: every surviving assignment set must avoid it and
    # keys not touching it keep their owners.
    victim = peers[0]
    ring_a.remove_peer(victim)
    for key in keys:
        after = ring_a.owners(key, min(replicas, num_peers - 1))
        assert victim not in after
        if victim not in before[key]:
            assert after[: len(before[key])] == before[key][: len(after)]
