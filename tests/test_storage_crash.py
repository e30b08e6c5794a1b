"""Crash-injection suite for the segmented storage engine.

The contract under test: **recovery always lands on a consistent prefix
of the accepted history**, no matter where the crash fell —

- a torn tail inside the live segment (power loss mid-record);
- a crash at any point inside a compaction: after the rotation, with
  the snapshot half-written, with the snapshot written but the manifest
  not yet swapped, after the swap but before the old files' GC;
- stray ``.tmp`` files and orphan snapshots left by any of the above.

Hypothesis drives the op streams and the byte offsets of the damage;
the oracle is a pure-python replay of the same op prefix. Damage the
crash model can *not* produce — a corrupt interior segment, a manifest
that fails its CRC — must fail loudly instead of shortening the index.
"""

from __future__ import annotations

import uuid

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from helpers import as_columns, state_rows
from repro.storage import SegmentedStore, load_manifest
from repro.storage.manifest import manifest_path
from repro.storage.segment import scan_segment_numbers, segment_name


@st.composite
def op_streams(draw):
    """A short random interleaving of inserts ``(pl_id, element_id,
    group_id, share_y)`` and deletes ``(pl_id, element_id)``."""
    import random

    ops: list[tuple[int, ...]] = []
    live: set[tuple[int, int]] = set()
    count = draw(st.integers(min_value=1, max_value=50))
    rng = random.Random(draw(st.integers(0, 2**20)))
    for _ in range(count):
        pl = rng.randrange(3)
        eid = rng.randrange(10)
        if (pl, eid) in live and rng.random() < 0.4:
            ops.append((pl, eid))
            live.discard((pl, eid))
        else:
            ops.append((pl, eid, rng.randrange(3), rng.getrandbits(40)))
            live.add((pl, eid))
    return ops


def apply_operation(state, op):
    """The model: fold one operation into a store state, each list
    held as ``{element_id: (group_id, share_y)}``."""
    pl, eid, *record = op
    if record:
        state.setdefault(pl, {})[eid] = tuple(record)
    elif pl in state:
        state[pl].pop(eid, None)


def state_of(ops):
    state: dict[int, dict[int, tuple[int, int]]] = {}
    for op in ops:
        apply_operation(state, op)
    return {pl: recs for pl, recs in state.items() if recs}


def prefix_states(ops):
    """Every consistent state a prefix of the history can produce."""
    states = []
    state: dict[int, dict[int, tuple[int, int]]] = {}
    states.append({})
    for op in ops:
        apply_operation(state, op)
        states.append(
            {pl: dict(recs) for pl, recs in state.items() if recs}
        )
    return states


def write_stream(directory, ops, **options):
    """One op per append batch, so records align one-to-one with ops."""
    store = SegmentedStore(directory, auto_compact=False, **options)
    for op in ops:
        columns = [[value] for value in op]
        if len(op) == 4:
            store.append_inserts(*columns)
        else:
            store.append_deletes(*columns)
    return store


def clean_replay(store):
    return state_rows(store.replay())


# -- torn tail ---------------------------------------------------------------


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(ops=op_streams(), data=st.data())
def test_torn_segment_tail_recovers_a_consistent_prefix(ops, data, tmp_path):
    """Truncate the newest segment at an arbitrary byte offset; recovery
    must land on *some* prefix of the accepted history — never an
    interleaving, never an error."""
    directory = tmp_path / uuid.uuid4().hex
    store = write_stream(directory, ops, segment_bytes=192)
    store.close()
    numbers = scan_segment_numbers(directory)
    tail = directory / segment_name(numbers[-1])
    size = tail.stat().st_size
    cut = data.draw(st.integers(min_value=0, max_value=size), label="cut")
    with open(tail, "r+b") as handle:
        handle.truncate(size - cut)
    recovered = SegmentedStore(directory, auto_compact=False)
    replayed = clean_replay(recovered)
    recovered.close()
    assert replayed in prefix_states(ops)
    # Records living in sealed (non-tail) segments must all survive.
    if cut == 0:
        assert replayed == state_of(ops)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(ops=op_streams(), data=st.data())
def test_torn_tail_then_continued_writes_stay_consistent(
    ops, data, tmp_path
):
    """After a torn-tail repair, the store keeps accepting appends and
    the new records replay on top of the surviving prefix."""
    directory = tmp_path / uuid.uuid4().hex
    store = write_stream(directory, ops, segment_bytes=192)
    store.close()
    numbers = scan_segment_numbers(directory)
    tail = directory / segment_name(numbers[-1])
    size = tail.stat().st_size
    cut = data.draw(st.integers(min_value=0, max_value=size), label="cut")
    with open(tail, "r+b") as handle:
        handle.truncate(size - cut)
    recovered = SegmentedStore(directory, auto_compact=False)
    surviving = clean_replay(recovered)
    extra = (9, 1, 1, 123)
    recovered.append_inserts(*([value] for value in extra))
    replayed = clean_replay(recovered)
    recovered.close()
    expected = {pl: dict(recs) for pl, recs in surviving.items()}
    apply_operation(expected, extra)
    assert replayed == expected


def test_a_torn_batch_is_all_or_nothing(tmp_path):
    """One append is one record: a crash that tears the batch's write
    at any byte leaves every row of it or none. Serving part of a batch
    that was never acknowledged would break ``insert_batch``'s atomicity
    (and a retry of the batch would hit "already exists")."""
    directory = tmp_path / "seat"
    store = SegmentedStore(directory, auto_compact=False)
    first = [(9, 1, 1, 5)]
    store.append_inserts(*as_columns(first))
    segment = directory / segment_name(1)
    start = segment.stat().st_size
    batch = [(i % 4, 100 + i, i % 3, i << 40) for i in range(24)]
    store.append_inserts(*as_columns(batch))
    store.close()
    image = segment.read_bytes()
    outcomes = (state_of(first), state_of(first + batch))
    for cut in range(start, len(image) + 1):
        segment.write_bytes(image[:cut])
        recovered = SegmentedStore(directory, auto_compact=False)
        replayed = clean_replay(recovered)
        recovered.close()
        assert replayed == outcomes[cut == len(image)], cut


# -- crashes inside a compaction --------------------------------------------


class InjectedCrash(BaseException):
    """Raised by the test's crash hook; BaseException so no engine-side
    ``except Exception`` can accidentally swallow the simulated crash."""


CRASH_POINTS = (
    "compact-start",     # rotated, nothing else happened ­— the
                         # "between rotation and manifest fsync" case
    "state-built",       # sealed history replayed, snapshot not written
    "snapshot-written",  # snapshot promoted, manifest still points back
    "manifest-swapped",  # manifest swapped, old files not yet GC'd
    "gc-done",           # crash after a fully complete compaction
)


@pytest.mark.parametrize("crash_at", CRASH_POINTS)
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(ops=op_streams())
def test_crash_at_every_compaction_point_loses_nothing(
    crash_at, ops, tmp_path
):
    """A compaction crash may waste work; it must never lose records.

    Every record sits in a sealed segment or the live segment until the
    manifest swap, and the swap is atomic — so whichever side of it the
    crash falls on, reopening replays the complete history.
    """
    directory = tmp_path / uuid.uuid4().hex
    store = write_stream(directory, ops, segment_bytes=192)

    def hook(label):
        if label == crash_at:
            raise InjectedCrash(label)

    store._crash_hook = hook
    with pytest.raises(InjectedCrash):
        store.compact()
    store._crash_hook = None
    store.close()
    recovered = SegmentedStore(directory, auto_compact=False)
    assert clean_replay(recovered) == state_of(ops)
    # Reopening also finished the cleanup: no temp files, no snapshot
    # the manifest does not name, no segment below the manifest's base.
    leftovers = sorted(p.name for p in directory.iterdir())
    manifest = load_manifest(directory)
    for name in leftovers:
        assert not name.endswith(".tmp"), leftovers
        if name.endswith(".zsnap"):
            assert name == manifest.snapshot, leftovers
    assert all(
        n >= manifest.first_segment
        for n in scan_segment_numbers(directory)
    )
    recovered.close()


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(ops=op_streams())
def test_crashed_compaction_can_compact_again_after_reopen(ops, tmp_path):
    """The classic double-fault: crash mid-compaction, restart, compact
    again — the second attempt must succeed and converge."""
    directory = tmp_path / uuid.uuid4().hex
    store = write_stream(directory, ops, segment_bytes=192)

    def hook(label):
        if label == "snapshot-written":
            raise InjectedCrash(label)

    store._crash_hook = hook
    with pytest.raises(InjectedCrash):
        store.compact()
    store.close()
    recovered = SegmentedStore(directory, auto_compact=False)
    recovered.compact()
    assert clean_replay(recovered) == state_of(ops)
    recovered.close()


# -- mid-snapshot damage and hard corruption --------------------------------


def test_half_written_snapshot_tmp_is_swept(tmp_path):
    directory = tmp_path / "seat"
    store = write_stream(
        directory,
        [(0, i, 1, i) for i in range(5)],
    )
    store.close()
    (directory / "snap-00000099.zsnap.tmp").write_bytes(b"ZSNP\x01partial")
    recovered = SegmentedStore(directory, auto_compact=False)
    assert not list(directory.glob("*.tmp"))
    assert set(recovered.replay()[0].element_ids) == set(range(5))
    recovered.close()


def test_orphan_snapshot_not_in_manifest_is_swept(tmp_path):
    directory = tmp_path / "seat"
    store = write_stream(
        directory,
        [(0, 1, 1, 1)],
    )
    store.close()
    orphan = directory / "snap-00000099.zsnap"
    orphan.write_bytes(b"ZSNP\x01garbage-from-a-crashed-promotion")
    recovered = SegmentedStore(directory, auto_compact=False)
    assert not orphan.exists()
    assert set(recovered.replay()[0].element_ids) == {1}
    recovered.close()


def test_corrupt_interior_segment_raises_loudly(tmp_path):
    """Damage anywhere but the newest segment cannot be a crash artifact
    — recovery must refuse rather than serve a shortened index."""
    directory = tmp_path / "seat"
    store = write_stream(
        directory,
        [(0, i, 1, i) for i in range(60)],
        segment_bytes=160,
    )
    store.close()
    numbers = scan_segment_numbers(directory)
    assert len(numbers) >= 3
    victim = directory / segment_name(numbers[1])
    blob = bytearray(victim.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    victim.write_bytes(blob)
    recovered = SegmentedStore(directory, auto_compact=False)
    with pytest.raises(StorageError):
        recovered.replay()
    recovered.close()


def test_manifest_crc_mismatch_refuses_to_open(tmp_path):
    directory = tmp_path / "seat"
    store = write_stream(
        directory, [(0, 1, 1, 1)]
    )
    store.close()
    path = manifest_path(directory)
    text = path.read_text()
    fields = text.split()
    fields[2] = str(int(fields[2]) + 1)  # tamper without re-CRCing
    path.write_text(" ".join(fields) + "\n")
    with pytest.raises(StorageError):
        SegmentedStore(directory, auto_compact=False)


def test_missing_manifest_named_snapshot_refuses_to_open(tmp_path):
    directory = tmp_path / "seat"
    store = write_stream(
        directory,
        [(0, i, 1, i) for i in range(4)],
    )
    store.compact()
    store.close()
    manifest = load_manifest(directory)
    (directory / manifest.snapshot).unlink()
    with pytest.raises(StorageError):
        SegmentedStore(directory, auto_compact=False)
