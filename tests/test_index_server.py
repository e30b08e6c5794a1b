"""Tests for the Zerber index server (§5.3-§5.4, Fig. 3)."""

from __future__ import annotations

import copy
import random
import sys
import tempfile
import threading
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import as_columns, segment_record
import repro.server.index_server as index_server
from repro.errors import (
    AccessDeniedError,
    AuthError,
    IndexServerError,
    ReproError,
    StorageError,
)
from repro.protocol.codec import encode_message
from repro.protocol.messages import FetchListsResponse
from repro.secretsharing.field import DEFAULT_PRIME
from repro.server.auth import AuthService
from repro.server.groups import GroupDirectory
from repro.server.index_server import (
    _NO_LIST,
    QUERY_LOG_LENGTH,
    IndexServer,
    PostingListResponse,
    SeatList,
    ShareRecord,
)
from repro.storage import SegmentedStore
from repro.storage.engine import apply_block
from repro.storage.segment import KIND_INSERT, segment_name
from repro.storage.snapshot import snapshot_bytes


@pytest.fixture()
def env():
    auth = AuthService()
    groups = GroupDirectory()
    groups.create_group(1, coordinator="alice")
    groups.create_group(2, coordinator="bob")
    server = IndexServer("s0", x_coordinate=17, auth=auth, groups=groups)
    tokens = {}
    for user in ("alice", "bob"):
        cred = auth.register_user(user)
        tokens[user] = auth.issue_token(user, cred)
    return auth, groups, server, tokens


def op(pl, eid, group, share=999):
    """One insert row: ``(pl_id, element_id, group_id, share_y)``."""
    return (pl, eid, group, share)


class TestInsert:
    def test_insert_and_count(self, env):
        _, _, server, tokens = env
        inserted = server.insert_batch(
            tokens["alice"], [0, 0, 3], [1, 2, 1], [1, 1, 1], [9, 9, 9]
        )
        assert inserted == 3
        assert server.num_elements == 3
        assert server.num_posting_lists == 2

    def test_requires_group_membership(self, env):
        _, _, server, tokens = env
        with pytest.raises(AccessDeniedError):
            server.insert_batch(tokens["alice"], *as_columns([op(0, 1, 2)]))

    def test_membership_checked_before_any_write(self, env):
        # A batch with one bad op must not partially apply.
        _, _, server, tokens = env
        with pytest.raises(AccessDeniedError):
            server.insert_batch(
                tokens["alice"], *as_columns([op(0, 1, 1), op(0, 2, 2)])
            )
        assert server.num_elements == 0

    def test_duplicate_element_in_list_rejected(self, env):
        _, _, server, tokens = env
        server.insert_batch(tokens["alice"], *as_columns([op(0, 7, 1)]))
        with pytest.raises(IndexServerError):
            server.insert_batch(tokens["alice"], *as_columns([op(0, 7, 1)]))

    def test_same_element_id_ok_in_different_lists(self, env):
        # Uniqueness is per posting list (§5.4.1: "globally unique within
        # its posting list").
        _, _, server, tokens = env
        server.insert_batch(
            tokens["alice"], *as_columns([op(0, 7, 1), op(1, 7, 1)])
        )
        assert server.num_elements == 2

    def test_bad_token_rejected(self, env):
        auth, _, server, tokens = env
        auth.advance_clock(10_000)
        with pytest.raises(AuthError):
            server.insert_batch(tokens["alice"], *as_columns([op(0, 1, 1)]))


class TestLookup:
    def test_acl_filtering(self, env):
        _, _, server, tokens = env
        server.insert_batch(tokens["alice"], *as_columns([op(0, 1, 1)]))
        server.insert_batch(tokens["bob"], *as_columns([op(0, 2, 2)]))
        # Alice sees only group-1 elements; bob only group-2.
        alice_view = server.get_posting_lists(tokens["alice"], [0])
        assert [r.element_id for r in alice_view[0].records] == [1]
        bob_view = server.get_posting_lists(tokens["bob"], [0])
        assert [r.element_id for r in bob_view[0].records] == [2]

    def test_membership_change_reflected_immediately(self, env):
        _, groups, server, tokens = env
        server.insert_batch(tokens["alice"], *as_columns([op(0, 1, 1)]))
        assert not server.get_posting_lists(tokens["bob"], [0])[0].records
        groups.add_member(1, "bob", actor="alice")
        assert server.get_posting_lists(tokens["bob"], [0])[0].records
        groups.remove_member(1, "bob", actor="alice")
        assert not server.get_posting_lists(tokens["bob"], [0])[0].records

    def test_unknown_list_returns_empty_not_error(self, env):
        # §6.4: emptiness must not be distinguishable from absence.
        _, _, server, tokens = env
        responses = server.get_posting_lists(tokens["alice"], [12345])
        assert responses[0].pl_id == 12345
        assert responses[0].records == ()

    def test_lookup_is_logged(self, env):
        _, _, server, tokens = env
        server.get_posting_lists(tokens["alice"], [3, 4])
        view = server.compromise()
        assert view.query_log == [("alice", (3, 4))]

    def test_query_log_keeps_the_most_recent_lookups_oldest_first(self, env):
        _, _, server, tokens = env
        for pl_id in range(QUERY_LOG_LENGTH + 5):
            server.get_posting_lists(tokens["alice"], [pl_id])
        assert server.compromise().query_log == [
            ("alice", (pl_id,)) for pl_id in range(5, QUERY_LOG_LENGTH + 5)
        ]


class TestDelete:
    def test_per_element_delete(self, env):
        _, _, server, tokens = env
        server.insert_batch(
            tokens["alice"], *as_columns([op(0, 1, 1), op(0, 2, 1)])
        )
        deleted = server.delete(tokens["alice"], [0, 0], [1, 99])
        assert deleted == 1
        assert server.num_elements == 1

    def test_delete_requires_membership_of_element_group(self, env):
        _, _, server, tokens = env
        server.insert_batch(tokens["alice"], *as_columns([op(0, 1, 1)]))
        with pytest.raises(AccessDeniedError):
            server.delete(tokens["bob"], [0], [1])

    def test_delete_from_unknown_list_is_noop(self, env):
        _, _, server, tokens = env
        assert server.delete(tokens["alice"], [42], [1]) == 0


class TestCompromise:
    def test_view_contents(self, env):
        _, _, server, tokens = env
        server.insert_batch(
            tokens["alice"], *as_columns([op(0, 1, 1), op(0, 2, 1)])
        )
        server.insert_batch(tokens["alice"], *as_columns([op(1, 3, 1)]))
        view = server.compromise()
        assert view.server_id == "s0"
        assert view.x_coordinate == 17
        assert view.merged_list_lengths() == {0: 2, 1: 1}
        assert len(view.update_log) == 2
        assert view.update_log[0] == [(0, 1), (0, 2)]
        assert "alice" in view.group_table[1]

    def test_view_is_a_snapshot(self, env):
        _, _, server, tokens = env
        server.insert_batch(tokens["alice"], *as_columns([op(0, 1, 1)]))
        view = server.compromise()
        view.posting_store[0].clear()
        assert server.num_elements == 1

    def test_update_log_holds_copies_not_the_batch_columns(self, env):
        """The log keeps each batch's id columns (no tuple per element),
        so it must own them: a caller reusing its column lists, or an
        adversary editing a view, cannot rewrite history."""
        _, _, server, tokens = env
        pl_ids, element_ids = [0, 1, 0], [1, 1, 2]
        batch = pl_ids, element_ids, [1, 1, 1], [7, 8, 9]
        assert server.insert_batch(tokens["alice"], *batch) == 3
        pl_ids[0] = element_ids[0] = 99
        pl_ids.clear()
        view = server.compromise()
        assert view.update_log == [[(0, 1), (1, 1), (0, 2)]]
        view.update_log[0].clear()
        view.update_log.clear()
        assert server.compromise().update_log == [[(0, 1), (1, 1), (0, 2)]]
        # An empty batch is not an update event.
        assert server.insert_batch(tokens["alice"], [], [], [], []) == 0
        assert len(server.compromise().update_log) == 1

    def test_update_log_keeps_the_recent_batches(self, env):
        """Like the query log, the update log is bounded: a watcher on
        the box sees the last QUERY_LOG_LENGTH batches, not the seat's
        whole history."""
        _, _, server, tokens = env
        for element_id in range(QUERY_LOG_LENGTH + 1):
            server.insert_batch(
                tokens["alice"], *as_columns([op(0, element_id, 1)])
            )
        log = server.compromise().update_log
        assert len(log) == QUERY_LOG_LENGTH
        assert log == [[(0, e)] for e in range(1, QUERY_LOG_LENGTH + 1)]


class TestMisc:
    def test_ragged_columns_are_refused_before_any_write(self, env):
        _, _, server, tokens = env
        with pytest.raises(IndexServerError, match="differ in length"):
            server.insert_batch(tokens["alice"], [0, 0], [1, 2], [1], [5, 6])
        server.insert_batch(tokens["alice"], *as_columns([op(0, 1, 1)]))
        with pytest.raises(IndexServerError, match="differ in length"):
            server.delete(tokens["alice"], [0], [1, 2])
        assert server.num_elements == 1

    def test_storage_bytes(self, env):
        _, _, server, tokens = env
        server.insert_batch(tokens["alice"], *as_columns([op(0, 1, 1)]))
        per_record = 4 + 4 + 4 + server.share_bytes
        assert server.storage_bytes() == per_record

    def test_invalid_x_coordinate(self, env):
        auth, groups, _, _ = env
        with pytest.raises(IndexServerError):
            IndexServer("bad", x_coordinate=0, auth=auth, groups=groups)


# -- the columnar seat store against a per-record oracle ----------------------
#
# The seat keeps each list as three aligned columns plus element_id ->
# row, and deletes by moving the last row into the hole. The oracle is
# the semantics written out the obvious way — pl_id -> {element_id ->
# ShareRecord} — and every observable of the server must agree with it
# as a *set* (row order is the store's own business), while two servers
# fed the same operations must agree on the *order* too: that is what
# the client's aligned join relies on. A seat that took a list from a
# peer's snapshot image holds it in the peer's order as well.

GROUPS = (1, 2, 3)
READERS = {"all": GROUPS, "some": (1,), "none": ()}


def _fleet():
    auth = AuthService()
    groups = GroupDirectory()
    for group_id in GROUPS:
        groups.create_group(group_id, coordinator="writer")
    tokens = {}
    for user, memberships in READERS.items():
        tokens[user] = auth.issue_token(user, auth.register_user(user))
        for group_id in memberships:
            groups.add_member(group_id, user, actor="writer")
    servers = [
        IndexServer(name, x_coordinate=x, auth=auth, groups=groups)
        for name, x in (("a", 1), ("b", 1), ("stale", 1))
    ]
    return servers, tokens


class _Oracle:
    def __init__(self):
        self.lists: dict[int, dict[int, ShareRecord]] = {}

    def insert(self, ops) -> bool:
        keys = [(pl, eid) for pl, eid, _group, _share in ops]
        if len(set(keys)) != len(keys) or any(
            eid in self.lists.get(pl, {}) for pl, eid in keys
        ):
            return False  # atomic: a rejected batch changes nothing
        for pl, eid, group, share in ops:
            self.lists.setdefault(pl, {})[eid] = ShareRecord(eid, group, share)
        return True

    def delete(self, rows) -> int:
        return sum(
            self.lists.get(pl, {}).pop(eid, None) is not None
            for pl, eid in rows
        )

    def adopt(self, pl_id, records) -> set:
        plist = self.lists.setdefault(pl_id, {})
        added = set()
        for record in records:
            if record.element_id not in plist:
                plist[record.element_id] = record
                added.add(record)
        return added

    def drop(self, pl_id) -> set:
        return set(self.lists.pop(pl_id, {}).values())

    def visible(self, pl_id, groups) -> set:
        return {
            r for r in self.lists.get(pl_id, {}).values() if r.group_id in groups
        }


def _columns(records) -> tuple[list[int], list[int], list[int]]:
    """Share records as the ``(element_ids, group_ids, share_ys)``
    columns the replication channel moves."""
    return PostingListResponse.from_records(0, records).columns


def _assert_matches(server, oracle, tokens, pl_ids):
    assert server.num_elements == sum(map(len, oracle.lists.values()))
    assert server.num_posting_lists == sum(map(bool, oracle.lists.values()))
    view = server.compromise().posting_store
    assert {pl: set(rs) for pl, rs in view.items()} == {
        pl: set(rs.values()) for pl, rs in oracle.lists.items() if rs
    }
    assert all(len(rs) == len(set(rs)) for rs in view.values())
    for pl_id in pl_ids:
        exported = server.export_posting_list(pl_id)
        assert len(exported) == len(set(exported))
        assert set(exported) == set(oracle.lists.get(pl_id, {}).values())
    for user, groups in READERS.items():
        for response in server.get_posting_lists(tokens[user], pl_ids):
            records = response.records
            assert len(records) == len(response.element_ids)
            assert set(records) == oracle.visible(response.pl_id, groups)
            assert len(set(response.element_ids)) == len(records)


_PL = st.integers(min_value=0, max_value=3)
_EID = st.integers(min_value=0, max_value=12)
_RECORD = st.builds(
    ShareRecord,
    element_id=_EID,
    group_id=st.sampled_from(GROUPS),
    share_y=st.integers(min_value=0, max_value=2**64 + 12),
)
_SHARE = st.integers(min_value=0, max_value=2**64 + 12)
#: Insert rows ``(pl_id, element_id, group_id, share_y)``.
_INSERT_BATCH = st.lists(
    st.tuples(_PL, _EID, st.sampled_from(GROUPS), _SHARE), max_size=6
)
_STEP = st.one_of(
    st.tuples(st.just("insert"), _INSERT_BATCH),
    st.tuples(st.just("delete"), st.lists(st.tuples(_PL, _EID), max_size=4)),
    st.tuples(st.just("adopt"), _PL, st.lists(_RECORD, max_size=5)),
    st.tuples(st.just("drop"), _PL),
    st.tuples(st.just("snapshot"), st.lists(_PL, max_size=3, unique=True)),
)


@settings(max_examples=150, deadline=None)
@given(steps=st.lists(_STEP, max_size=14))
def test_seat_store_agrees_with_the_per_record_oracle(steps):
    (a, b, stale), tokens = _fleet()
    oracle = _Oracle()
    pl_ids = tuple(range(4))
    # The snapshot target starts out wrong on purpose: replace semantics
    # must kill what the image does not carry.
    stale.adopt_posting_list(0, [99, 3], [1, 2], [1, 2])
    for step in steps:
        kind = step[0]
        if kind == "insert":
            accepted = oracle.insert(step[1])
            for server in (a, b):
                if accepted:
                    assert server.insert_batch(
                        tokens["all"], *as_columns(step[1])
                    ) == len(step[1])
                else:
                    with pytest.raises(IndexServerError):
                        server.insert_batch(
                            tokens["all"], *as_columns(step[1])
                        )
        elif kind == "delete":
            deleted = oracle.delete(step[1])
            columns = as_columns(step[1], 2)
            for server in (a, b):
                assert server.delete(tokens["all"], *columns) == deleted
        elif kind == "adopt":
            added = oracle.adopt(step[1], step[2])
            for server in (a, b):
                assert server.adopt_posting_list(
                    step[1], *_columns(step[2])
                ) == len(added)
        elif kind == "drop":
            dropped = oracle.drop(step[1])
            for server in (a, b):
                assert server.drop_posting_list(step[1]) == len(dropped)
        else:
            image, count = a.export_snapshot(step[1])
            # An image holds rows in the seat's order; a and b applied
            # the same operations, so their images are the same bytes.
            assert (image, count) == b.export_snapshot(step[1])
            assert count == sum(len(oracle.lists.get(pl, {})) for pl in step[1])
            assert stale.ingest_snapshot(step[1], image) == count
            for pl_id in step[1]:
                assert set(stale.export_posting_list(pl_id)) == set(
                    oracle.lists.get(pl_id, {}).values()
                )
                assert stale.export_posting_list(
                    pl_id
                ) == a.export_posting_list(pl_id)
        _assert_matches(a, oracle, tokens, pl_ids)
        # Same operations, same order — not merely the same set.
        for user in READERS:
            assert a.get_posting_lists(
                tokens[user], pl_ids
            ) == b.get_posting_lists(tokens[user], pl_ids)


@pytest.mark.parametrize(
    "rows, victim",
    [(5, 0), (5, 2), (5, 4), (1, 0), (5, None)],
    ids=["first", "middle", "last", "only", "absent"],
)
def test_delete_of_each_row_position(rows, victim):
    (server, _b, _stale), tokens = _fleet()
    oracle = _Oracle()
    ops = [op(7, 10 + i, GROUPS[i % 3], share=1000 + i) for i in range(rows)]
    oracle.insert(ops)
    server.insert_batch(tokens["all"], *as_columns(ops))
    target = (7, 99 if victim is None else 10 + victim)
    assert server.delete(tokens["all"], *as_columns([target], 2)) == (
        oracle.delete([target])
    )
    _assert_matches(server, oracle, tokens, (7,))
    # The row index survived the move: every survivor can still be found
    # (deleted exactly once), and the freed id can be inserted again.
    survivors = as_columns([(7, eid) for eid in oracle.lists[7]], 2)
    assert server.delete(tokens["all"], *survivors) == len(survivors[0])
    assert server.delete(tokens["all"], *survivors) == 0
    assert server.num_elements == 0
    assert server.insert_batch(tokens["all"], *as_columns(ops)) == rows


def test_a_response_does_not_change_under_later_writes(env):
    """A response outlives the next write — inside the client's merge
    and the in-process transport — so it must hold copies,
    filtered or not, never the store's own columns."""
    _, _, server, tokens = env
    # List 0 holds only alice's group (answered unfiltered), list 1 both
    # groups (answered filtered for either reader).
    server.insert_batch(
        tokens["alice"],
        *as_columns(
            [op(pl, i, 1, share=i) for pl in (0, 1) for i in range(4)]
        ),
    )
    server.insert_batch(tokens["bob"], *as_columns([op(1, 10, 2)]))
    before = [
        response
        for user in ("alice", "bob")
        for response in server.get_posting_lists(tokens[user], [0, 1])
    ]
    assert [len(r.records) for r in before] == [4, 4, 0, 1]
    frozen = [
        (list(r.element_ids), list(r.group_ids), list(r.share_ys))
        for r in before
    ]
    server.insert_batch(
        tokens["alice"], *as_columns([op(0, 50, 1), op(1, 50, 1)])
    )
    server.delete(tokens["alice"], [0, 1], [0, 2])
    server.drop_posting_list(1)
    assert [
        (r.element_ids, r.group_ids, list(r.share_ys)) for r in before
    ] == frozen


def test_record_view_is_a_lazy_sequence_equal_to_a_tuple():
    records = (ShareRecord(1, 2, 3), ShareRecord(4, 5, 6), ShareRecord(7, 8, 9))
    response = PostingListResponse.from_records(5, records)
    view = response.records
    assert len(view) == 3 and view == records and records == tuple(view)
    assert view[1] == records[1] and view[-1] == records[-1]
    assert view[1:] == records[1:]
    assert records[0] in view and ShareRecord(0, 0, 0) not in view
    assert view == PostingListResponse(5, [1, 4, 7], [2, 5, 8], [3, 6, 9]).records
    assert view != records[:2]
    other = PostingListResponse(5, [1, 4, 7], [2, 5, 8], [3, 6, 0])
    assert view != other.records
    assert len(PostingListResponse(5, [], [], []).records) == 0
    assert response.wire_bytes(9) == 4 + 3 * 17


# -- one insert path, whatever sequences carry the columns --------------------
#
# An insert batch reaches the seat as four aligned columns: lists from
# the owner's write round and the wire decoder, tuples where a caller
# transposed rows with zip (fleet extension, re-provisioned deletes).
# Both must be one path: same stored rows in the same order, same update
# log, same rejections, and a rejected batch leaves nothing behind.


def _as_tuples(ops) -> tuple[tuple[int, ...], ...]:
    """Rows transposed with zip: four tuples (empty ones for no rows)."""
    return tuple(zip(*ops)) or ((), (), (), ())


def _observables(server, tokens, pl_ids):
    return (
        [server.export_posting_list(pl_id) for pl_id in pl_ids],
        server.compromise().update_log,
        server.num_elements,
        [server.get_posting_lists(tokens[user], pl_ids) for user in READERS],
    )


@settings(max_examples=150, deadline=None)
@given(batches=st.lists(_INSERT_BATCH, max_size=8))
def test_a_column_view_and_a_tuple_of_ops_are_one_insert_path(batches):
    """Columns as lists and columns transposed from a tuple of rows."""
    (by_lists, by_tuples, _stale), tokens = _fleet()
    oracle = _Oracle()
    pl_ids = tuple(range(4))
    expected_log = []
    for ops in batches:
        outcomes = []
        for server, batch in (
            (by_lists, as_columns(ops)),
            (by_tuples, _as_tuples(ops)),
        ):
            try:
                outcomes.append(server.insert_batch(tokens["all"], *batch))
            except IndexServerError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
        if oracle.insert(ops):
            assert outcomes[0] == len(ops)
            if ops:  # an empty batch is accepted and not logged
                expected_log.append([(pl, eid) for pl, eid, _g, _y in ops])
        else:
            assert "already exists" in outcomes[0]
        assert _observables(by_lists, tokens, pl_ids) == _observables(
            by_tuples, tokens, pl_ids
        )
    # Batch order, and inside a batch the order it arrived in.
    assert by_lists.compromise().update_log == expected_log
    _assert_matches(by_lists, oracle, tokens, pl_ids)


# -- the one-pass ingest and the column delete against per-list models --------
#
# The seat validates and applies an insert batch in one pass over its
# rows, never regrouping them by list. The model is the regrouping
# written out: the first offending row in batch order, else each list's
# rows in batch order handed to SeatList.extend. A delete batch is
# checked whole against the ACL, then applied row by row; its model is
# SeatList.remove per row, in batch order.


def _model_insert(model: dict[int, SeatList], ops) -> str | None:
    """Apply a batch the per-list way; the refusal message, or None."""
    seen = set()
    for pl, eid, _group, _share in ops:
        if (pl, eid) in seen or eid in model.get(pl, _NO_LIST).row_of:
            return f"element {eid} already exists in list {pl}"
        seen.add((pl, eid))
    by_list: dict[int, list[tuple[int, ...]]] = {}
    for pl, *record in ops:
        by_list.setdefault(pl, []).append(record)
    for pl_id, records in by_list.items():
        model.setdefault(pl_id, SeatList()).extend(*zip(*records))
    return None


def _model_delete(model: dict[int, SeatList], rows, user) -> int | str:
    """Apply a delete batch row by row; the count, or the refusal."""
    for pl, eid in rows:
        plist = model.get(pl, _NO_LIST)
        row = plist.row_of.get(eid)
        if row is not None and plist.group_ids[row] not in READERS[user]:
            group = plist.group_ids[row]
            return f"user {user!r} may not delete from group {group}"
    return sum(model.get(pl, _NO_LIST).remove(eid) for pl, eid in rows)


def _seat_state(server) -> tuple:
    """Everything a batch may change in memory, as plain values."""
    return (
        {
            pl_id: (
                copy.deepcopy(plist.columns),
                dict(plist.row_of),
                plist.stamp,
                plist.snapshot,
            )
            for pl_id, plist in server._store.items()
        },
        list(server._update_log),
        server.persistence.records_appended,
    )


_INGEST_BATCH = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=24),
        st.sampled_from(GROUPS),
        _SHARE,
    ),
    max_size=10,
)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_one_pass_ingest_equals_the_per_list_model(data):
    (server, _b, _stale), tokens = _fleet()
    with tempfile.TemporaryDirectory() as seat:
        store = SegmentedStore(seat, auto_compact=False)
        server.attach_store(store)
        model: dict[int, SeatList] = {}
        pl_ids = tuple(range(6))
        for _ in range(data.draw(st.integers(1, 10), label="batches")):
            # Read every list twice so each keeps a read snapshot.
            for _ in range(2):
                responses = server.get_posting_lists(tokens["all"], pl_ids)
            served = dict(zip(pl_ids, responses))
            before = _seat_state(server)
            stored_keys = [
                (pl, eid) for pl, plist in model.items()
                for eid in plist.element_ids
            ]
            if stored_keys and data.draw(st.booleans(), label="delete"):
                # Stored and absent elements, repeats, and a reader in
                # group 1 only, whom the ACL refuses groups 2 and 3.
                key = st.sampled_from(stored_keys) | st.tuples(
                    st.integers(0, 5), st.integers(0, 24)
                )
                rows = data.draw(st.lists(key, max_size=8), label="rows")
                if rows:
                    rows += data.draw(
                        st.lists(st.sampled_from(rows), max_size=2),
                        label="repeats",
                    )
                user = data.draw(st.sampled_from(["all", "some"]), "user")
                written = {
                    pl for pl, eid in rows
                    if eid in model.get(pl, _NO_LIST).row_of
                }
                outcome = _model_delete(model, rows, user)
                columns = as_columns(rows, 2)
                if isinstance(outcome, int):
                    assert server.delete(tokens[user], *columns) == outcome
                    after = _seat_state(server)
                    # Deletes are not update events.
                    assert after[1] == before[1]
                    assert after[2] == before[2] + len(rows)
                else:
                    with pytest.raises(AccessDeniedError) as raised:
                        server.delete(tokens[user], *columns)
                    assert str(raised.value) == outcome
                    assert _seat_state(server) == before
                    written = set()
            else:
                ops = data.draw(_INGEST_BATCH, label="inserts")
                refusal = _model_insert(model, ops)
                if refusal is None:
                    inserted = server.insert_batch(
                        tokens["all"], *as_columns(ops)
                    )
                    assert inserted == len(ops)
                else:
                    with pytest.raises(IndexServerError) as raised:
                        server.insert_batch(tokens["all"], *as_columns(ops))
                    assert str(raised.value) == refusal
                    assert _seat_state(server) == before
                written = {o[0] for o in ops} if refusal is None else set()
            stored = {pl: s for pl, s in server._store.items() if s}
            assert stored == {pl: s for pl, s in model.items() if s}
            for pl_id, plist in stored.items():
                assert plist.row_of == model[pl_id].row_of
            # A snapshot kept before the batch is never served after a
            # write to its list; an untouched list may keep serving it.
            for response in server.get_posting_lists(tokens["all"], pl_ids):
                pl_id = response.pl_id
                expected = model.get(pl_id, _NO_LIST).columns
                assert tuple(map(list, response.columns)) == tuple(
                    map(list, expected)
                )
                if pl_id in written:
                    assert response is not served[pl_id]
        store.close()
        reopened = SegmentedStore(seat, auto_compact=False)
        assert reopened.replay() == stored
        reopened.close()


_SEEDED = [op(0, 1, 1), op(0, 2, 2), op(1, 1, 1)]


@pytest.mark.parametrize(
    "wrap", [as_columns, _as_tuples], ids=["lists", "tuples"]
)
@pytest.mark.parametrize(
    "user, batch, error, names",
    [
        # "some" is in group 1 only; the offender is the last row.
        ("some", [op(2, 5, 1), op(2, 6, 1), op(3, 7, 2)],
         AccessDeniedError, "group 2"),
        ("all", [op(2, 5, 1), op(3, 5, 1), op(2, 6, 3), op(2, 5, 2)],
         IndexServerError, "element 5 already exists in list 2"),
        ("all", [op(2, 9, 1), op(1, 2, 1), op(0, 2, 1)],
         IndexServerError, "element 2 already exists in list 0"),
    ],
    ids=["non-member-last-row", "duplicate-in-batch", "duplicate-in-store"],
)
def test_a_rejected_batch_leaves_store_log_and_wal_untouched(
    tmp_path, wrap, user, batch, error, names
):
    (server, _b, _stale), tokens = _fleet()
    seat = tmp_path / "seat"
    store = SegmentedStore(seat, auto_compact=False)
    server.attach_store(store)
    server.insert_batch(tokens["all"], *wrap(_SEEDED))
    pl_ids = tuple(range(4))

    def seat_bytes():
        return {path.name: path.read_bytes() for path in seat.iterdir()}

    before = _observables(server, tokens, pl_ids), seat_bytes()
    with pytest.raises(error, match=names):
        server.insert_batch(tokens[user], *wrap(batch))
    assert (_observables(server, tokens, pl_ids), seat_bytes()) == before
    # The same element id in two different lists is no duplicate.
    accepted = [op(2, 1, 1), op(3, 1, 1)]
    assert server.insert_batch(tokens["all"], *wrap(accepted)) == 2
    live = segment_name(1)
    assert seat_bytes() == {
        **before[1],
        live: before[1][live]
        + segment_record(KIND_INSERT, *as_columns(accepted)),
    }
    assert server.compromise().update_log[-1] == [(2, 1), (3, 1)]
    store.close()


# -- element-ID uniqueness ---------------------------------------------------
#
# The client's aligned join takes rows as they come: it trusts that no
# seat ever serves an element ID twice in one list. Every write path
# keeps that so, the log replay and the snapshot parser included, and a
# seat driven through all of them must never answer with a repeat.

_UNIQUENESS_STEP = st.one_of(
    st.tuples(st.just("insert"), _INSERT_BATCH),
    st.tuples(st.just("delete"), st.lists(st.tuples(_PL, _EID), max_size=4)),
    st.tuples(st.just("adopt"), _PL, st.lists(_RECORD, max_size=5)),
    st.tuples(st.just("ship"), st.lists(_PL, max_size=3, unique=True)),
    st.tuples(st.just("forged"), _PL),
    st.tuples(st.just("relog"),),
    st.tuples(st.just("reopen"), st.booleans()),
)


def _assert_no_repeated_id(server, tokens) -> None:
    for plist in server._store.values():
        assert len(plist.row_of) == len(plist.element_ids)
        assert plist.row_of == {e: i for i, e in enumerate(plist.element_ids)}
    for token in tokens.values():
        for response in server.get_posting_lists(token, range(4)):
            ids = response.element_ids
            assert len(set(ids)) == len(ids), (response.pl_id, ids)


def _reopened(server, seat, compact):
    """The seat after a restart: its store closed, reopened and
    replayed into an empty twin, which must hold what the seat held."""
    store = server.detach_store()
    if compact:
        store.compact()
    store.close()
    reopened = SegmentedStore(seat, auto_compact=False)
    replayed = reopened.replay()
    assert replayed == {pl: s for pl, s in server._store.items() if s}
    server = server.empty_twin()
    server.bulk_load(replayed)
    server.attach_store(reopened)
    return server


@settings(max_examples=30, deadline=None)
@given(steps=st.lists(_UNIQUENESS_STEP, max_size=12))
def test_a_seat_never_serves_a_repeated_element_id(steps):
    """One durable seat through every write path: inserts (a rejected
    batch rolls back), deletes, adopted rows that repeat IDs, a peer's
    shipped image, a forged image that repeats an ID, a log that
    carries a held row again, and reopening the store, with or without
    a compaction first, so the seat is rebuilt by replay."""
    (server, peer, _stale), tokens = _fleet()
    token = tokens["all"]
    with tempfile.TemporaryDirectory() as seat:
        server.attach_store(SegmentedStore(seat, auto_compact=False))
        for step in steps:
            kind = step[0]
            before = _seat_state(server)
            if kind == "insert":
                # The batch with its first row again is refused whole,
                # whatever its earlier rows indexed; then the batch.
                for ops in (step[1] + step[1][:1], step[1]):
                    for target in (peer, server):
                        try:
                            target.insert_batch(token, *as_columns(ops))
                        except IndexServerError:
                            assert target is peer or (
                                _seat_state(server) == before
                            )
            elif kind == "delete":
                columns = as_columns(step[1], 2)
                peer.delete(token, *columns)
                server.delete(token, *columns)
            elif kind == "adopt":
                server.adopt_posting_list(step[1], *_columns(step[2]))
            elif kind == "ship":
                image, _ = peer.export_snapshot(step[1])
                server.ingest_snapshot(step[1], image)
            elif kind == "forged":
                held = peer._store.get(step[1]) or SeatList([7], [1], [8])
                ids, groups, shares = held.columns
                forged = SeatList(
                    [*ids, ids[0]], [*groups, groups[0]], [*shares, 9]
                )
                image, _ = snapshot_bytes({step[1]: forged})
                with pytest.raises(StorageError, match="repeated element"):
                    server.ingest_snapshot([step[1]], image)
                assert _seat_state(server) == before
            elif kind == "relog":
                # A log that carries held rows again: replay must put
                # each in place of the row it already holds.
                rows = [
                    (pl_id, *(column[-1] for column in plist.columns))
                    for pl_id, plist in server._store.items()
                    if plist
                ]
                server.persistence.append_inserts(*as_columns(rows * 2))
            else:
                server = _reopened(server, seat, compact=step[1])
            _assert_no_repeated_id(server, tokens)
        server = _reopened(server, seat, compact=False)
        _assert_no_repeated_id(server, tokens)
        server.detach_store().close()


# -- read snapshots -----------------------------------------------------------
#
# A seat answers a lookup from the list's read snapshot: one copy of the
# columns, shared by every lookup until the list's next write. A write
# only restamps the list. The first read after it copies for itself and
# drops the stale snapshot; the second builds the new one.


def _encode(*responses) -> bytes:
    return encode_message(FetchListsResponse(lists=responses))


def _fresh_copy(response) -> PostingListResponse:
    return PostingListResponse(
        response.pl_id, *(list(column) for column in response.columns)
    )


class TestReadSnapshots:
    def test_read_only_lookups_copy_twice_per_list_then_share(self):
        (server, _b, _stale), tokens = _fleet()
        server.insert_batch(
            tokens["all"],
            *as_columns(
                [op(pl, i, GROUPS[i % 3]) for pl in (0, 1, 2) for i in range(5)]
            ),
        )
        first = server.get_posting_lists(tokens["all"], [0, 1])
        assert server._store[0].snapshot is None
        kept = server.get_posting_lists(tokens["all"], [0, 1])
        assert kept == first and kept[0] is not first[0]
        assert server._store[0].snapshot[1] is kept[0]
        assert (server.snapshot_builds, server.snapshot_reads) == (4, 4)
        for _ in range(3):
            again = server.get_posting_lists(tokens["all"], [1, 0, 1])
            assert again[1] is kept[0] and again[0] is again[2] is kept[1]
        assert (server.snapshot_builds, server.snapshot_reads) == (4, 13)
        server.get_posting_lists(tokens["some"], [2, 0])
        assert (server.snapshot_builds, server.snapshot_reads) == (5, 15)

    def test_a_write_neither_copies_nor_frees_the_snapshot(self):
        (server, _b, _stale), tokens = _fleet()
        server.insert_batch(
            tokens["all"],
            *as_columns(
                [op(pl, i, 1, share=i) for pl in (0, 1) for i in range(4)]
            ),
        )
        for _ in range(2):
            before = server.get_posting_lists(tokens["all"], [0, 1])
        frozen = copy.deepcopy(before)
        cached = server._store[0].snapshot
        assert cached[1] is before[0]
        server.insert_batch(tokens["all"], *as_columns([op(0, 9, 2)]))
        server.delete(tokens["all"], [0, 0], [1, 2])
        assert server.snapshot_builds == 4
        assert server._store[0].snapshot is cached
        assert before == frozen
        after = server.get_posting_lists(tokens["all"], [0, 1])
        # One copy, of the written list only, at its next read, which
        # frees the stale snapshot; the read after keeps a new one.
        assert server.snapshot_builds == 5
        assert server._store[0].snapshot is None
        assert after[1] is before[1] and after[0] is not before[0]
        assert set(after[0].element_ids) == {0, 3, 9}
        kept = server.get_posting_lists(tokens["all"], [0, 1])
        assert server.snapshot_builds == 6 and kept == after
        assert server._store[0].snapshot[1] is kept[0]
        assert before == frozen

    def test_a_partial_acl_reader_never_gets_the_shared_snapshot(self):
        (server, _b, _stale), tokens = _fleet()
        server.insert_batch(
            tokens["all"],
            *as_columns([op(0, i, GROUPS[i % 3], share=i) for i in range(6)]),
        )
        def lookup(user):
            return server.get_posting_lists(tokens[user], [0])[0]

        lookup("all")
        shared = lookup("all")
        assert server._store[0].snapshot[1] is shared
        filtered = [lookup("some"), lookup("some")]
        assert all(r is not shared for r in filtered)
        assert filtered[0] is not filtered[1] and filtered[0] == filtered[1]
        assert filtered[0].element_ids == [0, 3]
        assert lookup("none").element_ids == []
        assert lookup("all") is shared
        assert server.snapshot_builds == 2

    def test_an_unknown_list_gets_a_fresh_empty_response(self):
        (server, _b, _stale), tokens = _fleet()
        first, second = (
            server.get_posting_lists(tokens["all"], [7])[0] for _ in range(2)
        )
        assert first == second == PostingListResponse(7, [], [], [])
        assert first is not second
        assert (server.snapshot_builds, server.snapshot_reads) == (0, 0)
        assert _NO_LIST.snapshot is None and len(_NO_LIST) == 0

    def test_an_empty_list_costs_what_an_unknown_one_does(self):
        """An adopt that adds no row stores no list, and a list deleted
        down to empty answers like an unknown one: a fresh empty
        response, no snapshot read or build."""
        (server, _b, _stale), tokens = _fleet()
        assert server.adopt_posting_list(3, [], [], []) == 0
        for _ in range(2):
            assert server.get_posting_lists(tokens["all"], [3]) == [
                PostingListResponse(3, [], [], [])
            ]
        assert (server.snapshot_builds, server.snapshot_reads) == (0, 0)
        assert server.num_posting_lists == 0
        server.insert_batch(tokens["all"], *as_columns([op(5, 1, 1)]))
        server.delete(tokens["all"], [5], [1])
        first, second = (
            server.get_posting_lists(tokens["all"], [5])[0] for _ in range(2)
        )
        assert first == second == PostingListResponse(5, [], [], [])
        assert first is not second
        assert (server.snapshot_builds, server.snapshot_reads) == (0, 0)
        assert server.num_posting_lists == 0

    def test_the_packed_memo_is_not_part_of_the_value(self):
        response = PostingListResponse(3, [1, 2], [1, 1], [2**64 + 5, 7])
        plain = _fresh_copy(response)
        blob = _encode(response)
        assert response.packed is not None and plain.packed is None
        assert response == plain and repr(response) == repr(plain)
        assert _encode(response) == blob == _encode(plain)

    def test_one_writer_two_readers_quiesce_to_the_store(self):
        """More threads than cores and a short switch interval. A lookup
        racing a write may see a torn copy, as before snapshots; once the
        writer stops, the next read serves the store's exact state, and
        no counter update was lost."""
        (server, _b, _stale), tokens = _fleet()
        server.insert_batch(
            tokens["all"],
            *as_columns([op(0, i, 1, share=i) for i in range(50)]),
        )
        stop = threading.Event()
        lookups = [0, 0]

        def writer():
            try:
                for round_ in range(200):
                    server.insert_batch(
                        tokens["all"],
                        *as_columns([op(0, 1000 + round_, 2, share=round_)]),
                    )
                    server.delete(
                        tokens["all"], [0], [round_ % 50]
                    )
                    server.insert_batch(
                        tokens["all"],
                        *as_columns([op(0, round_ % 50, 1, share=round_)]),
                    )
            finally:
                stop.set()

        def reader(slot):
            while not stop.is_set():
                server.get_posting_lists(tokens["all"], [0])
                lookups[slot] += 1

        threads = [
            threading.Thread(target=writer),
            threading.Thread(target=reader, args=(0,)),
            threading.Thread(target=reader, args=(1,)),
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        stored = server._store[0]
        for _ in range(2):
            (response,) = server.get_posting_lists(tokens["all"], [0])
        assert stored.snapshot[0] == stored.stamp
        assert stored.snapshot[1] is response
        assert tuple(map(list, response.columns)) == tuple(
            map(list, stored.columns)
        )
        assert stored.snapshot[2] == frozenset(stored.group_ids)
        assert server.snapshot_reads == sum(lookups) + 2


_ISOLATION_STEP = st.one_of(
    _STEP.filter(lambda step: step[0] != "snapshot"),
    st.tuples(
        st.just("ingest"),
        st.lists(_PL, min_size=1, max_size=3, unique=True),
        st.lists(_RECORD, max_size=5),
    ),
    st.tuples(
        st.just("read"),
        st.sampled_from(sorted(READERS)),
        st.lists(_PL, max_size=5),
    ),
)


@settings(max_examples=150, deadline=None)
@given(steps=st.lists(_ISOLATION_STEP, max_size=16))
def test_snapshots_are_isolated_from_later_writes(steps):
    """Random writes and reads against the dict model: every read
    equals the model, no response handed out changes afterwards, and a
    served response encodes to the same bytes every time."""
    (server, _b, _stale), tokens = _fleet()
    oracle = _Oracle()
    served = []  # (response, a deep copy taken when it was served)
    for step in steps:
        kind = step[0]
        if kind == "insert":
            columns = as_columns(step[1])
            if oracle.insert(step[1]):
                server.insert_batch(tokens["all"], *columns)
            else:
                with pytest.raises(IndexServerError):
                    server.insert_batch(tokens["all"], *columns)
        elif kind == "delete":
            deleted = oracle.delete(step[1])
            columns = as_columns(step[1], 2)
            assert server.delete(tokens["all"], *columns) == deleted
        elif kind == "adopt":
            added = oracle.adopt(step[1], step[2])
            assert server.adopt_posting_list(
                step[1], *_columns(step[2])
            ) == len(added)
        elif kind == "drop":
            dropped = oracle.drop(step[1])
            assert server.drop_posting_list(step[1]) == len(dropped)
        elif kind == "ingest":
            pl_ids = step[1]
            records = list({r.element_id: r for r in step[2]}.values())
            image, _count = snapshot_bytes(
                {pl_ids[0]: SeatList(*_columns(records))}
            )
            for pl_id in pl_ids:
                oracle.drop(pl_id)
            oracle.adopt(pl_ids[0], records)
            server.ingest_snapshot(pl_ids, image)
        else:
            user, pl_ids = step[1], step[2]
            responses = server.get_posting_lists(tokens[user], pl_ids)
            for pl_id, response in zip(pl_ids, responses):
                visible = oracle.visible(pl_id, READERS[user])
                assert response.pl_id == pl_id
                assert set(response.records) == visible
                served.append((response, copy.deepcopy(response)))
            if responses:
                blob = _encode(*responses)
                assert _encode(*responses) == blob
                assert _encode(*map(_fresh_copy, responses)) == blob
        for response, at_read in served:
            assert response.columns == at_read.columns
    for response, _at_read in served:
        assert _encode(response) == _encode(_fresh_copy(response))


# -- the share column as 64-bit words ---------------------------------------
#
# A seat keeps a list's shares as an array of 64-bit words and falls back
# to a plain list for a value no word holds. Every path that writes the
# column must treat both forms alike: the scenario below runs once as
# shipped and once with every share column forced to a list, and the two
# runs must observe the same things, errors included.

#: Share values no 64-bit word holds — in the field past 2^64, negative,
#: not an int — and one that fits, as a control.
_ODD_SHARES = (1 << 64, DEFAULT_PRIME - 1, -1, 1.5, (1 << 64) - 1)


@pytest.fixture()
def list_form(monkeypatch):
    """Run the seat with every share column a plain list."""
    monkeypatch.setattr(index_server, "_words", list)


def _attempt(log: list, step: str, call):
    """Run one step; log its outcome, which must be typed if an error."""
    try:
        log.append((step, call()))
    except ReproError as exc:
        log.append((step, type(exc).__name__, str(exc)))


def _values(lists: dict) -> dict:
    return {
        pl_id: tuple(map(list, plist.columns))
        for pl_id, plist in sorted(lists.items())
    }


def _share_column_scenario(odd) -> tuple[list, dict]:
    """Every write path of a seat with ``odd`` among the shares; returns
    the log of outcomes and the share column type per stored list."""
    (server, _b, stale), tokens = _fleet()
    log: list = []
    with tempfile.TemporaryDirectory() as seat:
        store = SegmentedStore(seat, auto_compact=False)
        server.attach_store(store)
        token = tokens["all"]
        _attempt(log, "insert", lambda: server.insert_batch(
            token, [0, 0, 1, 1], [1, 2, 3, 4], [1, 2, 1, 3], [5, odd, 7, 8]
        ))
        for _ in range(3):
            _attempt(log, "read", lambda: [
                tuple(map(list, response.columns))
                for response in server.get_posting_lists(token, [0, 1, 9])
            ])
        _attempt(log, "adopt", lambda: server.adopt_posting_list(
            2, [10, 11], [1, 1], (9, odd)
        ))
        _attempt(log, "adopt-2", lambda: server.adopt_posting_list(
            1, [12], [2], (odd,)
        ))
        _attempt(log, "delete", lambda: server.delete(token, [0, 1], [1, 3]))
        _attempt(log, "insert-2", lambda: server.insert_batch(
            token, [3, 3], [20, 21], [1, 1], [odd, 6]
        ))
        _attempt(log, "read-2", lambda: [
            tuple(map(list, response.columns))
            for response in server.get_posting_lists(token, [0, 1, 2, 3])
        ])
        _attempt(log, "memory", lambda: _values(server._store))
        _attempt(log, "compromise", lambda: server.compromise().posting_store)
        replayed: dict = {}
        _attempt(log, "put", lambda: (
            apply_block(replayed, KIND_INSERT, [
                [4, 4, 4, 5, 5], [30, 31, 30, 40, 40],
                [1, 1, 2, 1, 1], [odd, 6, 8, 2, odd],
            ]),
            _values(replayed),
        )[1])
        _attempt(log, "segment-replay", lambda: _values(store.replay()))
        _attempt(log, "compact", store.compact)
        _attempt(log, "export", lambda: server.export_snapshot([0, 1, 2, 3]))
        _attempt(log, "ship", lambda: (
            stale.ingest_snapshot(
                [0, 1, 2, 3], server.export_snapshot([0, 1, 2, 3])[0]
            ),
            _values(stale._store),
        ))
        server.detach_store()
        store.close()
        reopened = SegmentedStore(seat, auto_compact=False)
        _attempt(log, "snapshot-replay", lambda: _values(reopened.replay()))
        reopened.close()
    kinds = {
        pl_id: type(plist.share_ys)
        for pl_id, plist in [*server._store.items(), *replayed.items()]
    }
    return log, kinds


@pytest.mark.parametrize("odd", _ODD_SHARES)
def test_a_word_column_behaves_like_the_list_form(odd, request):
    got, kinds = _share_column_scenario(odd)
    request.getfixturevalue("list_form")
    expected, list_kinds = _share_column_scenario(odd)
    assert got == expected
    assert set(list_kinds.values()) == {list}
    # A list that never met a value outside a word keeps its words;
    # every list here met ``odd``.
    fits = isinstance(odd, int) and 0 <= odd < 1 << 64
    assert set(kinds) == {0, 1, 2, 3, 4, 5}
    assert set(kinds.values()) == {array if fits else list}


def test_seat_lists_are_equal_by_value_across_column_forms():
    words = SeatList([1, 2], [1, 1], [5, (1 << 64) - 1])
    assert type(words.share_ys) is array and words.share_ys.itemsize == 8
    listed = SeatList([1, 2], [1, 1], [5, (1 << 64) - 1])
    listed.widen_shares()
    assert type(listed.share_ys) is list
    assert listed.columns[2] is listed.share_ys
    assert words == listed and listed == words
    listed.put(2, 1, 6)
    assert words != listed
    # A snapshot copies the stored form: words stay words.
    for plist in (words, listed):
        _stamp, response, _groups = plist.build_snapshot(0)
        assert type(response.share_ys) is type(plist.share_ys)
        assert response.share_ys is not plist.share_ys
        assert list(response.share_ys) == list(plist.share_ys)


def _share_column_bytes_per_row(rows: int) -> float:
    """What a ``rows``-row list's share column retains per row: its own
    block plus whatever its values hold beyond the same list's with
    all-zero shares (small ints are shared, random ones allocated)."""
    element_ids, group_ids = list(range(rows)), [1] * rows
    rng = random.Random(7)
    retained = {}
    for kind in ("zero", "random"):
        plist = SeatList()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            if kind == "zero":
                shares = [0] * rows
            else:
                shares = [rng.getrandbits(64) | 1 << 63 for _ in range(rows)]
            plist.extend(element_ids, group_ids, shares)
            del shares
            retained[kind] = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
    column = sys.getsizeof(plist.share_ys)
    return (column + retained["random"] - retained["zero"]) / rows


def test_the_share_column_retains_a_word_per_row():
    assert _share_column_bytes_per_row(100_000) <= 10


def test_the_list_form_retains_an_int_per_row(list_form):
    # The guard above measures what it claims: shares kept as ints cost
    # the int objects too.
    assert _share_column_bytes_per_row(100_000) >= 40
