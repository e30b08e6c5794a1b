"""The Zerber index server (paper §5.3–§5.4, Figure 3).

Each of the n servers holds exactly one Shamir share of every posting
element, keyed by merged-posting-list ID and global element ID, next to the
user-group table it consults before answering. The interface is
deliberately narrow — "providing only a narrow interface to the outside
world (i.e., only insert, delete, and look up posting list elements)" — and
every operation authenticates the caller first.

:meth:`IndexServer.compromise` models an attacker taking the box over
("one can bribe the sysadmin, measure radiation, take over root"): it
exposes everything a root-level adversary could see — shares, list
lengths, the group table, and the update log — which is precisely the
information the §7.1 attack experiments are allowed to use.
"""

from __future__ import annotations

import threading
from array import array
from collections import deque
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import compress, count, repeat
from operator import attrgetter

from repro.errors import AccessDeniedError, IndexServerError, StorageError
from repro.server.auth import AuthService, AuthToken
from repro.server.groups import GroupDirectory


@dataclass(frozen=True, slots=True)
class ShareRecord:
    """One stored (or served) share of one posting element.

    Attributes:
        element_id: the owner-minted global element ID — the join key a
            client uses to combine this share with the other servers'.
        group_id: the collaboration group allowed to read the element.
        share_y: this server's y-coordinate of the element's polynomial.
    """

    element_id: int
    group_id: int
    share_y: int


class RecordView(Sequence):
    """A response's aligned columns read as a sequence of
    :class:`ShareRecord` objects (:attr:`PostingListResponse.records`):
    ``len()`` is O(1) and a record is built only when one is iterated or
    indexed. Equal by value to another view or to a tuple of records."""

    __slots__ = ("columns",)

    def __init__(self, *columns: list[int]) -> None:
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns[0])

    def __iter__(self):
        return map(ShareRecord, *self.columns)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self)[index]
        return ShareRecord(*(column[index] for column in self.columns))

    def __eq__(self, other) -> bool:
        if isinstance(other, RecordView):
            return self.columns == other.columns
        return tuple(self) == other

    def __repr__(self) -> str:
        return f"RecordView({tuple(self)!r})"


_RECORD_FIELDS = tuple(map(attrgetter, ("element_id", "group_id", "share_y")))


def _columns(fields: tuple, rows: Iterable) -> tuple[list[int], ...]:
    """Every row's ``fields`` (attrgetters) as aligned column lists."""
    rows = tuple(rows)
    return tuple(list(map(field, rows)) for field in fields)


def _check_aligned(*columns: Sequence[int]) -> None:
    """A write batch's columns must be one length: zip would drop rows."""
    if len(set(map(len, columns))) > 1:
        raise IndexServerError("a write batch's columns differ in length")


@dataclass(frozen=True, eq=False)
class PostingListResponse:
    """One merged posting list's accessible elements, §5.4.2's

    ``PL_ID, [{g_id1, e(doc1, term1, tf1)}, ...]``

    held as three aligned columns, read-only by contract: transports,
    caches and the client's merge all hold a response without a copy,
    and a seat hands the same response (its list's read snapshot) to
    repeated lookups between two writes of the list. Its share column
    is words or a list, so responses compare by value.
    """

    pl_id: int
    element_ids: list[int]
    group_ids: list[int]
    share_ys: list[int]

    #: The columns in the wire's packed form, memoised by the codec
    #: (``packed_columns``) the first time it encodes this response, or
    #: kept as they arrived when it decodes one, so a shared snapshot is
    #: encoded once and an L2 fill re-encodes nothing. Unannotated, so
    #: not a field: it takes no part in ``==``, ``repr`` or the
    #: constructor.
    packed = None

    @classmethod
    def from_records(
        cls, pl_id: int, records: Iterable[ShareRecord]
    ) -> "PostingListResponse":
        return cls(pl_id, *_columns(_RECORD_FIELDS, records))

    @property
    def columns(self) -> tuple[list[int], list[int], list[int]]:
        return self.element_ids, self.group_ids, self.share_ys

    def __eq__(self, other) -> bool:
        if not isinstance(other, PostingListResponse):
            return NotImplemented
        return (self.pl_id, *self.columns[:2], list(self.share_ys)) == (
            other.pl_id, *other.columns[:2], list(other.share_ys)
        )

    @property
    def records(self) -> RecordView:
        """The rows as :class:`ShareRecord` objects, built lazily."""
        return RecordView(*self.columns)

    def wire_bytes(self, share_bytes: int = 9) -> int:
        # Every record is the same fixed width (element id + group id +
        # share), so the sum is a product — this sizer runs once per
        # lookup response on the read hot path.
        return 4 + len(self.element_ids) * (4 + 4 + share_bytes)


#: The typecode of a 64-bit word. Where C's ``unsigned long`` is 64
#: bits (LP64) it is ``L``: the same words as ``Q``, but CPython
#: converts an int to one in a digit loop, about twice as fast as
#: ``Q``'s byte-array path.
_WORD = "L" if array("L").itemsize == 8 else "Q"


def _words(values: Sequence) -> array | list:
    """A share column as 64-bit words, or as a plain list when some
    value does not fit one (a share in [2^64, p), a negative or a
    non-int value): the rule the codec's ``_write_column`` follows. One
    C-level conversion, no Python call per value."""
    try:
        return array(_WORD, values)
    except (OverflowError, TypeError):
        return list(values)


class SeatList:
    """One merged list as the seat stores it — the only form a stored
    list takes, replay, snapshots and replication included: three
    aligned share columns plus ``element_id -> row``. A delete moves the
    last row into the hole (O(1)), so row order is a function of the
    operations applied: seats that applied the same operations (from a
    log or a snapshot too) answer in the same order, which the client's
    aligned join relies on. Equal lists hold equal values, in order.

    No list ever holds an element ID twice (§5.4.1: "globally unique
    within its posting list"), and every path that builds one keeps it
    so: :meth:`IndexServer.insert_batch` refuses a batch that repeats a
    held or carried ID, atomically; log replay's :meth:`put` replaces
    the row in place; :meth:`IndexServer.adopt_posting_list` skips held
    rows and de-duplicates the new ones; the snapshot parser refuses an
    image that repeats one; :meth:`remove` swap-deletes. The client's
    aligned join takes rows as they come on the strength of this.

    ``share_ys`` is an array of 64-bit words, 8 B a share and no object
    to walk; a share outside [0, 2^64) (odds 13/2^64 in the field)
    turns it into a plain list for good (:func:`_words`). The id
    columns stay lists: the client's join compares two seats' id
    columns, and the int objects a batch carried to every seat make
    that comparison an identity check per element.

    Reads go through a **read snapshot**: ``(stamp, response, group
    set)``, one copy of the columns that repeated lookups share until
    the next write. A write costs the snapshot O(1): it sets ``stamp``
    to None while it mutates and to the list's next write number after,
    and never touches the snapshot itself. The first read after a write
    copies for itself and drops the stale snapshot; the second keeps its
    copy as the new one. So a list read once between writes keeps no
    copy alive, for every garbage collection a kept copy survives walks
    its columns. A copy that overlapped a write is never kept. Write
    numbers come from a ``count`` (``next`` is atomic under the GIL), so
    however two writers interleave, the stamp never comes back to a
    value a snapshot was kept under.
    """

    __slots__ = (
        "element_ids",
        "group_ids",
        "share_ys",
        "columns",
        "row_of",
        "writes",
        "stamp",
        "snapshot",
        "copied",
    )

    def __init__(self, *columns: Sequence[int]) -> None:
        """An empty list, or one over the three aligned columns given:
        it owns the id lists and stores the shares as :func:`_words`.
        The columns are not checked here; their one source, the snapshot
        parser, refuses a list whose ``row_of`` comes out shorter than
        its columns (a repeated element ID)."""
        element_ids, group_ids, share_ys = columns or ([], [], [])
        self.element_ids: list[int] = element_ids
        self.group_ids: list[int] = group_ids
        self.share_ys = _words(share_ys)
        self.columns = (element_ids, group_ids, self.share_ys)
        self.row_of: dict[int, int] = dict(zip(self.element_ids, count()))
        self.writes = count(1)
        self.stamp: int | None = 0
        self.snapshot: tuple[int, PostingListResponse, frozenset] | None = None
        #: The stamp of the last copy made and not kept.
        self.copied: int | None = None

    def widen_shares(self) -> list:
        """Turn the share column into a list, for a value no word holds."""
        self.share_ys = self.share_ys.tolist()
        self.columns = (self.element_ids, self.group_ids, self.share_ys)
        return self.share_ys

    def __len__(self) -> int:
        return len(self.element_ids)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SeatList):
            return NotImplemented
        return (
            self.element_ids == other.element_ids
            and self.group_ids == other.group_ids
            and list(self.share_ys) == list(other.share_ys)
        )

    def extend(self, element_ids, group_ids, share_ys) -> None:
        """Append aligned columns (sequences of int) whose element IDs
        are distinct and not yet stored."""
        self.stamp = None
        rows = range(len(self), len(self) + len(element_ids))
        self.row_of.update(zip(element_ids, rows))
        self.element_ids.extend(element_ids)
        self.group_ids.extend(group_ids)
        # Converted whole first: array.extend keeps the values before a
        # bad one.
        words = _words(share_ys)
        if type(words) is list and type(self.share_ys) is array:
            self.widen_shares()
        self.share_ys.extend(words)
        self.stamp = next(self.writes)

    def remove(self, element_id: int) -> bool:
        row = self.row_of.pop(element_id, None)
        if row is None:
            return False
        self.stamp = None
        for column in self.columns:
            last = column.pop()
            if row < len(column):
                column[row] = last
        if row < len(self):
            self.row_of[self.element_ids[row]] = row
        self.stamp = next(self.writes)
        return True

    def put(self, element_id: int, group_id: int, share_y: int) -> None:
        """Store one row in place of the element's, or append it."""
        self.stamp = None
        row = self.row_of.setdefault(element_id, len(self.element_ids))
        if row < len(self.element_ids):
            self.group_ids[row] = group_id
            try:
                self.share_ys[row] = share_y
            except (OverflowError, TypeError):
                self.widen_shares()[row] = share_y
        else:
            self.element_ids.append(element_id)
            self.group_ids.append(group_id)
            try:
                self.share_ys.append(share_y)
            except (OverflowError, TypeError):
                self.widen_shares().append(share_y)
        self.stamp = next(self.writes)

    def build_snapshot(
        self, pl_id: int
    ) -> tuple[int | None, PostingListResponse, frozenset]:
        """A new snapshot (one copy of the columns). The second copy at
        one stamp is kept; none is kept while a write is in flight or if
        one landed during the copy. A kept snapshot is current while its
        first field equals ``stamp``."""
        stamp = self.stamp
        # Words copy out as words: one memcpy, which the client's
        # reconstruction reads in place.
        response = PostingListResponse(
            pl_id,
            self.element_ids[:],
            self.group_ids[:],
            self.share_ys[:],
        )
        snapshot = (stamp, response, frozenset(response.group_ids))
        if stamp is not None and self.stamp == stamp:
            if self.copied == stamp:
                self.snapshot = snapshot
            else:
                self.copied = stamp
                self.snapshot = None
        return snapshot

    def records(self) -> list[ShareRecord]:
        return list(map(ShareRecord, *self.columns))


def _batch_columns(lists: dict[int, SeatList], width: int) -> tuple:
    """Many lists' rows as one log batch's columns: the pl_ids, then
    each list's first ``width`` share columns, rows in stored order."""
    columns = tuple([] for _ in range(width + 1))
    for pl_id, plist in lists.items():
        columns[0].extend(repeat(pl_id, len(plist)))
        for out, column in zip(columns[1:], plist.columns):
            out.extend(column)
    return columns


#: What a list the seat has never stored reads as. Never written to,
#: and never snapshotted: its snapshot would answer one pl_id with
#: another's.
_NO_LIST = SeatList()


#: Lookups, and accepted update batches, a seat remembers for
#: :meth:`IndexServer.compromise`: the most recent ones, so a
#: long-running seat's logs stay bounded.
QUERY_LOG_LENGTH = 4096


@dataclass(frozen=True)
class CompromisedView:
    """Everything an adversary who owns the box can observe.

    Attributes:
        server_id: which server fell.
        x_coordinate: the server's public Shamir x-coordinate.
        posting_store: pl_id -> list of stored share records. Lengths of
            these lists are the merged document frequencies the adversary
            can read directly.
        group_table: the user-group membership snapshot.
        update_log: per accepted batch, the (pl_id, element_id) pairs it
            carried, in arrival order, oldest batch first — the raw
            material of the §7.1 correlation attack. The seat keeps the
            last :data:`QUERY_LOG_LENGTH` batches, so the adversary sees
            the recent batches, as with the query log.
        query_log: per lookup, (user_id, requested pl_ids), oldest first
            — what §7.1 concedes Alice sees ("Alice can see which
            posting lists each user queries at her compromised server").
            The seat keeps only the last :data:`QUERY_LOG_LENGTH`
            lookups, so the adversary sees the recent traffic: what a
            watcher on the box observes, not a ledger the seat grows for
            its whole life.
    """

    server_id: str
    x_coordinate: int
    posting_store: dict[int, list[ShareRecord]]
    group_table: dict[int, frozenset[str]]
    update_log: list[list[tuple[int, int]]]
    query_log: list[tuple[str, tuple[int, ...]]]

    def merged_list_lengths(self) -> dict[int, int]:
        """pl_id -> combined posting-list length (all the lengths leak)."""
        return {pl: len(records) for pl, records in self.posting_store.items()}


class IndexServer:
    """One of the n index servers: share store + ACL + narrow interface."""

    def __init__(
        self,
        server_id: str,
        x_coordinate: int,
        auth: AuthService,
        groups: GroupDirectory,
        share_bytes: int = 9,
    ) -> None:
        """Args:
        server_id: unique name (also its network endpoint).
        x_coordinate: the server's public Shamir x-coordinate.
        auth: the enterprise authentication service it trusts.
        groups: its replica of the user-group table.
        share_bytes: wire size of one share value (ceil(bits(p)/8)).
        """
        if x_coordinate <= 0:
            raise IndexServerError("x-coordinate must be positive")
        self.server_id = server_id
        self.x_coordinate = x_coordinate
        self.share_bytes = share_bytes
        self._auth = auth
        self._groups = groups
        self._store: dict[int, SeatList] = {}
        #: Per accepted batch, its ``(pl_ids, element_ids)`` columns (no
        #: tuple per element: :meth:`compromise` zips the pairs on demand).
        self._update_log: deque[tuple[tuple[int, ...], tuple[int, ...]]] = (
            deque(maxlen=QUERY_LOG_LENGTH)
        )
        self._query_log: deque[tuple[str, tuple[int, ...]]] = deque(
            maxlen=QUERY_LOG_LENGTH
        )
        self._persistence = None
        #: List lookups that copied the columns (kept as the snapshot or
        #: not) and list lookups answered, copied or shared: ``reads -
        #: builds`` lookups cost no copy. Lookups run on concurrent
        #: threads, so the two are added under a lock.
        self.snapshot_builds = 0
        self.snapshot_reads = 0
        self._counts_lock = threading.Lock()

    def release(self) -> None:
        """Forget the lists, snapshots and logs held in memory."""
        self._store = {}
        self._update_log.clear()
        self._query_log.clear()

    def empty_twin(self) -> "IndexServer":
        """An empty server in this one's seat: the same id, x-coordinate,
        auth, group table and share width, with no lists and no store
        (a crashed seat's replacement, before it replays its store)."""
        return IndexServer(
            self.server_id,
            self.x_coordinate,
            self._auth,
            self._groups,
            self.share_bytes,
        )

    # -- persistence hook ------------------------------------------------------
    #
    # Durability is the seat's own concern: every *accepted* mutation —
    # user-facing inserts/deletes and the replication-channel adopt/drop
    # — is reported to the attached store after validation succeeds, so
    # rejected batches never hit disk.

    def attach_store(self, store) -> None:
        """Wire a seat store (anything with ``append_inserts`` /
        ``append_deletes``) into this server's mutation path.

        Raises:
            IndexServerError: a store is already attached (detach first;
                two stores double-logging is never what anyone wants).
        """
        if self._persistence is not None:
            raise IndexServerError(
                f"server {self.server_id!r} already has a persistence store"
            )
        self._persistence = store

    def detach_store(self):
        """Unhook and return the attached store (None when there is none).

        Decommissioning uses this so a store can be closed and destroyed
        without the seat's final wipe trying to log into it.
        """
        store, self._persistence = self._persistence, None
        return store

    @property
    def persistence(self):
        """The attached seat store, or None."""
        return self._persistence

    def bulk_load(self, lists: dict[int, SeatList]) -> int:
        """Install a replayed store wholesale (the recovery path's
        public API): the lists become the seat's own, rows in order.

        Args:
            lists: ``pl_id -> SeatList`` — exactly what a seat store's
                ``replay()`` returns.

        Returns:
            The number of elements now stored.

        Raises:
            IndexServerError: the server already holds data (recovery
                happens before a seat serves traffic; merging two states
                silently would hide a double-recovery bug).
        """
        if self.num_elements:
            raise IndexServerError("bulk-load target server is not empty")
        self._store.update(lists)
        return self.num_elements

    # -- narrow interface: insert --------------------------------------------

    def insert_batch(
        self,
        token: AuthToken,
        pl_ids: Sequence[int],
        element_ids: Sequence[int],
        group_ids: Sequence[int],
        share_ys: Sequence[int],
    ) -> int:
        """Accept one update batch of four aligned columns (row ``i`` puts
        ``(element_ids[i], group_ids[i], share_ys[i])`` into list
        ``pl_ids[i]``); returns elements inserted.

        The batch is validated and applied on its columns: the ACL once
        per distinct group, then one pass over the rows that indexes each
        element in its list (a repeat is a duplicate) and one that
        appends the rows — no regrouping by list. Each touched list is
        restamped as :meth:`SeatList.extend` does.

        The whole batch is logged as a single update event — batching is the
        §5.4.1 defence against correlation attacks, and the log models what
        a compromised server's watcher can actually distinguish.

        Raises:
            AuthError: bad token.
            AccessDeniedError: inserting into a group the user is outside.
            IndexServerError: duplicate element ID within a posting list,
                or columns of different lengths.

        Batches are atomic: every operation is validated before any is
        applied, so a rejected batch leaves neither the in-memory store
        nor the persistence store touched — a partial apply that never
        reached the WAL would silently vanish on restart and break
        replica byte-identity.
        """
        user_id = self._auth.verify(token)
        _check_aligned(pl_ids, element_ids, group_ids, share_ys)
        for group_id in dict.fromkeys(group_ids):
            if not self._groups.is_member(user_id, group_id):
                raise AccessDeniedError(
                    f"user {user_id!r} is not in group {group_id}"
                )
        store = self._store
        # The first pass over the rows validates the batch: each row
        # takes its list's next row number in ``row_of``, which only
        # writers read, so the first row whose element is already there
        # (stored, or carried by an earlier row) is the first offender
        # in batch order. ``lists`` holds each row's list for the
        # second pass, which moves the columns.
        touched: dict[int, list] = {}
        lists: list[SeatList] = []
        for pl_id, element_id in zip(pl_ids, element_ids):
            entry = touched.get(pl_id)
            if entry is None:
                plist = store.get(pl_id)
                if plist is None:
                    plist = SeatList()
                entry = touched[pl_id] = [plist, len(plist.element_ids)]
            row = entry[1]
            if entry[0].row_of.setdefault(element_id, row) != row:
                for plist, indexed in zip(lists, element_ids):
                    del plist.row_of[indexed]
                raise IndexServerError(
                    f"element {element_id} already exists in list {pl_id}"
                )
            entry[1] = row + 1
            lists.append(entry[0])
        for pl_id, (plist, _end) in touched.items():
            plist.stamp = None
            store[pl_id] = plist
        for plist, element_id, group_id, share_y in zip(
            lists, element_ids, group_ids, share_ys
        ):
            plist.element_ids.append(element_id)
            plist.group_ids.append(group_id)
            try:
                plist.share_ys.append(share_y)
            except (OverflowError, TypeError):
                plist.widen_shares().append(share_y)
        for plist, _end in touched.values():
            plist.stamp = next(plist.writes)
        if pl_ids:
            self._update_log.append((tuple(pl_ids), tuple(element_ids)))
        if self._persistence is not None:
            self._persistence.append_inserts(
                pl_ids, element_ids, group_ids, share_ys
            )
        return len(pl_ids)

    # -- narrow interface: delete -----------------------------------------------

    def delete(
        self,
        token: AuthToken,
        pl_ids: Sequence[int],
        element_ids: Sequence[int],
    ) -> int:
        """Delete elements one by one — row ``i`` deletes ``element_ids[i]``
        from list ``pl_ids[i]`` — and return how many existed.

        "Zerber elements (and hence the document ID field) are encrypted,
        so the server cannot determine which posting elements have the same
        document ID. To delete a document, its owner must delete each
        element separately." (§7.3)

        Like :meth:`insert_batch`, the batch is atomic: ACLs are checked
        for every targeted record before any is removed, so a rejected
        batch cannot leave deletions applied in memory that never
        reached the persistence store (they would resurrect on restart).
        """
        user_id = self._auth.verify(token)
        _check_aligned(pl_ids, element_ids)
        store = self._store
        rows = tuple(zip(pl_ids, element_ids))
        for pl_id, element_id in rows:
            stored = store.get(pl_id, _NO_LIST)
            row = stored.row_of.get(element_id)
            if row is not None and not self._groups.is_member(
                user_id, stored.group_ids[row]
            ):
                raise AccessDeniedError(
                    f"user {user_id!r} may not delete from group "
                    f"{stored.group_ids[row]}"
                )
        deleted = sum(
            store.get(pl_id, _NO_LIST).remove(element_id)
            for pl_id, element_id in rows
        )
        if self._persistence is not None:
            self._persistence.append_deletes(pl_ids, element_ids)
        return deleted

    # -- narrow interface: lookup ---------------------------------------------------

    def get_posting_lists(
        self, token: AuthToken, pl_ids: Iterable[int]
    ) -> list[PostingListResponse]:
        """§5.4.2 lookup: return each requested list's *accessible* elements.

        The server "determines her groups by consulting the group table"
        and returns a share of every element in a group she belongs to.
        Unknown posting lists yield empty responses rather than errors: an
        error would tell the caller the list has never been used anywhere,
        which §6.4 works to conceal. A list deleted down to empty answers
        the same way: a fresh empty response, no snapshot read or build.
        A response never names an element ID twice (see
        :class:`SeatList`).

        A response never aliases the store's columns: it outlives the
        next write inside caches and the in-process transport. A caller
        in every group the list holds gets the list's read snapshot
        (see :class:`SeatList`): from the second lookup after a write
        on, the same object for every lookup until the next write.
        Anyone else gets the snapshot's columns filtered into a fresh
        response.
        """
        user_id = self._auth.verify(token)
        user_groups = self._groups.groups_of(user_id)
        requested = tuple(pl_ids)
        self._query_log.append((user_id, requested))
        responses = []
        builds = reads = 0
        for pl_id in requested:
            stored = self._store.get(pl_id)
            if not stored:  # unknown, or deleted down to empty
                responses.append(PostingListResponse(pl_id, [], [], []))
                continue
            reads += 1
            snapshot = stored.snapshot
            if snapshot is None or snapshot[0] != stored.stamp:
                snapshot = stored.build_snapshot(pl_id)
                builds += 1
            _stamp, response, groups = snapshot
            if not user_groups.issuperset(groups):
                keep = [group in user_groups for group in response.group_ids]
                response = PostingListResponse(
                    pl_id, *(list(compress(c, keep)) for c in response.columns)
                )
            responses.append(response)
        with self._counts_lock:
            self.snapshot_builds += builds
            self.snapshot_reads += reads
        return responses

    # -- pod-to-pod replication seam ----------------------------------------------
    #
    # Rebalancing a sharded cluster moves posting lists between *slot-
    # aligned* servers of different pods. Slot s of every pod holds the
    # same Shamir share of every element (the owner splits once and fans
    # the same y out to each replica pod), so a server-to-server transfer
    # ships exactly the bytes the destination would have received from
    # the owner — shares only, confidentiality unchanged. These methods
    # bypass the narrow insert/delete/lookup interface on purpose: they
    # are the operator's replication channel, not a user-facing one.

    def export_posting_list(self, pl_id: int) -> list[ShareRecord]:
        """This server's stored share records for one merged list."""
        return self._store.get(pl_id, _NO_LIST).records()

    def adopt_posting_list(
        self,
        pl_id: int,
        element_ids: Sequence[int],
        group_ids: Sequence[int],
        share_ys: Sequence[int],
    ) -> int:
        """Merge transferred share columns into one list (idempotent: a
        row whose element is held is skipped), logged as one insert
        block; returns the number of rows added."""
        stored = self._store.get(pl_id, _NO_LIST)
        fresh = {}
        for row in zip(element_ids, group_ids, share_ys):
            if row[0] not in stored.row_of:
                fresh.setdefault(row[0], row)
        if not fresh:
            return 0
        if stored is _NO_LIST:
            stored = self._store[pl_id] = SeatList()
        columns = tuple(zip(*fresh.values()))
        stored.extend(*columns)
        if self._persistence is not None:
            self._persistence.append_inserts((pl_id,) * len(fresh), *columns)
        return len(fresh)

    def drop_posting_list(self, pl_id: int) -> int:
        """Discard a list this server no longer owns, logged as one
        delete block; returns the number of rows dropped."""
        stored = self._store.pop(pl_id, None)
        if not stored:
            return 0
        if self._persistence is not None:
            self._persistence.append_deletes(
                *_batch_columns({pl_id: stored}, 1)
            )
        return len(stored)

    def export_snapshot(
        self, pl_ids: Sequence[int]
    ) -> tuple[bytes, int]:
        """Seal the named lists' columns, as stored, into one ``ZSNP``
        image (bulk transfer).

        Returns ``(image, record_count)``. Lists this server does not
        hold contribute nothing — the receiver drops its own copy of
        every *requested* list, so shipping an absent list is how a
        stale copy at the far end dies.
        """
        # Imported here: repro.storage.snapshot imports SeatList from
        # this module, so a top-level import would be a cycle.
        from repro.storage.snapshot import snapshot_bytes

        lists = {pl: s for pl in pl_ids if (s := self._store.get(pl))}
        return snapshot_bytes(lists)

    def ingest_snapshot(self, pl_ids: Sequence[int], snapshot: bytes) -> int:
        """Bulk-load a shipped snapshot, replacing the listed lists.

        Replace semantics (a stale seat may hold shares of since-deleted
        elements, which a merge could never remove): each listed
        ``pl_id`` takes the image's list, or none, in one assignment —
        never empty in between. The log gets two blocks, whatever the
        width: the rows dropped, then the image's rows.

        Returns the number of elements now stored across the listed
        lists.

        Raises:
            StorageError: the image fails validation (CRC, framing,
                repeated lists or elements), or carries a list outside
                ``pl_ids`` — a shipment must not smuggle writes into
                lists the caller never named.
        """
        from repro.storage.snapshot import parse_snapshot_bytes

        source = f"snapshot shipped to {self.server_id}"
        loaded = parse_snapshot_bytes(snapshot, source=source)
        wanted = sorted(set(pl_ids))
        unknown = set(loaded).difference(wanted)
        if unknown:
            raise StorageError(
                f"{source}: image carries unrequested lists "
                f"{sorted(unknown)}"
            )
        if self._persistence is not None:
            dropped = {pl: s for pl in wanted if (s := self._store.get(pl))}
            self._persistence.append_deletes(*_batch_columns(dropped, 1))
            self._persistence.append_inserts(*_batch_columns(loaded, 3))
        for pl_id in wanted:
            if loaded.get(pl_id):
                self._store[pl_id] = loaded[pl_id]
            else:
                self._store.pop(pl_id, None)
        return sum(map(len, loaded.values()))

    # -- operator/diagnostic surface ---------------------------------------------

    @property
    def num_posting_lists(self) -> int:
        return sum(1 for plist in self._store.values() if plist)

    @property
    def num_elements(self) -> int:
        return sum(len(plist) for plist in self._store.values())

    def storage_bytes(self) -> int:
        """Bytes this server's store occupies on the wire encoding."""
        per_record = 4 + 4 + 4 + self.share_bytes  # pl id + record fields
        return self.num_elements * per_record

    # -- the attack surface ------------------------------------------------------

    def compromise(self) -> CompromisedView:
        """Hand the adversary the whole box (for the §7.1 experiments)."""
        return CompromisedView(
            server_id=self.server_id,
            x_coordinate=self.x_coordinate,
            posting_store={
                pl_id: stored.records()
                for pl_id, stored in self._store.items()
                if stored
            },
            group_table=self._groups.snapshot(),
            update_log=[list(zip(*batch)) for batch in self._update_log],
            query_log=list(self._query_log),
        )
