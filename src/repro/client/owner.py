"""The document owner's client daemon (paper §5.4.1, §7.2).

"Zerber runs a client program at the document owner that tracks local
changes and performs only the necessary updates at the central indexes."

For each shared document the owner: tokenizes it, builds one posting
element per distinct term, packs the ``[doc_id, term_id, tf]`` secrets,
splits the whole column k-out-of-n, resolves each merged posting list
through the public mapping table, mints the global element IDs, and
enqueues one flat ``(pl_id, element_id, group_id, *shares_y)`` row per
element. A batching policy (§5.4.1) decides when the accumulated,
*cross-document shuffled* rows actually reach the servers — as one insert
batch of four aligned columns per seat, never an object per element per
seat.

The owner also keeps the shadow map ``doc_id -> (pl_ids, element_ids)``
that makes per-element deletion possible (§7.2) — the servers cannot group
elements by document, but the owner can.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from itertools import repeat
from typing import TYPE_CHECKING, Sequence

from repro.client.batching import BatchPolicy, UpdateBatcher
from repro.core.dictionary import TermDictionary
from repro.core.mapping_table import MappingTable
from repro.core.posting import PostingElementCodec, new_element_id
from repro.corpus.document import Document
from repro.errors import ReproError, TransportError
from repro.protocol.messages import (
    AdoptListRequest,
    DeleteBatchRequest,
    FetchListsRequest,
    InsertBatchRequest,
    ServerStatusRequest,
)
from repro.protocol.transport import Transport
from repro.secretsharing.shamir import ShamirScheme
from repro.server.auth import AuthToken

if TYPE_CHECKING:
    from repro.cluster.coordinator import ClusterCoordinator


#: One row of a write round. An insert is one posting element fanned out
#: to its n share-holders, as the batcher carries it: ``(pl_id,
#: element_id, group_id, *shares_y)`` — one flat tuple, the n shares
#: index-aligned with the share slots. A delete is ``(pl_id,
#: element_id)``.
_Row = tuple[int, ...]


def _seat_columns(columns: tuple, share_slot: int) -> tuple:
    """A route's transposed rows as one seat's message columns: the
    ``(pl_id, element_id)`` columns, then an insert's group column and
    the seat's share column."""
    return columns[:3] + columns[3 + share_slot : 4 + share_slot]


class _Backlog:
    """The writes one seat missed, keyed by ``(pl_id, element_id)``, each
    kind in delivery order: owed inserts (-> ``(group_id, share_y)``) and
    owed deletes (an ordered set)."""

    __slots__ = ("inserts", "deletes")

    def __init__(self) -> None:
        self.inserts: dict[tuple[int, int], tuple[int, int]] = {}
        self.deletes: dict[tuple[int, int], None] = {}


@dataclass(frozen=True)
class DroppedRoute:
    """One (share_slot, server) pair a write could not reach.

    Attributes:
        pod_name: the replica pod the seat belongs to.
        share_slot: the seat's share slot — ``shares_y[share_slot]`` is
            the share that failed to land.
        server_id: the seat's stable server name (survives WAL restarts,
            unlike the server object itself).
    """

    pod_name: str
    share_slot: int
    server_id: str


@dataclass(frozen=True)
class WriteRoute:
    """The coordinator's full answer for one posting list (see
    :meth:`~repro.cluster.coordinator.ClusterCoordinator.route_batch`):
    who gets the write,
    and which seats missed it (the owner's re-provisioning ledger feeds
    off ``dropped``).

    ``live`` names seats by *endpoint*, never by server object — the
    owner delivers every operation as a protocol message over its
    transport, so a route is pure addressing: ``shares_y[share_slot]``
    goes to the endpoint ``server_id``.
    """

    live: tuple[tuple[int, str], ...]
    dropped: tuple[DroppedRoute, ...] = ()


class DocumentOwner:
    """A peer that shares, updates and withdraws its own documents.

    Every write leaves as aligned columns per destination seat: four for
    an insert batch, two for a document's deletes. The rows a seat
    missed join its re-provisioning backlog, keyed by ``(pl_id,
    element_id)``.
    """

    def __init__(
        self,
        owner_id: str,
        token: AuthToken,
        scheme: ShamirScheme,
        mapping_table: MappingTable,
        dictionary: TermDictionary,
        router: ClusterCoordinator,
        codec: PostingElementCodec | None = None,
        batch_policy: BatchPolicy | None = None,
        rng: random.Random | None = None,
        transport: Transport | None = None,
    ) -> None:
        """Args:
        owner_id: the owner's principal name (also its transport endpoint).
        token: the owner's enterprise auth ticket.
        scheme: the public Shamir deployment parameters.
        mapping_table: the public term -> posting-list table.
        dictionary: the public term -> term_id registry.
        router: the coordinator that places each posting list on its
            replica pods' seats (``route_batch``), ledgers the seats a
            write missed and fences the caches after it. The paper's
            full replication is its one-pod shape.
        codec: posting-element packer (standard 64-bit layout by default).
        batch_policy: §5.4.1 batching knobs; defaults to a 4-document
            batch. Use ``BatchPolicy(min_documents=1)`` for the paper's
            "if the user trusts that no index servers are compromised"
            immediate-update mode.
        rng: element-ID/shuffle randomness (seed it in tests).
        transport: where protocol messages go; defaults to the
            router's transport (deployments pass their own — the
            in-process registry or a socket client).
        """
        self.owner_id = owner_id
        self._token = token
        self._scheme = scheme
        self._mapping = mapping_table
        self._dictionary = dictionary
        self._router = router
        self._codec = codec or PostingElementCodec()
        self._transport = transport or router.transport
        self._rng = rng or random.Random()
        self._batcher: UpdateBatcher[_Row] = UpdateBatcher(
            batch_policy or BatchPolicy(),
            flush_fn=self._send_insert_batch,
            rng=self._rng,
        )
        #: doc_id -> (pl_ids, element_ids), two aligned columns (``()``
        #: for a document with no terms) — the deletion shadow map (§7.3).
        self._shadow: dict[int, tuple[tuple[int, ...], ...]] = {}
        #: server_id -> the writes a dead seat missed, kept until
        #: :meth:`reprovision_dropped_writes` can replay them onto the
        #: restarted seat.
        self._backlog: dict[str, _Backlog] = {}
        self._documents: dict[int, Document] = {}
        #: Lifetime totals of :meth:`share_document` calls and of the
        #: element counts they returned (the index metrics' source).
        self.documents_shared = 0
        self.elements_shared = 0

    # -- sharing -------------------------------------------------------------

    def share_document(self, document: Document) -> int:
        """Share (or re-share) a document; returns its element count.

        Re-sharing an already-shared doc_id withdraws the old elements
        once the new ones are built, so "only the most recent copy of the
        document on a site will ever be retrieved" — and a new version
        that fails to pack leaves the old one served.
        """
        rows = self._build_rows(document)
        if document.doc_id in self._shadow:
            self.delete_document(document.doc_id)
        self._shadow[document.doc_id] = tuple(zip(*rows))[:2]
        self._documents[document.doc_id] = document
        self.documents_shared += 1
        self.elements_shared += len(rows)
        self._batcher.enqueue_document(rows)
        return len(rows)

    def _build_rows(self, document: Document) -> list[_Row]:
        """One document's elements, built a column at a time: pack the
        sorted terms' id and tf columns, split all secrets at once (every
        coefficient is drawn before the first element ID), look the lists
        up, mint the IDs, and zip the columns into the batcher's rows."""
        term_id_of, length = self._dictionary.get_or_assign, document.length
        counts = sorted(document.term_counts.items())
        secrets_ = self._codec.pack_many(
            document.doc_id,
            [term_id_of(term) for term, _count in counts],
            [count / length for _term, count in counts],
        )
        share_columns = self._scheme.split_many(secrets_, rng=self._rng)
        pl_ids = [self._mapping.lookup(term) for term, _count in counts]
        id_bits = self._codec.spec.element_id_bits
        element_ids = []
        used_ids: set[tuple[int, int]] = set()
        for pl_id in pl_ids:
            element_id = new_element_id(self._rng, id_bits)
            while (pl_id, element_id) in used_ids:
                element_id = new_element_id(self._rng, id_bits)
            used_ids.add((pl_id, element_id))
            element_ids.append(element_id)
        groups = repeat(document.group_id)
        return list(zip(pl_ids, element_ids, groups, *share_columns))

    def _owe(self, server_id: str, pl_ids, element_ids, *columns) -> None:
        """Backlog rows one seat missed: inserts when the group and share
        ``columns`` come too, deletes otherwise."""
        backlog = self._backlog.get(server_id)
        if backlog is None:
            backlog = self._backlog[server_id] = _Backlog()
        keys = zip(pl_ids, element_ids)
        if columns:
            backlog.inserts.update(zip(keys, zip(*columns)))
        else:
            backlog.deletes.update(dict.fromkeys(keys))

    def _send_insert_batch(self, rows: list[_Row]) -> None:
        """Release one shuffled insert batch as a write round, timed into
        the flush histogram whether or not the round raised."""
        metrics = self._router.metrics
        started = time.perf_counter()
        try:
            self._write_round(InsertBatchRequest, rows)
        finally:
            if metrics is not None:
                metrics.histogram("zerber_index_flush_seconds").observe(
                    time.perf_counter() - started
                )

    def _write_round(self, request_type: type, rows: Sequence[_Row]) -> None:
        """Fan shuffled insert or delete rows out along the router's
        placement, as one write round.

        The rows of lists that share a route (same live seats, same
        drops) are transposed together and extend each destination
        seat's columns. A seat's arrival order is a function of the
        shuffled order and the plaintext list IDs only, and every seat
        of a list sees that list's rows in the same relative order —
        which the searcher's aligned join (and a delete's row moves)
        relies on. A dropped seat owes its columns in the backlog.

        Every seat's message then leaves in one
        :meth:`Transport.call_many` (one write on the socket), and the
        lists' ``complete_write`` fence goes up. A seat the round could
        not reach (a ``TransportError`` in its place) misses only its
        own message: its columns join the backlog and the router's
        ledger, as a dropped route's do, and the round raises the first
        failure in seat order once the fence is up. Any other failure is
        a refusal every seat makes alike (auth, ACL, a duplicate
        element) and is raised as it is.

        The whole span holds the router's repair mutex, so an
        anti-entropy heal can only observe the cluster before the round
        routed or after it landed everywhere — never in between.
        """
        with self._router.repair_mutex:
            routes = self._router.route_batch(row[0] for row in rows)
            rows_by_route: dict[WriteRoute, list[_Row]] = {}
            rows_of_list = {
                pl_id: rows_by_route.setdefault(route, [])
                for pl_id, route in routes.items()
            }
            for row in rows:
                rows_of_list[row[0]].append(row)
            columns_by_server: dict[str, tuple[list, ...]] = {}
            for route, route_rows in rows_by_route.items():
                columns = tuple(zip(*route_rows))
                for share_slot, server_id in route.live:
                    seat = _seat_columns(columns, share_slot)
                    out = columns_by_server.setdefault(
                        server_id, tuple([] for _ in seat)
                    )
                    for column, values in zip(out, seat):
                        column.extend(values)
                for dropped in route.dropped:
                    self._owe(
                        dropped.server_id,
                        *_seat_columns(columns, dropped.share_slot),
                    )
            seats = list(columns_by_server.items())
            outcomes = self._transport.call_many(
                self.owner_id,
                [
                    (server_id, request_type(self._token, *columns))
                    for server_id, columns in seats
                ],
            )
            failures = []
            for (server_id, columns), outcome in zip(seats, outcomes):
                if not isinstance(outcome, ReproError):
                    continue
                failures.append(outcome)
                if isinstance(outcome, TransportError):
                    self._owe(server_id, *columns)
                    self._router.note_dropped(server_id, set(columns[0]))
            self._router.complete_write(*routes)
        if failures:
            raise failures[0]

    # -- freshness -----------------------------------------------------------

    def flush_updates(self) -> int:
        """Force pending batches out (end-of-day daemon flush)."""
        return self._batcher.flush()

    def tick(self, ticks: int = 1) -> bool:
        """Advance the batcher's freshness clock."""
        return self._batcher.tick(ticks)

    @property
    def pending_documents(self) -> int:
        return self._batcher.pending_documents

    @property
    def batches_flushed(self) -> int:
        """Insert batches released to the servers so far."""
        return self._batcher.batches_flushed

    # -- withdrawal ----------------------------------------------------------

    def delete_document(self, doc_id: int) -> int:
        """Withdraw a document: delete each of its elements separately.

        Returns the number of elements deleted per server. Flushes pending
        inserts first so a delete can never race ahead of its own insert.
        The owner forgets the document before the round, so a round that
        raises leaves it withdrawn here too: a seat that missed its
        deletes owes them in the backlog.
        """
        self._batcher.flush()
        entries = self._shadow.pop(doc_id, None)
        self._documents.pop(doc_id, None)
        if not entries:
            return 0
        rows = list(zip(*entries))
        self._rng.shuffle(rows)
        # A seat may still owe an element's insert from an earlier
        # outage (the backlog holds the share). The live delete no-ops
        # on such a seat, so pair the delete into its backlog as well:
        # reprovision then cancels the insert/delete pair instead of
        # resurrecting a withdrawn element onto the seat long after every
        # healthy replica forgot it.
        for backlog in self._backlog.values():
            owed = backlog.inserts
            backlog.deletes.update((key, None) for key in rows if key in owed)
        self._write_round(DeleteBatchRequest, rows)
        return len(rows)

    # -- re-provisioning dropped writes ----------------------------------------

    @property
    def undelivered_operations(self) -> int:
        """Operations still owed to dead (or not-yet-repaired) seats."""
        return sum(
            len(backlog.inserts) + len(backlog.deletes)
            for backlog in self._backlog.values()
        )

    def reprovision_dropped_writes(self) -> int:
        """Replay writes that dead seats missed onto their restarted seats.

        A seat that was down while this owner wrote dropped those routes
        (the router counted them in its ledger's ``dropped``); a restart
        from the seat's WAL replays only what the seat *received*, so the
        element would live on fewer than n servers forever. The owner —
        who minted the shares — closes the gap: every undelivered insert
        and delete is kept per seat, and this method re-delivers them to
        seats that are alive again, in the original order (inserts before
        the deletes that may reference them; an insert/delete pair that
        cancelled out while the seat was down is skipped entirely).

        Seats still dead keep their backlog for a later call. Returns the
        number of operations re-delivered.

        Re-delivered inserts travel as idempotent per-list adoptions
        (:class:`AdoptListRequest`, lists in ``pl_id`` order), not fresh
        insert batches: the anti-entropy sweep — or another owner's
        earlier reprovision — may have already healed the seat, and
        replaying an ``InsertBatchRequest`` then would be rejected as a
        duplicate element. Adoption merges exactly the rows the seat
        still misses and no-ops on the rest; deletes are naturally
        idempotent and stay one delete batch. Each seat's span (liveness
        check, delivery, ledger note) holds the router's repair mutex so
        a concurrent sweep can never heal-then-lose against it.
        """
        if not self._backlog:
            return 0
        self._batcher.flush()
        redelivered = 0
        for server_id in sorted(self._backlog):
            with self._router.repair_mutex:
                slot = self._router.find_slot(server_id)
                if slot is None or not slot.alive:
                    continue
                backlog = self._backlog.pop(server_id)
                cancelled = backlog.inserts.keys() & backlog.deletes.keys()
                adopt_by_list: dict[int, tuple[list, list, list]] = {}
                for (pl_id, element_id), row in backlog.inserts.items():
                    if (pl_id, element_id) in cancelled:
                        continue
                    columns = adopt_by_list.setdefault(pl_id, ([], [], []))
                    for column, value in zip(columns, (element_id, *row)):
                        column.append(value)
                for pl_id, columns in sorted(adopt_by_list.items()):
                    self._transport.call(
                        src=self.owner_id,
                        dst=server_id,
                        request=AdoptListRequest(pl_id, *columns),
                    )
                deletes = [k for k in backlog.deletes if k not in cancelled]
                if deletes:
                    request = DeleteBatchRequest(self._token, *zip(*deletes))
                    self._transport.call(
                        src=self.owner_id, dst=server_id, request=request
                    )
                redelivered += len(backlog.inserts) - len(cancelled)
                redelivered += len(deletes)
                keys = backlog.inserts.keys() | backlog.deletes.keys()
                self._router.note_repaired(
                    server_id, {pl_id for pl_id, _ in keys}
                )
        return redelivered

    # -- fleet extension (§5.1) ------------------------------------------------

    def provision_new_server(self, slot_index: int) -> int:
        """Hand a newly added slot shares of this owner's existing elements.

        §5.1: Shamir "allows dynamic extension of the number n of servers
        without recalculating the existing secret shares, by just selecting
        additional points on the polynomial curve." The owner — who is
        entitled to read its own documents — gathers k shares of each of
        its elements from trusted old seats of one replica pod per list
        set, interpolates the original polynomial, evaluates it at the new
        slot's x-coordinate, and delivers that single new point to the
        new seat of every replica pod of the list. Element IDs and
        posting-list IDs are unchanged, so queries spanning old and new
        seats keep joining correctly. An element the old seats hold
        fewer than k shares of is skipped, not guessed at.

        Args:
            slot_index: the new slot, already a seat of every pod; its
                x-coordinate must be the scheme's ``x_of(slot_index)``.

        Returns:
            The number of elements provisioned (once each, whatever the
            replica count).

        Raises:
            ReproError: a new seat reports an x-coordinate other than
                the scheme's, before any share is delivered.
        """
        self._batcher.flush()
        mine = {
            entry
            for entries in self._shadow.values()
            for entry in zip(*entries)
        }
        if not mine:
            return 0
        scheme, k = self._scheme, self._scheme.k
        new_x = scheme.x_of(slot_index)
        group_of = {
            entry: document.group_id
            for doc_id, entries in self._shadow.items()
            if (document := self._documents.get(doc_id)) is not None
            for entry in zip(*entries)
        }
        stale_seats = self._router.ledger.stale_seats
        lists_by_pods: dict[tuple, list[int]] = {}
        for pl_id in sorted({pl_id for pl_id, _ in mine}):
            pods = self._router.pods_of(pl_id)
            lists_by_pods.setdefault(pods, []).append(pl_id)
        provisioned = 0
        with self._router.repair_mutex:
            for pods, pl_ids in lists_by_pods.items():
                new_seats = [pod.slots[slot_index].server_id for pod in pods]
                for status in self._ask_each(new_seats, ServerStatusRequest()):
                    if status.x_coordinate != new_x:
                        raise ReproError(
                            f"new seat {status.server_id!r} has x="
                            f"{status.x_coordinate}; the scheme says {new_x}"
                        )
                # k live old seats of the first replica pod that has them,
                # none ledgered stale for the lists (it may lack rows).
                source = []
                for pod in pods:
                    stale = set().union(
                        *(stale_seats(pod.name, pl_id) for pl_id in pl_ids)
                    )
                    old = [
                        s
                        for s in pod.live_slots()
                        if s.slot_index < slot_index
                        and s.server_id not in stale
                    ]
                    if len(old) >= k:
                        source = old[:k]
                        break
                points: dict[tuple[int, int], list[tuple[int, int]]] = {}
                request = FetchListsRequest(self._token, tuple(pl_ids))
                for slot, fetched in zip(
                    source,
                    self._ask_each([s.server_id for s in source], request),
                ):
                    x = scheme.x_of(slot.slot_index)
                    for response in fetched.lists:
                        for element_id, share_y in zip(
                            response.element_ids, response.share_ys
                        ):
                            key = (response.pl_id, element_id)
                            if key in mine:
                                points.setdefault(key, []).append((x, share_y))
                # In the first source seat's row order, so a lone owner's
                # new seat lists its rows as the old seats do (the
                # searcher's aligned join needs that order).
                lagrange_eval = scheme.field.lagrange_eval
                rows = [
                    (*key, group_of[key], lagrange_eval(xy, new_x))
                    for key, xy in points.items()
                    if len(xy) >= k
                ]
                if rows:
                    self._ask_each(
                        new_seats, InsertBatchRequest(self._token, *zip(*rows))
                    )
                provisioned += len(rows)
        return provisioned

    def _ask_each(self, server_ids: Sequence[str], request) -> list:
        """One request to each seat in one ``call_many``; the first
        failure is raised."""
        replies = self._transport.call_many(
            self.owner_id, [(server_id, request) for server_id in server_ids]
        )
        for reply in replies:
            if isinstance(reply, ReproError):
                raise reply
        return replies

    # -- introspection ---------------------------------------------------------

    @property
    def shared_documents(self) -> list[int]:
        return sorted(self._shadow)

    def document(self, doc_id: int) -> Document | None:
        return self._documents.get(doc_id)

    def elements_of(self, doc_id: int) -> list[tuple[int, int]]:
        """The shadow map entries for one document (copies)."""
        return list(zip(*self._shadow.get(doc_id, ())))
