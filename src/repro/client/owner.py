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

import contextlib
import random
import time
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Sequence

from repro.client.batching import BatchPolicy, UpdateBatcher
from repro.core.dictionary import TermDictionary
from repro.core.mapping_table import MappingTable
from repro.core.posting import PostingElementCodec, new_element_id
from repro.corpus.document import Document
from repro.errors import ReproError
from repro.protocol.messages import (
    AdoptListRequest,
    DeleteBatchRequest,
    FetchListsRequest,
    InsertBatchRequest,
)
from repro.protocol.service import fleet_resolver
from repro.protocol.transport import InProcessTransport, Transport
from repro.secretsharing.shamir import ShamirScheme
from repro.server.auth import AuthToken
from repro.server.index_server import (
    DeleteOp,
    InsertOp,
    RecordView,
    group_by_list,
    insert_columns,
)
from repro.server.transport import SimulatedNetwork


#: One posting element fanned out to its n share-holders, as the batcher
#: carries it: ``(pl_id, element_id, group_id, *shares_y)`` — one flat
#: tuple, the n shares index-aligned with the share slots.
_Row = tuple[int, ...]


@dataclass(frozen=True)
class DroppedRoute:
    """One (share_slot, server) pair a write could not reach.

    Attributes:
        pod_name: the replica pod the seat belongs to ("" for the
            single-fleet router, which never drops).
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
    """A router's full answer for one posting list: who gets the write,
    and which seats missed it (the owner's re-provisioning ledger feeds
    off ``dropped``).

    ``live`` names seats by *endpoint*, never by server object — the
    owner delivers every operation as a protocol message over its
    transport, so a route is pure addressing: ``shares_y[share_slot]``
    goes to the endpoint ``server_id``.
    """

    live: tuple[tuple[int, str], ...]
    dropped: tuple[DroppedRoute, ...] = ()


class FleetRouter:
    """The paper's §5 placement: every posting list lives on every server.

    A router decides which ``(share_slot, server_id)`` pairs an operation
    on one posting list must reach; ``shares_y[share_slot]`` is the share
    delivered to that endpoint. The contract is the batch form,
    ``route_batch(pl_ids) -> {pl_id: WriteRoute}``, asked once per write
    batch with its rows' list ids (repeats are routed once). This
    default routes everything to the whole fleet; the cluster's
    :class:`~repro.cluster.coordinator.ClusterCoordinator` implements the
    same contract to route each list to its replica pods instead (and
    to invalidate its caches once per batch).
    """

    #: The single fleet has no metrics registry (a cluster router's
    #: receives the owners' flush timings), no repair machinery for a
    #: write span to exclude, and no caches to fence after a write.
    metrics = None
    repair_mutex = contextlib.nullcontext()

    def __init__(self, servers: Sequence) -> None:
        self._servers = servers

    def complete_write(self, *pl_ids: int) -> None:
        pass

    def route_batch(self, pl_ids: Iterable[int]) -> dict[int, WriteRoute]:
        """Full replication never drops a seat: every server is live."""
        route = WriteRoute(
            live=tuple(
                (slot, server.server_id)
                for slot, server in enumerate(self._servers)
            )
        )
        return dict.fromkeys(pl_ids, route)


class DocumentOwner:
    """A peer that shares, updates and withdraws its own documents.

    Inserts leave as four aligned columns per destination seat; an
    :class:`InsertOp` is built only for a seat a route dropped (the
    re-provisioning backlog).
    """

    def __init__(
        self,
        owner_id: str,
        token: AuthToken,
        scheme: ShamirScheme,
        mapping_table: MappingTable,
        dictionary: TermDictionary,
        servers: Sequence[IndexServer] | None,
        codec: PostingElementCodec | None = None,
        network: SimulatedNetwork | None = None,
        batch_policy: BatchPolicy | None = None,
        rng: random.Random | None = None,
        router=None,
        transport: Transport | None = None,
    ) -> None:
        """Args:
        owner_id: the owner's principal name (also its network endpoint).
        token: the owner's enterprise auth ticket.
        scheme: the public Shamir deployment parameters.
        mapping_table: the public term -> posting-list table.
        dictionary: the public term -> term_id registry.
        servers: the n index servers, index-aligned with the scheme's
            x-coordinates.
        codec: posting-element packer (standard 64-bit layout by default).
        network: when given (and no ``transport``), the private default
            transport charges every call against this simulated network
            for §7.3 byte accounting.
        batch_policy: §5.4.1 batching knobs; defaults to a 4-document
            batch. Use ``BatchPolicy(min_documents=1)`` for the paper's
            "if the user trusts that no index servers are compromised"
            immediate-update mode.
        rng: element-ID/shuffle randomness (seed it in tests).
        router: placement of posting lists onto servers; defaults to the
            paper's full replication (:class:`FleetRouter` over
            ``servers``). A cluster coordinator routes each list to its
            owning pod instead, in which case ``servers`` may be None.
        transport: where protocol messages go. Deployments pass their
            shared transport; when omitted, a private in-process
            transport over ``servers`` is built (resolving the live
            sequence lazily, so fleet extension keeps working).
        """
        if router is None:
            if servers is None:
                raise ReproError("need servers, a router, or both")
            if len(servers) != scheme.n:
                raise ReproError(
                    f"scheme expects {scheme.n} servers, got {len(servers)}"
                )
            router = FleetRouter(servers)
        self.owner_id = owner_id
        self._token = token
        self._scheme = scheme
        self._mapping = mapping_table
        self._dictionary = dictionary
        # Kept as the caller's live sequence so fleet extension
        # (ZerberDeployment.add_server) is visible to existing owners.
        self._servers = servers
        self._router = router
        self._codec = codec or PostingElementCodec()
        self._network = network
        self._share_bytes = (scheme.field.p.bit_length() + 7) // 8
        if transport is None:
            transport = InProcessTransport(
                network=network,
                share_bytes=self._share_bytes,
                resolver=fleet_resolver(servers),
            )
        self._transport = transport
        self._rng = rng or random.Random()
        self._batcher: UpdateBatcher[_Row] = UpdateBatcher(
            batch_policy or BatchPolicy(),
            flush_fn=self._send_insert_batch,
            rng=self._rng,
        )
        #: doc_id -> (pl_ids, element_ids), two aligned columns (``()``
        #: for a document with no terms) — the deletion shadow map (§7.3).
        self._shadow: dict[int, tuple[tuple[int, ...], ...]] = {}
        #: server_id -> [(kind, op)] — operations a dead seat missed, in
        #: delivery order, kept until :meth:`reprovision_dropped_writes`
        #: can replay them onto the restarted seat.
        self._undelivered: dict[str, list[tuple[str, object]]] = {}
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

    def _record_undelivered(self, dropped: DroppedRoute, kind: str, op) -> None:
        self._undelivered.setdefault(dropped.server_id, []).append((kind, op))

    def _send_insert_batch(self, rows: list[_Row]) -> None:
        """Fan one shuffled batch out along the router's placement.

        The rows of lists that share a route (same live seats, same
        drops) are transposed together and extend four columns per
        destination seat. A seat's arrival order is a function of the
        shuffled order and the plaintext list IDs only, and every seat
        of a list sees that list's rows in the same relative order —
        which the searcher's aligned join relies on.

        The whole route+deliver span holds the router's repair mutex,
        so an anti-entropy heal can only observe the cluster before the
        batch routed or after it landed everywhere — never in between;
        ``complete_write`` then fences the lists' cache epochs, still
        inside the span, after the last seat took the batch.
        """
        metrics = self._router.metrics
        started = time.perf_counter()
        with self._router.repair_mutex:
            routes = self._router.route_batch(row[0] for row in rows)
            rows_by_route: dict[WriteRoute, list[_Row]] = {}
            rows_of_list = {
                pl_id: rows_by_route.setdefault(route, [])
                for pl_id, route in routes.items()
            }
            for row in rows:
                rows_of_list[row[0]].append(row)
            columns_by_server: dict[str, tuple[list, list, list, list]] = {}
            for route, route_rows in rows_by_route.items():
                pl_ids, element_ids, group_ids, *share_columns = zip(
                    *route_rows
                )
                for share_slot, server_id in route.live:
                    columns = columns_by_server.setdefault(
                        server_id, ([], [], [], [])
                    )
                    columns[0].extend(pl_ids)
                    columns[1].extend(element_ids)
                    columns[2].extend(group_ids)
                    columns[3].extend(share_columns[share_slot])
                for dropped in route.dropped:
                    missed = share_columns[dropped.share_slot]
                    for op in map(
                        InsertOp, pl_ids, element_ids, group_ids, missed
                    ):
                        self._record_undelivered(dropped, "insert", op)
            for server_id, columns in columns_by_server.items():
                self._deliver(
                    InsertBatchRequest, server_id, RecordView(InsertOp, *columns)
                )
            self._router.complete_write(*routes)
        if metrics is not None:
            metrics.histogram("zerber_index_flush_seconds").observe(
                time.perf_counter() - started
            )

    def _deliver(
        self, request_type: type, server_id: str, operations: Sequence
    ) -> None:
        """One insert/delete protocol message to one endpoint."""
        request = request_type(token=self._token, operations=operations)
        self._transport.call(src=self.owner_id, dst=server_id, request=request)

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
        """
        self._batcher.flush()
        entries = self._shadow.pop(doc_id, None)
        if not entries:
            return 0
        operations = [
            DeleteOp(pl_id=pl_id, element_id=element_id)
            for pl_id, element_id in zip(*entries)
        ]
        self._rng.shuffle(operations)
        with self._router.repair_mutex:
            ops_by_server: dict[str, list[DeleteOp]] = {}
            routes = self._router.route_batch(op.pl_id for op in operations)
            for op in operations:
                route = routes[op.pl_id]
                for _share_slot, server_id in route.live:
                    ops_by_server.setdefault(server_id, []).append(op)
                dropped_ids = set()
                for dropped in route.dropped:
                    self._record_undelivered(dropped, "delete", op)
                    dropped_ids.add(dropped.server_id)
                # A seat that is live *now* may still owe this element's
                # insert from an earlier outage (the backlog holds the
                # share). The live delete below no-ops on such a seat,
                # so pair the delete into its backlog as well:
                # reprovision then cancels the insert/delete pair
                # instead of resurrecting a withdrawn element onto the
                # seat long after every healthy replica forgot it.
                key = (op.pl_id, op.element_id)
                for server_id, entries in self._undelivered.items():
                    if server_id in dropped_ids:
                        continue
                    if any(
                        kind == "insert"
                        and (pending.pl_id, pending.element_id) == key
                        for kind, pending in entries
                    ):
                        entries.append(("delete", op))
            for server_id, server_ops in ops_by_server.items():
                self._deliver(DeleteBatchRequest, server_id, tuple(server_ops))
            self._router.complete_write(*routes)
        self._documents.pop(doc_id, None)
        return len(operations)

    # -- re-provisioning dropped writes ----------------------------------------

    @property
    def undelivered_operations(self) -> int:
        """Operations still owed to dead (or not-yet-repaired) seats."""
        return sum(len(entries) for entries in self._undelivered.values())

    def reprovision_dropped_writes(self) -> int:
        """Replay writes that dead seats missed onto their restarted seats.

        A seat that was down while this owner wrote dropped those routes
        (the router counted them in ``dropped_write_routes``); a restart
        from the seat's WAL replays only what the seat *received*, so the
        element would live on fewer than n servers forever. The owner —
        who minted the shares — closes the gap: every undelivered insert
        and delete is kept per seat, and this method re-delivers them to
        seats that are alive again, in the original order (inserts before
        the deletes that may reference them; an insert/delete pair that
        cancelled out while the seat was down is skipped entirely).

        Seats still dead keep their ledger entries for a later call.
        Returns the number of operations re-delivered.

        Re-delivered inserts travel as idempotent per-list adoptions
        (:class:`AdoptListRequest`), not fresh insert batches: the
        anti-entropy sweep — or another owner's earlier reprovision —
        may have already healed the seat, and replaying an
        ``InsertBatchRequest`` then would be rejected as a duplicate
        element. Adoption merges exactly the rows the seat still
        misses and no-ops on the rest; deletes are naturally idempotent
        and stay delete batches. Each seat's span (liveness check,
        delivery, ledger note) holds the router's repair mutex so a
        concurrent sweep can never heal-then-lose against it.
        """
        find_slot = getattr(self._router, "find_slot", None)
        if find_slot is None or not self._undelivered:
            return 0
        self._batcher.flush()
        note = getattr(self._router, "note_repaired", None)
        redelivered = 0
        for server_id in sorted(self._undelivered):
            with self._router.repair_mutex:
                slot = find_slot(server_id)
                if slot is None or not slot.alive:
                    continue
                entries = self._undelivered.pop(server_id)
                inserts = [op for kind, op in entries if kind == "insert"]
                deletes = [op for kind, op in entries if kind == "delete"]
                insert_keys = {(op.pl_id, op.element_id) for op in inserts}
                cancelled = {
                    (op.pl_id, op.element_id)
                    for op in deletes
                    if (op.pl_id, op.element_id) in insert_keys
                }
                inserts = [
                    op for op in inserts
                    if (op.pl_id, op.element_id) not in cancelled
                ]
                deletes = [
                    op for op in deletes
                    if (op.pl_id, op.element_id) not in cancelled
                ]
                adopt_by_list = group_by_list(*insert_columns(inserts))
                for pl_id, columns in sorted(adopt_by_list.items()):
                    self._transport.call(
                        src=self.owner_id,
                        dst=server_id,
                        request=AdoptListRequest(pl_id, *columns),
                    )
                if deletes:
                    self._deliver(DeleteBatchRequest, server_id, tuple(deletes))
                redelivered += len(inserts) + len(deletes)
                repaired_lists = (
                    {op.pl_id for op in inserts}
                    | {op.pl_id for op in deletes}
                    | {pl_id for pl_id, _ in cancelled}
                )
                if note is not None:
                    note(server_id, repaired_lists)
        return redelivered

    # -- fleet extension (§5.1) ------------------------------------------------

    def provision_new_server(self, new_server_index: int) -> int:
        """Hand a newly added server shares of this owner's existing elements.

        §5.1: Shamir "allows dynamic extension of the number n of servers
        without recalculating the existing secret shares, by just selecting
        additional points on the polynomial curve." The owner — who is
        entitled to read its own documents — gathers k shares of each of
        its elements from the old servers, interpolates the original
        polynomial, evaluates it at the new server's x-coordinate, and
        inserts that single new point. Element IDs and posting-list IDs
        are unchanged, so queries spanning old and new servers keep
        joining correctly.

        Args:
            new_server_index: index of the already-registered new server
                (its x-coordinate must be the scheme's ``x_of(index)``).

        Returns:
            The number of elements provisioned.
        """
        self._batcher.flush()
        if self._servers is None:
            raise ReproError(
                "fleet extension needs the full server list; cluster "
                "deployments add whole pods instead"
            )
        new_server = self._servers[new_server_index]
        field = self._scheme.field
        new_x = self._scheme.x_of(new_server_index)
        if new_server.x_coordinate != new_x:
            raise ReproError(
                "new server's x-coordinate disagrees with the scheme"
            )
        my_entries = {
            (pl_id, element_id)
            for entries in self._shadow.values()
            for pl_id, element_id in zip(*entries)
        }
        if not my_entries:
            return 0
        pl_ids = sorted({pl_id for pl_id, _ in my_entries})
        k = self._scheme.k
        # Gather k shares of every element from the first k old servers.
        points: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for server_index in range(k):
            x = self._scheme.x_of(server_index)
            fetched = self._transport.call(
                src=self.owner_id,
                dst=self._servers[server_index].server_id,
                request=FetchListsRequest(
                    token=self._token, pl_ids=tuple(pl_ids)
                ),
            )
            for response in fetched.lists:
                for element_id, share_y in zip(
                    response.element_ids, response.share_ys
                ):
                    key = (response.pl_id, element_id)
                    if key in my_entries:
                        points.setdefault(key, []).append((x, share_y))
        operations = []
        group_of_entry = {
            entry: document.group_id
            for doc_id, entries in self._shadow.items()
            for entry in zip(*entries)
            if (document := self._documents.get(doc_id)) is not None
        }
        for key, share_points in sorted(points.items()):
            if len(share_points) < k:
                continue  # an old server is missing data; skip, don't guess
            pl_id, element_id = key
            y_new = field.lagrange_eval(share_points[:k], new_x)
            operations.append(
                InsertOp(
                    pl_id=pl_id,
                    element_id=element_id,
                    group_id=group_of_entry[key],
                    share_y=y_new,
                )
            )
        if operations:
            self._deliver(
                InsertBatchRequest, new_server.server_id, tuple(operations)
            )
        return len(operations)

    # -- introspection ---------------------------------------------------------

    @property
    def shared_documents(self) -> list[int]:
        return sorted(self._shadow)

    def document(self, doc_id: int) -> Document | None:
        return self._documents.get(doc_id)

    def elements_of(self, doc_id: int) -> list[tuple[int, int]]:
        """The shadow map entries for one document (copies)."""
        return list(zip(*self._shadow.get(doc_id, ())))
