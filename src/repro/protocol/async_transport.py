"""The asyncio serving stack: one connection, many requests.

This module is the protocol's socket backend behind the
:class:`~repro.protocol.transport.Transport` contract:

- **Correlated frames** — every frame carries a 4-byte correlation id
  (the high bit of the length prefix flags it; see
  :data:`~repro.protocol.transport.CORRELATION_FLAG`), so one TCP
  connection multiplexes any number of in-flight requests and responses
  return in completion order, not request order. A frame without the
  flag is unframeable and ends the connection.
- **Packed encodings** — the four bulk messages travel as fixed-width
  columns (:func:`~repro.protocol.codec.write_columns`): one
  ``int.to_bytes``/``from_bytes`` C call per column, not a varint per
  field.
- **Bounded write queues** — each server connection owns a bounded
  response queue drained by one writer task that coalesces ready frames
  into a single ``write()``; a slow reader backpressures its own
  dispatch instead of ballooning server memory.
- **Graceful drain** — closing the server (or a client hanging up)
  stops reads first, lets the handler running on the loop finish,
  flushes the write queue, then closes the socket, so a drain never
  drops a response a client is still owed. A handler that outlives the
  drain budget is reported as an aborted drain.

Both halves hide their machinery behind the synchronous ``Transport``
surface. The server's event loop runs on a daemon thread and
dispatches handlers inline on that loop: decode + registry dispatch +
encode are pure CPU under the GIL, so a thread pool buys no
parallelism but charges two cross-thread wake-ups per request (each
one costs up to a full GIL switch interval — profiled at ~1 ms per
hop on a busy box). The client is a direct-write multiplexer: calling
threads frame and ``sendall()`` requests themselves under a write lock
(no marshal into any loop), and a single reader thread resolves
completions by correlation id — two thread hand-offs per call instead
of the six a loop-brokered design pays. ``call_many`` is the batch
form every ``call`` goes through: it frames a whole batch (a query's
fetch round) under fresh correlation ids, puts it on the wire in one
write, collects the responses in arrival order on the calling thread
and decodes them there, so n independent lookups cost one write and
one wait instead of n round trips. A hedged batch sends the backups of
its still-unsettled calls in one more write from the same collect loop
(Dean and Barroso's hedged request), so hedging needs no thread.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import queue
import socket
import threading
import time
from typing import Any, Callable, Sequence

from repro.errors import (
    DeadlineExceededError,
    ProtocolError,
    ReproError,
    TransportError,
)
from repro.protocol.codec import decode_message
from repro.protocol.messages import EndpointsRequest
from repro.protocol.service import raise_for_error
from repro.observability.tracing import record_span
from repro.protocol.transport import (
    _RETRY_SAFE,
    CORRELATION_FLAG,
    MAX_FRAME_BYTES,
    _LEN,
    _pack_request,
    _unpack_envelope,
    _wire_trace,
    frame_bytes,
    handle_request_payload,
    InProcessTransport,
    Transport,
)
from repro.resilience.admission import AdmissionController
from repro.resilience.deadline import current_deadline
from repro.resilience.faults import FaultPlan
from repro.resilience.retry import RetryPolicy

#: Coalesce at most this many buffered response bytes into one write()
#: before letting the event loop breathe.
_WRITE_COALESCE_BYTES = 1 << 18

#: Server-side read() chunk size: big enough that one wake-up drains a
#: saturated connection's whole request backlog.
_READ_CHUNK_BYTES = 1 << 16

#: Per-connection bound on queued response items (each item is every
#: response to one read chunk).
_WRITE_QUEUE_FRAMES = 256

#: How long close() lets the running handler and queued responses
#: drain; ``drain(timeout_s=...)`` overrides it.
_DRAIN_TIMEOUT_S = 5.0

#: How long close() waits past the drain budget for the shutdown to
#: finish on the loop. Past it, a handler still holds the loop and the
#: drain is reported aborted.
_SHUTDOWN_GRACE_S = 0.5

#: How long a client waits for the TCP connect before a typed
#: "connect timed out" TransportError.
_CONNECT_TIMEOUT_S = 5.0


def _parse_frames(buffer: bytearray) -> list[tuple[int, bytes]]:
    """Consume every complete frame at the front of ``buffer``.

    Returns ``(correlation id, payload)`` per frame and deletes the
    consumed bytes; a trailing partial frame stays for the next chunk.
    A frame without :data:`CORRELATION_FLAG`, or longer than
    :data:`MAX_FRAME_BYTES`, raises :class:`ProtocolError`: the stream
    cannot be resynchronised, so the reader hangs up. Parsing from a
    chunk buffer instead of awaiting the stream field by field matters
    at saturation: one ``read()`` off a multiplexed connection delivers
    *many* small request frames, and this turns per-frame task wake-ups
    into one.
    """
    frames: list[tuple[int, bytes]] = []
    offset = 0
    size = len(buffer)
    word_len = _LEN.size
    header = 2 * word_len
    while size - offset >= word_len:
        (word,) = _LEN.unpack_from(buffer, offset)
        if not word & CORRELATION_FLAG:
            raise ProtocolError("frame carries no correlation id")
        length = word ^ CORRELATION_FLAG
        if length > MAX_FRAME_BYTES:
            raise ProtocolError(f"frame of {length} bytes exceeds the cap")
        if size - offset < header + length:
            break
        (corr_id,) = _LEN.unpack_from(buffer, offset + word_len)
        start = offset + header
        frames.append((corr_id, bytes(buffer[start : start + length])))
        offset = start + length
    del buffer[:offset]
    return frames


def _draw(plan: FaultPlan, payload: bytes) -> str | None:
    """The fault ``plan`` draws for one request frame (None: clean; an
    unparseable envelope is left to the dispatch leg to answer)."""
    try:
        dst = _unpack_envelope(payload)[0]
    except ProtocolError:
        return None
    return plan.draw() if plan.targets(dst) else None


class _LoopThread:
    """An event loop on a daemon thread, shared by both halves."""

    def __init__(self, name: str) -> None:
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run, name=name, daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        try:
            self.loop.run_forever()
        finally:
            # Give cancelled tasks one final cycle to unwind, then
            # drop the loop; anything still pending is abandoned with
            # the daemon thread.
            try:
                self.loop.run_until_complete(asyncio.sleep(0))
            except Exception:  # pragma: no cover - teardown best effort
                pass
            self.loop.close()

    def call(self, coro, timeout_s: float | None):
        """Run a coroutine on the loop; re-raise its outcome here."""
        future = asyncio.run_coroutine_threadsafe(coro, self.loop)
        return future.result(timeout_s)

    def stop(self, join: bool = True) -> None:
        """Ask the loop to stop; ``join=False`` leaves a loop that a
        stuck handler still holds to exit on its own."""
        self.loop.call_soon_threadsafe(self.loop.stop)
        if join:
            self._thread.join(timeout=5)


class _ServerConnection:
    """Per-connection server state: reader, bounded queue, writer task."""

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.reader = reader
        self.writer = writer
        self.queue: asyncio.Queue = asyncio.Queue(
            maxsize=_WRITE_QUEUE_FRAMES
        )
        self.writer_task: asyncio.Task | None = None


class AsyncSocketServer:
    """Serve an :class:`InProcessTransport` registry, pipelined, over TCP.

    One event loop accepts every connection. Each read chunk's complete
    frames are answered back to back, inline on the loop (pure CPU
    under the GIL; see the module docstring), and their responses join
    the connection's bounded write queue as one item. A frame for an
    endpoint the registry's ``fault_plan`` targets meets its fault here
    first (:mod:`repro.resilience.faults`).

    Args:
        registry: the endpoint registry to serve.
        host / port: listener address (port 0 picks a free port; the
            bound address is in :attr:`address`).
        idle_timeout_s: close a connection after this long with no
            arriving frame and no response queued (None: never).
        max_pending: bounded-dispatch admission limit across all
            connections; beyond it requests are shed with a typed
            retryable ``OverloadedError`` (None: admit everything).
    """

    def __init__(
        self,
        registry: InProcessTransport,
        host: str = "127.0.0.1",
        port: int = 0,
        idle_timeout_s: float | None = None,
        max_pending: int | None = None,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        self._registry = registry
        self._idle_timeout_s = idle_timeout_s
        #: Optional observability registry the per-frame counters
        #: publish into (``zerber_server_frames_total`` et al.).
        self.metrics = metrics
        self._drain_timeout_s = _DRAIN_TIMEOUT_S
        self.admission = (
            None if max_pending is None else AdmissionController(max_pending)
        )
        #: Did the drain deadline pass with a handler still running or
        #: connections still open?
        self.drain_aborted = False
        self._connections: set[_ServerConnection] = set()
        self._closed = False
        self._loop_thread = _LoopThread("zerber-async-server-loop")
        try:
            self._server: asyncio.Server = self._loop_thread.call(
                asyncio.start_server(self._serve_connection, host, port),
                timeout_s=10,
            )
        except OSError as exc:
            self._loop_thread.stop()
            raise TransportError(
                f"cannot listen on {host}:{port}: {exc}"
            ) from exc
        self.address: tuple[str, int] = self._server.sockets[
            0
        ].getsockname()[:2]

    # -- connection lifecycle (runs on the loop) -------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        sock = writer.get_extra_info("socket")
        if sock is not None:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if self._closed:
            writer.close()
            return
        conn = _ServerConnection(reader, writer)
        self._connections.add(conn)
        conn.writer_task = asyncio.get_running_loop().create_task(
            self._write_loop(conn)
        )
        try:
            await self._read_loop(conn)
        finally:
            await self._drain_connection(conn)

    async def _read_loop(self, conn: _ServerConnection) -> None:
        buffer = bytearray()
        while not self._closed:
            try:
                if self._idle_timeout_s is None:
                    chunk = await conn.reader.read(_READ_CHUNK_BYTES)
                else:
                    try:
                        chunk = await asyncio.wait_for(
                            conn.reader.read(_READ_CHUNK_BYTES),
                            self._idle_timeout_s,
                        )
                    except asyncio.TimeoutError:
                        # Quiet with responses still queued is a client
                        # waiting on us, not a stall; only a connection
                        # with nothing pending in either direction is
                        # idle. (The cancelled read loses nothing: the
                        # stream re-buffers whatever arrived.)
                        if not conn.queue.empty():
                            continue
                        return
            except (ConnectionError, OSError):
                return
            if not chunk:
                return  # EOF: the peer hung up.
            buffer += chunk
            try:
                frames = _parse_frames(buffer)
            except ProtocolError:
                return  # unframeable peer; hang up
            if not frames:
                continue
            # Deadline budgets count from frame arrival: any queueing
            # from here to dispatch is the server's own delay.
            received_at = time.monotonic()
            # Answer every complete frame of this chunk back to back,
            # then enqueue the coalesced responses as one item.
            out = bytearray()
            plan = self._registry.fault_plan
            for corr_id, payload in frames:
                if plan is None or (fault := _draw(plan, payload)) is None:
                    out += self._answer(corr_id, payload, received_at)
                elif fault == "reset":
                    # Before dispatch: every call in flight here fails.
                    conn.writer.transport.abort()
                    return
                elif fault == "duplicate":
                    # The second copy finds no caller waiting on its
                    # correlation id; the client drops it.
                    out += self._answer(corr_id, payload, received_at) * 2
                elif fault != "drop":  # a drop is never answered
                    asyncio.get_running_loop().call_later(
                        plan.hold_s(fault),
                        conn.queue.put_nowait,
                        self._answer(corr_id, payload, received_at),
                    )
            if out:
                await conn.queue.put(bytes(out))

    def _answer(
        self, corr_id: int, payload: bytes, received_at: float
    ) -> bytes:
        """One request frame dispatched and its answer framed."""
        return frame_bytes(
            handle_request_payload(
                self._registry,
                payload,
                received_at=received_at,
                admission=self.admission,
                metrics=self.metrics,
            ),
            corr_id,
        )

    async def _write_loop(self, conn: _ServerConnection) -> None:
        """Drain the bounded queue of pre-framed response bytes."""
        try:
            while True:
                item = await conn.queue.get()
                if item is None:  # drain sentinel
                    return
                buffer = bytearray(item)
                # Coalesce everything already ready into one write:
                # at saturation this batches many small response
                # frames per syscall.
                while len(buffer) < _WRITE_COALESCE_BYTES:
                    try:
                        item = conn.queue.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                    if item is None:
                        conn.writer.write(bytes(buffer))
                        await conn.writer.drain()
                        return
                    buffer += item
                conn.writer.write(bytes(buffer))
                await conn.writer.drain()
        except (ConnectionError, OSError):
            return

    async def _drain_connection(self, conn: _ServerConnection) -> None:
        """Flush the queue, then hang up."""
        self._connections.discard(conn)
        await conn.queue.put(None)
        try:
            await asyncio.wait_for(conn.writer_task, self._drain_timeout_s)
        except asyncio.TimeoutError:  # pragma: no cover - slow peer
            conn.writer_task.cancel()
        conn.writer.close()
        try:
            await conn.writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover
            pass

    # -- lifecycle -------------------------------------------------------------

    @property
    def connection_count(self) -> int:
        """Open connections (the async census probe)."""
        return len(self._connections)

    def close(self) -> None:
        """Stop accepting, drain every connection, stop the loop.

        Handlers run on the loop, so one that is still running when the
        drain budget (plus :data:`_SHUTDOWN_GRACE_S`) is spent keeps the
        shutdown from ever starting: the drain is then reported aborted
        and the loop thread (a daemon) is left to stop once the handler
        returns, instead of being waited on.
        """
        if self._closed:
            return
        self._closed = True
        future = asyncio.run_coroutine_threadsafe(
            self._shutdown(), self._loop_thread.loop
        )
        try:
            future.result(self._drain_timeout_s + _SHUTDOWN_GRACE_S)
        except concurrent.futures.TimeoutError:
            self.drain_aborted = True
        self._loop_thread.stop(join=future.done())

    def drain(self, timeout_s: float | None = None) -> bool:
        """Graceful shutdown; True when every connection finished.

        Same close() sequence (stop accepting, let the running handler
        and the write queues drain, then drop what's left), optionally
        under a different drain budget. ``repro serve`` exits nonzero
        when this returns False.
        """
        if timeout_s is not None:
            self._drain_timeout_s = timeout_s
        self.close()
        return not self.drain_aborted

    async def _shutdown(self) -> None:
        self._server.close()
        await self._server.wait_closed()
        for conn in list(self._connections):
            # Kick the reader off its socket; _serve_connection's
            # finally block then drains and closes the connection.
            conn.reader.feed_eof()
        deadline = (
            asyncio.get_running_loop().time() + self._drain_timeout_s
        )
        while (
            self._connections
            and asyncio.get_running_loop().time() < deadline
        ):
            await asyncio.sleep(0.01)
        if self._connections:
            self.drain_aborted = True

    def __enter__(self) -> "AsyncSocketServer":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def _encode(dst: str, request: Any, deadline) -> bytes:
    """One request envelope under the remaining budget and trace."""
    start = time.perf_counter()
    budget_us = None if deadline is None else deadline.budget_us()
    payload = _pack_request(
        dst, request, budget_us=budget_us, trace=_wire_trace()
    )
    record_span("encode", start, time.perf_counter() - start, len(payload))
    return payload


class _PendingCall:
    """One in-flight request; resolving it queues its index for the
    thread collecting its batch, in completion order."""

    __slots__ = ("completions", "index", "blob", "error")

    def __init__(self, completions: queue.SimpleQueue, index: int) -> None:
        self.completions, self.index = completions, index
        self.blob: bytes | None = None
        self.error: Exception | None = None

    def resolve(self, blob: bytes | None = None, error=None) -> None:
        self.blob, self.error = blob, error
        self.completions.put(self.index)


def _unwrap(outcome: Any) -> Any:
    """A ``call_many`` slot as ``call`` answers it."""
    if isinstance(outcome, ReproError):
        raise outcome
    return outcome


class _WriteState:
    """Group-commit write buffer for one client connection.

    Callers append framed bytes under ``lock`` — a few bytearray ops,
    never held across a syscall — and whichever caller finds no flusher
    active elects itself and drains the buffer with large ``sendall``
    calls. Under hundreds of calling threads this replaces a write-lock
    convoy (one GIL wake-up per frame handed the lock) with one writer
    syscall per batch.
    """

    __slots__ = ("lock", "buffer", "flushing", "dropped")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.buffer = bytearray()
        self.flushing = False
        self.dropped = False


class AsyncSocketTransport(Transport):
    """Multiplexing TCP client for :class:`AsyncSocketServer` (or
    ``repro serve``).

    Any number of calling threads share **one** connection: each call
    (or :meth:`call_many` batch) frames its requests with fresh
    correlation ids and hands them to the connection's group-commit
    write buffer (one elected caller flushes each batch with a single
    ``sendall`` — no hop through an event loop, no per-frame lock
    convoy), then parks until the reader thread resolves each with the
    matching response frame. A hedged batch's backups go out on the
    same connection, in one more write from the same collect loop.

    Failures retry under a shared
    :class:`~repro.resilience.retry.RetryPolicy` (a broken connection
    is retryable for pure reads on a fresh connection, a typed
    retryable server rejection backs off for any request, writes whose
    response was lost fail fast), an ambient deadline rides the wire
    and caps the completion wait, a dead listener raises
    :class:`TransportError`, and ``close()`` deterministically fails
    in-flight calls with the typed "transport is closed" message.
    """

    def __init__(
        self,
        address: tuple[str, int],
        timeout_s: float = 30.0,
    ) -> None:
        self._address = (address[0], int(address[1]))
        self._timeout_s = timeout_s
        self._retry_policy = RetryPolicy()
        self._closed = False
        #: The live connection as one atomically-swapped pair, so an
        #: unlocked fast-path read can never see a socket from one
        #: connection paired with another's write buffer.
        self._conn: tuple[socket.socket, _WriteState] | None = None
        #: Guards _pending, _next_corr, _conn identity, and _closed
        #: transitions. Never held across a blocking operation.
        self._lock = threading.Lock()
        #: Serializes connection establishment.
        self._connect_lock = threading.Lock()
        self._pending: dict[int, _PendingCall] = {}
        self._next_corr = 0

    @property
    def _sock(self) -> socket.socket | None:
        """The live socket, if any (exposed for fault-injecting tests)."""
        conn = self._conn
        return conn[0] if conn is not None else None

    @property
    def address(self) -> tuple[str, int]:
        return self._address

    # -- the Transport surface -------------------------------------------------

    def call(self, src: str, dst: str, request: Any) -> Any:
        return _unwrap(self.call_many(src, [(dst, request)])[0])

    def call_many(
        self,
        src: str,
        calls: Sequence[tuple[str, Any]],
        on_sent: Callable[[int], None] | None = None,
        on_done: Callable[[int], None] | None = None,
        backups: Sequence[tuple[str, Any] | None] | None = None,
        hedge_after_s: float = 0.0,
    ) -> list[Any]:
        """The whole batch in one write, its backups in at most one more
        (:meth:`Transport.call_many`, :meth:`_attempt`).

        A retryable outcome — a lost connection under a pure read, a
        typed ``OverloadedError`` — then resumes alone, unhedged, under
        the :class:`RetryPolicy` schedule :meth:`call` runs, and its
        ``on_done`` fires again once it settles.
        """
        if not calls:
            return []
        outcomes = self._attempt(
            calls, on_sent, on_done, backups, hedge_after_s
        )
        policy = self._retry_policy
        for index, outcome in enumerate(outcomes):
            if isinstance(outcome, ReproError) and policy.should_retry(
                outcome, 0
            ):
                retry = [calls[index]]
                try:
                    outcomes[index] = policy.run(
                        lambda _attempt: _unwrap(self._attempt(retry)[0]),
                        failed=outcome,
                    )
                except ReproError as exc:
                    outcomes[index] = exc
                if on_done is not None:
                    on_done(index)
        return outcomes

    def endpoints(self) -> list[str]:
        response = self.call("", "", EndpointsRequest())
        return list(response.names)

    def has_endpoint(self, name: str) -> bool:
        try:
            return name in self.endpoints()
        except TransportError:
            return False

    def close(self) -> None:
        """Deterministic close: every in-flight call fails typed."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pending, self._pending = self._pending, {}
            conn, self._conn = self._conn, None
        if conn is not None:
            with conn[1].lock:
                conn[1].dropped = True
                conn[1].buffer.clear()
        for call in pending.values():
            call.resolve(
                error=TransportError("async socket transport is closed")
            )
        if conn is not None:
            sock = conn[0]
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            sock.close()

    def __enter__(self) -> "AsyncSocketTransport":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- wire plumbing ---------------------------------------------------------

    def _attempt(
        self,
        calls: Sequence[tuple[str, Any]],
        on_sent: Callable[[int], None] | None = None,
        on_done: Callable[[int], None] | None = None,
        backups: Sequence[tuple[str, Any] | None] | None = None,
        hedge_after_s: float = 0.0,
    ) -> list[Any]:
        """One try at every call: frame them all under fresh correlation
        ids, send them in one write, then take each response as it
        arrives (``on_done``; the wait is capped by the ambient
        deadline) and decode it on this thread. Each slot is the
        response or the ``ReproError`` it ended with.

        The backups of calls still unsettled ``hedge_after_s`` after
        that write (at once for 0) leave in one more, onto the same
        queue. A slot takes its legs' first response, an error only
        once no leg is left in flight; a loser's late frame is dropped.
        """
        count = len(calls)
        try:
            if self._closed:
                raise TransportError("async socket transport is closed")
            deadline = current_deadline()
            if deadline is not None:
                deadline.check(f"call to {calls[0][0]!r}")
            payloads = [_encode(dst, req, deadline) for dst, req in calls]
            sock, wstate = self._ensure_connection()
        except ReproError as exc:
            return [exc] * count
        completions: queue.SimpleQueue = queue.SimpleQueue()
        pending = [_PendingCall(completions, i) for i in range(count)]
        # slot -> its backup leg's (call, payload, start), once sent.
        hedged: dict[int, tuple[_PendingCall, bytes, float]] = {}
        errors: dict[int, ReproError] = {}
        outcomes: list[Any] = [None] * count
        unsettled = count
        corr_ids: list[int] = []
        start = time.perf_counter()
        try:
            if on_sent is not None:
                for index in range(count):
                    on_sent(index)
            corr_ids += self._send_legs(sock, wstate, payloads, pending)
            wait_s = self._timeout_s
            if deadline is not None:
                wait_s = min(wait_s, max(deadline.remaining_s(), 1e-4))
            give_up = time.monotonic() + wait_s
            hedge_at = None
            if backups is not None and any(backups):
                hedge_at = time.monotonic() + hedge_after_s
            while unsettled:
                if hedge_at is not None and time.monotonic() >= hedge_at:
                    hedge_at = None
                    leaving = [
                        i for i in range(count)
                        if outcomes[i] is None and backups[i] is not None
                    ]
                    for i in leaving:
                        hedged[i] = (
                            _PendingCall(completions, count + i),
                            _encode(*backups[i], deadline),
                            time.perf_counter(),
                        )
                        if on_sent is not None:
                            on_sent(count + i)
                    if leaving:
                        corr_ids += self._send_legs(
                            sock, wstate,
                            [hedged[i][1] for i in leaving],
                            [hedged[i][0] for i in leaving],
                        )
                wake = give_up if hedge_at is None else min(give_up, hedge_at)
                try:
                    index = completions.get(
                        timeout=max(wake - time.monotonic(), 0.0)
                    )
                except queue.Empty:
                    if time.monotonic() >= give_up:
                        break
                    continue
                if index < count:
                    slot, call, payload, sent_at = (
                        index, pending[index], payloads[index], start
                    )
                    dst, request = calls[index]
                else:
                    slot = index - count
                    call, payload, sent_at = hedged[slot]
                    dst, request = backups[slot]
                if outcomes[slot] is not None:
                    continue  # the slot's other leg answered first
                result = self._outcome(call, dst, request, payload, sent_at)
                if isinstance(result, ReproError):
                    if slot in hedged and slot not in errors:
                        errors[slot] = result  # the other leg may answer
                        continue
                    result = errors.get(slot, result)
                outcomes[slot] = result
                unsettled -= 1
                if on_done is not None:
                    on_done(index)
        finally:
            with self._lock:
                for corr_id in corr_ids:
                    self._pending.pop(corr_id, None)
        if unsettled:
            if deadline is not None and deadline.expired:
                late = DeadlineExceededError(
                    f"no response from {self._address[0]}:"
                    f"{self._address[1]} within the deadline budget"
                )
            else:
                late = TransportError(
                    f"async round-trip to {self._address[0]}:"
                    f"{self._address[1]} timed out after {self._timeout_s}s"
                )
            outcomes = [late if o is None else o for o in outcomes]
        return outcomes

    def _send_legs(
        self,
        sock: socket.socket,
        wstate: _WriteState,
        payloads: list[bytes],
        calls: list[_PendingCall],
    ) -> list[int]:
        """Register ``calls`` under fresh correlation ids, send their
        ``payloads`` in one write, and return the ids."""
        with self._lock:
            if self._closed or self._conn is None or self._conn[0] is not sock:
                # The connection died since _ensure_connection; calls
                # registered on it would outlive the drop's sweep.
                for call in calls:
                    call.resolve(error=ConnectionResetError("dropped"))
                return []
            first = self._next_corr
            self._next_corr = (first + len(calls)) & 0xFFFF_FFFF
            corr_ids = [
                n & 0xFFFF_FFFF for n in range(first, first + len(calls))
            ]
            self._pending.update(zip(corr_ids, calls))
        try:
            frames = map(frame_bytes, payloads, corr_ids)
            self._send_frame(sock, wstate, b"".join(frames))
        except (ConnectionError, OSError) as exc:
            # Fails every registered call, these included.
            self._drop_connection(sock, exc)
        return corr_ids

    def _outcome(
        self, call: _PendingCall, dst: str, request: Any, payload, start
    ) -> Any:
        """One resolved call as the response or its typed failure."""
        took = time.perf_counter() - start
        if call.error is not None:
            record_span(f"call:{dst}", start, took)
            if self._closed:
                error = TransportError("async socket transport is closed")
            else:
                error = TransportError(
                    f"async round-trip to {self._address[0]}:"
                    f"{self._address[1]} failed: {call.error}"
                )
                # A lost pure read re-sends on a fresh connection; a lost
                # write may already have landed, so it fails fast.
                error.retryable = isinstance(request, _RETRY_SAFE)
            error.__cause__ = call.error
            return error
        record_span(f"call:{dst}", start, took, len(payload) + len(call.blob))
        start = time.perf_counter()
        try:
            message = decode_message(call.blob)
            took = time.perf_counter() - start
            record_span("decode", start, took, len(call.blob))
            return raise_for_error(message)
        except ReproError as exc:
            return exc

    def _send_frame(
        self,
        sock: socket.socket,
        wstate: _WriteState,
        frame: bytes,
    ) -> None:
        """Write frames via the connection's group-commit buffer.

        A caller whose frames are shipped by another thread's flush just
        waits for its completions as usual; a flush failure fails
        every affected call through ``_drop_connection``, because all
        of their correlation ids are already registered.
        """
        with wstate.lock:
            if wstate.dropped:
                raise ConnectionResetError("connection dropped")
            wstate.buffer += frame
            if wstate.flushing:
                return
            wstate.flushing = True
        while True:
            with wstate.lock:
                batch = bytes(wstate.buffer)
                wstate.buffer.clear()
                if not batch:
                    wstate.flushing = False
                    return
            try:
                sock.sendall(batch)
            except BaseException:
                with wstate.lock:
                    wstate.flushing = False
                    wstate.buffer.clear()
                raise

    def _ensure_connection(self) -> tuple[socket.socket, _WriteState]:
        conn = self._conn
        if conn is not None:
            return conn
        with self._connect_lock:
            if self._closed:
                raise TransportError("async socket transport is closed")
            if self._conn is not None:
                return self._conn
            try:
                sock = socket.create_connection(
                    self._address, timeout=_CONNECT_TIMEOUT_S
                )
            except socket.timeout as exc:
                raise TransportError(
                    f"cannot connect to {self._address[0]}:"
                    f"{self._address[1]}: connect timed out"
                ) from exc
            except OSError as exc:
                raise TransportError(
                    f"cannot connect to {self._address[0]}:"
                    f"{self._address[1]}: {exc}"
                ) from exc
            sock.settimeout(None)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            reader = threading.Thread(
                target=self._read_loop,
                args=(sock,),
                name="zerber-async-client-reader",
                daemon=True,
            )
            conn = (sock, _WriteState())
            with self._lock:
                if self._closed:
                    sock.close()
                    raise TransportError(
                        "async socket transport is closed"
                    )
                self._conn = conn
            reader.start()
            return conn

    def _read_loop(self, sock: socket.socket) -> None:
        """Resolve pending calls by correlation id until the stream dies.

        Chunked like the server's read loop: the server coalesces many
        response frames into one write, so one ``recv()`` wake-up here
        usually resolves a whole batch of parked callers.
        """
        buffer = bytearray()
        try:
            while True:
                chunk = sock.recv(_READ_CHUNK_BYTES)
                if not chunk:
                    raise ConnectionError("peer closed the connection")
                buffer += chunk
                for corr_id, blob in _parse_frames(buffer):
                    with self._lock:
                        call = self._pending.pop(corr_id, None)
                    if call is not None:
                        call.resolve(blob)
        except (ConnectionError, OSError, ProtocolError) as exc:
            self._drop_connection(sock, exc)

    def _drop_connection(
        self, sock: socket.socket, error: Exception | None = None
    ) -> None:
        """Detach ``sock`` if it is still current and fail its calls.

        Idempotent across the racing callers (a write that hit a reset
        and the reader thread seeing EOF): only the thread that
        actually detaches the socket fails the pending map — by the
        time anyone else gets here, surviving entries belong to a
        replacement connection.
        """
        with self._lock:
            conn = self._conn
            if conn is None or conn[0] is not sock:
                return
            self._conn = None
            pending, self._pending = self._pending, {}
        with conn[1].lock:
            conn[1].dropped = True
            conn[1].buffer.clear()
        exc = error or ConnectionResetError("connection dropped")
        for call in pending.values():
            call.resolve(error=exc)
        try:
            sock.close()
        except OSError:  # pragma: no cover - already torn down
            pass
