"""The pipelined asyncio serving stack: one connection, many requests.

The threaded :class:`~repro.protocol.transport.SocketServer` spends a
thread (and a connection) per concurrent client, and every call is a
strict write-then-read on that client's private socket — at hundreds of
concurrent searchers the wire path, not the crypto, caps throughput.
This module is the protocol's pipelined revision behind the same
:class:`~repro.protocol.transport.Transport` contract:

- **Correlated frames** — every request carries a 4-byte correlation id
  (the high bit of the length prefix flags it; see
  :data:`~repro.protocol.transport.CORRELATION_FLAG`), so one TCP
  connection multiplexes any number of in-flight requests and responses
  return in completion order, not request order.
- **Packed encodings** — a correlated request also states the sender
  accepts the fixed-width packed message forms
  (:func:`~repro.protocol.codec.encode_message` with ``packed=True``),
  which collapse the varint-per-field record codec (~45% of socket
  query time) into ``int.to_bytes``/``from_bytes`` C calls.
- **Bounded write queues** — each server connection owns a bounded
  response queue drained by one writer task that coalesces ready frames
  into a single ``write()``; a slow reader backpressures its own
  dispatch instead of ballooning server memory.
- **Graceful drain** — closing the server (or a client hanging up)
  stops reads first, lets in-flight handlers finish, flushes the write
  queue, then closes the socket, so a drain never drops a response a
  client is still owed.

Interoperability is two-way: :class:`AsyncSocketServer` serves classic
plain frames serially (a PR 4 :class:`SocketTransport` client works
unmodified), and the threaded ``SocketServer`` answers correlated
frames one at a time, so :class:`AsyncSocketTransport` can drive it
correct-but-serial. The CI equivalence gate runs the same seeded worlds
over all backends; results are byte-identical.

Both halves hide their machinery behind the synchronous ``Transport``
surface. The server's event loop runs on a daemon thread and, by
default, dispatches handlers inline on that loop: decode + registry
dispatch + encode are pure CPU under the GIL, so a thread pool buys no
parallelism but charges two cross-thread wake-ups per request (each
one costs up to a full GIL switch interval — profiled at ~1 ms per
hop on a busy box). ``handler_threads > 0`` restores the pool for
registries whose handlers block on real I/O. The client is a
direct-write multiplexer: calling threads frame and ``sendall()``
requests themselves under a write lock (no marshal into any loop), and
a single reader thread resolves completions by correlation id — two
thread hand-offs per call instead of the six a loop-brokered design
pays.
"""

from __future__ import annotations

import asyncio
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any

from repro.errors import DeadlineExceededError, ProtocolError, TransportError
from repro.protocol.codec import decode_message, encode_message
from repro.protocol.messages import DEFAULT_SHARE_BYTES, EndpointsRequest
from repro.protocol.service import raise_for_error
from repro.observability.tracing import record_span, span
from repro.protocol.transport import (
    _RETRY_SAFE,
    CORRELATION_FLAG,
    MAX_FRAME_BYTES,
    _LEN,
    _pack_request,
    _wire_trace,
    frame_bytes,
    handle_request_payload,
    request_trace,
    InProcessTransport,
    Transport,
)
from repro.resilience.admission import AdmissionController
from repro.resilience.deadline import Deadline, current_deadline
from repro.resilience.retry import RetryPolicy

#: Coalesce at most this many buffered response bytes into one write()
#: before letting the event loop breathe.
_WRITE_COALESCE_BYTES = 1 << 18

#: Server-side read() chunk size: big enough that one wake-up drains a
#: saturated connection's whole request backlog.
_READ_CHUNK_BYTES = 1 << 16


def _parse_frames(buffer: bytearray) -> list[tuple[int | None, bytes]]:
    """Consume every complete frame at the front of ``buffer``.

    Returns ``(correlation id | None, payload)`` per frame and deletes
    the consumed bytes; a trailing partial frame stays for the next
    chunk. Parsing from a chunk buffer instead of awaiting the stream
    field by field matters at saturation: one ``read()`` off a
    multiplexed connection delivers *many* small request frames, and
    this turns per-frame task wake-ups into one.
    """
    frames: list[tuple[int | None, bytes]] = []
    offset = 0
    size = len(buffer)
    word_len = _LEN.size
    while True:
        if size - offset < word_len:
            break
        (word,) = _LEN.unpack_from(buffer, offset)
        corr_id: int | None = None
        header = word_len
        length = word
        if word & CORRELATION_FLAG:
            if size - offset < 2 * word_len:
                break
            (corr_id,) = _LEN.unpack_from(buffer, offset + word_len)
            header = 2 * word_len
            length = word ^ CORRELATION_FLAG
        if length > MAX_FRAME_BYTES:
            raise ProtocolError(
                f"frame of {length} bytes exceeds the cap"
            )
        if size - offset < header + length:
            break
        start = offset + header
        frames.append((corr_id, bytes(buffer[start : start + length])))
        offset = start + length
    del buffer[:offset]
    return frames


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

    def stop(self) -> None:
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout=5)


class _ServerConnection:
    """Per-connection server state: reader, bounded queue, writer task."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        queue_frames: int,
        max_in_flight: int,
    ) -> None:
        self.reader = reader
        self.writer = writer
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=queue_frames)
        self.in_flight: set[asyncio.Task] = set()
        self.slots = asyncio.Semaphore(max_in_flight)
        self.writer_task: asyncio.Task | None = None


class AsyncSocketServer:
    """Serve an :class:`InProcessTransport` registry, pipelined, over TCP.

    One event loop accepts every connection; each correlated request
    is handled as its own task and its response rejoins the
    connection's bounded write queue as soon as it is ready — requests
    on one connection overlap instead of queueing behind each other.
    Handlers run inline on the loop by default (pure CPU under the
    GIL; see the module docstring) or on a small thread pool when
    ``handler_threads > 0``. Plain (uncorrelated) frames are served
    strictly in order, one at a time, exactly like the threaded
    server, so classic clients keep their response-ordering contract.

    Args:
        registry: the endpoint registry to serve.
        host / port: listener address (port 0 picks a free port; the
            bound address is in :attr:`address`).
        idle_timeout_s: close a connection after this long with no
            arriving frame and nothing in flight (None: never).
        max_in_flight: per-connection cap on concurrently dispatched
            requests; further frames wait in the kernel socket buffer,
            backpressuring the client.
        write_queue_frames: per-connection response queue bound.
        handler_threads: 0 (default) dispatches inline on the loop;
            > 0 runs handlers on a shared pool of that many threads
            (use when registry handlers block on real I/O).
        drain_timeout_s: how long close() waits for in-flight handlers
            and queued responses before dropping the connection anyway.
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
        max_in_flight: int = 128,
        write_queue_frames: int = 256,
        handler_threads: int = 0,
        drain_timeout_s: float = 5.0,
        max_pending: int | None = None,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        self._registry = registry
        self._idle_timeout_s = idle_timeout_s
        #: Optional observability registry the per-frame counters
        #: publish into (``zerber_server_frames_total`` et al.).
        self.metrics = metrics
        self._max_in_flight = max_in_flight
        self._write_queue_frames = write_queue_frames
        self._drain_timeout_s = drain_timeout_s
        self.admission = (
            None if max_pending is None else AdmissionController(max_pending)
        )
        #: Did the drain deadline pass with connections still open?
        self.drain_aborted = False
        self._pool: ThreadPoolExecutor | None = None
        if handler_threads > 0:
            self._pool = ThreadPoolExecutor(
                max_workers=handler_threads,
                thread_name_prefix="zerber-async-handler",
            )
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
            if self._pool is not None:
                self._pool.shutdown(wait=False)
            raise TransportError(
                f"cannot listen on {host}:{port}: {exc}"
            ) from exc
        self.address: tuple[str, int] = self._server.sockets[
            0
        ].getsockname()[:2]

    # -- request handling (runs on the dispatch pool) --------------------------

    def _handle(
        self,
        payload: bytes,
        packed: bool,
        received_at: float | None = None,
    ) -> bytes:
        """Decode, dispatch, encode — the whole CPU leg of one request."""
        response = handle_request_payload(
            self._registry,
            payload,
            received_at=received_at,
            admission=self.admission,
            metrics=self.metrics,
            transport_label="async-socket",
        )
        start = time.perf_counter()
        blob = encode_message(response, packed=packed)
        took = time.perf_counter() - start
        # Passive: a no-op unless the request frame carried a trace.
        record_span("encode", start, took, len(blob), request_trace(payload))
        return blob

    # -- connection lifecycle (runs on the loop) -------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        sock = writer.get_extra_info("socket")
        if sock is not None:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn = _ServerConnection(
            reader,
            writer,
            self._write_queue_frames,
            self._max_in_flight,
        )
        if self._closed:
            writer.close()
            return
        self._connections.add(conn)
        conn.writer_task = asyncio.get_running_loop().create_task(
            self._write_loop(conn)
        )
        try:
            await self._read_loop(conn)
        finally:
            await self._drain_connection(conn)

    async def _read_loop(self, conn: _ServerConnection) -> None:
        loop = asyncio.get_running_loop()
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
                        # Quiet with work still in flight is a client
                        # waiting on us, not a stall; only a connection
                        # with nothing pending in either direction is
                        # idle. (The cancelled read loses nothing: the
                        # stream re-buffers whatever arrived.)
                        if conn.in_flight or not conn.queue.empty():
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
            if self._pool is None:
                # Inline dispatch: answer every complete frame of this
                # chunk back to back, then enqueue the coalesced blob
                # as one item. Classic frames keep their strict
                # in-order contract because arrival order IS the
                # processing order here.
                out = bytearray()
                for corr_id, payload in frames:
                    out += frame_bytes(
                        self._handle(
                            payload, corr_id is not None, received_at
                        ),
                        corr_id,
                    )
                await conn.queue.put(bytes(out))
            else:
                for corr_id, payload in frames:
                    if corr_id is None:
                        # Classic frame: strict request/response
                        # order, one at a time — exactly the threaded
                        # server's contract.
                        blob = await loop.run_in_executor(
                            self._pool,
                            self._handle,
                            payload,
                            False,
                            received_at,
                        )
                        await conn.queue.put(frame_bytes(blob, None))
                    else:
                        await conn.slots.acquire()
                        task = loop.create_task(
                            self._serve_one(
                                conn, corr_id, payload, received_at
                            )
                        )
                        conn.in_flight.add(task)
                        task.add_done_callback(conn.in_flight.discard)

    async def _serve_one(
        self,
        conn: _ServerConnection,
        corr_id: int,
        payload: bytes,
        received_at: float,
    ) -> None:
        try:
            blob = await asyncio.get_running_loop().run_in_executor(
                self._pool, self._handle, payload, True, received_at
            )
            await conn.queue.put(frame_bytes(blob, corr_id))
        finally:
            conn.slots.release()

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
        """Finish what's in flight, flush the queue, then hang up."""
        self._connections.discard(conn)
        in_flight = list(conn.in_flight)
        if in_flight:
            await asyncio.wait(in_flight, timeout=self._drain_timeout_s)
        if conn.writer_task is not None:
            await conn.queue.put(None)
            try:
                await asyncio.wait_for(
                    conn.writer_task, self._drain_timeout_s
                )
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
        """Stop accepting, drain every connection, stop the loop."""
        if self._closed:
            return
        self._closed = True
        try:
            self._loop_thread.call(
                self._shutdown(), timeout_s=self._drain_timeout_s + 10
            )
        except Exception:  # pragma: no cover - teardown best effort
            pass
        self._loop_thread.stop()
        if self._pool is not None:
            self._pool.shutdown(wait=False)

    def drain(self, timeout_s: float | None = None) -> bool:
        """Graceful shutdown; True when every connection finished.

        Same close() sequence (stop accepting, let in-flight handlers
        and write queues drain, then drop what's left), optionally
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


class _PendingCall:
    """One in-flight request: the caller parks on the event."""

    __slots__ = ("event", "blob", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.blob: bytes | None = None
        self.error: Exception | None = None


class _ConnectionLost(Exception):
    """Internal marker: the shared connection died under a call."""


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
    """Multiplexing TCP client for the pipelined protocol revision.

    Any number of calling threads share **one** connection: each call
    frames its request with a fresh correlation id and hands it to the
    connection's group-commit write buffer (one elected caller flushes
    each batch with a single ``sendall`` — no hop through an event
    loop, no per-frame lock convoy), then parks on an event until the
    reader thread resolves it with the matching response frame. The
    cluster's fan-out pool no longer needs one socket per worker
    thread. Works against :class:`AsyncSocketServer` (pipelined) and
    the threaded ``SocketServer`` (serial but correct).

    Failure semantics mirror :class:`SocketTransport`: failures retry
    under a shared :class:`~repro.resilience.retry.RetryPolicy` (a
    broken connection is retryable for pure reads on a fresh
    connection, a typed retryable server rejection backs off for any
    request, writes whose response was lost fail fast), an ambient
    deadline rides the wire and caps the completion wait, a dead
    listener raises :class:`TransportError`, and ``close()``
    deterministically fails in-flight calls with the typed "transport
    is closed" message.
    """

    def __init__(
        self,
        address: tuple[str, int],
        share_bytes: int = DEFAULT_SHARE_BYTES,
        timeout_s: float = 30.0,
        connect_timeout_s: float = 5.0,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        self._address = (address[0], int(address[1]))
        self._share_bytes = share_bytes
        self._timeout_s = timeout_s
        self._connect_timeout_s = connect_timeout_s
        self._retry_policy = (
            retry_policy if retry_policy is not None else RetryPolicy()
        )
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
        if self._closed:
            raise TransportError("async socket transport is closed")
        read_safe = isinstance(request, _RETRY_SAFE)
        trace = _wire_trace()

        def attempt(_index: int) -> Any:
            deadline = current_deadline()
            budget_us = None
            if deadline is not None:
                deadline.check(f"call to {dst!r}")
                budget_us = deadline.budget_us()
            start = time.perf_counter()
            payload = _pack_request(
                dst, request, packed=True, budget_us=budget_us, trace=trace
            )
            took = time.perf_counter() - start
            record_span("encode", start, took, len(payload))
            try:
                with span(f"call:{dst}") as call_span:
                    blob = self._round_trip(payload, deadline)
                    call_span.wire_bytes = len(payload) + len(blob)
            except _ConnectionLost as exc:
                if self._closed:
                    raise TransportError(
                        "async socket transport is closed"
                    ) from exc
                error = TransportError(
                    f"async round-trip to {self._address[0]}:"
                    f"{self._address[1]} failed: {exc}"
                )
                # A lost pure read re-sends on a fresh connection; a
                # lost write may already have landed, so it fails fast.
                error.retryable = read_safe
                raise error from exc
            # Decode on the calling thread: concurrent callers decode
            # their own responses in parallel instead of serializing
            # on the reader thread.
            start = time.perf_counter()
            message = decode_message(blob)
            took = time.perf_counter() - start
            record_span("decode", start, took, len(blob))
            return raise_for_error(message)

        return self._retry_policy.run(attempt)

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
            call.error = TransportError(
                "async socket transport is closed"
            )
            call.event.set()
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

    def _round_trip(
        self, payload: bytes, deadline: Deadline | None = None
    ) -> bytes:
        sock, wstate = self._ensure_connection()
        call = _PendingCall()
        with self._lock:
            if self._closed:
                raise TransportError("async socket transport is closed")
            if self._conn is None or self._conn[0] is not sock:
                # The connection died between _ensure_connection and
                # here; registering against it would strand this call
                # past the drop's pending sweep.
                raise _ConnectionLost(
                    ConnectionResetError("connection dropped")
                )
            corr_id = self._next_corr
            self._next_corr = (self._next_corr + 1) & 0xFFFF_FFFF
            self._pending[corr_id] = call
        try:
            try:
                self._send_frame(
                    sock, wstate, frame_bytes(payload, corr_id)
                )
            except (ConnectionError, OSError) as exc:
                self._drop_connection(sock, exc)
                raise _ConnectionLost(exc) from exc
            # The completion wait is capped by the remaining deadline
            # budget: the response would be worthless after it anyway.
            wait_s = self._timeout_s
            if deadline is not None:
                wait_s = min(wait_s, max(deadline.remaining_s(), 1e-4))
            if not call.event.wait(wait_s):
                if deadline is not None and deadline.expired:
                    raise DeadlineExceededError(
                        f"no response from {self._address[0]}:"
                        f"{self._address[1]} within the deadline budget"
                    )
                raise TransportError(
                    f"async round-trip to {self._address[0]}:"
                    f"{self._address[1]} timed out "
                    f"after {self._timeout_s}s"
                )
            if call.error is not None:
                raise _ConnectionLost(call.error) from call.error
            assert call.blob is not None
            return call.blob
        finally:
            with self._lock:
                self._pending.pop(corr_id, None)

    def _send_frame(
        self,
        sock: socket.socket,
        wstate: _WriteState,
        frame: bytes,
    ) -> None:
        """Write one frame via the connection's group-commit buffer.

        A caller whose frame is shipped by another thread's flush just
        parks on its correlation event as usual; a flush failure fails
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
                    self._address, timeout=self._connect_timeout_s
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
                    if corr_id is None:
                        continue  # a plain frame here is a peer bug
                    with self._lock:
                        call = self._pending.pop(corr_id, None)
                    if call is not None:
                        call.blob = blob
                        call.event.set()
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
            call.error = exc
            call.event.set()
        try:
            sock.close()
        except OSError:  # pragma: no cover - already torn down
            pass
