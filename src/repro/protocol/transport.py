"""Pluggable transports: how protocol messages reach their endpoint.

Three interchangeable backends behind one :class:`Transport` contract:

- :class:`InProcessTransport` — endpoints are services in this process.
  When a :class:`~repro.server.transport.SimulatedNetwork` is attached,
  every call is routed through it with the *accounted* message sizes
  (:meth:`wire_bytes`), so the §7.3 latency/byte ledger — and therefore
  every historical benchmark number — is preserved bit for bit. Without
  a network, dispatch is a plain function call (the read hot path).
- :class:`SocketTransport` / :class:`SocketServer` — real TCP, real
  bytes. Frames are length-prefixed codec messages; each client thread
  keeps a persistent connection, so the cluster's thread-pooled fan-out
  overlaps genuine network latency with reconstruction CPU. Server-side
  failures travel as ``ErrorResponse`` frames and re-raise client-side
  as the same :mod:`repro.errors` class.
- :class:`~repro.protocol.async_transport.AsyncSocketServer` /
  :class:`~repro.protocol.async_transport.AsyncSocketTransport`
  (``repro.protocol.async_transport``) — the pipelined revision: one
  asyncio connection multiplexes many in-flight requests via the
  correlated frame form (:data:`CORRELATION_FLAG`), with bounded
  per-connection write queues and graceful drain on close. Correlated
  frames also negotiate the packed message encodings; plain frames
  keep parsing everywhere, so the revisions interoperate in both
  directions.

The contract both backends honour, and any future backend (async,
shared-memory, ...) must too:

- ``call(src, dst, request)`` returns the response message or raises
  the failure the server raised; a dead or missing endpoint raises
  :class:`~repro.errors.TransportError`
  (:class:`~repro.errors.UnknownEndpointError` when the name itself is
  unknown — the kill-pod race), which the cluster failover ladder
  absorbs identically on every backend;
- responses are byte-identical across backends for identical stores —
  the CI equivalence gate runs the same seeds over both.
"""

from __future__ import annotations

import socket
import struct
import threading
import time
from typing import Any, Callable

from repro.errors import (
    DeadlineExceededError,
    ProtocolError,
    ReproError,
    TransportError,
    UnknownEndpointError,
)
from repro.protocol.codec import decode_message, encode_message
from repro.protocol.messages import (
    DEFAULT_SHARE_BYTES,
    CacheGetRequest,
    CacheInvalidateRequest,
    CacheStatsRequest,
    EndpointsRequest,
    EndpointsResponse,
    ErrorResponse,
    ExportListRequest,
    FetchListsRequest,
    FetchSnippetRequest,
    MetricsDumpRequest,
    ServerStatusRequest,
    ShipSnapshotRequest,
)
from repro.protocol.service import error_response, raise_for_error
# Submodule import (not the repro.observability package __init__) for
# the same cycle-avoidance reason as the resilience imports below.
from repro.observability.tracing import (
    TraceContext,
    current_trace,
    record_span,
    span,
    trace_scope,
)
# Submodule imports on purpose: the repro.resilience *package* pulls in
# the chaos harness, which imports this module back.
from repro.resilience.admission import AdmissionController
from repro.resilience.deadline import (
    Deadline,
    check_deadline,
    current_deadline,
    deadline_scope,
)
from repro.resilience.retry import RetryPolicy
from repro.server.transport import SimulatedNetwork

#: A frame longer than this is garbage (or hostile), not a message.
MAX_FRAME_BYTES = 1 << 26  # 64 MiB

#: Requests a broken connection may safely re-send: pure reads. A write
#: (insert/delete/adopt/drop) whose response frame was lost may already
#: have been applied — re-sending it would double-apply server-side
#: bookkeeping (e.g. the §5.4.1 update log the correlation experiments
#: read), so writes fail fast instead and the caller's failover /
#: re-provisioning machinery decides.
_RETRY_SAFE = (
    FetchListsRequest,
    FetchSnippetRequest,
    ExportListRequest,
    ShipSnapshotRequest,
    ServerStatusRequest,
    EndpointsRequest,
    # Cache-tier reads are pure; invalidation is idempotent (evicting an
    # already-evicted list is a no-op), so re-sending it is safe. A
    # CachePut is *not* retry-safe by policy: a lost put only costs a
    # future miss, so it fails fast like every other write.
    CacheGetRequest,
    CacheStatsRequest,
    CacheInvalidateRequest,
    # A metrics dump is a pure read of counters and gauges.
    MetricsDumpRequest,
)

_LEN = struct.Struct(">I")

#: High bit of the length prefix: this frame carries a 4-byte
#: correlation id between the length word and the payload. Frame
#: lengths are capped at :data:`MAX_FRAME_BYTES` (1 << 26), so the top
#: bits of the length word are free by construction — a classic peer
#: that sees the flag rejects the "oversized" frame with a typed
#: :class:`ProtocolError` instead of misparsing it, and plain frames
#: parse unchanged everywhere. Correlated frames are how the pipelined
#: protocol revision is negotiated: a request that carries a
#: correlation id states that its sender multiplexes (responses may
#: return out of order, matched by id) and accepts the packed message
#: encodings (:func:`repro.protocol.codec.encode_message` with
#: ``packed=True``).
CORRELATION_FLAG = 0x8000_0000

#: Second-highest bit, but of the *request envelope's* name-length word
#: (inside the frame payload, see :func:`_pack_request`): the endpoint
#: name is followed by a 4-byte big-endian **remaining deadline budget
#: in microseconds**. Same negotiation story as the correlation flag —
#: endpoint names can never be anywhere near :data:`MAX_FRAME_BYTES`
#: long, so on a classic peer the flagged word reads as an absurd name
#: length and the request is rejected with the typed "truncated inside
#: endpoint name" :class:`ProtocolError` (shipped back as an
#: ``ErrorResponse``), never misparsed; deadline-free requests are
#: byte-identical to the previous revision everywhere. The budget is
#: relative, not an absolute instant: wall clocks don't agree across
#: machines, and losing the transit time only makes the server side
#: *more* conservative about a deadline it would enforce anyway.
DEADLINE_FLAG = 0x4000_0000

#: Third-highest bit of the request envelope's name-length word: the
#: request carries a trace context — an **8-byte big-endian trace id
#: plus a 2-byte big-endian hop counter** — after the endpoint name
#: and after the optional deadline budget (both flags may be set).
#: Negotiation is the deadline story again: the flag makes the word an
#: absurd name length on a classic peer, which rejects the frame with
#: the typed "truncated inside endpoint name" :class:`ProtocolError`
#: rather than misparse it, and untraced requests stay byte-identical
#: to the previous revision. The context is *passive*: a server
#: restores it around dispatch so its span lands under the right trace
#: id, but no routing, retry, or response byte ever depends on it —
#: that is how tracing preserves the byte-identity invariant.
TRACE_FLAG = 0x2000_0000

#: The wire form of a trace context: trace id (8) + hop counter (2).
_TRACE = struct.Struct(">QH")


def _wire_trace() -> tuple[int, int] | None:
    """The ambient trace as ``(trace_id, next hop)`` for the wire."""
    trace = current_trace()
    if trace is None:
        return None
    advanced = trace.next_hop()
    return advanced.trace_id, advanced.hop


class Transport:
    """Where protocol messages go. See the module docstring for the laws."""

    def call(self, src: str, dst: str, request: Any) -> Any:
        raise NotImplementedError

    def has_endpoint(self, name: str) -> bool:
        raise NotImplementedError

    def endpoints(self) -> list[str]:
        raise NotImplementedError

    def close(self) -> None:  # idempotent everywhere
        pass

    def __enter__(self) -> "Transport":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class InProcessTransport(Transport):
    """Endpoint registry dispatching to services in this process.

    Args:
        network: optional :class:`SimulatedNetwork`. When given, every
            call is charged against it (same endpoint names, same
            message kinds, same accounted sizes as the pre-protocol
            code), and endpoints are mirrored into its registry.
        share_bytes: wire width of one share for the accounted sizes.
        resolver: optional fallback ``name -> service | None``. Lets a
            standalone client resolve a fleet that grows after the
            transport was built (``ZerberDeployment.add_server``).
    """

    def __init__(
        self,
        network: SimulatedNetwork | None = None,
        share_bytes: int = DEFAULT_SHARE_BYTES,
        resolver: Callable[[str], Any] | None = None,
    ) -> None:
        self._services: dict[str, Any] = {}
        self._network = network
        self._share_bytes = share_bytes
        self._resolver = resolver

    @property
    def network(self) -> SimulatedNetwork | None:
        return self._network

    # -- registry -------------------------------------------------------------

    def register(self, name: str, service: Any) -> None:
        """Attach one endpoint (anything with ``handle(request)``)."""
        if name in self._services:
            raise TransportError(f"endpoint {name!r} already registered")
        self._services[name] = service
        if self._network is not None and not self._network.has_endpoint(name):
            self._network.register(name, _network_adapter(service))

    def unregister(self, name: str) -> None:
        """Drop one endpoint (a retired seat leaves the transport)."""
        if name not in self._services:
            raise UnknownEndpointError(
                name, f"endpoint {name!r} is not registered"
            )
        del self._services[name]
        if self._network is not None and self._network.has_endpoint(name):
            self._network.unregister(name)

    def has_endpoint(self, name: str) -> bool:
        return name in self._services

    def endpoints(self) -> list[str]:
        return sorted(self._services)

    def _resolve(self, name: str) -> Any:
        service = self._services.get(name)
        if service is None and self._resolver is not None:
            service = self._resolver(name)
            if service is not None:
                self.register(name, service)
        if service is None:
            raise UnknownEndpointError(name)
        return service

    # -- dispatch ------------------------------------------------------------

    def call(self, src: str, dst: str, request: Any) -> Any:
        # In-process there is no wire to carry a budget: caller and
        # service share the thread, so the ambient deadline *is* the
        # propagated one. Enforce it at the same point the socket
        # servers do — before dispatch.
        check_deadline(f"call to {dst!r}")
        service = self._resolve(dst)
        if self._network is not None:
            share_bytes = self._share_bytes
            return self._network.call(
                src,
                dst,
                request.kind,
                request,
                request_bytes=request.wire_bytes(share_bytes),
                response_bytes_of=lambda r: r.wire_bytes(share_bytes),
            )
        return service.handle(request)

    def dispatch_local(self, dst: str, request: Any) -> Any:
        """Hand a request straight to the service, no network accounting.

        The socket server uses this: its bytes are real, charging the
        simulated ledger on top would double-count.
        """
        return self._resolve(dst).handle(request)


def _network_adapter(service: Any) -> Callable[[str, Any], Any]:
    """A :class:`SimulatedNetwork` handler fronting one service."""

    def handler(_kind: str, message: Any) -> Any:
        return service.handle(message)

    return handler


# -- sockets -----------------------------------------------------------------


def handle_request_payload(
    registry: InProcessTransport,
    payload: bytes,
    received_at: float | None = None,
    admission: AdmissionController | None = None,
    metrics: "MetricsRegistry | None" = None,
    transport_label: str = "socket",
) -> Any:
    """One server-side request leg: unpack, dispatch, never raise.

    Shared by the threaded and async socket servers — every failure
    (including a non-Repro bug inside a service) comes back as a typed
    :class:`ErrorResponse` so the client sees "server broke", not "seat
    is dead" (which would trigger failover, or a retry for reads).

    A request carrying a wire deadline budget (:data:`DEADLINE_FLAG`)
    is checked *before* dispatch — an already-expired request is pure
    wasted work (its caller has given up) and comes back as a typed
    ``DeadlineExceededError`` instead. ``received_at`` is the monotonic
    instant the frame finished arriving: queueing time between read and
    dispatch counts against the budget, exactly the delay an overloaded
    server adds. When an ``admission`` controller is given, dispatch
    concurrency beyond its bound is shed as a typed retryable
    ``OverloadedError`` rather than queued into latency collapse.
    When a ``metrics`` registry is given, the server's frame and byte
    counters publish into it, labelled by ``transport_label``.
    """
    if metrics is not None:
        metrics.counter(
            "zerber_server_frames_total", transport=transport_label
        ).inc()
        metrics.counter(
            "zerber_server_request_bytes_total", transport=transport_label
        ).inc(len(payload))
    try:
        decode_start = time.perf_counter()
        dst, request, budget_us, wire_trace = _unpack_request(payload)
        decode_s = time.perf_counter() - decode_start
        deadline: Deadline | None = None
        if budget_us is not None:
            start = (
                received_at if received_at is not None else time.monotonic()
            )
            deadline = Deadline(start + budget_us / 1e6)
            deadline.check(f"request for {dst!r}")
        # Restore the wire trace context (if any) around dispatch so
        # the server-side span lands under the caller's trace id at
        # the hop the caller stamped. Passive: nothing below routes,
        # retries, or encodes differently because a trace is present.
        trace = (
            TraceContext(trace_id=wire_trace[0], hop=wire_trace[1])
            if wire_trace is not None
            else None
        )
        # No-op without a trace (a server thread has no ambient one).
        record_span("decode", decode_start, decode_s, len(payload), trace)
        if isinstance(request, EndpointsRequest):
            return EndpointsResponse(names=tuple(registry.endpoints()))
        if admission is not None:
            admission.admit(f"request for {dst!r}")
            try:
                with deadline_scope(deadline=deadline), trace_scope(
                    trace=trace
                ), span(f"server:{dst}") as server_span:
                    server_span.wire_bytes = len(payload)
                    return registry.dispatch_local(dst, request)
            finally:
                admission.release()
        with deadline_scope(deadline=deadline), trace_scope(
            trace=trace
        ), span(f"server:{dst}") as server_span:
            server_span.wire_bytes = len(payload)
            return registry.dispatch_local(dst, request)
    except ReproError as exc:
        return error_response(exc)
    except Exception as exc:  # noqa: BLE001 - a server bug must not
        # kill the connection silently.
        return ErrorResponse(
            error="ReproError",
            message=f"internal server error: "
            f"{type(exc).__name__}: {exc}",
        )


def _read_exact(sock: socket.socket, length: int) -> bytes:
    chunks = bytearray()
    while len(chunks) < length:
        chunk = sock.recv(length - len(chunks))
        if not chunk:
            raise ConnectionError("peer closed the connection mid-frame")
        chunks.extend(chunk)
    return bytes(chunks)


def _read_frame(sock: socket.socket) -> tuple[int | None, bytes]:
    """One frame off the wire: ``(correlation id | None, payload)``."""
    (word,) = _LEN.unpack(_read_exact(sock, _LEN.size))
    corr_id: int | None = None
    length = word
    if word & CORRELATION_FLAG:
        length = word ^ CORRELATION_FLAG
        (corr_id,) = _LEN.unpack(_read_exact(sock, _LEN.size))
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {length} bytes exceeds the cap")
    return corr_id, _read_exact(sock, length)


def _write_frame(
    sock: socket.socket, payload: bytes, corr_id: int | None = None
) -> None:
    sock.sendall(frame_bytes(payload, corr_id))


def frame_bytes(payload: bytes, corr_id: int | None = None) -> bytes:
    """A complete wire frame: length word (+ correlation id) + payload."""
    if corr_id is None:
        return _LEN.pack(len(payload)) + payload
    return (
        _LEN.pack(len(payload) | CORRELATION_FLAG)
        + _LEN.pack(corr_id)
        + payload
    )


def _pack_request(
    dst: str,
    request: Any,
    packed: bool = False,
    budget_us: int | None = None,
    trace: tuple[int, int] | None = None,
) -> bytes:
    name = dst.encode("utf-8")
    word = len(name)
    tail = b""
    if budget_us is not None:
        word |= DEADLINE_FLAG
        tail += _LEN.pack(budget_us)
    if trace is not None:
        word |= TRACE_FLAG
        trace_id, hop = trace
        tail += _TRACE.pack(trace_id, hop)
    return (
        _LEN.pack(word) + name + tail + encode_message(request, packed=packed)
    )


def _unpack_envelope(
    payload: bytes,
) -> tuple[str, int | None, tuple[int, int] | None, int]:
    """``(dst, remaining budget µs | None, (trace id, hop) | None,
    message offset)`` off one request frame."""
    if len(payload) < _LEN.size:
        raise ProtocolError("request frame shorter than its name header")
    (word,) = _LEN.unpack(payload[: _LEN.size])
    has_deadline = bool(word & DEADLINE_FLAG)
    has_trace = bool(word & TRACE_FLAG)
    name_len = word & ~(DEADLINE_FLAG | TRACE_FLAG)
    body_start = _LEN.size + name_len
    if name_len > MAX_FRAME_BYTES or body_start > len(payload):
        raise ProtocolError("request frame truncated inside endpoint name")
    try:
        dst = payload[_LEN.size : body_start].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError("endpoint name is not valid UTF-8") from exc
    budget_us: int | None = None
    if has_deadline:
        budget_end = body_start + _LEN.size
        if budget_end > len(payload):
            raise ProtocolError(
                "request frame truncated inside deadline budget"
            )
        (budget_us,) = _LEN.unpack(payload[body_start:budget_end])
        body_start = budget_end
    trace: tuple[int, int] | None = None
    if has_trace:
        trace_end = body_start + _TRACE.size
        if trace_end > len(payload):
            raise ProtocolError(
                "request frame truncated inside trace context"
            )
        trace = _TRACE.unpack(payload[body_start:trace_end])
        body_start = trace_end
    return dst, budget_us, trace, body_start


def _unpack_request(
    payload: bytes,
) -> tuple[str, Any, int | None, tuple[int, int] | None]:
    """``(dst, request, remaining budget µs | None, (trace id, hop) |
    None)`` off one frame."""
    dst, budget_us, trace, body_start = _unpack_envelope(payload)
    return dst, decode_message(payload[body_start:]), budget_us, trace


def request_trace(payload: bytes) -> TraceContext | None:
    """The trace context a request frame carries (None: untraced, or
    too mangled to say), for the span of the response's encode."""
    if len(payload) < _LEN.size or not payload[0] & (TRACE_FLAG >> 24):
        return None
    try:
        return TraceContext(*_unpack_envelope(payload)[2])
    except ProtocolError:
        return None


class SocketServer:
    """Serve an :class:`InProcessTransport` registry over loopback/LAN TCP.

    One accept thread plus one thread per connection (clients keep
    persistent per-thread connections, so the thread count tracks
    client-side concurrency, not request volume). ``repro serve`` wraps
    this; deployments constructed with ``transport="socket"`` embed it.

    Finished handler threads prune themselves from the census as their
    connection closes, so connection churn cannot grow the thread list
    without bound, and ``idle_timeout_s`` (when set) closes connections
    that go quiet — a stalled or half-open client no longer pins a
    handler thread forever. Requests that arrive as *correlated* frames
    (the pipelined revision's form) are answered with the same
    correlation id and the packed message encoding; this server handles
    them one at a time per connection, so a multiplexing client gets
    correct-but-serial service from the threaded backend.
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
        #: Bounded-dispatch gate (None: admit everything, the
        #: historical behaviour every byte-identity gate assumes).
        self.admission = (
            None if max_pending is None else AdmissionController(max_pending)
        )
        self._listener = socket.create_server(
            (host, port), reuse_port=False
        )
        # A blocked accept() does not reliably wake when another thread
        # closes the listener; poll with a short timeout instead so
        # close() always reaps the accept thread.
        self._listener.settimeout(0.1)
        self.address: tuple[str, int] = self._listener.getsockname()[:2]
        self._closed = threading.Event()
        self._draining = threading.Event()
        #: Did a drain() give up on in-flight requests? (``repro
        #: serve`` exits nonzero when so.)
        self.drain_aborted = False
        self._lock = threading.Lock()
        self._in_flight = 0
        self._connections: set[socket.socket] = set()
        self._threads: list[threading.Thread] = []
        self._accept_thread = threading.Thread(
            target=self._accept_loop,
            name=f"zerber-socket-accept-{self.address[1]}",
            daemon=True,
        )
        self._accept_thread.start()

    def _accept_loop(self) -> None:
        while not self._closed.is_set():
            try:
                conn, _peer = self._listener.accept()
            except TimeoutError:
                continue
            except OSError:
                return  # listener closed
            # None (the default) keeps the historical block-forever
            # behaviour; a configured idle timeout turns a quiet
            # connection's next read into a TimeoutError, which the
            # handler treats as "hang up on this client".
            conn.settimeout(self._idle_timeout_s)
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._lock:
                if self._closed.is_set():
                    conn.close()
                    return
                self._connections.add(conn)
                thread = threading.Thread(
                    target=self._serve_connection,
                    args=(conn,),
                    name=f"zerber-socket-conn-{self.address[1]}",
                    daemon=True,
                )
                self._threads.append(thread)
            thread.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            while not self._closed.is_set() and not self._draining.is_set():
                try:
                    corr_id, payload = _read_frame(conn)
                except TimeoutError:
                    # The configured idle timeout expired with no frame
                    # (or mid-frame from a stalled sender): hang up so
                    # a half-open client cannot pin this thread.
                    return
                except (ConnectionError, OSError):
                    return
                except ProtocolError:
                    # A garbage length prefix desynchronizes the frame
                    # stream — nothing sane can follow; drop the
                    # connection rather than parse noise forever.
                    return
                received_at = time.monotonic()
                with self._lock:
                    self._in_flight += 1
                try:
                    response = self._handle(payload, received_at)
                    try:
                        _write_frame(
                            conn,
                            encode_message(
                                response, packed=corr_id is not None
                            ),
                            corr_id,
                        )
                    except OSError:
                        return
                finally:
                    with self._lock:
                        self._in_flight -= 1
        finally:
            with self._lock:
                self._connections.discard(conn)
                # Reap this connection's census entry: the thread is
                # done the moment this frame exits, and close() joins
                # a live snapshot anyway. Without this the list grows
                # by one thread per connection ever accepted.
                try:
                    self._threads.remove(threading.current_thread())
                except ValueError:  # pragma: no cover - close() raced us
                    pass
            conn.close()

    @property
    def connection_thread_count(self) -> int:
        """Live connection-handler threads (the leak-regression probe)."""
        with self._lock:
            return len(self._threads)

    def _handle(
        self, payload: bytes, received_at: float | None = None
    ) -> Any:
        return handle_request_payload(
            self._registry,
            payload,
            received_at=received_at,
            admission=self.admission,
            metrics=self.metrics,
            transport_label="socket",
        )

    @property
    def in_flight(self) -> int:
        """Requests currently dispatched (the drain gauge)."""
        with self._lock:
            return self._in_flight

    def drain(self, timeout_s: float = 5.0) -> bool:
        """Graceful shutdown: stop accepting, finish in-flight, close.

        New connections and further frames on existing connections are
        refused immediately; requests already dispatched get up to
        ``timeout_s`` to answer. Returns True on a clean drain; on
        timeout, sets :attr:`drain_aborted` and force-closes (the
        ``repro serve`` SIGTERM path exits nonzero then).
        """
        self._draining.set()
        self._listener.close()
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            with self._lock:
                if self._in_flight == 0:
                    break
            time.sleep(0.005)
        with self._lock:
            self.drain_aborted = self._in_flight > 0
        self.close()
        return not self.drain_aborted

    def close(self) -> None:
        """Stop accepting, drop every connection, join the threads."""
        if self._closed.is_set():
            return
        self._closed.set()
        self._listener.close()
        with self._lock:
            connections = list(self._connections)
            threads = list(self._threads)
        for conn in connections:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            conn.close()
        self._accept_thread.join(timeout=5)
        for thread in threads:
            thread.join(timeout=5)

    def __enter__(self) -> "SocketServer":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class SocketTransport(Transport):
    """TCP client for a :class:`SocketServer` (or ``repro serve``).

    Each calling thread keeps one persistent connection (the parallel
    pod fan-out therefore multiplexes over as many connections as the
    dispatcher has workers). Failures retry under a shared
    :class:`~repro.resilience.retry.RetryPolicy`: a broken connection
    is retryable for pure reads (a restarted server looks like one
    lost round-trip, not a failed query), a typed retryable server
    rejection (``OverloadedError``) backs off for any request kind, and
    everything else — including a write whose response was lost —
    fails fast. An ambient deadline rides the wire as a shrinking
    budget and caps every socket wait.
    """

    def __init__(
        self,
        address: tuple[str, int],
        share_bytes: int = DEFAULT_SHARE_BYTES,
        timeout_s: float = 30.0,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        self._address = (address[0], int(address[1]))
        self._share_bytes = share_bytes
        self._timeout_s = timeout_s
        self._retry_policy = (
            retry_policy if retry_policy is not None else RetryPolicy()
        )
        self._local = threading.local()
        self._lock = threading.Lock()
        self._sockets: set[socket.socket] = set()
        self._closed = False

    @property
    def address(self) -> tuple[str, int]:
        return self._address

    def _connection(self) -> socket.socket:
        sock = getattr(self._local, "sock", None)
        if sock is None:
            if self._closed:
                raise TransportError("socket transport is closed")
            try:
                sock = socket.create_connection(
                    self._address, timeout=self._timeout_s
                )
            except OSError as exc:
                raise TransportError(
                    f"cannot connect to {self._address[0]}:"
                    f"{self._address[1]}: {exc}"
                ) from exc
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._lock:
                if self._closed:
                    # close() swept the socket set while we were
                    # connecting; a socket registered now would leak
                    # (nobody will sweep again) and the call must see
                    # the deterministic "closed" failure, not a
                    # spurious broken-connection retry.
                    sock.close()
                    raise TransportError("socket transport is closed")
                self._sockets.add(sock)
            self._local.sock = sock
        return sock

    def _drop_connection(self) -> None:
        sock = getattr(self._local, "sock", None)
        if sock is not None:
            with self._lock:
                self._sockets.discard(sock)
            sock.close()
            self._local.sock = None

    def _round_trip(
        self,
        payload: bytes,
        read_safe: bool,
        deadline: Deadline | None,
    ) -> bytes:
        """One send + receive; raises a classified :mod:`repro.errors`."""
        sock = self._connection()
        # Never wait past the caller's deadline: the per-round-trip
        # socket timeout is the transport ceiling or the remaining
        # budget, whichever is tighter.
        wait_s = self._timeout_s
        if deadline is not None:
            wait_s = min(wait_s, max(deadline.remaining_s(), 1e-4))
        try:
            sock.settimeout(wait_s)
            _write_frame(sock, payload)
            _corr, frame = _read_frame(sock)
            return frame
        except (ConnectionError, OSError) as exc:
            # A timed-out or broken round trip leaves an unknown amount
            # of a frame in the stream — the connection cannot be
            # reused either way.
            self._drop_connection()
            if (
                isinstance(exc, TimeoutError)
                and deadline is not None
                and deadline.expired
            ):
                raise DeadlineExceededError(
                    f"no response from {self._address[0]}:"
                    f"{self._address[1]} within the deadline budget"
                ) from exc
            if self._closed:
                # close() yanked this socket out from under a call
                # already in flight. Without this check the caller
                # saw a spurious retry (for reads) or a misleading
                # "round-trip failed" — the deterministic outcome
                # is the same typed "closed" failure a fresh call
                # gets.
                raise TransportError(
                    "socket transport is closed"
                ) from exc
            error = TransportError(
                f"socket round-trip to {self._address[0]}:"
                f"{self._address[1]} failed: {exc}"
            )
            # Only pure reads are re-sent over a fresh connection: a
            # write whose response was lost may already have landed,
            # and at-least-once writes are a semantics change nothing
            # upstream accounts for.
            error.retryable = read_safe
            raise error from exc

    def call(self, src: str, dst: str, request: Any) -> Any:
        read_safe = isinstance(request, _RETRY_SAFE)
        trace = _wire_trace()

        def attempt(_index: int) -> Any:
            deadline = current_deadline()
            budget_us = None
            if deadline is not None:
                deadline.check(f"call to {dst!r}")
                budget_us = deadline.budget_us()
            payload = _pack_request(
                dst, request, budget_us=budget_us, trace=trace
            )
            with span(f"call:{dst}") as call_span:
                frame = self._round_trip(payload, read_safe, deadline)
                call_span.wire_bytes = len(payload) + len(frame)
            return raise_for_error(decode_message(frame))

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
        self._closed = True
        with self._lock:
            sockets = list(self._sockets)
            self._sockets.clear()
        for sock in sockets:
            sock.close()
        self._local = threading.local()
