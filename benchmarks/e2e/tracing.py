"""Per-layer spans recorded from outside the program.

The traced pass wraps each layer's public functions at run time and
takes them off again afterwards; nothing under ``src/`` knows. A method
is wrapped on its class. A module-level function that other modules
imported by name (``encode_message``) is rebound in every loaded
``repro`` module whose global *is* the original.

A span is (name, start, end, parent, op, thread). The parent comes from
a per-thread stack; ``op`` is the id of the single query, write batch
or drill operation in flight, set by the harness, which is also how a
span on the server's thread finds the request that caused it. Calls
made once per posting element (``unpack``, ``pack``, ``split``) would
be half a million spans a round, so they are *leaf* wraps: timed and
counted into their parent span, not recorded one by one. A layer's self
time is its span minus its child spans and leaves.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
from collections import defaultdict
from typing import Callable

#: span name, module, dotted attribute; "leaf" marks a per-element call.
_TARGET_TABLE = """
client.search                    repro.client.searcher           SearchClient.search
client.fetch_elements            repro.client.searcher           SearchClient.fetch_elements
client.share_document            repro.client.owner              DocumentOwner.share_document
client.flush_updates             repro.client.owner              DocumentOwner.flush_updates
client.delete_document           repro.client.owner              DocumentOwner.delete_document
secretsharing.reconstruct_batch  repro.secretsharing.shamir      ShamirScheme.reconstruct_batch
secretsharing.split              repro.secretsharing.shamir      ShamirScheme.split                  leaf
secretsharing.split              repro.secretsharing.shamir      ShamirScheme.split_many
core.unpack                      repro.core.posting              PostingElementCodec.unpack          leaf
core.pack                        repro.core.posting              PostingElementCodec.pack            leaf
ranking.topk                     repro.ranking.threshold         threshold_top_k
cluster.read_route               repro.cluster.coordinator       ClusterCoordinator.read_replicas
cluster.read_route               repro.cluster.coordinator       ClusterCoordinator.group_by_pod
cluster.write_route              repro.cluster.coordinator       ClusterCoordinator.route
cluster.invalidate_list          repro.cluster.coordinator       ClusterCoordinator.invalidate_list
protocol.encode                  repro.protocol.codec            encode_message
protocol.decode                  repro.protocol.codec            decode_message
protocol.call                    repro.protocol.transport        InProcessTransport.call
protocol.call                    repro.protocol.async_transport  AsyncSocketTransport.call
server.handle                    repro.protocol.service          IndexServerService.handle
server.get_lists                 repro.server.index_server       IndexServer.get_posting_lists
server.insert_batch              repro.server.index_server       IndexServer.insert_batch
server.delete                    repro.server.index_server       IndexServer.delete
cachetier.l1_get                 repro.cachetier.l1              L1PostingCache.get
cachetier.l1_put                 repro.cachetier.l1              L1PostingCache.put
cachetier.l1_invalidate          repro.cachetier.l1              L1PostingCache.invalidate
cachetier.l2_get                 repro.cachetier.store           CacheTierStore.get
cachetier.l2_put                 repro.cachetier.store           CacheTierStore.put
cachetier.l2_invalidate          repro.cachetier.store           CacheTierStore.invalidate
storage.append                   repro.storage.engine            SegmentedStore.append_inserts
storage.append                   repro.storage.engine            SegmentedStore.append_deletes
storage.compact                  repro.storage.engine            SegmentedStore.compact
storage.replay                   repro.storage.engine            SegmentedStore.replay
storage.segment_write            repro.storage.segment           SegmentWriter.append
storage.snapshot_encode          repro.storage.snapshot          snapshot_bytes
storage.snapshot_parse           repro.storage.snapshot          parse_snapshot_bytes
resilience.retry                 repro.resilience.retry          RetryPolicy.pause_before_retry
"""
#: (span name, module, dotted attribute, leaf)
TARGETS = tuple(
    (row[0], row[1], row[2], row[3:] == ["leaf"])
    for row in (line.split() for line in _TARGET_TABLE.strip().splitlines())
)


class Span:
    __slots__ = (
        "name", "start", "end", "parent", "op", "thread", "leaves", "size"
    )

    def __init__(self, name, start, parent, op, thread):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.thread = thread
        #: leaf name -> [calls, seconds]
        self.leaves = None
        #: what the call moved (see SIZE_OF)
        self.size = 0


#: Span name -> what the call moved, from its arguments and result:
#: bytes for codec and storage calls, share records for a lookup.
SIZE_OF = {
    "protocol.encode": lambda args, result: len(result),
    "protocol.decode": lambda args, result: len(args[-1]),
    "storage.segment_write": lambda args, result: len(args[-1]),
    "storage.snapshot_encode": lambda args, result: len(result),
    "server.get_lists": lambda args, result: sum(
        len(response.records) for response in result
    ),
}


class Tracer:
    """Installs the wraps, collects spans, removes the wraps."""

    def __init__(self, clock: Callable[[], float]) -> None:
        self._clock = clock
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []
        self.spans: list[Span] = []
        #: The operation in flight (the harness sets it; None = untimed
        #: work such as the oracle, whose spans are dropped).
        self.op: int | None = None
        self.client_thread = threading.get_ident()
        self._adopted = 0

    # -- install / remove ----------------------------------------------------

    def install(self) -> None:
        for name, module_name, path, leaf in TARGETS:
            module = importlib.import_module(module_name)
            owner, _, attribute = path.rpartition(".")
            if owner:
                self._wrap_method(
                    getattr(module, owner), attribute, name, leaf
                )
            else:
                self._wrap_function(module, attribute, name, leaf)

    def remove(self) -> None:
        while self._undo:
            holder, attribute, original = self._undo.pop()
            setattr(holder, attribute, original)

    def _wrap_method(self, cls, attribute, name, leaf) -> None:
        original = cls.__dict__[attribute]
        if isinstance(original, (staticmethod, classmethod, property)):
            raise TypeError(f"{cls.__name__}.{attribute} is not a plain method")
        self._undo.append((cls, attribute, original))
        setattr(cls, attribute, self._wrapper(name, original, leaf))

    def _wrap_function(self, module, attribute, name, leaf) -> None:
        original = getattr(module, attribute)
        wrapper = self._wrapper(name, original, leaf)
        for other in list(sys.modules.values()):
            if other is None or not getattr(other, "__name__", "").startswith(
                "repro"
            ):
                continue
            for key, value in list(vars(other).items()):
                if value is original:
                    self._undo.append((other, key, original))
                    setattr(other, key, wrapper)

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrapper(self, name: str, original, leaf: bool):
        clock = self._clock
        get_stack = self._stack
        spans = self.spans

        if leaf:

            def leaf_wrapper(*args, **kwargs):
                stack = get_stack()
                if not stack:
                    return original(*args, **kwargs)
                start = clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    parent = stack[-1]
                    if parent.leaves is None:
                        parent.leaves = {}
                    tally = parent.leaves.get(name)
                    if tally is None:
                        parent.leaves[name] = [1, elapsed]
                    else:
                        tally[0] += 1
                        tally[1] += elapsed

            return leaf_wrapper

        size_of = SIZE_OF.get(name)

        def span_wrapper(*args, **kwargs):
            op = self.op
            if op is None:
                return original(*args, **kwargs)
            stack = get_stack()
            record = Span(
                name,
                clock(),
                stack[-1] if stack else None,
                op,
                threading.get_ident(),
            )
            stack.append(record)
            try:
                result = original(*args, **kwargs)
                if size_of is not None:
                    record.size = size_of(args, result)
                return result
            finally:
                record.end = clock()
                stack.pop()
                spans.append(record)

        return span_wrapper

    # -- analysis ------------------------------------------------------------

    def _adopt(self) -> None:
        """Adopt orphans among the spans recorded since the last call."""
        adopt_orphans(self.spans[self._adopted :], self.client_thread)
        self._adopted = len(self.spans)

    def totals(self, factor_of_op: dict[int, float]) -> "Totals":
        """Sums over the spans of the operations ``factor_of_op`` names."""
        self._adopt()
        return Totals(
            [span for span in self.spans if span.op in factor_of_op],
            factor_of_op,
            self.client_thread,
        )

    def dump(self, path: str, factor_of_op: dict[int, float]) -> None:
        """Write the span tree as JSON (ids are list positions)."""
        self._adopt()
        index = {id(span): i for i, span in enumerate(self.spans)}
        rows = [
            {
                "name": span.name,
                "start": span.start,
                "end": span.end,
                "parent": index.get(id(span.parent), -1),
                "op": span.op,
                "thread": span.thread,
                "leaves": span.leaves or {},
            }
            for span in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"factor_of_op": factor_of_op, "spans": rows}, handle)


def adopt_orphans(spans: list[Span], client_thread: int) -> None:
    """Give a span that starts another thread's stack its causal parent.

    A query's pod legs run on fan-out worker threads, the server's side
    of a call on the server's threads, response decoding on the
    transport's reader thread: each starts a stack of its own. Its
    parent is the innermost span of the same operation, on another
    thread, that was open for the orphan's whole life.
    """
    by_op: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        by_op[span.op].append(span)
    for group in by_op.values():
        for orphan in group:
            if orphan.parent is not None or orphan.thread == client_thread:
                continue
            for candidate in group:
                if (
                    candidate.thread != orphan.thread
                    and candidate.start <= orphan.start
                    and orphan.end <= candidate.end
                    and (
                        orphan.parent is None
                        or candidate.start > orphan.parent.start
                    )
                ):
                    orphan.parent = candidate


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


class Totals:
    """Per-name sums over a set of spans, scaled to reference speed.

    Self time is a span's duration minus the part of it its children
    cover (their union: parallel pod legs overlap) and minus its leaf
    calls. Self times of spans that ran in parallel can sum to more
    than the wall they shared.
    """

    def __init__(self, spans, factor_of_op, client_thread) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.size: dict[str, int] = defaultdict(int)
        #: Seconds the client thread had a span open, for the coverage
        #: check against the harness's own stopwatch.
        self.client_root_time = 0.0
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for span in spans:
            parent = span.parent
            if parent is not None:
                children[id(parent)].append(
                    (max(span.start, parent.start), min(span.end, parent.end))
                )
        for span in spans:
            factor = factor_of_op[span.op]
            duration = (span.end - span.start) * factor
            own = span.end - span.start - _covered(children.get(id(span), []))
            for leaf, (calls, seconds) in (span.leaves or {}).items():
                self.calls[leaf] += calls
                self.total[leaf] += seconds * factor
                self.self_time[leaf] += seconds * factor
                own -= seconds
            self.calls[span.name] += 1
            self.total[span.name] += duration
            self.self_time[span.name] += own * factor
            self.size[span.name] += span.size
            if span.parent is None and span.thread == client_thread:
                self.client_root_time += duration
