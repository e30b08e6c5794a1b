"""Update batching (paper §5.4.1).

"Index updates in Zerber can be performed in batches that insert or delete
posting elements for multiple documents. Batching can reduce index
freshness, but also reduces the average network and disk overhead per
update ... If Alice has compromised an index server, then batching also
reduces the information she gets by watching updates. ... Inserting
elements from several documents in one batch makes it hard for Alice to
guess which terms co-occur."

The batcher therefore does two things: it accumulates per-document element
insertions until a policy trigger fires, and — critically for the
correlation-attack defence — it *shuffles the elements of all batched
documents together* before release, so the arrival order inside a batch
carries no document-boundary signal.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Generic, Sequence, TypeVar

from repro.errors import ReproError

T = TypeVar("T")


@dataclass(frozen=True)
class BatchPolicy:
    """When to flush pending updates.

    Attributes:
        min_documents: flush once this many documents are pending (the
            security knob: a batch of one document leaks its element
            grouping to a compromised server's watcher).
        max_elements: flush when pending elements reach this count even if
            the document quota is unmet (bounds memory and disk I/O).
        max_age_ticks: flush when the oldest pending document has waited
            this many logical ticks (the freshness knob).
    """

    min_documents: int = 4
    max_elements: int = 50_000
    max_age_ticks: int = 16

    def __post_init__(self) -> None:
        if self.min_documents < 1:
            raise ReproError("min_documents must be >= 1")
        if self.max_elements < 1:
            raise ReproError("max_elements must be >= 1")
        if self.max_age_ticks < 0:
            raise ReproError("max_age_ticks must be >= 0")


class UpdateBatcher(Generic[T]):
    """Accumulates per-document operation groups and flushes them shuffled.

    Generic over the operation type so owners batch inserts and deletes with
    the same machinery.
    """

    def __init__(
        self,
        policy: BatchPolicy,
        flush_fn: Callable[[list[T]], None],
        rng: random.Random | None = None,
    ) -> None:
        """Args:
        policy: the trigger configuration.
        flush_fn: called with the shuffled operations of a whole batch.
        rng: shuffle randomness (seeded in tests).
        """
        self._policy = policy
        self._flush_fn = flush_fn
        self._rng = rng or random.Random()
        self._pending: list[tuple[int, list[T]]] = []  # (enqueue_tick, ops)
        self._pending_elements = 0
        self._clock = 0
        self.batches_flushed = 0

    # -- state -------------------------------------------------------------

    @property
    def pending_documents(self) -> int:
        return len(self._pending)

    # -- operations -----------------------------------------------------------

    def enqueue_document(self, operations: Sequence[T]) -> bool:
        """Queue one document's operations; returns True if a flush fired."""
        if not operations:
            return False
        self._pending.append((self._clock, list(operations)))
        self._pending_elements += len(operations)
        return self._maybe_flush()

    def tick(self, ticks: int = 1) -> bool:
        """Advance logical time; returns True if an age-triggered flush fired."""
        if ticks < 0:
            raise ReproError("time only moves forward")
        self._clock += ticks
        return self._maybe_flush()

    def flush(self) -> int:
        """Force a flush; returns the number of operations released."""
        if not self._pending:
            return 0
        operations: list[T] = []
        for _, ops in self._pending:
            operations.extend(ops)
        # The security-critical step: destroy document boundaries.
        self._rng.shuffle(operations)
        self._pending.clear()
        self._pending_elements = 0
        # The batch is released once flush_fn is called: count it even
        # if the write round raises after some seats took it.
        try:
            self._flush_fn(operations)
        finally:
            self.batches_flushed += 1
        return len(operations)

    def _maybe_flush(self) -> bool:
        if not self._pending:
            return False
        oldest_tick = self._pending[0][0]
        triggered = (
            len(self._pending) >= self._policy.min_documents
            or self._pending_elements >= self._policy.max_elements
            or (self._clock - oldest_tick) >= self._policy.max_age_ticks
        )
        if triggered:
            self.flush()
        return triggered
