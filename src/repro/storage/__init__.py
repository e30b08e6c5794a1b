"""Per-seat durable storage: the segmented snapshot store.

The public surface of the storage subsystem:

- :class:`SegmentedStore` — binary segment log + immutable snapshots +
  background compaction + fsync'd manifest;
- :func:`discover_stores` — offline tooling's directory scanner
  (``repro storage status | compact``);
- :func:`refuse_flat_wals` — the typed refusal of a directory written
  by the removed flat engine.

See ``docs/ARCHITECTURE.md`` ("Storage engine") for the on-disk format
and the crash-consistency argument.
"""

from repro.storage.engine import (
    DEFAULT_COMPACT_SEGMENTS,
    DEFAULT_SEGMENT_BYTES,
    SegmentedStore,
    apply_operation,
    discover_stores,
    refuse_flat_wals,
)
from repro.storage.manifest import Manifest, load_manifest, write_manifest
from repro.storage.snapshot import load_snapshot, write_snapshot

__all__ = [
    "DEFAULT_COMPACT_SEGMENTS",
    "DEFAULT_SEGMENT_BYTES",
    "Manifest",
    "SegmentedStore",
    "apply_operation",
    "discover_stores",
    "load_manifest",
    "load_snapshot",
    "refuse_flat_wals",
    "write_manifest",
    "write_snapshot",
]
