"""The reference kernel every timing of the benchmark is divided by.

This machine's speed drifts by 1.3-1.6x over minutes, so no raw
wall-clock number repeats within a tenth. The harness therefore runs
this fixed kernel before and after every chunk of measured work and
reports the chunk's times scaled by ``KERNEL_REF_S / kernel time``:
units stay ``ms``, ``s`` and ``1/s``, "at reference speed".

The kernel is pure Python and shaped like this system's hot loops
(multiply-adds mod ``2^64 + 13``, dict-of-list grouping, frozen
dataclass allocation, ``struct`` pack/unpack), so interpreter-bound
work scales with it. Work that leaves the interpreter (syscalls,
loopback I/O) may scale differently under contention, which is why the
raw values and the factor are always reported beside the normalised
ones.

The kernel is versioned: changing it, or ``KERNEL_REF_S``, changes the
unit of every timing, so either is a new benchmark, never part of a
change that claims a gain.
"""

from __future__ import annotations

import gc
import struct
from dataclasses import dataclass

KERNEL_VERSION = 1
#: Seconds one call took on this (quiet) machine when the benchmark was
#: written; the unit conversion, not a target.
KERNEL_REF_S = 0.0130
#: What one call must return; a different value means a different kernel.
KERNEL_CHECKSUM = 899431461155662831

_PRIME = (1 << 64) + 13
_MASK = (1 << 64) - 1
_ROUNDS = 9000
_FRAME = struct.Struct(">QI")


@dataclass(frozen=True)
class _Cell:
    high: int
    low: int
    weight: float


def run_kernel() -> int:
    """One fixed unit of interpreter work; returns its checksum.

    The collector is held off for the call: a full collection walks the
    benchmarked program's heap (tens of ms with 500k share records), and
    that is the program's cost, not the machine's speed. The cells are
    freed before returning, so the kernel leaves the collector's
    allocation counts where it found them.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        acc = 0x9E3779B97F4A7C15
        groups: dict[int, list[_Cell]] = {}
        pack, unpack = _FRAME.pack, _FRAME.unpack
        for index in range(_ROUNDS):
            acc = (acc * 6364136223846793005 + index) % _PRIME
            high, low = unpack(pack(acc & _MASK, index))
            groups.setdefault(high & 63, []).append(
                _Cell(high, low, low / 1024)
            )
        total = 0
        for cells in groups.values():
            for cell in cells:
                total = (total + cell.high * 3 + cell.low) % _PRIME
        return total
    finally:
        if was_enabled:
            gc.enable()
