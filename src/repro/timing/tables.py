"""Flat array-backed TM tables.

The timing model's regular, array-shaped state -- branch-predictor
saturating counters, BTB entries, cache tag arrays -- used to live in
per-set Python dicts and lists of boxed ints.  On an FPGA these are
block RAMs: dense, fixed-geometry, no pointer chasing.  This module is
the host-side analogue: contiguous ``array`` storage with C-speed
scans (``array.index``) and slice moves for LRU maintenance.

Replacement behaviour is *exactly* the dict-based semantics these
tables replace (LRU-first order, allocate-on-miss, write-allocate),
so every timing statistic stays bit-identical.
"""

from __future__ import annotations

import sys
from array import array

# ``array.index`` takes start/stop only from Python 3.10; before that the
# tag stores scan a list, whose ``index`` always has.
if sys.version_info >= (3, 10):
    _TAG_CELL = array("q", [-1])
else:
    _TAG_CELL = [-1]


class SaturatingCounterTable:
    """A flat table of 2-bit saturating counters (``array('B')``).

    Counter values: 0 strongly not-taken .. 3 strongly taken; >= 2
    predicts taken.  ``reset_value`` 2 is the classic "weakly taken"
    initial state.
    """

    __slots__ = ("size", "reset_value", "_counters")

    def __init__(self, size: int, reset_value: int = 2):
        if size < 1:
            raise ValueError("table size must be >= 1")
        if not 0 <= reset_value <= 3:
            raise ValueError("reset_value must be a 2-bit counter state")
        self.size = size
        self.reset_value = reset_value
        self._counters = array("B", bytes([reset_value]) * size)

    def direction(self, index: int) -> bool:
        return self._counters[index] >= 2

    def read(self, index: int) -> int:
        return self._counters[index]

    def update(self, index: int, taken: bool) -> None:
        counters = self._counters
        counter = counters[index]
        if taken:
            if counter < 3:
                counters[index] = counter + 1
        elif counter > 0:
            counters[index] = counter - 1

    def reset(self) -> None:
        # In place: hot-path consumers may hold a reference to the array.
        self._counters[:] = array(
            "B", bytes([self.reset_value]) * self.size
        )


class LruTagStore:
    """Set-associative tag storage in flat parallel arrays.

    Set ``s`` occupies slots ``[s*ways, s*ways + count[s])`` of one
    contiguous signed-64 tag array, kept LRU-first (slot ``s*ways`` is
    the eviction victim).  A per-slot payload array rides along: dirty
    bits for caches, branch targets for the BTB.  Scans and reorder
    moves are C-level (``array.index`` + slice assignment), not Python
    loops over boxed entries.

    The parallel arrays are deliberately exposed to the timing-model
    consumers that own a store (cache, BTB): their single-access busy
    paths read/shift the arrays directly -- the software equivalent of
    wiring the BRAM ports straight into the pipeline stage -- while
    this class keeps the generic single-entry API.
    """

    __slots__ = ("sets", "ways", "_tags", "_payload", "_count")

    def __init__(self, sets: int, ways: int):
        if sets < 1 or ways < 1:
            raise ValueError("sets and ways must be >= 1")
        self.sets = sets
        self.ways = ways
        self._tags = _TAG_CELL * (sets * ways)
        self._payload = array("q", [0]) * (sets * ways)
        self._count = array("B", [0]) * sets

    def find(self, set_index: int, tag: int) -> int:
        """Absolute slot of *tag* in set *set_index*, or -1."""
        base = set_index * self.ways
        try:
            return self._tags.index(tag, base, base + self._count[set_index])
        except ValueError:
            return -1

    def payload(self, slot: int) -> int:
        return self._payload[slot]

    def touch(self, slot: int, set_index: int, payload: int) -> None:
        """Refresh *slot* to MRU position with a new payload."""
        tags = self._tags
        payloads = self._payload
        base = set_index * self.ways
        end = base + self._count[set_index]
        tag = tags[slot]
        if slot != end - 1:
            tags[slot:end - 1] = tags[slot + 1:end]
            payloads[slot:end - 1] = payloads[slot + 1:end]
            tags[end - 1] = tag
        payloads[end - 1] = payload

    def insert(self, set_index: int, tag: int, payload: int) -> None:
        """Append *tag* at the MRU position (caller ensures room)."""
        count = self._count[set_index]
        slot = set_index * self.ways + count
        self._tags[slot] = tag
        self._payload[slot] = payload
        self._count[set_index] = count + 1

    def count(self, set_index: int) -> int:
        return self._count[set_index]

    def clear(self) -> None:
        # In place: hot-path consumers may hold a reference to the array.
        self._count[:] = array("B", [0]) * self.sets
