"""Set-associative cache timing model (state only, no data).

"Because data values are often not required to predict performance,
data path components such as ... cache values are generally not
included in the timing model."  (paper section 2) -- so this tracks
tags and replacement state only, in the flat array-backed tag store of
:mod:`repro.timing.tables` (the host-side analogue of a tag BRAM).
"""

from __future__ import annotations

from repro.timing.module import Module
from repro.timing.tables import LruTagStore


class SetAssocCache(Module):
    """An LRU set-associative cache of tags."""

    def __init__(
        self,
        name: str,
        size_bytes: int,
        ways: int,
        line_bytes: int = 64,
    ):
        super().__init__(name)
        if size_bytes % (ways * line_bytes):
            raise ValueError("size must be a multiple of ways*line")
        self.size_bytes = size_bytes
        self.ways = ways
        self.line_bytes = line_bytes
        self.num_sets = size_bytes // (ways * line_bytes)
        # Read by Fetch for its line-crossing test (stable after init).
        self.line_shift = line_bytes.bit_length() - 1
        # Flat tag array, LRU-first within each set; the payload slot
        # carries the line's dirty bit.
        self._sets = LruTagStore(self.num_sets, ways)

    def access(self, paddr: int, is_write: bool = False) -> bool:
        """Access the line containing *paddr*.  Returns hit/miss and
        updates tag + LRU state (allocate-on-miss, write-allocate).

        Works on the tag store's parallel arrays directly (BRAM ports
        wired into the stage): one C-level scan plus slice moves, no
        per-entry Python objects.  Counters update in place, as a
        generated stage's do: ``Module.bump`` would be a call per
        counter."""
        line = paddr >> self.line_shift
        index = line % self.num_sets
        tag = line // self.num_sets
        store = self._sets
        tags = store._tags
        payloads = store._payload
        ways = self.ways
        base = index * ways
        count = store._count[index]
        end = base + count
        counters = self._counters
        counters["accesses"] = counters.get("accesses", 0) + 1
        if is_write:
            counters["writes"] = counters.get("writes", 0) + 1
        try:
            slot = tags.index(tag, base, end)
        except ValueError:
            slot = -1
        if slot >= 0:
            dirty = 1 if (payloads[slot] or is_write) else 0
            last = end - 1
            if slot != last:
                tags[slot:last] = tags[slot + 1:end]
                payloads[slot:last] = payloads[slot + 1:end]
                tags[last] = tag
            payloads[last] = dirty
            counters["hits"] = counters.get("hits", 0) + 1
            return True
        counters["misses"] = counters.get("misses", 0) + 1
        if count >= ways:
            # Evict the LRU entry at the base slot; slot order shifts
            # down and the set stays full.
            dirty = payloads[base]
            last = end - 1
            tags[base:last] = tags[base + 1:end]
            payloads[base:last] = payloads[base + 1:end]
            counters["evictions"] = counters.get("evictions", 0) + 1
            if dirty:
                counters["writebacks"] = counters.get("writebacks", 0) + 1
            slot = last
        else:
            slot = end
            store._count[index] = count + 1
        tags[slot] = tag
        payloads[slot] = 1 if is_write else 0
        return False

    def probe(self, paddr: int) -> bool:
        """Non-allocating, non-LRU-updating lookup."""
        line = paddr >> self.line_shift
        return self._sets.find(line % self.num_sets, line // self.num_sets) >= 0

    def invalidate_all(self) -> None:
        self._sets.clear()

    @property
    def hit_rate(self) -> float:
        accesses = self.counter("accesses")
        if not accesses:
            return 1.0
        return self.counter("hits") / accesses

    def resource_estimate(self):
        # Tag array in BRAM: ~one 18 Kb BRAM per 2K lines of tags, plus
        # comparators per way.
        lines = self.size_bytes // self.line_bytes
        return {"luts": 120 * self.ways, "brams": max(1, lines // 2048)}
