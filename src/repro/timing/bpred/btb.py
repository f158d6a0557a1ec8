"""Branch target buffer: set-associative, LRU within a set.

The paper's default target uses a "4-way and 8K BTB gshare" predictor.
Storage is a flat :class:`~repro.timing.tables.LruTagStore` (the
host-side analogue of the BTB's tag/target block RAMs); replacement
decisions are identical to the per-set dict implementation it replaced.
"""

from __future__ import annotations

from typing import Optional

from repro.timing.module import Module
from repro.timing.tables import LruTagStore


class BTB(Module):
    """Set-associative branch target buffer."""

    def __init__(self, name: str = "btb", entries: int = 8192, ways: int = 4):
        super().__init__(name)
        if entries % ways:
            raise ValueError("entries must be a multiple of ways")
        self.entries = entries
        self.ways = ways
        self.sets = entries // ways
        # Flat LRU-first tag store: tag is the full pc, payload the target.
        self._table = LruTagStore(self.sets, ways)

    def _index(self, pc: int) -> int:
        return (pc >> 1) % self.sets

    def lookup(self, pc: int) -> Optional[int]:
        # Counters update in place: Module.bump would be a call each.
        counters = self._counters
        counters["lookups"] = counters.get("lookups", 0) + 1
        store = self._table
        index = (pc >> 1) % self.sets
        tags = store._tags
        base = index * self.ways
        end = base + store._count[index]
        try:
            slot = tags.index(pc, base, end)
        except ValueError:
            counters["misses"] = counters.get("misses", 0) + 1
            return None
        payloads = store._payload
        target = payloads[slot]
        # Refresh LRU position.
        last = end - 1
        if slot != last:
            tags[slot:last] = tags[slot + 1:end]
            payloads[slot:last] = payloads[slot + 1:end]
            tags[last] = pc
            payloads[last] = target
        counters["hits"] = counters.get("hits", 0) + 1
        return target

    def install(self, pc: int, target: int) -> None:
        store = self._table
        index = (pc >> 1) % self.sets
        tags = store._tags
        payloads = store._payload
        ways = self.ways
        base = index * ways
        count = store._count[index]
        end = base + count
        try:
            slot = tags.index(pc, base, end)
        except ValueError:
            slot = -1
        if slot >= 0:
            # Refresh to MRU with the (possibly new) target.
            last = end - 1
            if slot != last:
                tags[slot:last] = tags[slot + 1:end]
                payloads[slot:last] = payloads[slot + 1:end]
                tags[last] = pc
            payloads[last] = target
            return
        if count >= ways:
            last = end - 1
            tags[base:last] = tags[base + 1:end]
            payloads[base:last] = payloads[base + 1:end]
            self.bump("evictions")
            slot = last
        else:
            slot = end
            store._count[index] = count + 1
        tags[slot] = pc
        payloads[slot] = target

    def resource_estimate(self):
        # Target + tag storage maps naturally onto block RAMs.
        return {"luts": 400, "brams": max(1, self.entries // 2048)}
