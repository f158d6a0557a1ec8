"""Instruction TLB timing/statistics model.

The architectural TLB lives in the functional model (software-managed;
misses raise real exceptions whose handler instructions flow through
the trace).  The timing model's iTLB mirrors installs/flushes it sees in
the trace -- exactly the "mirroring ... TLBs" trace-compression idea of
section 3.2 -- and tracks hit statistics for Fetch.
"""

from __future__ import annotations

from typing import Dict

from repro.timing.module import Module

PAGE_SHIFT = 12


class ITLBModel(Module):
    def __init__(self, name: str = "itlb", capacity: int = 64):
        super().__init__(name)
        self.capacity = capacity
        self._entries: Dict[int, bool] = {}

    def lookup(self, vaddr: int) -> bool:
        # Counters update in place: Module.bump would be a call each.
        counters = self._counters
        counters["lookups"] = counters.get("lookups", 0) + 1
        vpn = vaddr >> PAGE_SHIFT
        if vpn in self._entries:
            del self._entries[vpn]
            self._entries[vpn] = True  # refresh FIFO/LRU position
            counters["hits"] = counters.get("hits", 0) + 1
            return True
        counters["misses"] = counters.get("misses", 0) + 1
        # Allocate: in the target, the refill handler installs it; by
        # the time fetch retries it is present.
        self.install(vpn)
        return False

    def install(self, vpn: int) -> None:
        if vpn in self._entries:
            del self._entries[vpn]
        elif len(self._entries) >= self.capacity:
            del self._entries[next(iter(self._entries))]
        self._entries[vpn] = True

    def flush(self) -> None:
        self._entries.clear()
        self.bump("flushes")

    def resource_estimate(self):
        return {"luts": 40 * self.capacity, "brams": 0}
