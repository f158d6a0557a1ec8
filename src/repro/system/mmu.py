"""Software-managed TLB / MMU.

FastISA uses a software-filled TLB like the paper's example of
"data written to special registers, such as software-filled TLB
entries" being passed in the instruction trace.  User-mode virtual
addresses are translated through the TLB; a miss raises a TLB-miss
exception and FastOS's refill handler walks the page table in software
and executes ``TLBWR``.

Kernel mode bypasses translation entirely (physical addressing), so the
kernel, the refill handler included, never TLB-misses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
PAGE_MASK = PAGE_SIZE - 1

PTE_VALID = 1 << 0
PTE_WRITE = 1 << 1


class TLBMiss(Exception):
    """Raised on a translation miss; carries the faulting vaddr."""

    def __init__(self, vaddr: int, is_write: bool):
        super().__init__("TLB miss at %#x" % vaddr)
        self.vaddr = vaddr
        self.is_write = is_write


class ProtectionFault(Exception):
    """Raised on a write to a read-only page."""

    def __init__(self, vaddr: int):
        super().__init__("write to read-only page at %#x" % vaddr)
        self.vaddr = vaddr


@dataclass(frozen=True)
class TLBEntry:
    vpn: int
    pfn: int
    flags: int

    @property
    def writable(self) -> bool:
        return bool(self.flags & PTE_WRITE)


class SoftwareTLB:
    """Fully-associative software-managed TLB with FIFO replacement.

    FIFO keeps replacement deterministic, which matters for reproducible
    rollback: re-executing the same instructions must rebuild the same
    TLB state.
    """

    def __init__(self, capacity: int = 64):
        self.capacity = capacity
        self._entries: Dict[int, TLBEntry] = {}  # insertion-ordered
        # The items of the last snapshot or restore, while the entries
        # still hold exactly those (None after a write or flush): a
        # snapshot reuses it and restoring it copies nothing.
        self._clean_items: Optional[Tuple] = ()
        self.lookups = 0
        self.misses = 0

    def translate(self, vaddr: int, is_write: bool) -> int:
        """Translate a user virtual address to a physical address."""
        self.lookups += 1
        vpn = vaddr >> PAGE_SHIFT
        entry = self._entries.get(vpn)
        if entry is None or not entry.flags & PTE_VALID:
            self.misses += 1
            raise TLBMiss(vaddr, is_write)
        if is_write and not entry.writable:
            raise ProtectionFault(vaddr)
        return (entry.pfn << PAGE_SHIFT) | (vaddr & PAGE_MASK)

    def probe(self, vaddr: int) -> Optional[TLBEntry]:
        """Non-faulting lookup (no statistics side effects)."""
        return self._entries.get(vaddr >> PAGE_SHIFT)

    def write(self, vpn: int, pte: int) -> None:
        """Install a mapping: ``pte`` packs ``pfn << 12 | flags``.

        This is the TLBWR instruction's backing operation.
        """
        pfn = pte >> PAGE_SHIFT
        flags = pte & PAGE_MASK
        if vpn in self._entries:
            del self._entries[vpn]  # re-insert to refresh FIFO order
        elif len(self._entries) >= self.capacity:
            oldest = next(iter(self._entries))
            del self._entries[oldest]
        self._entries[vpn] = TLBEntry(vpn, pfn, flags)
        self._clean_items = None

    def flush(self) -> None:
        self._entries.clear()
        self._clean_items = None

    def snapshot(self) -> Tuple:
        """Immutable state for checkpointing."""
        items = self._clean_items
        if items is None:
            items = self._clean_items = tuple(self._entries.items())
        return items, self.lookups, self.misses

    def restore(self, state: Tuple) -> None:
        items, self.lookups, self.misses = state
        if items is not self._clean_items:
            self._entries = dict(items)
            self._clean_items = items

    def __len__(self) -> int:
        return len(self._entries)
