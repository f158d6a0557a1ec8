"""Physical memory for the simulated system.

A flat little-endian byte array with word/halfword/byte accessors.  The
functional model layers write-logging on top of this for checkpoint
rollback; the memory itself is deliberately dumb.

The bytes live in a private anonymous mapping (:func:`zeroed_store`):
the kernel zero-fills each page on first touch, so a process pays
resident memory only for the pages the target writes, not for the
whole ``size``.
"""

from __future__ import annotations

import mmap
from typing import Iterable, Tuple


def zeroed_store(size: int) -> mmap.mmap:
    """A writable, all-zero byte store of *size* bytes whose pages
    become resident only when touched.

    ``MAP_PRIVATE`` keeps the bytes to this process, as a ``bytearray``
    would: with Python's default ``MAP_SHARED`` a forked child's writes
    would show up in the parent.  Slice assignment must keep the
    length (a wrong-length slice raises ``IndexError``).
    """
    return mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)


class MemoryError_(Exception):
    """Raised on out-of-range physical accesses."""


class PhysicalMemory:
    """Flat physical memory of ``size`` bytes."""

    def __init__(self, size: int = 16 * 1024 * 1024):
        self.size = size
        self._data = zeroed_store(size)
        # Calls of load_blob (loader and device DMA): the writes no undo
        # log sees.  A rollback record is only reused while this stays
        # put (FunctionalModel.rollback_to).
        self.blob_loads = 0

    # -- loads ----------------------------------------------------------

    def read8(self, addr: int) -> int:
        if not 0 <= addr < self.size:
            raise MemoryError_("read8 out of range: %#x" % addr)
        return self._data[addr]

    def read16(self, addr: int) -> int:
        if not 0 <= addr <= self.size - 2:
            raise MemoryError_("read16 out of range: %#x" % addr)
        return int.from_bytes(self._data[addr : addr + 2], "little")

    def read32(self, addr: int) -> int:
        if not 0 <= addr <= self.size - 4:
            raise MemoryError_("read32 out of range: %#x" % addr)
        return int.from_bytes(self._data[addr : addr + 4], "little")

    # -- stores ---------------------------------------------------------

    def write8(self, addr: int, value: int) -> None:
        if not 0 <= addr < self.size:
            raise MemoryError_("write8 out of range: %#x" % addr)
        self._data[addr] = value & 0xFF

    def write16(self, addr: int, value: int) -> None:
        if not 0 <= addr <= self.size - 2:
            raise MemoryError_("write16 out of range: %#x" % addr)
        self._data[addr : addr + 2] = (value & 0xFFFF).to_bytes(2, "little")

    def write32(self, addr: int, value: int) -> None:
        if not 0 <= addr <= self.size - 4:
            raise MemoryError_("write32 out of range: %#x" % addr)
        self._data[addr : addr + 4] = (value & 0xFFFFFFFF).to_bytes(4, "little")

    # -- bulk -----------------------------------------------------------

    def load_blob(self, addr: int, data: bytes) -> None:
        """Copy *data* into memory at *addr* (used by the loader/DMA)."""
        if not 0 <= addr <= self.size - len(data):
            raise MemoryError_(
                "blob of %d bytes at %#x out of range" % (len(data), addr)
            )
        self._data[addr : addr + len(data)] = data
        self.blob_loads += 1

    def read_blob(self, addr: int, length: int) -> bytes:
        if not 0 <= addr <= self.size - length:
            raise MemoryError_("blob read out of range: %#x" % addr)
        return self._data[addr : addr + length]

    def view(self):
        """Raw memoryview; the fetch/decode path uses this for speed."""
        return memoryview(self._data)

    def apply_undo(self, entries: Iterable[Tuple[int, int]]) -> None:
        """Apply ``(addr, old_word)`` undo entries, newest first.

        Callers pass entries already reversed; each entry restores one
        32-bit word written since a checkpoint.
        """
        for addr, old in entries:
            self._data[addr : addr + 4] = old.to_bytes(4, "little")
