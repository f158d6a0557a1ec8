"""Disk device with DMA and a completion interrupt.

Reads/writes one 512-byte sector per command.  A command takes a fixed
number of time units before the DMA happens and IRQ 1 fires, so disk
waits interleave with computation exactly as on a real system -- this is
what makes "full system" interesting for the simulator: device events
arrive asynchronously relative to the instruction stream.
"""

from __future__ import annotations

from typing import Optional

from repro.system.devices import Device
from repro.system.interrupt_controller import IRQ_DISK, InterruptController
from repro.system.memory import PhysicalMemory, zeroed_store

PORT_CMD = 0x30  # OUT: 1 = read sector, 2 = write sector
PORT_SECTOR = 0x31
PORT_ADDR = 0x32  # physical DMA address
PORT_STATUS = 0x33  # IN: 0 idle, 1 busy, 2 done (cleared on read)

SECTOR_SIZE = 512

CMD_READ = 1
CMD_WRITE = 2

STATUS_IDLE = 0
STATUS_BUSY = 1
STATUS_DONE = 2


class Disk(Device):
    name = "disk"
    irq_line = IRQ_DISK

    def __init__(
        self,
        intctrl: InterruptController,
        memory: PhysicalMemory,
        num_sectors: int = 1024,
        latency: int = 2000,
        image: Optional[bytes] = None,
        timing_model=None,
    ):
        self._intctrl = intctrl
        self._memory = memory
        self.latency = latency
        # Optional mechanical model (section 3.4): seek + rotational
        # latency instead of the fixed delay.
        self.timing_model = timing_model
        self._time = 0
        self.num_sectors = num_sectors
        image = bytes(image or b"")
        if len(image) > num_sectors * SECTOR_SIZE:
            raise ValueError(
                "disk image of %d bytes exceeds %d sectors of %d bytes"
                % (len(image), num_sectors, SECTOR_SIZE)
            )
        self.data = zeroed_store(num_sectors * SECTOR_SIZE)
        self.data[: len(image)] = image
        self.sector = 0
        self.dma_addr = 0
        self.status = STATUS_IDLE
        self._pending_cmd = 0
        self._countdown = 0
        self.commands = 0
        # Commands completed as no-ops: a sector past the end, or a DMA
        # range outside physical memory.
        self.bad_commands = 0
        # Identifies the current sector data.  Values come from a
        # never-reused allocator (each CMD_WRITE completion takes a fresh
        # one, and rollback does not rewind the allocator), so equal
        # generations mean identical bytes: a snapshot reuses the cached
        # copy and a restore to the live generation copies nothing.
        # Generation 0 is the image itself, never a copy: the disk starts
        # as the image followed by zeros, and ``restore`` zero-fills past
        # a snapshot's bytes, so an empty image is an all-zero disk.
        self.data_generation = 0
        self._data_gen_next = 1
        self._snap_cache = (0, image)

    def ports(self):
        return (PORT_CMD, PORT_SECTOR, PORT_ADDR, PORT_STATUS)

    def read_port(self, port: int) -> int:
        if port == PORT_STATUS:
            status = self.status
            if status == STATUS_DONE:
                self.status = STATUS_IDLE
            return status
        if port == PORT_SECTOR:
            return self.sector
        if port == PORT_ADDR:
            return self.dma_addr
        return 0

    def write_port(self, port: int, value: int) -> None:
        if port == PORT_SECTOR:
            self.sector = value
        elif port == PORT_ADDR:
            self.dma_addr = value
        elif port == PORT_CMD and self.status != STATUS_BUSY:
            self._pending_cmd = value
            if self.timing_model is not None:
                self._countdown = self.timing_model.latency(
                    self.sector, self._time
                )
            else:
                self._countdown = self.latency
            self.status = STATUS_BUSY
            self.commands += 1

    def tick(self, units: int) -> None:
        self._time += units
        if self.status != STATUS_BUSY:
            return
        self._countdown -= units
        if self._countdown <= 0:
            self._complete()

    def ticks_until_irq(self, enabled_mask: int):
        if self.status != STATUS_BUSY:
            return None
        if not (enabled_mask >> IRQ_DISK) & 1:
            return None
        return max(1, self._countdown)

    def ticks_until_dma(self):
        # A command in flight completes (and DMAs) when the countdown
        # expires, whether or not the IRQ line is enabled.
        if self.status != STATUS_BUSY:
            return None
        return max(1, self._countdown)

    def _complete(self) -> None:
        # Every command completes with STATUS_DONE and the IRQ so a
        # driver never hangs.  One naming a sector past the end or a DMA
        # range outside memory moves no bytes and counts as bad; it must
        # not raise, since kernel-mode code can issue it.
        offset = self.sector * SECTOR_SIZE
        memory = self._memory
        if self._pending_cmd in (CMD_READ, CMD_WRITE) and not (
            0 <= self.sector < self.num_sectors
            and 0 <= self.dma_addr <= memory.size - SECTOR_SIZE
        ):
            self.bad_commands += 1
        elif self._pending_cmd == CMD_READ:
            memory.load_blob(
                self.dma_addr, self.data[offset : offset + SECTOR_SIZE]
            )
        elif self._pending_cmd == CMD_WRITE:
            self.data[offset : offset + SECTOR_SIZE] = memory.read_blob(
                self.dma_addr, SECTOR_SIZE
            )
            self.data_generation = self._data_gen_next
            self._data_gen_next += 1
        self.status = STATUS_DONE
        self._intctrl.raise_irq(IRQ_DISK)

    def snapshot(self):
        generation, blob = self._snap_cache
        if generation != self.data_generation:
            blob = self.data[:]
            self._snap_cache = (self.data_generation, blob)
        mech = (
            self.timing_model.snapshot() if self.timing_model is not None
            else None
        )
        return (
            self.data_generation,
            blob,
            self.sector,
            self.dma_addr,
            self.status,
            self._pending_cmd,
            self._countdown,
            self.commands,
            self.bad_commands,
            self._time,
            mech,
        )

    def restore(self, state) -> None:
        (generation, data, self.sector, self.dma_addr, self.status,
         self._pending_cmd, self._countdown, self.commands,
         self.bad_commands, self._time, mech) = state
        if generation != self.data_generation:
            store = self.data
            store[: len(data)] = data
            store[len(data) :] = bytes(len(store) - len(data))
            self.data_generation = generation
            self._snap_cache = (generation, data)
        if self.timing_model is not None and mech is not None:
            self.timing_model.restore(mech)
