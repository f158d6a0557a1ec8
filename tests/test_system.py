"""Memory, MMU/TLB, bus and device tests."""

import os
import sys

import pytest
from hypothesis import given, strategies as st

from repro.system.bus import IOBus, PORT_POWER, build_standard_system
from repro.system.console import PORT_DATA, PORT_STATUS, Console
from repro.system.disk import (
    CMD_READ,
    CMD_WRITE,
    PORT_ADDR,
    PORT_CMD,
    PORT_SECTOR,
    PORT_STATUS as DISK_STATUS,
    SECTOR_SIZE,
    STATUS_BUSY,
    STATUS_DONE,
    STATUS_IDLE,
    Disk,
)
from repro.system.interrupt_controller import (
    IRQ_DISK,
    IRQ_TIMER,
    PORT_ENABLE,
    PORT_PENDING,
    InterruptController,
)
from repro.system.memory import MemoryError_, PhysicalMemory, zeroed_store
from repro.system.mmu import (
    PAGE_SIZE,
    PTE_VALID,
    PTE_WRITE,
    ProtectionFault,
    SoftwareTLB,
    TLBMiss,
)
from repro.system.timer import PORT_CTRL, PORT_INTERVAL, Timer


class TestPhysicalMemory:
    def test_read_write_roundtrip(self):
        mem = PhysicalMemory(4096)
        mem.write32(0, 0xDEADBEEF)
        assert mem.read32(0) == 0xDEADBEEF
        mem.write8(100, 0xAB)
        assert mem.read8(100) == 0xAB
        mem.write16(200, 0x1234)
        assert mem.read16(200) == 0x1234

    def test_roundtrip_at_the_last_bytes_and_across_a_page(self):
        size = 3 * 4096
        mem = PhysicalMemory(size)
        assert mem.read32(size - 4) == 0 and mem.read8(size // 2) == 0
        mem.write8(size - 1, 0x1AB)
        mem.write16(size - 4, 0x1_BEEF)
        mem.write32(4094, 0xCAFEF00D)
        assert mem.read8(size - 1) == 0xAB
        assert mem.read16(size - 4) == 0xBEEF
        assert mem.read32(4094) == 0xCAFEF00D
        assert mem.read16(4094) == 0xF00D and mem.read8(4097) == 0xCA

    def test_little_endian(self):
        mem = PhysicalMemory(64)
        mem.write32(0, 0x11223344)
        assert mem.read8(0) == 0x44
        assert mem.read8(3) == 0x11

    def test_out_of_range(self):
        mem = PhysicalMemory(16)
        with pytest.raises(MemoryError_):
            mem.read32(14)
        with pytest.raises(MemoryError_):
            mem.write8(16, 1)
        with pytest.raises(MemoryError_):
            mem.load_blob(10, b"1234567")
        for read, write, width in ((mem.read8, mem.write8, 1),
                                   (mem.read16, mem.write16, 2),
                                   (mem.read32, mem.write32, 4)):
            for addr in (-1, 16 - width + 1):
                with pytest.raises(MemoryError_):
                    read(addr)
                with pytest.raises(MemoryError_):
                    write(addr, 0)
        with pytest.raises(MemoryError_):
            mem.read_blob(14, 3)
        with pytest.raises(MemoryError_):
            mem.load_blob(-1, b"x")

    def test_blob_roundtrip(self):
        mem = PhysicalMemory(64)
        mem.load_blob(8, b"hello")
        assert mem.read_blob(8, 5) == b"hello"
        blob = mem.read_blob(6, 8)
        assert type(blob) is bytes and blob == b"\0\0hello\0"
        mem.load_blob(64, b"")  # an empty blob at the end is in range
        assert mem.read_blob(64, 0) == b""

    def test_view_shares_the_bytes(self):
        mem = PhysicalMemory(64)
        view = mem.view()
        mem.write32(0, 0x04030201)
        assert view[0] == 1 and view[3] == 4
        assert view[0:4].tobytes() == mem.read_blob(0, 4)
        view[8] = 0x7F
        assert mem.read8(8) == 0x7F

    def test_undo(self):
        mem = PhysicalMemory(64)
        mem.write32(0, 1)
        old = mem.read32(0)
        mem.write32(0, 2)
        mem.apply_undo([(0, old)])
        assert mem.read32(0) == 1
        log = []
        for value in (3, 4, 5):
            log.append((8, mem.read32(8)))
            mem.write32(8, value)
        log.append((60, mem.read32(60)))
        mem.write32(60, 0xFFFFFFFF)
        mem.apply_undo(reversed(log))  # newest first: 8 ends at its oldest
        assert mem.read_blob(4, 60) == bytes(60)

    def test_value_masking(self):
        mem = PhysicalMemory(16)
        mem.write32(0, 0x1_FFFF_FFFF)
        assert mem.read32(0) == 0xFFFFFFFF

    def test_wrong_length_slice_assignment_raises(self):
        store = zeroed_store(16)
        with pytest.raises(IndexError):
            store[0:4] = b"12345"
        with pytest.raises(IndexError):
            store[12:] = b"123"
        assert len(store) == 16 and store[:] == bytes(16)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_writes_stay_in_the_child(self):
        mem = PhysicalMemory(8192)
        mem.write32(0, 0x11111111)
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                mem.write32(0, 0x22222222)
                mem.write32(4096, 0x33333333)
                code = 0 if mem.read32(0) == 0x22222222 else 1
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
        assert mem.read32(0) == 0x11111111
        assert mem.read32(4096) == 0

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads /proc/self/statm")
    def test_building_a_simulator_leaves_untouched_memory_unresident(self):
        from repro.fast import FastSimulator
        from repro.kernel import UserProgram

        program = UserProgram("idle", "main:\n    MOVI R0, 0\n    SYSCALL\n",
                              entry="main")

        def resident_bytes():
            with open("/proc/self/statm") as statm:
                return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

        warm = FastSimulator.from_programs([program])  # imports, memos
        before = resident_bytes()
        sim = FastSimulator.from_programs([program])
        grown = resident_bytes() - before
        assert sim.fm.memory.size == 16 * 1024 * 1024 and warm is not sim
        assert grown < 8 * 1024 * 1024


class TestSoftwareTLB:
    def test_miss_then_fill_then_hit(self):
        tlb = SoftwareTLB()
        with pytest.raises(TLBMiss):
            tlb.translate(0x400123, False)
        tlb.write(0x400, (0x7 << 12) | PTE_VALID | PTE_WRITE)
        assert tlb.translate(0x400123, False) == 0x7123
        assert tlb.translate(0x400123, True) == 0x7123

    def test_write_protection(self):
        tlb = SoftwareTLB()
        tlb.write(5, (9 << 12) | PTE_VALID)
        assert tlb.translate(5 * PAGE_SIZE, False) == 9 * PAGE_SIZE
        with pytest.raises(ProtectionFault):
            tlb.translate(5 * PAGE_SIZE, True)

    def test_fifo_eviction(self):
        tlb = SoftwareTLB(capacity=2)
        tlb.write(1, (1 << 12) | PTE_VALID)
        tlb.write(2, (2 << 12) | PTE_VALID)
        tlb.write(3, (3 << 12) | PTE_VALID)
        with pytest.raises(TLBMiss):
            tlb.translate(1 * PAGE_SIZE, False)  # oldest evicted
        assert tlb.translate(3 * PAGE_SIZE, False)

    def test_flush(self):
        tlb = SoftwareTLB()
        tlb.write(1, (1 << 12) | PTE_VALID)
        tlb.flush()
        with pytest.raises(TLBMiss):
            tlb.translate(PAGE_SIZE, False)

    def test_snapshot_restore(self):
        tlb = SoftwareTLB()
        tlb.write(1, (1 << 12) | PTE_VALID)
        snap = tlb.snapshot()
        tlb.write(2, (2 << 12) | PTE_VALID)
        tlb.flush()
        tlb.restore(snap)
        assert tlb.translate(PAGE_SIZE, False) == PAGE_SIZE

    def test_statistics(self):
        tlb = SoftwareTLB()
        tlb.write(0, PTE_VALID)
        tlb.translate(0, False)
        try:
            tlb.translate(PAGE_SIZE, False)
        except TLBMiss:
            pass
        assert tlb.lookups == 2 and tlb.misses == 1

    @given(st.lists(st.tuples(st.integers(0, 63), st.integers(1, 255)),
                    min_size=1, max_size=200))
    def test_matches_reference_dict(self, ops):
        """TLB with unlimited capacity behaves like a plain dict."""
        tlb = SoftwareTLB(capacity=10_000)
        reference = {}
        for vpn, pfn in ops:
            pte = (pfn << 12) | PTE_VALID | PTE_WRITE
            tlb.write(vpn, pte)
            reference[vpn] = pfn
        for vpn, pfn in reference.items():
            assert tlb.translate(vpn * PAGE_SIZE + 5, True) == pfn * PAGE_SIZE + 5


class TestInterruptController:
    def test_pending_and_enable(self):
        pic = InterruptController()
        pic.raise_irq(IRQ_TIMER)
        assert not pic.output  # not enabled yet
        pic.write_port(PORT_ENABLE, 1 << IRQ_TIMER)
        assert pic.output
        assert pic.highest_pending() == IRQ_TIMER

    def test_ack_clears(self):
        pic = InterruptController()
        pic.write_port(PORT_ENABLE, 0xFF)
        pic.raise_irq(IRQ_TIMER)
        pic.raise_irq(IRQ_DISK)
        pic.write_port(PORT_PENDING, 1 << IRQ_TIMER)
        assert pic.highest_pending() == IRQ_DISK

    def test_priority_order(self):
        pic = InterruptController()
        pic.write_port(PORT_ENABLE, 0xFF)
        pic.raise_irq(IRQ_DISK)
        pic.raise_irq(IRQ_TIMER)
        assert pic.highest_pending() == IRQ_TIMER  # lowest line wins

    def test_snapshot_restore(self):
        pic = InterruptController()
        pic.write_port(PORT_ENABLE, 3)
        pic.raise_irq(0)
        snap = pic.snapshot()
        pic.write_port(PORT_PENDING, 1)
        pic.restore(snap)
        assert pic.output


class TestTimer:
    def _timer(self, interval=10):
        pic = InterruptController()
        pic.write_port(PORT_ENABLE, 1 << IRQ_TIMER)
        return pic, Timer(pic, interval=interval)

    def test_disabled_timer_never_fires(self):
        pic, timer = self._timer()
        timer.tick(100)
        assert not pic.output

    def test_fires_every_interval(self):
        pic, timer = self._timer(interval=10)
        timer.write_port(PORT_CTRL, 1)
        timer.tick(9)
        assert timer.fires == 0
        timer.tick(1)
        assert timer.fires == 1 and pic.output
        timer.tick(25)
        assert timer.fires == 3

    def test_interval_programmable(self):
        pic, timer = self._timer()
        timer.write_port(PORT_INTERVAL, 3)
        timer.write_port(PORT_CTRL, 1)
        timer.tick(3)
        assert timer.fires == 1

    def test_snapshot_restore(self):
        pic, timer = self._timer(interval=10)
        timer.write_port(PORT_CTRL, 1)
        timer.tick(7)
        snap = timer.snapshot()
        timer.tick(5)
        assert timer.fires == 1
        timer.restore(snap)
        assert timer.count == 7 and timer.fires == 0


class TestConsole:
    def test_output_capture(self):
        console = Console()
        for byte in b"hi":
            console.write_port(PORT_DATA, byte)
        assert console.text() == "hi"

    def test_scripted_input(self):
        console = Console(input_bytes=b"ab")
        assert console.read_port(PORT_STATUS) == 1
        assert console.read_port(PORT_DATA) == ord("a")
        assert console.read_port(PORT_DATA) == ord("b")
        assert console.read_port(PORT_STATUS) == 0
        assert console.read_port(PORT_DATA) == 0

    def test_snapshot_restore_truncates_output(self):
        console = Console()
        console.write_port(PORT_DATA, ord("a"))
        snap = console.snapshot()
        console.write_port(PORT_DATA, ord("b"))
        console.restore(snap)
        assert console.text() == "a"


class TestDisk:
    def _disk(self, latency=5):
        mem = PhysicalMemory(8192)
        pic = InterruptController()
        pic.write_port(PORT_ENABLE, 1 << IRQ_DISK)
        disk = Disk(pic, mem, num_sectors=4, latency=latency,
                    image=b"X" * SECTOR_SIZE + b"Y" * SECTOR_SIZE)
        return mem, pic, disk

    def test_read_sector_dma(self):
        mem, pic, disk = self._disk()
        disk.write_port(PORT_SECTOR, 1)
        disk.write_port(PORT_ADDR, 0x100)
        disk.write_port(PORT_CMD, CMD_READ)
        assert disk.read_port(DISK_STATUS) == STATUS_BUSY
        disk.tick(5)
        assert disk.read_port(DISK_STATUS) == STATUS_DONE
        assert disk.read_port(DISK_STATUS) == STATUS_IDLE  # cleared on read
        assert mem.read_blob(0x100, SECTOR_SIZE) == b"Y" * SECTOR_SIZE
        assert pic.output

    def test_write_sector(self):
        mem, pic, disk = self._disk()
        mem.load_blob(0x200, b"Z" * SECTOR_SIZE)
        disk.write_port(PORT_SECTOR, 3)
        disk.write_port(PORT_ADDR, 0x200)
        disk.write_port(PORT_CMD, CMD_WRITE)
        disk.tick(5)
        assert bytes(disk.data[3 * SECTOR_SIZE : 4 * SECTOR_SIZE]) == b"Z" * SECTOR_SIZE

    def test_latency_respected(self):
        mem, pic, disk = self._disk(latency=100)
        disk.write_port(PORT_CMD, CMD_READ)
        disk.tick(99)
        assert disk.read_port(DISK_STATUS) == STATUS_BUSY
        disk.tick(1)
        assert disk.read_port(DISK_STATUS) == STATUS_DONE

    def test_snapshot_restore_mid_command(self):
        mem, pic, disk = self._disk(latency=10)
        disk.write_port(PORT_SECTOR, 1)
        disk.write_port(PORT_ADDR, 0x100)
        disk.write_port(PORT_CMD, CMD_READ)
        disk.tick(4)
        snap = disk.snapshot()
        disk.tick(6)
        assert disk.status == STATUS_DONE
        disk.restore(snap)
        assert disk.status == STATUS_BUSY
        disk.tick(6)
        assert disk.status == STATUS_DONE

    def _command(self, disk, cmd, sector, addr):
        disk.write_port(PORT_SECTOR, sector)
        disk.write_port(PORT_ADDR, addr)
        disk.write_port(PORT_CMD, cmd)
        disk.tick(5)

    def _write(self, mem, disk, fill):
        mem.load_blob(0x200, fill * SECTOR_SIZE)
        self._command(disk, CMD_WRITE, 0, 0x200)
        assert disk.read_port(DISK_STATUS) == STATUS_DONE

    def test_rollback_across_write_restores_pre_write_bytes(self):
        mem, pic, disk = self._disk()
        before = bytes(disk.data)
        snap = disk.snapshot()
        self._write(mem, disk, b"A")
        assert disk.data[:SECTOR_SIZE] == b"A" * SECTOR_SIZE
        disk.restore(snap)
        assert bytes(disk.data) == before

    def test_write_after_rollback_takes_a_fresh_generation(self):
        mem, pic, disk = self._disk()
        snap0 = disk.snapshot()
        self._write(mem, disk, b"A")
        snap_a = disk.snapshot()
        disk.restore(snap0)
        self._write(mem, disk, b"B")
        # A generation names one data image: the divergent write B must
        # not reuse write A's, or restoring snap_a would skip its copy.
        assert disk.data_generation not in (snap0[0], snap_a[0])
        disk.restore(snap_a)
        assert disk.data[:SECTOR_SIZE] == b"A" * SECTOR_SIZE
        disk.restore(snap0)
        assert disk.data[:SECTOR_SIZE] == b"X" * SECTOR_SIZE

    def test_write_past_last_sector_is_a_counted_noop(self):
        mem, pic, disk = self._disk()
        before = disk.data[:]
        self._command(disk, CMD_WRITE, 4, 0x200)
        assert len(disk.data) == 4 * SECTOR_SIZE and disk.data[:] == before
        assert disk.bad_commands == 1 and disk.data_generation == 0
        assert disk.read_port(DISK_STATUS) == STATUS_DONE and pic.output

    def test_read_past_last_sector_is_a_counted_noop(self):
        mem, pic, disk = self._disk()
        mem.load_blob(0x100, b"M" * SECTOR_SIZE)
        self._command(disk, CMD_READ, 1 << 20, 0x100)
        assert mem.read_blob(0x100, SECTOR_SIZE) == b"M" * SECTOR_SIZE
        assert disk.bad_commands == 1
        assert disk.read_port(DISK_STATUS) == STATUS_DONE and pic.output

    def test_dma_past_memory_end_is_a_counted_noop(self):
        mem, pic, disk = self._disk()
        self._command(disk, CMD_READ, 0, mem.size - 4)
        assert mem.read32(mem.size - 4) == 0
        self._command(disk, CMD_WRITE, 2, mem.size - 4)
        assert disk.data[2 * SECTOR_SIZE : 3 * SECTOR_SIZE] == bytes(SECTOR_SIZE)
        assert disk.bad_commands == 2 and disk.commands == 2
        assert disk.read_port(DISK_STATUS) == STATUS_DONE and pic.output

    def test_bad_command_through_the_bus_does_not_raise(self):
        mem, bus, pic, timer, console, disk = build_standard_system()
        bus.write(PORT_SECTOR, 0)
        bus.write(PORT_ADDR, mem.size - 4)
        bus.write(PORT_CMD, CMD_READ)
        bus.tick(disk.latency)
        assert disk.bad_commands == 1
        assert bus.read(DISK_STATUS) == STATUS_DONE

    def test_bad_command_count_rolls_back(self):
        mem, pic, disk = self._disk()
        snap = disk.snapshot()
        self._command(disk, CMD_READ, 9, 0x100)
        assert disk.bad_commands == 1
        disk.restore(snap)
        assert disk.bad_commands == 0

    def test_oversized_image_is_rejected(self):
        mem = PhysicalMemory(8192)
        with pytest.raises(ValueError):
            Disk(InterruptController(), mem, num_sectors=4,
                 image=bytes(4 * SECTOR_SIZE + 1))
        full = Disk(InterruptController(), mem, num_sectors=4,
                    image=b"F" * (4 * SECTOR_SIZE))
        assert len(full.data) == 4 * SECTOR_SIZE

    def test_generation_zero_snapshot_aliases_the_image(self):
        image = b"X" * SECTOR_SIZE
        mem = PhysicalMemory(8192)
        disk = Disk(InterruptController(), mem, num_sectors=4, image=image)
        assert disk.snapshot()[1] is image
        blank = Disk(InterruptController(), mem, num_sectors=4)
        snap = blank.snapshot()
        assert snap[1] == b""
        mem.load_blob(0x200, b"W" * SECTOR_SIZE)
        self._command(blank, CMD_WRITE, 3, 0x200)
        blank.restore(snap)
        assert blank.data[:] == bytes(4 * SECTOR_SIZE)

    def test_restore_to_live_generation_copies_nothing(self):
        mem, pic, disk = self._disk()
        disk.write_port(PORT_SECTOR, 1)
        disk.write_port(PORT_ADDR, 0x100)
        disk.write_port(PORT_CMD, CMD_READ)
        snap = disk.snapshot()
        data = disk.data
        disk.tick(5)  # a read completes; the sector data is unchanged
        disk.restore(snap)
        assert disk.data is data
        assert disk.status == STATUS_BUSY


class TestBus:
    def test_power_port_requests_shutdown(self):
        bus = IOBus()
        bus.write(PORT_POWER, 3)
        assert bus.shutdown_requested and bus.shutdown_code == 3

    def test_unclaimed_port_reads_zero(self):
        bus = IOBus()
        assert bus.read(0x99) == 0

    def test_port_conflict_rejected(self):
        bus = IOBus()
        bus.attach(InterruptController())
        with pytest.raises(ValueError):
            bus.attach(InterruptController())

    def test_standard_system_wiring(self):
        mem, bus, pic, timer, console, disk = build_standard_system()
        assert bus.read(PORT_CTRL) == 0  # timer disabled at reset
        bus.write(PORT_DATA, ord("x"))
        assert console.text() == "x"

    def test_snapshot_restore_covers_shutdown(self):
        mem, bus, *_ = build_standard_system()
        snap = bus.snapshot()
        bus.write(PORT_POWER, 1)
        assert bus.shutdown_requested
        bus.restore(snap)
        assert not bus.shutdown_requested


class TestRotationalDisk:
    """Section 3.4: seek + rotational latency instead of a fixed delay."""

    def _disk(self):
        from repro.system.disk_timing import RotationalDiskModel

        mem = PhysicalMemory(8192)
        pic = InterruptController()
        model = RotationalDiskModel()
        disk = Disk(pic, mem, num_sectors=1024, timing_model=model)
        return mem, disk, model

    def _read(self, disk, sector):
        disk.write_port(PORT_SECTOR, sector)
        disk.write_port(PORT_ADDR, 0x100)
        disk.write_port(PORT_CMD, CMD_READ)
        units = 0
        while disk.read_port(DISK_STATUS) != STATUS_DONE:
            disk.tick(10)
            units += 10
        return units

    def test_far_seek_slower_than_sequential(self):
        mem, disk, model = self._disk()
        self._read(disk, 0)  # position the head
        near = self._read(disk, 1)
        mem2, disk2, model2 = self._disk()
        self._read(disk2, 0)
        far = self._read(disk2, 1000)
        assert far > near

    def test_track_buffer_hit_is_fast(self):
        mem, disk, model = self._disk()
        self._read(disk, 100)
        rehit = self._read(disk, 100)
        assert rehit <= model.buffer_hit_units + 10

    def test_deterministic_given_sequence(self):
        seq = [5, 900, 12, 300, 12]
        runs = []
        for _ in range(2):
            mem, disk, model = self._disk()
            runs.append([self._read(disk, s) for s in seq])
        assert runs[0] == runs[1]

    def test_snapshot_restores_mechanical_state(self):
        mem, disk, model = self._disk()
        self._read(disk, 500)
        snap = disk.snapshot()
        lat_after = self._read(disk, 800)
        disk.restore(snap)
        assert self._read(disk, 800) == lat_after
