"""The functional model: a full-system FastISA simulator with trace
generation, leapfrog checkpoints and ``set_pc`` rollback.

This is the reproduction's QEMU stand-in.  Like the paper's heavily
modified QEMU it:

* executes application, OS and BIOS code at the ISA level,
* emits an instruction trace entry per dynamic instruction,
* maintains periodic checkpoints plus memory/I-O logging so it can
  roll back to any non-committed instruction (``set_pc``),
* releases checkpoint resources as the timing model commits,
* can be forced down a mis-speculated path and later resteered.

Device time advances once per executed instruction (QEMU icount-style),
so interrupt delivery points are a deterministic function of the
committed instruction stream.  That determinism is what makes the two
couplings (lock-step, FAST) produce *identical* traces and therefore
identical cycle counts -- the core correctness invariant of this
reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.functional.blocks import BOUNDARY_SPEC_VALUES
from repro.functional.checkpoint import CheckpointManager
from repro.functional.cpu import MASK32, CPUMixin, ExecResult, Fault
from repro.functional.state import (
    STATUS_PREV_IE,
    STATUS_PREV_KERNEL,
    ArchState,
)
from repro.functional.trace import TraceEntry
from repro.isa.causes import CAUSE_DEVICE_IRQ, CAUSE_TIMER_IRQ, CAUSE_TLB_MISS, CAUSE_PROTECTION, CAUSE_INVALID_OPCODE
from repro.isa.encoding import EncodingError, decode
from repro.isa.instructions import Instr
from repro.isa.opcodes import OPCODES_BY_VALUE, REP_PREFIX, lookup
from repro.isa.program import ProgramImage
from repro.isa.registers import (
    SR_BADVADDR,
    SR_CAUSE,
    SR_EPC,
    SR_STATUS,
    STATUS_IE,
    STATUS_KERNEL,
)
from repro.microcode.table import MicrocodeTable
from repro.system.bus import IOBus, build_standard_system
from repro.system.interrupt_controller import IRQ_TIMER, InterruptController
from repro.system.memory import MemoryError_, PhysicalMemory
from repro.system.mmu import PAGE_SHIFT, ProtectionFault, SoftwareTLB, TLBMiss

VECTOR_BASE = 0x40  # all exceptions/interrupts enter here

NOP_INSTR = Instr(spec=lookup("NOP"))

# "Forever" for idle_horizon(): a halted CPU with interrupts disabled
# can only be woken by the timing model itself (cycle-driven delivery),
# so device time imposes no bound.  Callers clamp to their own budgets.
IDLE_HORIZON_MAX = 1 << 40

# Identity-keyed memo bound (see _count_coverage).
_COVERAGE_MEMO_LIMIT = 16384

# Byte-keyed decode memo bound (see _decode_bytes).
_DECODE_MEMO_LIMIT = 16384


class RollbackError(RuntimeError):
    """Rollback target is older than the oldest retained checkpoint."""


@dataclass
class FunctionalConfig:
    """Tunables mirroring the paper's QEMU configuration knobs."""

    checkpoint_interval: int = 32
    max_checkpoints: int = 4096
    # Translation (decode) cache: the block-chaining analog.  Turning it
    # off reproduces the paper's de-optimized QEMU data point.
    block_chaining: bool = True
    trace_compression: str = "full"  # or "bb"
    # Collect Table 1 microcode-coverage statistics while executing.
    collect_coverage: bool = True
    # FastBlock superblock trace cache (repro.functional.blocks):
    # capture hot straight-line regions after `superblock_threshold`
    # executions and replay them with a fused loop.  Observationally
    # identical to interpretation; requires block_chaining (it is the
    # same translation-cache ablation knob, only more so).
    superblocks: bool = True
    superblock_threshold: int = 16
    superblock_max_len: int = 64


@dataclass
class FunctionalStats:
    """Event counts the host-cost models later convert to time."""

    executed: int = 0  # instructions executed, incl. replay + wrong path
    traced: int = 0  # trace entries emitted
    wrong_path: int = 0  # trace entries emitted on a forced wrong path
    replayed: int = 0  # instructions re-executed during rollback
    rollbacks: int = 0
    set_pc_calls: int = 0
    interrupts: int = 0
    exceptions: int = 0
    halted_steps: int = 0
    forced_interrupts: int = 0  # delivered by the timing model (cycle mode)
    basic_blocks: int = 0  # ended by a control-flow instruction
    trace_words: int = 0  # 32-bit words shipped to the timing model
    decode_hits: int = 0
    decode_misses: int = 0

    @property
    def mean_basic_block(self) -> float:
        if not self.basic_blocks:
            return float(self.traced)
        return self.traced / self.basic_blocks


class FunctionalModel(CPUMixin):
    """Full-system functional simulator.  See module docstring."""

    def __init__(
        self,
        memory: Optional[PhysicalMemory] = None,
        bus: Optional[IOBus] = None,
        tlb: Optional[SoftwareTLB] = None,
        microcode: Optional[MicrocodeTable] = None,
        config: Optional[FunctionalConfig] = None,
    ):
        if memory is None or bus is None:
            memory, bus, _intctrl, _timer, _console, _disk = (
                build_standard_system()
            )
        self.memory = memory
        self.bus = bus
        self.tlb = tlb or SoftwareTLB()
        self.microcode = microcode or MicrocodeTable()
        self.config = config or FunctionalConfig()
        self.state = ArchState()
        self.stats = FunctionalStats()
        self.ckpt = CheckpointManager(
            interval=self.config.checkpoint_interval,
            max_checkpoints=self.config.max_checkpoints,
        )
        self.in_count = 0  # IN of the most recently executed instruction
        self._dispatch = self._build_dispatch()
        self._decode_cache: dict = {}
        # Host memo under the modelled decode cache: exact instruction
        # bytes -> Instr.  A modelled miss is still counted; the host
        # just reuses the one Instr those bytes always decode to.
        self._decode_memo: dict = {}
        # Identifies the current TLB content; pins the fetch
        # translations baked into user-mode superblocks.  Values come
        # from a never-reused allocator (TLBWR/TLBFLUSH take a fresh
        # one) so a generation maps one-to-one onto a TLB image:
        # rollback restores the checkpoint's generation alongside the
        # checkpoint's TLB snapshot, and blocks captured under it stay
        # valid while blocks from an abandoned divergent path can never
        # alias a live value.
        self.tlb_generation = 0
        self._tlb_gen_next = 1
        # True when the next PC is a basic-block entry (right after a
        # control transfer, serializing opcode, exception or interrupt):
        # the batched loop only consults the superblock cache there.
        self._at_boundary = True
        if self.config.superblocks and self.config.block_chaining:
            from repro.functional.blocks import SuperblockCache

            self.blocks: Optional[SuperblockCache] = SuperblockCache(
                self,
                threshold=self.config.superblock_threshold,
                max_len=self.config.superblock_max_len,
            )
            self._sb_pages = self.blocks.page_index
        else:
            self.blocks = None
            self._sb_pages = {}
        self._memview = memory.view()
        self._wrong_path = False
        self._replaying = False
        self._handler_pending = False
        self._intctrl = self._find_intctrl()
        # Timing-model-delivered interrupts, keyed by the commit
        # boundary (IN) they arrived after; consulted during replay.
        self._forced_irqs: dict = {}
        # Optional FastScope observer (repro.observability.events):
        # notified on checkpoint creation and rollback replay.  Purely
        # observational -- never consulted for simulation decisions.
        self.observer = None
        # Crack-once coverage memo: id(Instr) -> (instr, uop_count,
        # translated, table_version).  Keeping the Instr itself in the
        # value pins the object so its id cannot be recycled.  Identity
        # keys make staleness impossible: self-modifying code and
        # rollback already invalidate the per-page decode cache, so a
        # changed code byte yields the Instr of the new bytes.
        self._coverage_memo: dict = {}

    def _find_intctrl(self) -> Optional[InterruptController]:
        for device in self.bus.devices:
            if isinstance(device, InterruptController):
                return device
        return None

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------

    def load(self, image: ProgramImage) -> None:
        """Load *image* into physical memory and point the PC at it."""
        for segment in image.segments:
            self.memory.load_blob(segment.base, segment.data)
        self.state.pc = image.entry
        self._decode_cache.clear()
        self._at_boundary = True
        if self.blocks is not None:
            self.blocks.invalidate_all()
        self._take_checkpoint()  # baseline checkpoint at IN 0

    # ------------------------------------------------------------------
    # Main stepping
    # ------------------------------------------------------------------

    def execute_next(self) -> Optional[TraceEntry]:
        """Execute one instruction and return its trace entry.

        Returns ``None`` when the CPU is halted (waiting for an
        interrupt) or the system has shut down.  Each call while halted
        still advances device time by one unit, so a timer interrupt
        eventually wakes the CPU.
        """
        if self.bus.shutdown_requested:
            return None
        state = self.state
        if state.halted:
            self.bus.tick(1)
            self.stats.halted_steps += 1
            if not self._maybe_take_interrupt():
                return None
        else:
            self._maybe_take_interrupt()
        return self._step()

    def execute_into(self, sink, budget: int) -> int:
        """Execute up to *budget* instructions, appending their trace
        entries to *sink* (any object with ``append``).

        The batched busy-path producer: entry-for-entry identical to
        calling :meth:`execute_next` in a loop, but hot straight-line
        regions replay through the superblock cache
        (:mod:`repro.functional.blocks`), skipping per-instruction
        fetch/decode/dispatch.  Stops early (returning the count
        produced so far) when the CPU halts or the system shuts down --
        halted stepping stays with ``execute_next`` so device time
        advances exactly as the feeds expect.
        """
        produced = 0
        bus = self.bus
        state = self.state
        blocks = self.blocks
        # Consult the block cache only at basic-block boundaries, so
        # hotness counters see entry PCs (not every straight-line
        # interior PC) and the common interpreted instruction pays no
        # lookup.  The flag persists across calls: a span clipped by
        # the budget resumes mid-block and stays on the interpreter
        # until the next control transfer.
        boundary = self._at_boundary
        while produced < budget:
            if bus.shutdown_requested or state.halted:
                break
            if self._maybe_take_interrupt():
                boundary = True
            if boundary and blocks is not None and not self._wrong_path:
                n = blocks.step(sink, budget - produced)
                if n:
                    produced += n
                    boundary = blocks.exited_at_boundary
                    continue
            entry = self._step()
            if entry is None:  # unreachable outside rollback replay
                break
            sink.append(entry)
            produced += 1
            boundary = (entry.exception != 0
                        or entry.instr.spec.value in BOUNDARY_SPEC_VALUES)
        self._at_boundary = boundary
        return produced

    def idle_horizon(self) -> int:
        """How many further :meth:`execute_next` calls are guaranteed to
        be uneventful halted steps (device tick + no interrupt).

        A safe *under*-estimate of the wake-up distance: each device
        reports a lower bound on the time until it could raise an
        enabled IRQ (:meth:`repro.system.devices.Device.ticks_until_irq`)
        and the horizon stops one unit short of the earliest, so the
        waking tick itself is always executed step-by-step.  Returns 0
        whenever batching would be unsound (not halted, wrong path,
        shutdown, or an interrupt already pending).
        """
        state = self.state
        if not state.halted or self._wrong_path or self.bus.shutdown_requested:
            return 0
        intctrl = self._intctrl
        if not state.interrupts_enabled or intctrl is None:
            # Nothing can wake the CPU from device time; only the
            # timing model (cycle-driven delivery) or nothing at all.
            return IDLE_HORIZON_MAX
        if intctrl.output:
            return 0
        enabled = intctrl.enabled
        horizon = IDLE_HORIZON_MAX
        for device in self.bus.devices:
            bound = device.ticks_until_irq(enabled)
            if bound is not None and bound - 1 < horizon:
                horizon = bound - 1
                if horizon <= 0:
                    return 0
        return horizon

    def idle_steps(self, count: int) -> None:
        """Batch *count* uneventful halted steps (``count`` must not
        exceed :meth:`idle_horizon`): one bus tick of *count* units is
        device-time-identical to *count* single ticks when no enabled
        IRQ fires within the span."""
        self.bus.tick(count)
        self.stats.halted_steps += count

    def _maybe_take_interrupt(self) -> bool:
        state = self.state
        if self._wrong_path:
            return False  # interrupts are squashed on the wrong path
        if not state.interrupts_enabled:
            return False
        intctrl = self._intctrl
        if intctrl is None or not intctrl.output:
            return False
        line = intctrl.highest_pending()
        cause = CAUSE_TIMER_IRQ if line == IRQ_TIMER else CAUSE_DEVICE_IRQ
        self._enter_handler(cause, epc=state.pc, badvaddr=0)
        if not self._replaying:
            self.stats.interrupts += 1
        state.halted = False
        return True

    def _enter_handler(self, cause: int, epc: int, badvaddr: int) -> None:
        """Common exception/interrupt entry sequence."""
        state = self.state
        srs = state.srs
        srs[SR_EPC] = epc & MASK32
        srs[SR_CAUSE] = cause
        srs[SR_BADVADDR] = badvaddr & MASK32
        status = srs[SR_STATUS]
        new_status = status & ~(
            STATUS_IE | STATUS_KERNEL | STATUS_PREV_IE | STATUS_PREV_KERNEL
        )
        if status & STATUS_IE:
            new_status |= STATUS_PREV_IE
        if status & STATUS_KERNEL:
            new_status |= STATUS_PREV_KERNEL
        new_status |= STATUS_KERNEL  # handler runs in kernel, IE off
        srs[SR_STATUS] = new_status
        state.pc = VECTOR_BASE
        self._handler_pending = True
        self._at_boundary = True  # the handler entry starts a block

    def _step(self) -> Optional[TraceEntry]:
        state = self.state
        pc = state.pc
        # Fetch.
        try:
            ppc = self._translate(pc, False)
            instr = self._decode_at(ppc)
        except (TLBMiss, ProtectionFault, EncodingError) as exc:
            return self._fetch_fault(pc, exc)
        res = ExecResult((pc + instr.length) & MASK32)
        try:
            self._dispatch[instr.spec.value](instr, res)
        except Fault as fault:
            return self._exec_fault(pc, ppc, instr, fault)
        except (TLBMiss, ProtectionFault) as exc:
            fault = self._mmu_fault(exc)
            return self._exec_fault(pc, ppc, instr, fault)
        except (IndexError, MemoryError_) as exc:
            # Garbage decoded on a forced wrong path: register fields
            # beyond the architectural file or wild physical addresses.
            # Architecturally this is an invalid instruction.
            fault = Fault(CAUSE_INVALID_OPCODE, pc)
            return self._exec_fault(pc, ppc, instr, fault)
        state.pc = res.next_pc
        return self._complete(pc, ppc, instr, res, exception=0)

    def _mmu_fault(self, exc) -> Fault:
        if isinstance(exc, TLBMiss):
            return Fault(CAUSE_TLB_MISS, exc.vaddr)
        return Fault(CAUSE_PROTECTION, exc.vaddr)

    def _fetch_fault(self, pc: int, exc) -> Optional[TraceEntry]:
        """A fault during fetch: no instruction executes; the handler is
        entered directly and the *next* entry is the handler's first."""
        if self._wrong_path:
            # Squashed anyway: emit a wrong-path bubble and move on.
            state = self.state
            state.pc = (pc + 1) & MASK32
            res = ExecResult(state.pc)
            return self._complete(pc, pc & MASK32, NOP_INSTR, res, exception=0)
        if isinstance(exc, EncodingError):
            fault = Fault(CAUSE_INVALID_OPCODE, pc)
        else:
            fault = self._mmu_fault(exc)
        self._enter_handler(fault.cause, epc=pc, badvaddr=fault.badvaddr)
        if not self._replaying:
            self.stats.exceptions += 1
        return self._step()

    def _exec_fault(
        self, pc: int, ppc: int, instr: Instr, fault: Fault
    ) -> Optional[TraceEntry]:
        """A fault during execution: the instruction appears in the trace
        with its exception cause, then the handler instructions follow."""
        state = self.state
        if self._wrong_path:
            state.pc = (pc + instr.length) & MASK32
            res = ExecResult(state.pc)
            return self._complete(pc, ppc, instr, res, exception=fault.cause)
        epc = (pc + instr.length) & MASK32 if fault.epc_next else pc
        self._enter_handler(fault.cause, epc=epc, badvaddr=fault.badvaddr)
        if not self._replaying:
            self.stats.exceptions += 1
        self._handler_pending = False  # the faulting entry itself flags it
        res = ExecResult(state.pc)  # next_pc = handler vector
        return self._complete(pc, ppc, instr, res, exception=fault.cause)

    def _complete(
        self, pc: int, ppc: int, instr: Instr, res: ExecResult, exception: int
    ) -> TraceEntry:
        self.in_count += 1
        self.stats.executed += 1
        if self._replaying:
            self.stats.replayed += 1
            self.bus.tick(1)
            return None  # replay emits no trace entries
        handler_entry = self._handler_pending
        self._handler_pending = False
        entry = TraceEntry(
            in_no=self.in_count,
            pc=pc,
            ppc=ppc,
            instr=instr,
            next_pc=res.next_pc,
            iterations=res.iterations,
            mem_vaddr=res.mem_vaddr,
            mem_paddr=res.mem_paddr,
            exception=exception,
            handler_entry=handler_entry,
            tlb_vpn=res.tlb_vpn,
            tlb_pte=res.tlb_pte,
            io_port=res.io_port,
            io_value=res.io_value,
            wrong_path=self._wrong_path,
        )
        self.stats.traced += 1
        if self._wrong_path:
            self.stats.wrong_path += 1
        if instr.spec.is_control or exception:
            self.stats.basic_blocks += 1
        self.stats.trace_words += entry.trace_words(self.config.trace_compression)
        if self.config.collect_coverage and not self._wrong_path:
            self._count_coverage(instr, res.iterations)
        self.bus.tick(1)
        if self.ckpt.due(self.in_count):
            self._take_checkpoint()
        return entry

    # ------------------------------------------------------------------
    # Decode (translation) cache
    # ------------------------------------------------------------------

    def _decode_at(self, ppc: int) -> Instr:
        if not self.config.block_chaining:
            self.stats.decode_misses += 1
            return self._decode_bytes(ppc)
        page = ppc >> PAGE_SHIFT
        page_cache = self._decode_cache.get(page)
        if page_cache is None:
            page_cache = self._decode_cache[page] = {}
        instr = page_cache.get(ppc)
        if instr is None:
            instr = page_cache[ppc] = self._decode_bytes(ppc)
            self.stats.decode_misses += 1
        else:
            self.stats.decode_hits += 1
        return instr

    def _decode_bytes(self, ppc: int) -> Instr:
        """Decode the instruction at *ppc*, reusing the Instr of any
        earlier decode of the same bytes.

        ``decode`` is a pure function of the instruction's bytes (REP
        prefix included), so the memo is exact.  Invalid bytes go
        straight to ``decode``, which raises as always; so do truncated
        ones, whose short key can match no complete encoding.  Shared
        objects also keep the identity-keyed crack and coverage memos
        warm across code-page invalidations.
        """
        mem = self._memview
        try:
            op = mem[ppc]
            if op == REP_PREFIX:
                length = OPCODES_BY_VALUE[mem[ppc + 1]].length + 1
            else:
                length = OPCODES_BY_VALUE[op].length
        except (IndexError, KeyError):
            return decode(mem, ppc)[0]
        key = mem[ppc : ppc + length].tobytes()
        memo = self._decode_memo
        instr = memo.get(key)
        if instr is None:
            instr = decode(mem, ppc)[0]
            if len(memo) >= _DECODE_MEMO_LIMIT:
                memo.clear()
            memo[key] = instr
        return instr

    def _count_coverage(self, instr: Instr, iterations: int) -> None:
        """Update Table 1 coverage counters for one executed instruction.

        Equivalent to ``microcode.crack(instr)`` /
        ``crack_rep(instr, iterations)`` with counting on, but the
        crack itself happens once per decoded Instr object: the µop
        count and translated flag are memoized by identity, so the
        per-instruction hot path is a dict hit instead of a key-tuple
        hash plus a cache probe inside the table.
        """
        microcode = self.microcode
        memo = self._coverage_memo
        entry = memo.get(id(instr))
        if entry is None or entry[0] is not instr or entry[3] != microcode.version:
            uops, translated = microcode.crack(instr, count=False)
            if len(memo) >= _COVERAGE_MEMO_LIMIT:
                memo.clear()
            entry = (instr, len(uops), translated, microcode.version)
            memo[id(instr)] = entry
        coverage = microcode.coverage
        if entry[2]:
            coverage.translated += 1
        else:
            coverage.untranslated += 1
        if instr.spec.iclass == "string":
            # crack_rep: the per-iteration body repeats; zero iterations
            # degenerate to the single REP-check NOP.
            coverage.uops += entry[1] * iterations if iterations > 0 else 1
        else:
            coverage.uops += entry[1]

    # ------------------------------------------------------------------
    # Logged physical writes (undo support + decode invalidation)
    # ------------------------------------------------------------------

    def _phys_write32(self, paddr: int, value: int) -> None:
        self.ckpt.log_write(paddr, self.memory.read32(paddr))
        self.memory.write32(paddr, value)
        self._invalidate_code(paddr)

    def _phys_write8(self, paddr: int, value: int) -> None:
        aligned = paddr & ~3
        self.ckpt.log_write(aligned, self.memory.read32(aligned))
        self.memory.write8(paddr, value)
        self._invalidate_code(paddr)

    def _invalidate_code(self, paddr: int) -> None:
        page = paddr >> PAGE_SHIFT
        if page in self._decode_cache:
            del self._decode_cache[page]
        # An instruction starting near the end of the previous page may
        # span into this one.
        if (paddr & ((1 << PAGE_SHIFT) - 1)) < 8 and (page - 1) in self._decode_cache:
            del self._decode_cache[page - 1]
        # Superblock pages cover each instruction's full byte range, so
        # one probe of the written page suffices (no prev-page case).
        # The write then kills only blocks whose instruction bytes it
        # overlaps -- data stores into a code page leave them alone.
        if page in self._sb_pages:
            self.blocks.invalidate_write(paddr)

    # ------------------------------------------------------------------
    # Checkpoints and rollback
    # ------------------------------------------------------------------

    def _bump_tlb_generation(self) -> None:
        """TLB content changed (TLBWR/TLBFLUSH): move to a fresh, never
        previously used generation so stale user-mode superblocks
        lazily drop on their next lookup."""
        self.tlb_generation = self._tlb_gen_next
        self._tlb_gen_next += 1

    def _take_checkpoint(self) -> None:
        self.ckpt.take(
            self.in_count,
            self.state.snapshot(),
            (self.tlb.snapshot(), self.tlb_generation),
            self.bus.snapshot(),
        )
        if self.observer is not None:
            self.observer.on_checkpoint(self.in_count, len(self.ckpt))

    def rollback_to(self, target_in: int) -> int:
        """Restore state to just after instruction *target_in*.

        Returns the number of instructions re-executed to reach the
        target (the rollback cost the host model charges for).
        """
        if target_in > self.in_count:
            raise RollbackError(
                "cannot roll forward: target %d > current %d"
                % (target_in, self.in_count)
            )
        if target_in == self.in_count:
            return 0
        ckpt = self.ckpt.checkpoint_for(target_in)
        if ckpt is None:
            raise RollbackError(
                "rollback target %d is older than the oldest checkpoint" % target_in
            )
        undo = list(self.ckpt.undo_entries_since(ckpt))
        self.memory.apply_undo(undo)
        touched_pages = {addr >> PAGE_SHIFT for addr, _ in undo}
        for page in touched_pages:
            self._decode_cache.pop(page, None)
        sb_pages = self._sb_pages
        if sb_pages:
            # Undoing a write changes memory at exactly that word: kill
            # only the blocks whose instruction bytes it overlaps (the
            # overwhelmingly common undo entry is a data store).
            invalidate_write = self.blocks.invalidate_write
            for addr, _ in undo:
                if (addr >> PAGE_SHIFT) in sb_pages:
                    invalidate_write(addr)
        self.state.restore(ckpt.arch)
        tlb_snapshot, tlb_gen = ckpt.tlb
        self.tlb.restore(tlb_snapshot)
        if tlb_gen != self.tlb_generation:
            # TLBWR/TLBFLUSH effects were rewound.  Restoring the
            # checkpoint's generation is exact: generations map
            # one-to-one onto TLB images (the allocator never reuses a
            # value), so superblocks captured under it remain valid and
            # blocks from the abandoned path stale-drop lazily.
            self.tlb_generation = tlb_gen
        self.bus.restore(ckpt.bus)
        self.ckpt.truncate_to(ckpt)
        self.in_count = ckpt.in_no
        self.ckpt.stats.rollbacks += 1
        self.stats.rollbacks += 1
        # Re-execute forward to the exact target instruction.
        replayed = target_in - self.in_count
        if replayed:
            self._replaying = True
            try:
                # Replay mirrors execute_next exactly (interrupt checks
                # included) so the re-executed stream is bit-identical to
                # the original run -- determinism is what makes rollback
                # sound across I/O and interrupts.
                while self.in_count < target_in:
                    forced = self._forced_irqs.get(self.in_count)
                    if forced is not None and self._intctrl is not None:
                        # A timing-model-delivered interrupt arrived at
                        # this boundary in the original run: re-raise it
                        # (raising is idempotent) so replay matches.
                        self._intctrl.raise_irq(forced)
                        self.state.halted = False if (
                            self.state.interrupts_enabled
                        ) else self.state.halted
                    if self.state.halted:
                        self.bus.tick(1)
                        if not self._maybe_take_interrupt():
                            continue
                    else:
                        self._maybe_take_interrupt()
                    self._step()
            finally:
                self._replaying = False
            self.ckpt.stats.reexecuted_instructions += replayed
        if self.observer is not None:
            self.observer.on_rollback(target_in, replayed)
        return replayed

    def set_pc(self, in_no: int, new_pc: int) -> int:
        """The paper's ``set_pc`` command: roll back to *in_no*, removing
        the effects of that instruction, and continue from *new_pc*.

        Returns the re-execution count (rollback overhead).
        """
        self.stats.set_pc_calls += 1
        replayed = self.rollback_to(in_no - 1)
        self.state.pc = new_pc & MASK32
        self.state.halted = False
        self._at_boundary = True  # resteer targets start a block
        return replayed

    def commit(self, in_no: int) -> None:
        """The timing model committed everything up to *in_no*: release
        rollback resources older than that point."""
        self.ckpt.release(in_no)

    # ------------------------------------------------------------------
    # Timing-model-generated interrupts (section 3.4)
    # ------------------------------------------------------------------

    def deliver_interrupt(self, after_in: int, line: int):
        """The timing model decided an interrupt arrives at the commit
        boundary after instruction *after_in* ("the timing model
        generates interrupts for reproducibility and passes those
        interrupts to the functional model").

        Rolls the (possibly far-ahead, possibly wrong-path) functional
        model back to that boundary, raises the line and takes the
        interrupt if architecturally enabled.  The delivery is logged so
        later checkpoint replays reproduce it at the same boundary.

        Returns ``(taken, replayed_instructions)``.
        """
        self.exit_wrong_path()
        replayed = self.rollback_to(after_in)
        self._forced_irqs[after_in] = line
        if self._intctrl is not None:
            self._intctrl.raise_irq(line)
        self.state.halted = False if self.state.interrupts_enabled else (
            self.state.halted
        )
        taken = self._maybe_take_interrupt()
        if not self._replaying:
            self.stats.forced_interrupts += 1
        return taken, replayed

    # ------------------------------------------------------------------
    # Wrong-path control (used by the FAST driver)
    # ------------------------------------------------------------------

    def enter_wrong_path(self) -> None:
        """Mark subsequent execution as forced-wrong-path: faults become
        bubbles, interrupts are deferred, trace entries are flagged."""
        self._wrong_path = True

    def exit_wrong_path(self) -> None:
        self._wrong_path = False

    @property
    def on_wrong_path(self) -> bool:
        return self._wrong_path

    # ------------------------------------------------------------------
    # Standalone run helper
    # ------------------------------------------------------------------

    def run(
        self,
        max_instructions: int = 1_000_000,
        on_entry: Optional[Callable[[TraceEntry], None]] = None,
    ) -> int:
        """Run standalone (functional-only) until shutdown or the budget
        is exhausted.  Returns the number of instructions executed."""
        executed = 0
        idle = 0
        sink: list = []
        while executed < max_instructions:
            if (
                self.blocks is not None
                and not self.state.halted
                and not self.bus.shutdown_requested
            ):
                n = self.execute_into(
                    sink, min(4096, max_instructions - executed)
                )
                if n:
                    if self.bus.shutdown_requested:
                        # Mirror the stepped loop below: the shutdown-
                        # raising instruction executes but is neither
                        # counted nor reported.
                        sink.pop()
                        n -= 1
                    if on_entry is not None:
                        for batched in sink:
                            on_entry(batched)
                    del sink[:]
                    before = executed
                    executed += n
                    idle = 0
                    if executed // 1024 > before // 1024:
                        # Standalone runs have no timing model
                        # committing for them; release rollback state
                        # on the same 1024-instruction grid the stepped
                        # loop below uses (in_count == executed here).
                        self.commit((executed // 1024) * 1024)
                    if self.bus.shutdown_requested:
                        break
                    continue
                del sink[:]
            entry = self.execute_next()
            if self.bus.shutdown_requested:
                break
            if entry is None:
                if self.state.halted and not self.state.interrupts_enabled:
                    break  # HALT with no possible wake: program finished
                idle += 1
                if idle > 200_000:
                    raise RuntimeError("functional model wedged while halted")
                continue
            idle = 0
            executed += 1
            if executed % 1024 == 0:
                # Standalone runs have no timing model committing for
                # them; everything executed is final, so release
                # rollback resources ourselves.
                self.commit(self.in_count)
            if on_entry is not None:
                on_entry(entry)
        return executed
