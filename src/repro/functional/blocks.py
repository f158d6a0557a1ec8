"""FastBlock: a superblock trace cache for the functional model.

The busy-path analog of the idle fast-forward: once a straight-line
region (entry PC up to and including the first control transfer, or up
to the first serializing/privileged instruction) has been interpreted
``threshold`` times, it is captured as a *superblock* -- every
instruction pre-translated, pre-decoded and pre-cracked -- and later
executions replay it with one fused loop that skips per-instruction
fetch, decode and dispatch-table lookups.  This is the paper's
heavily-modified-QEMU translation cache in miniature (and Manticore's
static-compilation thesis applied to an interpreter): per-instruction
decision-making moves to a one-time capture step.

Replay is *observationally identical* to interpretation:

* trace entries carry exactly the fields ``FunctionalModel._complete``
  would have produced (excluded opcodes guarantee the TLB/IO trace
  fields stay at their defaults);
* ``FunctionalStats`` counters advance by the same amounts, including
  Table 1 microcode-coverage accounting -- except the decode counts on
  the forward path: forward replay counts every step as a decode hit
  instead of probing the decode cache, and capture's own fetches count
  as lookups, so ``decode_hits``/``decode_misses`` differ from an
  interpreted run (181.mcf: 145,605/6,525 with superblocks, 145,436/
  6,582 without);
* device time advances one bus tick per instruction.  Ticks are
  *deferred* and applied in one batch, which is device-state-identical
  to single ticks (the idle fast-forward already relies on this)
  provided no device effect lands inside the span -- so the replay
  length is clamped to the interrupt horizon (when interrupts are
  enabled) and to the DMA horizon (always; see
  ``Device.ticks_until_dma``), and the deferred ticks are flushed
  before every mid-block checkpoint, fault, and block exit;
* checkpoints are taken at exactly the interpreted run's boundaries
  (the ``CheckpointManager.next_due`` grid);
* a fault inside the block flushes the deferred state and delegates to
  ``FunctionalModel._exec_fault`` -- the same code path interpretation
  takes -- so partial string-op mutation and precise-exception
  behavior match bit-for-bit.

Validity.  A superblock is keyed by ``(entry PC, kernel_mode)`` and
records the physical pages its instruction bytes span.  Instead of a
global memory-image generation, invalidation is eager: every logged
physical write, and every word rollback's undo log rewrites, probes a
per-page record of the 4-byte words live blocks' instruction bytes
cover, and only a covered word pays for the interval scan that kills
the blocks the write overlaps.  A killed block also sets ``dead`` so
an in-flight replay of it exits cleanly after the offending store's
instruction.
User-mode blocks additionally pin the TLB generation (bumped by TLBWR,
TLBFLUSH and rollback's TLB restore) since their per-instruction fetch
translations were resolved at capture time; kernel-mode blocks use
identity mapping and need no pin.  Every block pins the microcode
table version (hand-patching re-cracks) and the trace-compression mode
(it bakes per-entry trace-word counts).

Exact-accounting mode.  Rollback replay and the forced wrong path
enter through ``step_exact``: a read-only lookup (no heat, capture,
drop or ``SuperblockStats``) and a replay that probes the decode cache
per step exactly as ``FunctionalModel._decode_at`` does.  Those two
paths therefore match interpretation in every count, the decode counts
included.

Serializing and trace-visible-side-effect opcodes (HALT, SYSCALL, INT,
IRET, CLI, STI, IN, OUT, TLBWR, TLBFLUSH, MOVSR, MOVRS) never enter a
block: mode, interrupt-enable and device-port state are therefore
constant across a replay, which is what makes hoisting the interrupt
check to the block boundary sound.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.functional.cpu import ExecResult, Fault, MASK32
from repro.functional.trace import TraceEntry
from repro.isa.causes import CAUSE_INVALID_OPCODE
from repro.isa.encoding import EncodingError
from repro.isa.registers import SR_STATUS, STATUS_IE, STATUS_KERNEL
from repro.system.memory import MemoryError_
from repro.system.mmu import PAGE_SHIFT, PAGE_SIZE, ProtectionFault, TLBMiss

# Opcodes that terminate capture *without* being included: they
# serialize (mode/IE changes, HALT), touch device ports, read host
# counters, or carry TLB/IO payloads in their trace entries.
EXCLUDED_OPCODES = frozenset({
    "HALT", "SYSCALL", "INT", "IRET", "CLI", "STI",
    "IN", "OUT", "TLBWR", "TLBFLUSH", "MOVSR", "MOVRS",
})

# Opcodes whose trace entry always carries a data address (strings are
# conditional: a REP with count 0 never touches memory).
MEM_OPCODES = frozenset({
    "LD", "LDB", "ST", "STB", "PUSH", "POP", "CALL", "CALLR", "RET",
    "FLD", "FST",
})

MIN_BLOCK_LEN = 2

# Spec values at which a block-entry boundary follows: control
# transfers, excluded (serializing) opcodes.  The model's batched loop
# only consults the block cache right after one of these (or after an
# exception/interrupt), so hotness counts mean "times this basic-block
# entry was reached" and straight-line interior PCs never pollute the
# tables.
def _boundary_values() -> frozenset:
    from repro.isa.opcodes import OPCODES

    return frozenset(
        spec.value for name, spec in OPCODES.items()
        if spec.is_control or name in EXCLUDED_OPCODES
    )


BOUNDARY_SPEC_VALUES = _boundary_values()

# Bound on the hotness-counter table; wholesale reset on overflow is
# deterministic and only costs re-warming.
_HEAT_LIMIT = 1 << 16

_NO_BOUND = 1 << 40

# One byte per 4-byte physical word in a code page's covered-word record.
WORDS_PER_PAGE = PAGE_SIZE >> 2

# Sentinel stored in the block table for entry points that failed
# capture (first instruction excluded/undecodable), so they are not
# re-walked on every execution.
_UNCAPTURABLE = False


class SuperblockStats:
    """Replay-engine counters (FastScope-exposed via the feed)."""

    __slots__ = ("hits", "replayed_instructions", "misses", "captures",
                 "capture_failures", "invalidations", "horizon_bails")

    def __init__(self) -> None:
        self.hits = 0  # block replays started
        self.replayed_instructions = 0
        self.misses = 0  # lookups finding no (valid) block
        self.captures = 0
        self.capture_failures = 0
        self.invalidations = 0  # blocks killed (stores/rollback/etc.)
        self.horizon_bails = 0  # replays clipped to zero by a horizon


class Superblock:
    """One captured straight-line region.

    ``steps`` is a tuple of per-instruction tuples
    ``(pc, ppc, instr, handler, seq_next, is_ctrl, words, uop_n,
    translated, is_string)`` -- everything the fused replay loop needs
    without touching the decode path.
    """

    __slots__ = ("key", "steps", "n", "pages", "intervals", "tlb_gen",
                 "mc_version", "compression", "dead")

    def __init__(self, key: Tuple[int, bool], steps: Tuple[tuple, ...],
                 pages: Set[int], intervals: Tuple[Tuple[int, int], ...],
                 tlb_gen: int, mc_version: int, compression: str):
        self.key = key
        self.steps = steps
        self.n = len(steps)
        self.pages = pages
        # Merged [start, end) physical byte ranges of the instruction
        # bytes -- writes are checked against these, so data sharing a
        # page with hot code does not kill the block.
        self.intervals = intervals
        self.tlb_gen = tlb_gen
        self.mc_version = mc_version
        self.compression = compression
        self.dead = False


class SuperblockCache:
    """Owns the block table, hotness counters and the page index."""

    def __init__(self, fm, threshold: int = 16, max_len: int = 64):
        self.fm = fm
        self.threshold = max(2, threshold)
        self.max_len = max(MIN_BLOCK_LEN, max_len)
        self.stats = SuperblockStats()
        self._blocks: Dict[Tuple[int, bool], object] = {}
        self._heat: Dict[Tuple[int, bool], int] = {}
        # page -> set of block keys whose code bytes touch that page.
        self.page_index: Dict[int, Set[Tuple[int, bool]]] = {}
        # page -> one byte per 4-byte word of the page, nonzero where
        # the instruction bytes of a live block on the page cover the
        # word; the same page set as page_index.  FunctionalModel's
        # _invalidate_code and _rewind test a written word here and
        # call invalidate_write only on a covered one.
        self.code_words: Dict[int, bytearray] = {}
        # Whether the last replay exited at a basic-block boundary (the
        # batched loop resumes cache lookups there) or mid-block (a
        # budget/horizon clip: the interpreter carries on to the next
        # control transfer without consulting the cache).
        self.exited_at_boundary = True

    # -- invalidation -----------------------------------------------------

    def invalidate_all(self) -> None:
        """Drop every block and reset hotness (fresh memory image).
        ``code_words`` is cleared in place -- the model aliases it."""
        for block in self._blocks.values():
            if isinstance(block, Superblock):
                block.dead = True
                self.stats.invalidations += 1
        self._blocks.clear()
        self._heat.clear()
        self.page_index.clear()
        self.code_words.clear()

    def covers(self, paddr: int) -> bool:
        """Whether a write treated as 4 bytes wide at *paddr* (as
        :meth:`invalidate_write` treats it) touches a covered word:
        the word of *paddr* and, when *paddr* is unaligned, the next
        one, which may lie on the next page.  The model tests the
        first word in line and calls this only for unaligned writes."""
        code_words = self.code_words
        for addr in ((paddr, paddr + 3) if paddr & 3 else (paddr,)):
            words = code_words.get(addr >> PAGE_SHIFT)
            if words is not None and words[(addr & (PAGE_SIZE - 1)) >> 2]:
                return True
        return False

    def invalidate_write(self, paddr: int) -> None:
        """A logged physical write landed at *paddr* (treated as 4
        bytes wide, covering both write32 and an unaligned write8):
        kill only the blocks whose instruction bytes it overlaps.  The
        page index is the first-level filter; the interval check is
        what lets data stores share a page with hot code without
        killing it -- by far the common case in small images."""
        keys = self.page_index.get(paddr >> PAGE_SHIFT)
        if not keys:
            return
        end = paddr + 4
        doomed = None
        for key in keys:
            block = self._blocks.get(key)
            if isinstance(block, Superblock):
                for lo, hi in block.intervals:
                    if lo < end and paddr < hi:
                        if doomed is None:
                            doomed = [block]
                        else:
                            doomed.append(block)
                        break
        if doomed:
            for block in doomed:
                self._drop(block)

    def _drop(self, block: Superblock) -> None:
        """Remove one stale (version/generation-mismatched) block and
        rebuild the covered-word record of each page it was on from
        the blocks still there."""
        self._blocks.pop(block.key, None)
        block.dead = True
        self.stats.invalidations += 1
        for page in block.pages:
            index = self.page_index.get(page)
            if index is not None:
                index.discard(block.key)
                if not index:
                    del self.page_index[page]
                    del self.code_words[page]
                    continue
                self.code_words[page] = bytearray(WORDS_PER_PAGE)
                for key in index:
                    self._cover(self._blocks[key], page)

    def _cover(self, block: Superblock, page: Optional[int] = None) -> None:
        """Mark the words *block*'s instruction bytes cover, on every
        page they span or only on *page*."""
        code_words = self.code_words
        for lo, hi in block.intervals:
            for p in range(lo >> PAGE_SHIFT, ((hi - 1) >> PAGE_SHIFT) + 1):
                if page is not None and p != page:
                    continue
                words = code_words.get(p)
                if words is None:
                    words = code_words[p] = bytearray(WORDS_PER_PAGE)
                base = p << PAGE_SHIFT
                first = (max(lo, base) - base) >> 2
                last = (min(hi, base + PAGE_SIZE) - 1 - base) >> 2
                words[first:last + 1] = b"\x01" * (last + 1 - first)

    # -- lookup / capture -------------------------------------------------

    def step(self, sink: List[TraceEntry], budget: int) -> int:
        """Replay a superblock at the FM's current PC if one applies.

        Returns the number of trace entries appended to *sink* (0 means
        no block: the caller falls back to single-step interpretation).
        """
        fm = self.fm
        state = fm.state
        key = (state.pc, state.srs[SR_STATUS] & STATUS_KERNEL != 0)
        block = self._blocks.get(key)
        if block is None:
            heat = self._heat
            count = heat.get(key, 0) + 1
            if count < self.threshold:
                if len(heat) >= _HEAT_LIMIT:
                    heat.clear()
                heat[key] = count
                self.stats.misses += 1
                return 0
            heat.pop(key, None)
            block = self._capture(key)
            if block is None:
                self._blocks[key] = _UNCAPTURABLE
                self.stats.capture_failures += 1
                return 0
            self.stats.captures += 1
            self._blocks[key] = block
            page_index = self.page_index
            for page in block.pages:
                index = page_index.get(page)
                if index is None:
                    index = page_index[page] = set()
                index.add(key)
            self._cover(block)
        elif block is _UNCAPTURABLE:
            return 0
        elif self._stale(block, key[1]):
            self._drop(block)
            self.stats.misses += 1
            return 0
        return self._replay(block, sink, budget)

    def step_exact(self, sink: Optional[List[TraceEntry]],
                   budget: int) -> int:
        """Replay the live block at the FM's PC, if there is one, in
        exact-accounting mode: rollback replay (``fm._replaying``; no
        entries, *sink* unused) or the forced wrong path
        (``fm._wrong_path``; entries flagged ``wrong_path``).

        The lookup is read-only -- no heat, no capture, no drop -- and
        ``SuperblockStats`` do not move.  Every step probes the decode
        cache as ``FunctionalModel._decode_at`` does, so the decode
        counts match interpretation exactly.  Returns the number of
        instructions executed (0: interpret this one).
        """
        state = self.fm.state
        kernel = state.srs[SR_STATUS] & STATUS_KERNEL != 0
        block = self._blocks.get((state.pc, kernel))
        if not block or self._stale(block, kernel):
            return 0
        return self._replay(block, sink, budget)

    def _stale(self, block: Superblock, kernel: bool) -> bool:
        """Captured under another microcode version, trace-compression
        mode or (user mode only) TLB generation."""
        fm = self.fm
        return (
            block.mc_version != fm.microcode.version
            or block.compression != fm.config.trace_compression
            or (not kernel and block.tlb_gen != fm.tlb_generation)
        )

    def _capture(self, key: Tuple[int, bool]) -> Optional[Superblock]:
        """Walk forward from the entry PC, pre-decoding and pre-cracking
        until the first control transfer, excluded opcode, fault-at-
        fetch, or the length cap."""
        fm = self.fm
        vpc, _kernel = key
        microcode = fm.microcode
        compression = fm.config.trace_compression
        base_words = 2 if compression == "bb" else 4
        dispatch = fm._dispatch
        steps: List[tuple] = []
        pages: Set[int] = set()
        intervals: List[list] = []
        for _ in range(self.max_len):
            try:
                ppc = fm._translate(vpc, False)
                instr = fm._decode_at(ppc)
            except (TLBMiss, ProtectionFault, EncodingError, IndexError,
                    MemoryError_):
                break
            spec = instr.spec
            if spec.name in EXCLUDED_OPCODES:
                break
            length = instr.length
            seq_next = (vpc + length) & MASK32
            is_ctrl = spec.is_control
            is_string = spec.iclass == "string"
            uops, translated = microcode.crack(instr, count=False)
            words = base_words
            if not is_string and spec.name in MEM_OPCODES:
                words += 1
            pages.update(range(ppc >> PAGE_SHIFT,
                               ((ppc + length - 1) >> PAGE_SHIFT) + 1))
            if intervals and intervals[-1][1] == ppc:
                intervals[-1][1] = ppc + length
            else:
                intervals.append([ppc, ppc + length])
            steps.append((vpc, ppc, instr, dispatch[spec.value], seq_next,
                          is_ctrl, words, len(uops), translated, is_string))
            if is_ctrl:
                break
            vpc = seq_next
        if len(steps) < MIN_BLOCK_LEN:
            return None
        return Superblock(key, tuple(steps), pages,
                          tuple((lo, hi) for lo, hi in intervals),
                          fm.tlb_generation, microcode.version, compression)

    # -- replay horizons --------------------------------------------------

    def _horizon(self, interrupts_enabled: bool) -> int:
        """How many instructions may replay before a deferred bus tick
        could change what the block observes: the earliest enabled IRQ
        (checked at block boundaries only) and the earliest DMA memory
        effect (mid-block loads must see it land on time).

        With the interrupt check happening *before* instruction k --
        i.e. after k-1 device ticks -- a bound of B ticks admits
        exactly B replayed instructions.
        """
        fm = self.fm
        horizon = _NO_BOUND
        intctrl = fm._intctrl
        if interrupts_enabled and intctrl is not None:
            if intctrl.output:
                return 0
            enabled = intctrl.enabled
            for device in fm.bus.devices:
                bound = device.ticks_until_irq(enabled)
                if bound is not None and bound < horizon:
                    horizon = bound
        for device in fm.bus.devices:
            bound = device.ticks_until_dma()
            if bound is not None and bound < horizon:
                horizon = bound
        return horizon

    # -- the fused replay loop -------------------------------------------

    def _replay(self, block: Superblock, sink: Optional[List[TraceEntry]],
                budget: int) -> int:
        fm = self.fm
        state = fm.state
        # Three modes, read off the FM.  Forward (neither flag) is the
        # batched producer's.  Rollback replay and the forced wrong path
        # come through step_exact: each step probes the decode cache as
        # FunctionalModel._decode_at does, and SuperblockStats stay put.
        # Rollback replay emits nothing, takes no checkpoint and leaves
        # _handler_pending set, as FunctionalModel._complete does while
        # replaying.
        replaying = fm._replaying
        wrong_path = fm._wrong_path
        forward = not (replaying or wrong_path)
        # Interrupts are squashed on the wrong path: only DMA bounds it.
        horizon = self._horizon(
            state.srs[SR_STATUS] & STATUS_IE != 0 and not wrong_path)
        cap = budget if budget < horizon else horizon
        if cap <= 0:
            if forward:
                self.stats.horizon_bails += 1
            return 0
        bus = fm.bus
        tlb = fm.tlb
        ckpt = fm.ckpt
        config = fm.config
        collect = config.collect_coverage and forward
        kernel = block.key[1]
        append = None if replaying or sink is None else sink.append
        in_count = fm.in_count
        if replaying:
            next_ckpt = _NO_BOUND
            handler_entry = False
        else:
            next_ckpt = ckpt.next_due(in_count)
            handler_entry = fm._handler_pending
            fm._handler_pending = False
        # Exact modes: the decode cache, the rollback replay's traffic
        # log (FunctionalModel._replay_log) and the probe counts.
        dcache = None if forward else fm._decode_cache
        log = fm._replay_log
        decode_hits = 0
        decode_misses = 0
        res = ExecResult(0)
        produced = 0
        ticks = 0  # deferred bus ticks (flushed before any observer)
        words_total = 0
        blocks_ended = 0
        cov_translated = 0
        cov_untranslated = 0
        cov_uops = 0
        fault = None
        # Chain-lookup state.  None of these can change mid-chain: the
        # opcodes that move them (TLBWR/TLBFLUSH, MOVSR, IRET, ...) are
        # excluded from blocks, and a fault exits the replay.
        sb_stats = self.stats
        blocks_map = self._blocks
        mc_version = fm.microcode.version
        compression = config.trace_compression
        tlb_gen = fm.tlb_generation
        while True:
            steps = block.steps
            bn = block.n
            m = cap - produced
            if bn < m:
                m = bn
            i = 0
            while i < m:
                (pc, ppc, instr, handler, seq_next, is_ctrl, words, uop_n,
                 translated, is_string) = steps[i]
                if dcache is not None:
                    page = ppc >> PAGE_SHIFT
                    page_cache = dcache.get(page)
                    if page_cache is None:
                        page_cache = dcache[page] = {}
                    if ppc in page_cache:
                        decode_hits += 1
                    else:
                        page_cache[ppc] = instr
                        decode_misses += 1
                    if log is not None:
                        log.append((ppc, instr))
                if is_ctrl:
                    # Control handlers compute targets from state.pc
                    # (branch_target, CALL's return address).
                    state.pc = pc
                res.next_pc = seq_next
                res.mem_vaddr = -1
                res.mem_paddr = -1
                res.iterations = 1
                try:
                    handler(instr, res)
                except Fault as exc:
                    fault = exc
                    break
                except (TLBMiss, ProtectionFault) as exc:
                    fault = fm._mmu_fault(exc)
                    break
                except (IndexError, MemoryError_):
                    fault = Fault(CAUSE_INVALID_OPCODE, pc)
                    break
                in_count += 1
                produced += 1
                ticks += 1
                if append is not None:
                    entry = TraceEntry(in_count, pc, ppc, instr, res.next_pc,
                                       res.iterations, res.mem_vaddr,
                                       res.mem_paddr)
                    if handler_entry:
                        entry.handler_entry = True
                        handler_entry = False
                    if wrong_path:
                        entry.wrong_path = True
                    append(entry)
                    if is_string:
                        words_total += words + (1 if res.mem_vaddr >= 0 else 0)
                    else:
                        words_total += words
                    if is_ctrl:
                        blocks_ended += 1
                    if collect:
                        if translated:
                            cov_translated += 1
                        else:
                            cov_untranslated += 1
                        if is_string:
                            cov_uops += (uop_n * res.iterations
                                         if res.iterations > 0 else 1)
                        else:
                            cov_uops += uop_n
                i += 1
                if in_count >= next_ckpt:
                    # Checkpoint exactly where interpretation would
                    # have: flush deferred device time and the post-
                    # instruction PC first, since the snapshot captures
                    # both.
                    state.pc = res.next_pc
                    fm.in_count = in_count
                    bus.tick(ticks)
                    if not kernel:
                        tlb.lookups += ticks  # skipped fetch translations
                    ticks = 0
                    fm._take_checkpoint()
                    next_ckpt = in_count + ckpt.interval
                if block.dead:
                    # A store in this very block rewrote its code range;
                    # later pre-decoded steps are stale.  Exit after the
                    # offending instruction -- interpretation resumes
                    # with fresh bytes.
                    break
            if forward:
                sb_stats.hits += 1
            # A full replay ends where capture stopped -- a block
            # boundary either way (control transfer, excluded opcode,
            # or length cap); a dead block's exit point is fresh code
            # and also worth a lookup, and a fault's handler entry
            # starts a block.  Only a budget/horizon clip leaves the
            # PC mid-block.
            at_boundary = True
            if fault is not None or block.dead:
                break
            if i < bn:
                at_boundary = False
                break
            if produced >= cap:
                break
            # Chain: the block ended at a boundary with cap to spare and
            # no observer due (within the horizon the interrupt check
            # between blocks is a guaranteed no-op), so the block at the
            # fall-through/taken PC replays in the same invocation.  A
            # missing or stale successor exits instead -- the caller's
            # next blocks.step() call repeats the heat/miss/drop
            # accounting exactly as an unchained replay would.
            nxt = blocks_map.get((res.next_pc, kernel))
            if (
                nxt is None
                or nxt is _UNCAPTURABLE
                or nxt.dead
                or nxt.mc_version != mc_version
                or nxt.compression != compression
                or (not kernel and nxt.tlb_gen != tlb_gen)
            ):
                break
            block = nxt
        self.exited_at_boundary = at_boundary
        if fault is None:
            state.pc = res.next_pc
        fm.in_count = in_count
        if ticks:
            bus.tick(ticks)
        if not kernel:
            # One fetch translation per completed step, plus a faulting
            # instruction's own (successful) fetch.
            tlb.lookups += ticks + (fault is not None)
        # Add the deferred counts, as FunctionalModel._complete would
        # have per instruction.  Forward mode counts every step as a
        # decode hit and alone moves the superblock counters.
        stats = fm.stats
        stats.executed += produced
        if replaying:
            stats.replayed += produced
        else:
            stats.traced += produced
            stats.trace_words += words_total
            stats.basic_blocks += blocks_ended
            if wrong_path:
                stats.wrong_path += produced
        if forward:
            stats.decode_hits += produced + (fault is not None)
            if collect:
                coverage = fm.microcode.coverage
                coverage.translated += cov_translated
                coverage.untranslated += cov_untranslated
                coverage.uops += cov_uops
            sb_stats.replayed_instructions += produced
        else:
            stats.decode_hits += decode_hits
            stats.decode_misses += decode_misses
        if fault is None:
            return produced
        # Delegate the faulting instruction to the interpreter's own
        # fault path: bit-identical entry, handler redirection, its own
        # bus tick and checkpoint check.
        if handler_entry:
            # The faulting step is the first to emit: its entry takes
            # the pending handler flag, as interpretation would.
            fm._handler_pending = True
        entry = fm._exec_fault(pc, ppc, instr, fault)
        if append is not None:
            append(entry)
        return produced + 1
