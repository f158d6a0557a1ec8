"""Front end of the timing model: Fetch and Decode.

Fetch follows the functional-path stream from the instruction feed,
running it through the branch predictor, the iTLB and the L1 I-cache.
When a prediction disagrees with the functional outcome the feed is
redirected down the predicted (wrong) path -- the FAST mis-speculation
protocol of Figure 2 -- and fetch continues with wrong-path entries
until the branch resolves in the back end.

Serializing instructions (exceptions, IRET, HALT, ...) are fetch
barriers: fetch stops until they commit, then the pipeline refills from
their successor.  Asynchronous interrupt deliveries appear as
handler-entry trace entries at an unexpected PC and drain the pipeline
the same way.
"""

from __future__ import annotations

from typing import Optional

from repro.functional.trace import TraceEntry
from repro.microcode.table import MicrocodeTable
from repro.timing.bpred.base import BranchPredictor
from repro.timing.cache.hierarchy import CacheHierarchy
from repro.timing.cache.itlb import ITLBModel
from repro.timing.connector import Connector
from repro.timing.feed import InstructionFeed
from repro.timing.module import Module
from repro.timing.pipeline.dynamic import DynInstr
from repro.timing.pipeline.fastpath import bind_stages, compile_stages

MASK32 = 0xFFFFFFFF

# Fetch modes.
F_FETCH = 0
F_DRAIN = 1  # waiting for the ROB to empty before a redirect
F_HALTED = 2  # a barrier instruction is in flight

SERIALIZING = frozenset(
    {"HALT", "IRET", "SYSCALL", "INT", "TLBFLUSH", "STI", "CLI"}
)

DRAIN_MISPREDICT = "mispredict"
DRAIN_EXCEPTION = "exception"
DRAIN_INTERRUPT = "interrupt"
DRAIN_SERIALIZE = "serialize"

# Decode-stage crack memo bound (per generation).  Identity keys pin
# their Instr objects; eviction is generational second-chance: when the
# live generation fills it becomes the "previous" generation, and
# entries re-used from there get promoted back instead of re-cracked.
# Cold entries age out after at most two rotations.  Deterministic:
# rotation depends only on the decode stream, never on wall time.
CRACK_MEMO_LIMIT = 16384


class Frontend(Module):
    """Fetch + Decode + branch prediction."""

    fetch_q: Connector
    decode_q: Connector
    STABLE_ATTRS = (
        "fetch_q", "decode_q", "fetch_width", "max_nested_branches",
        "feed.entries", "feed.entries.popleft", "feed.refill", "itlb.lookup",
        "hierarchy.access_instr", "hierarchy.l1i.line_shift",
        "hierarchy.geometry.l1_hit_latency",
        "backend", "backend.rob", "begin_drain", "_crack", "_predict",
    )

    def __init__(
        self,
        feed: InstructionFeed,
        predictor: BranchPredictor,
        hierarchy: CacheHierarchy,
        microcode: MicrocodeTable,
        fetch_width: int = 2,
        max_nested_branches: int = 4,
        fetch_buffer: int = 8,
        decode_buffer: int = 8,
    ):
        super().__init__("frontend")
        self.feed = feed
        self.predictor = predictor
        self.hierarchy = hierarchy
        self.microcode = microcode
        self.fetch_width = fetch_width
        self.max_nested_branches = max_nested_branches
        self.itlb = ITLBModel()
        self.add_child(self.itlb)
        self.add_child(predictor)
        self.fetch_q = Connector(
            "fetch2decode",
            input_throughput=fetch_width,
            output_throughput=fetch_width,
            min_latency=1,
            max_transactions=fetch_buffer,
        )
        self.decode_q = Connector(
            "decode2dispatch",
            input_throughput=fetch_width,
            output_throughput=fetch_width,
            min_latency=1,
            max_transactions=decode_buffer,
        )
        # Fetch both fills and drains fetch_q (fetch -> decode happen
        # inside this Module); decode2dispatch is drained by the back
        # end, which TimingModel binds once it exists.
        self.fetch_q.bind_endpoints(producer=self, consumer=self)
        self.decode_q.bind_endpoints(producer=self)
        self.add_child(self.fetch_q)
        self.add_child(self.decode_q)

        self.mode = F_FETCH
        self.expected_pc: Optional[int] = None  # None: follow the stream
        self.resume_pc: Optional[int] = None
        self.drain_reason = ""
        self.stall_until = 0
        self.branches_outstanding = 0
        self._current_line = -1
        self.idle_this_cycle = False
        # Wired by TimingModel: used to recompute the outstanding-branch
        # count after a flush (queued controls never resolve).
        self.backend = None
        # Decode-stage crack memo: id(Instr) -> (instr, uops) so each
        # decoded Instr object pays the microcode-table probe once.
        # Identity keys stay valid across self-modifying code and
        # rollback (both invalidate the FM's per-page decode cache, so
        # changed bytes arrive as a different Instr); the table version
        # covers hand_patch() replacing templates mid-run.
        self._crack_memo: dict = {}
        self._crack_memo_prev: dict = {}
        self._crack_memo_version = microcode.version

    # -- control from the back end --------------------------------------

    def begin_drain(self, resume_pc: int, reason: str) -> None:
        """Flush the front end and refetch at *resume_pc* once the ROB
        has drained ("flushing the pipeline through the ROB")."""
        self.mode = F_DRAIN
        self.resume_pc = resume_pc & MASK32
        self.drain_reason = reason
        self.flush_queues()
        self._current_line = -1
        self.stall_until = 0
        # Flushed queue entries included fetched-but-undispatched control
        # instructions; only backend-resident unresolved controls still
        # count against the nested-branch limit.
        if self.backend is not None:
            self.branches_outstanding = self.backend.count_unresolved_controls()

    def flush_queues(self) -> None:
        self.fetch_q.flush()
        self.decode_q.flush()

    def branch_resolved(self) -> None:
        if self.branches_outstanding > 0:
            self.branches_outstanding -= 1

    def branches_squashed(self, count: int) -> None:
        self.branches_outstanding = max(0, self.branches_outstanding - count)

    # -- per-cycle operation ----------------------------------------------

    def bind_tick(self):
        """Pre-bound per-cycle step for the compiled schedule: ``tick``
        and its stages, generated with the Connector and counter
        operations inlined (repro.timing.pipeline.fastpath)."""
        return bind_stages(self)

    def tick(self, cycle: int) -> None:
        # Both engines clock every Connector (fetch_q and decode_q
        # included) before any unit each cycle.
        self.idle_this_cycle = False
        self._decode(cycle)
        self._fetch(cycle)

    def _decode(self, cycle: int) -> None:
        """Move fetched instructions to the dispatch queue, cracking
        each into µops via the microcode table."""
        if self._crack_memo_version != self.microcode.version:
            self._crack_memo.clear()
            self._crack_memo_prev.clear()
            self._crack_memo_version = self.microcode.version
        memo = self._crack_memo
        decoded = 0
        for _ in range(self.fetch_width):
            if not self.decode_q.can_push():
                self.bump("decode_stalls")
                break
            di = self.fetch_q.pop()
            if di is None:
                break
            entry = di.entry
            instr = entry.instr
            if instr.spec.iclass == "string":
                # Iteration counts vary per dynamic instance; key on both.
                key = (id(instr), entry.iterations)
            else:
                key = id(instr)
            cached = memo.get(key)
            if cached is not None and cached[0] is instr:
                uops = cached[1]
            else:
                uops = self._crack(entry, instr, key)
                memo = self._crack_memo  # may have rotated
            di.uops_template = uops  # consumed by dispatch
            self.decode_q.put(di)  # can_push() checked above
            decoded += 1
        if decoded:
            self.bump("decoded", decoded)

    def _crack(self, entry: TraceEntry, instr, key) -> tuple:
        """Crack-memo miss path: probe the previous generation (second
        chance), else crack via the microcode table; rotate generations
        when the live one fills."""
        prev = self._crack_memo_prev
        cached = prev.get(key)
        if cached is not None and cached[0] is instr:
            # Survivor: promote back into the live generation.
            del prev[key]
            self.bump("crack_memo_promotions")
        else:
            if instr.spec.iclass == "string":
                uops, _ok = self.microcode.crack_rep(
                    instr, entry.iterations, count=False
                )
            else:
                uops, _ok = self.microcode.crack(instr, count=False)
            cached = (instr, uops)
        memo = self._crack_memo
        if len(memo) >= CRACK_MEMO_LIMIT:
            # Generation rotation: everything not touched since the
            # previous rotation ages out; recently-used entries survive
            # via promotion above.
            self._crack_memo_prev = memo
            self._crack_memo = memo = {}
            self.bump("crack_memo_rotations")
        memo[key] = cached
        return cached[1]

    def _fetch(self, cycle: int) -> None:
        if self.mode == F_HALTED:
            self.bump("halt_stall_cycles")
            return
        if self.mode == F_DRAIN:
            self.bump("drain_cycles")
            self.bump("drain_cycles_" + self.drain_reason)
            # A zero-latency read of back-end state (with no back end
            # wired there is nothing to drain).
            if self.backend is None or not self.backend.rob:
                self.mode = F_FETCH
                self.expected_pc = self.resume_pc
                self.resume_pc = None
            return
        if self.stall_until > cycle:
            self.bump("icache_stall_cycles")
            return

        fetched = 0
        wrong_path = 0
        while fetched < self.fetch_width:
            if not self.fetch_q.can_push():
                if fetched == 0:
                    self.bump("fetchq_full_cycles")
                break
            # The feed's entry deque, read in place (InstructionFeed.peek
            # and consume spelled out, without their two calls).
            if not self.feed.entries:
                self.feed.refill()
                if not self.feed.entries:
                    if fetched == 0:
                        self.idle_this_cycle = True
                    break
            entry = self.feed.entries[0]
            expected_pc = self.expected_pc
            if expected_pc is not None and entry.pc != expected_pc:
                if entry.handler_entry:
                    # Asynchronous interrupt: drain, then redirect into
                    # the handler (paper section 3.4: the timing model
                    # freezes and waits for handler instructions).
                    self.begin_drain(entry.pc, DRAIN_INTERRUPT)
                    self.bump("interrupt_redirects")
                else:
                    raise AssertionError(
                        "feed/fetch divergence: expected %#x got %#x (IN %d)"
                        % (expected_pc, entry.pc, entry.in_no)
                    )
                break
            # I-cache: one line access per group; crossing ends the group.
            line = entry.ppc >> self.hierarchy.l1i.line_shift
            if line != self._current_line:
                if fetched > 0:
                    break
                self.itlb.lookup(entry.pc)
                latency = self.hierarchy.access_instr(entry.ppc)
                self._current_line = line
                if latency > self.hierarchy.geometry.l1_hit_latency:
                    self.stall_until = cycle + latency
                    self.bump("icache_miss_stalls")
                    break
            instr = entry.instr
            is_control = instr.is_control
            if (
                is_control
                and self.branches_outstanding >= self.max_nested_branches
            ):
                self.bump("branch_limit_stalls")
                break

            self.feed.entries.popleft()
            di = DynInstr(entry, cycle, wrong_path=entry.wrong_path)
            if is_control:
                self.branches_outstanding += 1
                self._predict(di)
            else:
                self.expected_pc = entry.next_pc
            # Serializing instructions are fetch barriers: fetch stops
            # until they commit.
            if (
                entry.exception
                or instr.name in SERIALIZING
                or (
                    not is_control
                    and entry.next_pc != (entry.pc + instr.length) & MASK32
                )
            ):
                di.is_barrier = True
                self.mode = F_HALTED
                self.bump("barrier_fetches")
            self.fetch_q.put(di)  # can_push() checked above
            if entry.wrong_path:
                wrong_path += 1
            fetched += 1
            if di.is_barrier or is_control:
                break
        if fetched:
            self.bump("fetched", fetched)
            if wrong_path:
                self.bump("fetched_wrong_path", wrong_path)

    def _predict(self, di: DynInstr) -> None:
        entry = di.entry
        if di.wrong_path:
            # On a forced wrong path we follow the functional model's
            # concrete wrong-path execution; nested re-steering is not
            # modeled (prototype limitation, see DESIGN.md).
            self.expected_pc = entry.next_pc
            return
        taken, predicted_pc = self.predictor.predict(entry)
        di.predicted_pc = predicted_pc
        if predicted_pc != entry.next_pc:
            di.mispredicted = True
            self.bump("fetch_mispredicts")
            self.feed.force_wrong_path(entry.in_no, predicted_pc)
        self.expected_pc = predicted_pc


# The compiled engine's stage closures, generated once from the methods
# above (see repro.timing.pipeline.fastpath).
compile_stages(Frontend)
