"""Back end of the timing model: Rename/ROB, reservation stations,
functional units, the load/store queue and commit.

Microarchitecture matches the paper's Figure 3 target: a shared pool of
reservation stations feeding n general-purpose ALUs, b branch units,
one load/store unit and an FPU pool, writing back over a result bus
into a ROB that commits in order.  Caches are blocking; resolving a
misprediction flushes the pipeline through the ROB (stated prototype
limitations we reproduce deliberately).
"""

from __future__ import annotations

import operator
from collections import deque
from typing import Dict, List, Optional, Tuple

from repro.microcode.uop import (
    UOP_BRANCH,
    UOP_JUMP,
    UOP_LOAD,
    UOP_STORE,
    UNIT_ALU,
    UNIT_BRU,
    UNIT_FPU,
    UNIT_LSU,
    uop_meta,
)
from repro.timing.cache.hierarchy import CacheHierarchy
from repro.timing.module import Module
from repro.timing.pipeline.dynamic import (
    DynInstr,
    DynUop,
    U_DONE,
    U_ISSUED,
    U_SQUASHED,
    U_WAITING,
)
from repro.timing.pipeline.fastpath import bind_stages, compile_stages
from repro.timing.pipeline.frontend import (
    DRAIN_EXCEPTION,
    DRAIN_MISPREDICT,
    DRAIN_SERIALIZE,
    Frontend,
)

_BY_SEQ = operator.attrgetter("seq")


class Backend(Module):
    frontend: Frontend
    STABLE_ATTRS = (
        "rob", "reg_producer", "_units", "frontend",
        "frontend.predictor.update", "frontend.predictor.record_outcome",
        "hierarchy.access_data", "feed.commit", "result_bus_width",
        "commit_width", "dispatch_width", "rob_entries", "rs_entries",
        "lsq_entries", "_resolve_control", "_issue_load",
    )

    def __init__(
        self,
        frontend: Frontend,
        hierarchy: CacheHierarchy,
        feed,
        rob_entries: int = 64,
        rs_entries: int = 16,
        lsq_entries: int = 16,
        num_alus: int = 8,
        num_brus: int = 2,
        num_fpus: int = 2,
        num_lsus: int = 1,
        dispatch_width: int = 4,
        commit_width: int = 2,
        result_bus_width: int = 4,
    ):
        super().__init__("backend")
        self.frontend = frontend
        self.hierarchy = hierarchy
        self.feed = feed
        self.rob_entries = rob_entries
        self.rs_entries = rs_entries
        self.lsq_entries = lsq_entries
        self.dispatch_width = dispatch_width
        self.commit_width = commit_width
        self.result_bus_width = result_bus_width

        self.rob: deque = deque()
        self.rs: List[DynUop] = []
        # The dep-ready subset of ``rs``, in ``seq`` order: fed at
        # dispatch (no producer pending) and at writeback (the last
        # pending producer wrote back), drained by issue.
        self.ready: List[DynUop] = []
        self.lsq: List[DynUop] = []
        self.in_flight: List[DynUop] = []
        self.reg_producer: Dict[int, DynUop] = {}
        self._units: Dict[str, List[int]] = {  # busy-until cycle per unit
            UNIT_ALU: [0] * num_alus,
            UNIT_BRU: [0] * num_brus,
            UNIT_FPU: [0] * num_fpus,
            UNIT_LSU: [0] * num_lsus,
        }
        self._seq = 0
        self._dispatching: Optional[Tuple[DynInstr, int]] = None
        self.committed_instructions = 0
        self.committed_uops = 0
        self.last_commit_cycle = 0
        self.on_instr_commit = None  # optional (dyn_instr, cycle) hook
        # FastWatch structural invariants (registered here, at
        # construction -- FastLint rule IV001).  The armed bounds are
        # observation-only copies of the configured capacities: tests
        # shrink them to force a deterministic violation without
        # perturbing the simulation itself.
        self._rob_limit = rob_entries
        self._rs_limit = rs_entries
        self.new_invariant(
            "rob_occupancy_bound",
            check=lambda: len(self.rob) <= self._rob_limit,
            expr="len(m.rob) <= m._rob_limit",
            probe=lambda: float(len(self.rob)),
            desc="ROB occupancy never exceeds its configured entry count")
        self.new_invariant(
            "rs_occupancy_bound",
            check=lambda: len(self.rs) <= self._rs_limit,
            expr="len(m.rs) <= m._rs_limit",
            probe=lambda: float(len(self.rs)),
            desc="reservation-station occupancy never exceeds its "
                 "configured entry count")

    # -- queries ---------------------------------------------------------

    @property
    def rob_empty(self) -> bool:
        return not self.rob

    def count_unresolved_controls(self) -> int:
        """Distinct in-flight control instructions not yet resolved."""
        seen = set()
        count = 0
        for uop in self.rob:
            di = uop.instr
            if id(di) in seen:
                continue
            seen.add(id(di))
            if di.is_control and not di.resolved and not di.squashed:
                count += 1
        return count

    @property
    def rob_occupancy(self) -> int:
        return len(self.rob)

    # -- per-cycle operation: writeback -> commit -> issue -> dispatch ----

    def bind_tick(self):
        """Pre-bound per-cycle step for the compiled schedule: ``tick``
        and its stages, generated with the Connector and counter
        operations inlined (repro.timing.pipeline.fastpath)."""
        return bind_stages(self)

    def tick(self, cycle: int) -> None:
        self._writeback(cycle)
        self._commit(cycle)
        self._issue(cycle)
        self._dispatch(cycle)
        if not self.rob:
            # Empty ROB: every architectural value is in the register
            # file, so the rename map resets (this is why flushing
            # through the ROB makes recovery simple -- and slow).
            self.reg_producer.clear()

    # -- writeback ---------------------------------------------------------

    def _writeback(self, cycle: int) -> None:
        if not self.in_flight:
            return
        # Plain loops, here and in _issue: a comprehension is a call.
        finishing = []
        for uop in self.in_flight:
            if uop.done_cycle <= cycle:
                finishing.append(uop)
        if not finishing:
            return
        finishing.sort(key=_BY_SEQ)
        width = self.result_bus_width
        overflow = len(finishing) - width
        if overflow > 0:
            for uop in finishing[width:]:
                uop.done_cycle = cycle + 1  # result bus conflict: retry
            self.bump("result_bus_conflicts", overflow)
        written = 0
        woken = 0
        for uop in finishing[:width]:
            if uop.state == U_SQUASHED:
                continue  # squashed by a resolution earlier this cycle
            self.in_flight.remove(uop)
            uop.state = U_DONE
            uop.done_cycle = cycle
            written += 1
            for waiter in uop.waiters:
                waiter.pending -= 1
                if not waiter.pending and waiter.state == U_WAITING:
                    self.ready.append(waiter)
                    woken += 1
            uop.waiters.clear()
            kind = uop.uop.kind
            if kind == UOP_BRANCH or kind == UOP_JUMP:
                self._resolve_control(uop, cycle)
        if written:
            self.bump("writebacks", written)
        if woken:
            # Woken consumers may be older than µops already ready.
            self.ready.sort(key=_BY_SEQ)

    def _resolve_control(self, uop: DynUop, cycle: int) -> None:
        di = uop.instr
        if di.resolved or di.squashed:
            return
        di.resolved = True
        self.frontend.branch_resolved()
        if di.mispredicted and not di.wrong_path:
            self.bump("mispredict_resolutions")
            self.squash_younger(di, cycle)
            self.feed.resolve_wrong_path(di.in_no, di.entry.next_pc)
            self.frontend.begin_drain(di.entry.next_pc, DRAIN_MISPREDICT)

    # -- commit ----------------------------------------------------------------

    def _commit(self, cycle: int) -> None:
        # Counters bump per event here: the on_instr_commit hook reads
        # them mid-step.  The feed hears once per call, with the newest
        # retired instruction and the count (release is monotone).
        committed = 0
        retired = 0
        newest_in = 0
        while self.rob and committed < self.commit_width:
            uop: DynUop = self.rob[0]
            if uop.state != U_DONE or uop.done_cycle >= cycle:
                break
            self.rob.popleft()
            committed += 1
            self.committed_uops += 1
            self.last_commit_cycle = cycle
            di = uop.instr
            kind = uop.uop.kind
            if kind == UOP_STORE:
                self.hierarchy.access_data(uop.mem_paddr, is_write=True)
                if uop in self.lsq:
                    self.lsq.remove(uop)
            elif kind == UOP_LOAD and uop in self.lsq:
                self.lsq.remove(uop)
            di.uops_committed += 1
            if not uop.is_last:
                continue
            # The instruction's last µop: retire the instruction.
            entry = di.entry
            self.committed_instructions += 1
            self.bump("instructions")
            instr = entry.instr
            if instr.is_control:
                # TraceEntry.taken in line (a property costs a call).
                next_pc = entry.next_pc
                self.frontend.predictor.update(
                    entry,
                    next_pc != (entry.pc + instr.length) & 0xFFFFFFFF,
                    next_pc,
                )
                self.frontend.predictor.record_outcome(not di.mispredicted)
                self.bump("branches")
                if di.mispredicted:
                    self.bump("mispredicts")
            if entry.exception:
                self.bump("exception_redirects")
            retired += 1
            newest_in = entry.in_no
            if di.is_barrier:
                reason = DRAIN_EXCEPTION if entry.exception else DRAIN_SERIALIZE
                self.frontend.begin_drain(entry.next_pc, reason)
            if self.on_instr_commit is not None:
                self.on_instr_commit(di, cycle)
        if retired:
            self.feed.commit(newest_in, retired)
        if committed:
            self.bump("commit_cycles")

    # -- issue ---------------------------------------------------------------------

    def _issue(self, cycle: int) -> None:
        ready = self.ready
        if not ready:
            return
        issued = 0
        for uop in ready:
            template = uop.uop
            meta = template.meta or uop_meta(template)
            units = self._units[meta.unit]
            index = -1
            for i, busy_until in enumerate(units):
                if busy_until <= cycle:
                    index = i
                    break
            if index < 0:
                continue
            kind = template.kind
            if kind == UOP_LOAD:
                latency = self._issue_load(uop)
            elif kind == UOP_STORE:
                latency = 1  # cache write happens at commit
            else:
                latency = template.lat
            uop.state = U_ISSUED
            uop.done_cycle = cycle + latency
            uop.fu = (meta.unit, index)
            units[index] = cycle + (latency if meta.holds_unit else 1)
            self.in_flight.append(uop)
            self.rs.remove(uop)
            issued += 1
        if issued:
            waiting = []
            for uop in ready:
                if uop.state == U_WAITING:
                    waiting.append(uop)
            self.ready = waiting
            self.bump("issues", issued)

    def _issue_load(self, uop: DynUop) -> int:
        """Load execution: store-to-load forwarding, else the blocking
        data-cache hierarchy."""
        word = uop.mem_paddr & ~3
        for other in self.lsq:
            if other.seq >= uop.seq:
                break
            if (
                other.uop.kind == UOP_STORE
                and other.mem_paddr >= 0
                and (other.mem_paddr & ~3) == word
            ):
                self.bump("store_forwards")
                return self.hierarchy.geometry.l1_hit_latency
        if uop.mem_paddr < 0:
            return self.hierarchy.geometry.l1_hit_latency
        latency = self.hierarchy.access_data(uop.mem_paddr)
        if latency > self.hierarchy.geometry.l1_hit_latency:
            self.bump("load_misses")
        return latency

    # -- dispatch (rename + ROB/RS/LSQ allocation) ------------------------------------

    def _dispatch(self, cycle: int) -> None:
        budget = self.dispatch_width
        while budget > 0:
            if self._dispatching is None:
                di = self.frontend.decode_q.pop()
                if di is None:
                    break
                if di.squashed:
                    continue
                if not di.uops_template:
                    # Degenerate (shouldn't happen: crack returns >= 1 µop)
                    continue
                self._dispatching = (di, 0)
            di, index = self._dispatching
            if di.squashed:
                self._dispatching = None
                continue
            template = di.uops_template
            uop = template[index]
            if len(self.rob) >= self.rob_entries:
                self.bump("rob_full_stalls")
                break
            if len(self.rs) >= self.rs_entries:
                self.bump("rs_full_stalls")
                break
            meta = uop.meta or uop_meta(uop)
            if meta.is_mem and len(self.lsq) >= self.lsq_entries:
                self.bump("lsq_full_stalls")
                break
            self._seq += 1
            is_last = index + 1 == len(template)
            dyn = DynUop(self._seq, di, uop, is_last,
                         di.entry.mem_paddr if meta.is_mem else -1)
            for reg in meta.sources:
                producer = self.reg_producer.get(reg)
                # A waiting or executing producer wakes this µop at its
                # writeback; a done or squashed one has left its value
                # in the register file.
                if producer is not None and producer.state < U_DONE:
                    dyn.pending += 1
                    producer.waiters.append(dyn)
            for reg in meta.destinations:
                self.reg_producer[reg] = dyn
            di.last_seq = dyn.seq
            self.rob.append(dyn)
            self.rs.append(dyn)
            if not dyn.pending:
                self.ready.append(dyn)  # the newest seq: order holds
            if meta.is_mem:
                self.lsq.append(dyn)
            budget -= 1
            self._dispatching = None if is_last else (di, index + 1)
        dispatched = self.dispatch_width - budget
        if dispatched:
            self.bump("dispatched_uops", dispatched)

    # -- squash -----------------------------------------------------------------------

    def squash_all(self, cycle: int) -> None:
        """Squash every in-flight µop (asynchronous-interrupt flush)."""
        squashed_controls = 0
        while self.rob:
            uop: DynUop = self.rob.pop()
            uop.state = U_SQUASHED
            victim = uop.instr
            if not victim.squashed:
                victim.squashed = True
                if victim.is_control and not victim.resolved:
                    squashed_controls += 1
            self.bump("squashed_uops")
        self.rs = []
        self.ready = []
        self.lsq = []
        for uop in self.in_flight:
            uop.state = U_SQUASHED
            if uop.fu is not None:
                unit, index = uop.fu
                self._units[unit][index] = cycle
        self.in_flight = []
        self.reg_producer.clear()
        self._dispatching = None
        self.frontend.branches_squashed(squashed_controls)

    def squash_younger(self, di: DynInstr, cycle: int) -> None:
        """Remove every µop younger than *di* (mis-speculation recovery)."""
        boundary = di.last_seq
        squashed_controls = 0
        while self.rob and self.rob[-1].seq > boundary:
            uop: DynUop = self.rob.pop()
            uop.state = U_SQUASHED
            victim = uop.instr
            if not victim.squashed:
                victim.squashed = True
                if victim.is_control and not victim.resolved:
                    squashed_controls += 1
            self.bump("squashed_uops")
        self.rs = [u for u in self.rs if u.seq <= boundary]
        self.ready = [u for u in self.ready if u.seq <= boundary]
        self.lsq = [u for u in self.lsq if u.seq <= boundary]
        for uop in self.in_flight:
            if uop.seq > boundary:
                uop.state = U_SQUASHED
                if uop.fu is not None:
                    # Release the (possibly long-latency) unit it held.
                    unit, index = uop.fu
                    self._units[unit][index] = cycle
        self.in_flight = [u for u in self.in_flight if u.seq <= boundary]
        if self._dispatching is not None:
            # Dispatch is in-order, so anything occupying the partial-
            # dispatch slot was fetched after the resolving branch (which
            # is already in the ROB) -- it is wrong-path by construction,
            # even if none of its µops made it into the ROB yet.
            pending_di = self._dispatching[0]
            if not pending_di.squashed:
                pending_di.squashed = True
                if pending_di.is_control and not pending_di.resolved:
                    squashed_controls += 1
            self._dispatching = None
        self.frontend.branches_squashed(squashed_controls)


# The compiled engine's stage closures, generated once from the methods
# above (see repro.timing.pipeline.fastpath).
compile_stages(Backend)
