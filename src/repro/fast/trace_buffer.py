"""The FAST trace buffer: speculative functional/timing coupling.

"The functional model sequentially executes the program, generating a
functional path instruction trace, and pipes that stream to the timing
model [via the trace buffer].  Each logical TB entry ... is not
deallocated until the instruction is fully committed."  (paper
section 2)

The functional model runs *ahead* of the timing model, up to the trace
buffer capacity, without waiting for feedback -- this is the paper's
key novelty ("parallelizing on the functional/timing boundary,
leveraging functional model speculation").  Round-trip interactions
happen only on:

* **mis-speculation** -- the timing model's fetch-time branch
  prediction disagrees with the functional path: ``set_pc`` forces the
  functional model down the predicted wrong path (Figure 2), and
* **resolution** -- the branch executes: ``set_pc`` resteers the
  functional model back to the architectural path, and
* **commit notifications** -- so rollback resources can be released.

Every such interaction is counted; the host model prices them with DRC
HyperTransport latencies to produce the paper's MIPS numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.functional.model import FunctionalModel
from repro.timing.feed import InstructionFeed
from repro.timing.module import Module


@dataclass
class ProtocolStats:
    """FM<->TM interaction counts (the host model's inputs)."""

    entries_streamed: int = 0  # trace entries delivered to the TM
    mispredict_messages: int = 0  # TM -> FM: go down the wrong path
    resolve_messages: int = 0  # TM -> FM: resume the right path
    commit_messages: int = 0  # TM -> FM: release rollback state
    # Instructions re-executed by set_pc: modelled; the host may
    # restore the state a replay reached instead (see
    # FunctionalModel.rollback_to).
    rollback_replays: int = 0
    idle_ticks: int = 0  # target cycles with a halted CPU
    interrupt_deliveries: int = 0  # TM-generated interrupts (cycle mode)
    max_runahead: int = 0  # deepest FM lead over TM commit, in entries

    @property
    def round_trips(self) -> int:
        """One round trip per mispredict and one per resolution."""
        return self.mispredict_messages + self.resolve_messages


class TraceBufferFeed(InstructionFeed, Module):
    """Feed the timing model through a bounded trace buffer."""

    def __init__(self, fm: FunctionalModel, depth: int = 512,
                 lookahead: int = 32):
        InstructionFeed.__init__(self)
        Module.__init__(self, "trace_buffer")
        if depth < 128:
            raise ValueError(
                "trace buffer depth must exceed the ROB + front-end "
                "capacity (use >= 128)"
            )
        self.fm = fm
        self.depth = depth
        # How far the FM runs ahead of the TM's fetch point.  The trace
        # buffer *capacity* (depth) bounds uncommitted entries; the
        # lookahead bounds speculative work thrown away per mispredict.
        self.lookahead = max(8, lookahead)
        self._last_committed = 0
        self.protocol = ProtocolStats()
        # Optional FastScope event tracer (repro.observability.events).
        # Purely observational: never consulted for feed decisions.
        self.tracer = None
        # Typed stats for the FastScope fabric (registered here, at
        # construction -- FastLint rule ST002).  Probed gauges cost
        # nothing until a sampling window closes.
        self.new_gauge("occupancy", probe=self._occupancy_probe,
                       desc="uncommitted trace-buffer entries")
        self.new_gauge("buffered", probe=self._buffered_probe,
                       desc="entries staged ahead of the TM fetch point")
        self._replay_hist = self.new_histogram(
            "rollback_replay", bounds=(0, 1, 2, 4, 8, 16, 32, 64),
            desc="instructions re-executed per set_pc rollback")
        self._span_hist = self.new_histogram(
            "span_batch", bounds=(1, 2, 4, 8, 16, 32, 64),
            desc="trace entries produced per batched refill span")
        self.new_gauge("superblock_hits", probe=self._sb_probe("hits"),
                       desc="cumulative superblock replays in the FM")
        self.new_gauge("superblock_misses",
                       probe=self._sb_probe("misses"),
                       desc="cumulative superblock lookup misses")
        self.new_gauge("superblock_invalidations",
                       probe=self._sb_probe("invalidations"),
                       desc="cumulative superblocks killed by stores/"
                            "rollback/generation bumps")
        # FastWatch structural invariants (registered here, at
        # construction -- FastLint rule IV001).  Armed bounds are
        # observation-only copies of the real capacities/windows, so
        # violation-injection tests can shrink them to force a
        # deterministic firing without perturbing the run.
        self._capacity_limit = depth
        self._ckpt_window = 1
        self.new_invariant(
            "tb_highwater",
            check=lambda: self.fm.in_count - self._last_committed
            <= self._capacity_limit,
            expr="m.fm.in_count - m._last_committed <= m._capacity_limit",
            probe=self._occupancy_probe,
            desc="uncommitted trace-buffer entries never exceed the "
                 "configured depth")
        self.new_invariant(
            "fm_tm_lockstep",
            check=lambda: 0 <= self._last_committed <= self.fm.in_count,
            expr="0 <= m._last_committed <= m.fm.in_count",
            probe=lambda: float(self._last_committed),
            desc="TM commit notifications never run ahead of the FM's "
                 "instruction count (no leaked trace-buffer credit)")
        self.new_invariant(
            "ckpt_coverage",
            check=self._ckpt_covered,
            expr="(not m.fm.ckpt._checkpoints)"
                 " or (m.fm.ckpt._checkpoints[0].in_no"
                 " <= m.fm.ckpt._checkpoints[-1].in_no"
                 " and m.fm.ckpt._checkpoints[0].in_no"
                 " <= m._last_committed + m._ckpt_window)",
            probe=self._ckpt_probe,
            desc="the checkpoint grid stays monotone and the oldest "
                 "live checkpoint covers every uncommitted rollback "
                 "target")

    def _ckpt_covered(self) -> bool:
        # Monotone grid: take() enforces in_no strictly increases, so
        # checking the ends suffices -- and rollback coverage: every
        # uncommitted target (> _last_committed) must have a checkpoint
        # at or before it, i.e. the oldest live checkpoint's in_no must
        # not exceed committed + window.
        ckpts = self.fm.ckpt._checkpoints
        if not ckpts:
            return True
        return (
            ckpts[0].in_no <= ckpts[-1].in_no
            and ckpts[0].in_no <= self._last_committed + self._ckpt_window
        )

    def _ckpt_probe(self) -> float:
        oldest = self.fm.ckpt.oldest_in
        return float(oldest if oldest is not None else -1)

    def _sb_probe(self, field_name: str):
        def probe() -> float:
            blocks = self.fm.blocks
            if blocks is None:
                return 0.0
            return float(getattr(blocks.stats, field_name))
        return probe

    # -- trace-buffer filling -----------------------------------------------

    def _tb_occupancy(self) -> int:
        """Entries between the oldest uncommitted instruction and the
        functional model's current position."""
        return self.fm.in_count - self._last_committed

    @property
    def occupancy(self) -> int:
        """Public alias of the TB occupancy, for probes and triggers.

        Lockstep note: the canonical trigger probe
        (``repro.observability.triggers.trace_buffer_occupancy``)
        inlines this body into its compiled per-cycle listener --
        change the expression here and there together."""
        return self.fm.in_count - self._last_committed

    def _occupancy_probe(self) -> float:
        return float(self.fm.in_count - self._last_committed)

    def _buffered_probe(self) -> float:
        return float(len(self.entries))

    def _can_produce(self) -> bool:
        # A halted FM is advanced ONLY by idle_tick (one device tick per
        # idle target cycle).  If refills were allowed to poke a halted
        # FM, device time would depend on how often the timing model
        # peeks -- which differs between this feed and the lock-step
        # reference and would break cycle equivalence.
        return not (self.fm.state.halted or self.fm.bus.shutdown_requested)

    def refill(self) -> None:
        # On a forced wrong path, produce only a small batch: everything
        # generated there is discarded at resolution, so deep runahead
        # is pure waste (the real FAST likewise only needs enough wrong-
        # path instructions to keep fetch busy until the branch
        # resolves).  The batch is entry-for-entry what eight
        # execute_next calls would give; superblocks replay it in their
        # exact-accounting mode, and neither the span histogram nor the
        # runahead high-water mark sees it.
        if self.fm.on_wrong_path:
            self.protocol.entries_streamed += self.fm.execute_into(
                self.entries, 8)
            return
        # Batched refill: hand the FM a span budget bounded by both the
        # lookahead and the remaining trace-buffer capacity, and let it
        # produce the whole span in one call (superblock replay skips
        # per-instruction fetch/decode inside it).  Entry-for-entry
        # identical to the old execute_next loop -- the budget is the
        # same fixpoint the per-entry conditions enforced.
        fm = self.fm
        buffer = self.entries
        while True:
            budget = self.lookahead - len(buffer)
            room = self.depth - (fm.in_count - self._last_committed)
            if room < budget:
                budget = room
            if budget <= 0 or not self._can_produce():
                break
            produced = fm.execute_into(buffer, budget)
            if produced == 0:
                break
            self.protocol.entries_streamed += produced
            self._span_hist.observe(produced)
        runahead = self._tb_occupancy()
        if runahead > self.protocol.max_runahead:
            self.protocol.max_runahead = runahead
            if self.tracer is not None:
                self.tracer.emit("tb_highwater", runahead=runahead)

    # -- InstructionFeed interface ----------------------------------------------

    def force_wrong_path(self, branch_in_no: int, wrong_pc: int) -> None:
        # Discard the functional-path entries beyond the branch; the
        # paper overwrites them in the TB (Figure 2, T=1+m).
        while self.entries and self.entries[-1].in_no > branch_in_no:
            self.entries.pop()
        replayed = self.fm.set_pc(branch_in_no + 1, wrong_pc)
        self.fm.enter_wrong_path()
        self.protocol.mispredict_messages += 1
        self.protocol.rollback_replays += replayed
        self.bump("forced_wrong_paths")
        self._replay_hist.observe(replayed)
        if self.tracer is not None:
            self.tracer.emit("tb_mispredict", branch_in_no=branch_in_no,
                             wrong_pc=wrong_pc, replayed=replayed,
                             occupancy=self._tb_occupancy())

    def resolve_wrong_path(self, branch_in_no: int, actual_pc: int) -> None:
        self.entries.clear()  # everything buffered is wrong-path
        self.fm.exit_wrong_path()
        replayed = self.fm.set_pc(branch_in_no + 1, actual_pc)
        self.protocol.resolve_messages += 1
        self.protocol.rollback_replays += replayed
        self.bump("resolutions")
        self._replay_hist.observe(replayed)
        if self.tracer is not None:
            self.tracer.emit("tb_resolve", branch_in_no=branch_in_no,
                             actual_pc=actual_pc, replayed=replayed,
                             occupancy=self._tb_occupancy())

    def interrupt_delivery(self, after_in: int, line: int):
        self.entries.clear()  # everything beyond the boundary is stale
        taken, replayed = self.fm.deliver_interrupt(after_in, line)
        self.protocol.interrupt_deliveries += 1
        self.protocol.rollback_replays += replayed
        self._replay_hist.observe(replayed)
        if self.tracer is not None:
            self.tracer.emit("tb_interrupt", after_in=after_in, line=line,
                             taken=taken, replayed=replayed)
        return taken, replayed

    def commit(self, in_no: int, count: int = 1) -> None:
        self._last_committed = in_no
        self.fm.commit(in_no)
        self.protocol.commit_messages += count

    def idle_tick(self) -> None:
        entry = self.fm.execute_next()
        self.protocol.idle_ticks += 1
        if entry is not None:
            self.entries.append(entry)
            self.protocol.entries_streamed += 1

    def idle_horizon(self) -> int:
        if self.entries:
            return 0
        return self.fm.idle_horizon()

    def idle_ticks(self, count: int) -> None:
        # Within the horizon each idle_tick is exactly one uneventful
        # halted step (no entry produced); batch them through the FM.
        self.fm.idle_steps(count)
        self.protocol.idle_ticks += count

    @property
    def finished(self) -> bool:
        return self.fm.bus.shutdown_requested and not self.entries
