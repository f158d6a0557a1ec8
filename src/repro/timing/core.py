"""The timing model: the Figure 3 target microarchitecture.

``TimingModel`` glues the front end and back end into a synchronous,
cycle-accurate machine driven one target cycle at a time.  It consumes
instructions from an :class:`~repro.timing.feed.InstructionFeed` and is
completely agnostic about *how* the functional model is coupled -- the
lock-step reference and the FAST trace-buffer coupling both drive the
same TimingModel, which is why their cycle counts can be compared
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.microcode.table import MicrocodeTable
from repro.timing.bpred.predictors import make_predictor
from repro.timing.cache.hierarchy import CacheGeometry, CacheHierarchy
from repro.timing.feed import InstructionFeed, NullFeed
from repro.timing.module import Module
from repro.timing.pipeline.backend import Backend
from repro.timing.pipeline.frontend import Frontend


@dataclass
class TimingConfig:
    """Target microarchitecture parameters (paper section 4 defaults:
    two-issue, 8-way 32KB L1s, 8-way 256KB L2, 64 ROB entries, 16 shared
    reservation stations, 16 LSQ entries, gshare with a 4-way 8K BTB,
    8 ALUs, one load/store unit, up to 4 nested branches)."""

    issue_width: int = 2
    rob_entries: int = 64
    rs_entries: int = 16
    lsq_entries: int = 16
    num_alus: int = 8
    num_brus: int = 2
    num_fpus: int = 2
    num_lsus: int = 1
    dispatch_width: int = 4
    commit_width: int = 2
    result_bus_width: int = 4
    max_nested_branches: int = 4
    predictor: str = "gshare"  # "perfect", "2bit", "fixed:0.97", ...
    caches: CacheGeometry = field(default_factory=CacheGeometry)
    watchdog_cycles: int = 500_000
    # Tick engine: "compiled" pre-compiles a static schedule from the
    # dataflow graph and batches idle spans (repro.timing.schedule);
    # "legacy" is the original hand-ordered dynamic dispatch.  Both
    # produce bit-identical cycle counts and statistics.
    engine: str = "compiled"

    @classmethod
    def with_issue_width(cls, width: int, **kwargs) -> "TimingConfig":
        """Scale widths together, as reconfiguring Connectors would."""
        return cls(
            issue_width=width,
            dispatch_width=2 * width,
            commit_width=width,
            result_bus_width=2 * width,
            **kwargs,
        )

    def to_dict(self) -> dict:
        """Serializable form (the AWB-style configuration interface)."""
        from dataclasses import asdict

        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "TimingConfig":
        data = dict(data)
        caches = data.pop("caches", None)
        config = cls(**data)
        if caches is not None:
            config.caches = CacheGeometry(**caches)
        return config


@dataclass
class TimingStats:
    """Summary of one timing-model run."""

    cycles: int = 0
    idle_cycles: int = 0
    instructions: int = 0
    uops: int = 0
    branches: int = 0
    mispredicts: int = 0
    drain_cycles: int = 0
    drain_mispredict: int = 0
    drain_exception: int = 0
    drain_interrupt: int = 0
    drain_serialize: int = 0
    icache_accesses: int = 0
    icache_hits: int = 0
    dcache_accesses: int = 0
    dcache_hits: int = 0
    l2_accesses: int = 0
    l2_hits: int = 0

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def bp_accuracy(self) -> float:
        if not self.branches:
            return 1.0
        return 1.0 - self.mispredicts / self.branches

    @property
    def icache_hit_rate(self) -> float:
        if not self.icache_accesses:
            return 1.0
        return self.icache_hits / self.icache_accesses

    @property
    def pipe_drain_fraction(self) -> float:
        if not self.cycles:
            return 0.0
        return self.drain_mispredict / self.cycles


class DeadlockError(RuntimeError):
    """The pipeline stopped committing without being idle."""


class _CommitListenerList(list):
    """``commit_listeners`` with a change hook.

    Every mutation re-binds the back end's ``on_instr_commit`` to the
    cheapest equivalent hook: ``None`` with no listeners (commit pays
    nothing), the listener itself with exactly one (no wrapper call, no
    loop), and the fan-out method beyond that.
    """

    __slots__ = ("_owner",)

    def __init__(self, owner: "TimingModel", iterable=()):
        super().__init__(iterable)
        self._owner = owner

    def _changed(self) -> None:
        self._owner._rebind_commit_hook()

    def append(self, item):
        super().append(item)
        self._changed()

    def extend(self, iterable):
        super().extend(iterable)
        self._changed()

    def insert(self, index, item):
        super().insert(index, item)
        self._changed()

    def remove(self, item):
        super().remove(item)
        self._changed()

    def pop(self, index=-1):
        item = super().pop(index)
        self._changed()
        return item

    def clear(self):
        super().clear()
        self._changed()

    def __setitem__(self, index, item):
        super().__setitem__(index, item)
        self._changed()

    def __delitem__(self, index):
        super().__delitem__(index)
        self._changed()

    def __iadd__(self, iterable):
        super().extend(iterable)
        self._changed()
        return self


# The Table 2 configuration sweep: the paper reports FPGA resources for
# the default target at issue widths 1, 2, 4 and 8.
DEFAULT_ISSUE_WIDTHS = (1, 2, 4, 8)

# The "skip as far as you can" idle hint for add_cycle_listener: an idle
# span never comes near 2**40 cycles, so a listener returning this never
# bounds idle fast-forward.
IDLE_HINT_UNBOUNDED = 1 << 40


def unbounded_idle_hint(cycle: int) -> int:
    """The idle hint of every observer that reads module state only (the
    stats fabric, the invariant monitor, trigger queries): no module
    steps inside a quiescent span, so nothing it reads can change there,
    and the waking cycle replays the full per-cycle path."""
    return IDLE_HINT_UNBOUNDED


def build_default_core(
    issue_width: int = 2, feed: Optional[InstructionFeed] = None
) -> "TimingModel":
    """The default Figure 3 target at *issue_width*, fed by a NullFeed
    unless a real feed is supplied.  Structural tools (FastLint, the
    resource model) use this to inspect a core without running it."""
    return TimingModel(
        feed=feed or NullFeed(),
        config=TimingConfig.with_issue_width(issue_width),
    )


def default_cores() -> "List[TimingModel]":
    """One default core per Table 2 issue width (1, 2, 4, 8)."""
    return [build_default_core(width) for width in DEFAULT_ISSUE_WIDTHS]


class TimingModel(Module):
    """The complete target pipeline (Figure 3)."""

    def __init__(
        self,
        feed: InstructionFeed,
        microcode: Optional[MicrocodeTable] = None,
        config: Optional[TimingConfig] = None,
    ):
        super().__init__("timing_model")
        self.feed = feed
        self.config = config or TimingConfig()
        self.microcode = microcode or MicrocodeTable()
        cfg = self.config
        self.hierarchy = CacheHierarchy(cfg.caches)
        self.predictor = make_predictor(cfg.predictor)
        self.frontend = Frontend(
            feed,
            self.predictor,
            self.hierarchy,
            self.microcode,
            fetch_width=cfg.issue_width,
            max_nested_branches=cfg.max_nested_branches,
            fetch_buffer=4 * cfg.issue_width,
            decode_buffer=4 * cfg.issue_width,
        )
        self.backend = Backend(
            self.frontend,
            self.hierarchy,
            feed,
            rob_entries=cfg.rob_entries,
            rs_entries=cfg.rs_entries,
            lsq_entries=cfg.lsq_entries,
            num_alus=cfg.num_alus,
            num_brus=cfg.num_brus,
            num_fpus=cfg.num_fpus,
            num_lsus=cfg.num_lsus,
            dispatch_width=cfg.dispatch_width,
            commit_width=cfg.commit_width,
            result_bus_width=cfg.result_bus_width,
        )
        self.frontend.backend = self.backend
        self.frontend.decode_q.bind_endpoints(consumer=self.backend)
        self.add_child(self.hierarchy)
        self.add_child(self.frontend)
        self.add_child(self.backend)
        self.cycle = 0
        self.idle_cycles = 0
        self._last_progress = 0
        # Optional commit hook: (dyn_instr, cycle) -> None.  The
        # statistics sampler (Figure 6) and host models subscribe here.
        # The list re-binds backend.on_instr_commit on every mutation so
        # zero-listener runs pay nothing per commit and single-listener
        # runs skip the fan-out loop.
        self._commit_listeners = _CommitListenerList(self)
        # Optional per-cycle hooks (run-time trigger queries).  Only
        # evaluated when non-empty: dedicated statistics hardware is
        # free on an FPGA but not on this Python host.
        self.cycle_listeners: List[Callable] = []
        # Idle-span hints for the compiled engine, keyed by id(listener)
        # (see add_cycle_listener).  A listener with no hint pins the
        # engine to one-cycle stepping whenever it is subscribed.
        self._cycle_idle_hints: dict = {}
        # Optional FastScope event tracer (repro.observability.events),
        # attached by attach_tracer().  The engine and the interrupt
        # coordinator emit seam events through it when present; it is
        # never consulted for simulation decisions.
        self.tracer = None
        self._rebind_commit_hook()
        if cfg.engine == "compiled":
            from repro.timing.schedule import compile_schedule

            self._schedule = compile_schedule(self)
        elif cfg.engine == "legacy":
            self._schedule = None
        else:
            raise ValueError(
                "unknown timing engine %r (use 'compiled' or 'legacy')"
                % cfg.engine
            )

    # -- listener registration ---------------------------------------------

    @property
    def commit_listeners(self) -> "_CommitListenerList":
        return self._commit_listeners

    @commit_listeners.setter
    def commit_listeners(self, listeners) -> None:
        self._commit_listeners = _CommitListenerList(self, listeners)
        self._rebind_commit_hook()

    def _rebind_commit_hook(self) -> None:
        listeners = self._commit_listeners
        if not listeners:
            self.backend.on_instr_commit = None
        elif len(listeners) == 1:
            self.backend.on_instr_commit = listeners[0]
        else:
            self.backend.on_instr_commit = self._notify_commit

    def add_cycle_listener(self, listener: Callable, idle_hint=None) -> None:
        """Subscribe a per-cycle hook, optionally with an idle hint.

        This is the one way onto the per-cycle seam: both engines call
        every subscribed listener after the cycle's steps, on every
        executed cycle.  *idle_hint* is a ``cycle -> int`` callable
        returning how many upcoming cycles the listener is guaranteed to
        ignore (its ``(cycle, cycle + n]`` calls would all be no-ops).
        The compiled engine takes the minimum across listeners when
        batching idle spans.  Observers of module state pass
        :func:`unbounded_idle_hint`; cadence observers (pulse samples,
        cycle-mode interrupts) bound the span to their next due cycle.
        Registering without a hint disables idle fast-forward while this
        listener is subscribed (appending directly to
        ``cycle_listeners`` behaves the same way).
        """
        # The registration primitive itself: the hint (if any) is
        # recorded just below.
        self.cycle_listeners.append(listener)  # fastlint: ignore[ST003]
        if idle_hint is not None:
            self._cycle_idle_hints[id(listener)] = idle_hint

    def _notify_commit(self, di, cycle: int) -> None:
        for listener in self._commit_listeners:
            listener(di, cycle)

    # -- stepping ------------------------------------------------------------

    def tick(self) -> None:
        """Advance one target cycle.

        The body is the legacy engine's hand-ordered reference steps or
        the compiled schedule's current steps (which the tick profiler
        may have instrumented); the per-cycle tail after it is shared.
        ``CompiledSchedule.run`` fuses this whole method into its
        batched loop.
        """
        self.cycle += 1
        cycle = self.cycle
        if self._schedule is None:
            self.frontend.fetch_q.tick(cycle)
            self.frontend.decode_q.tick(cycle)
            self.backend.tick(cycle)
            self.frontend.tick(cycle)
        else:
            for step in self._schedule._steps:
                step(cycle)
        listeners = self.cycle_listeners
        if listeners:
            if len(listeners) == 1:
                listeners[0](cycle)
            else:
                for listener in listeners:
                    listener(cycle)
        if (
            self.frontend.idle_this_cycle
            and self.backend.rob_empty
            and not self.feed.finished
        ):
            self.feed.idle_tick()
            self.idle_cycles += 1
            self._last_progress = cycle
        if self.backend.last_commit_cycle > self._last_progress:
            self._last_progress = self.backend.last_commit_cycle
        if cycle - self._last_progress > self.config.watchdog_cycles:
            self._raise_deadlock(cycle)

    def _raise_deadlock(self, cycle: int) -> None:
        raise DeadlockError(
            "no commit or idle progress for %d cycles at cycle %d "
            "(ROB=%d RS=%d fetchq=%d mode=%d)"
            % (
                self.config.watchdog_cycles,
                cycle,
                len(self.backend.rob),
                len(self.backend.rs),
                len(self.frontend.fetch_q),
                self.frontend.mode,
            )
        )

    @property
    def drained(self) -> bool:
        return (
            self.backend.rob_empty
            and len(self.frontend.fetch_q) == 0
            and len(self.frontend.decode_q) == 0
            and self.backend._dispatching is None
        )

    def run(self, max_cycles: int = 100_000_000) -> TimingStats:
        """Run until the simulated system shuts down (or the budget
        runs out) and return summary statistics."""
        if self._schedule is not None:
            return self._schedule.run(max_cycles)
        while self.cycle < max_cycles:
            self.tick()
            if self.feed.finished and self.drained:
                break
        return self.stats()

    # -- statistics -------------------------------------------------------------

    def stats_report(self) -> dict:
        """Every counter in the module tree, flattened by path -- the
        Asim/AWB-style statistics dump the paper integrates with."""
        report = self.all_counters()
        # Typed stats (the FastScope fabric) ride along in the same
        # flattened namespace; ad hoc counters win on a name collision
        # (FastLint rule ST001 flags those).
        for path, stat in self.all_stats().items():
            if path not in report:
                report[path] = stat.value()
        report["timing_model/cycles"] = self.cycle
        report["timing_model/idle_cycles"] = self.idle_cycles
        report["timing_model/committed_instructions"] = (
            self.backend.committed_instructions
        )
        report["timing_model/committed_uops"] = self.backend.committed_uops
        return report

    def stats(self) -> TimingStats:
        fe, be = self.frontend, self.backend
        l1i, l1d, l2 = self.hierarchy.l1i, self.hierarchy.l1d, self.hierarchy.l2
        return TimingStats(
            cycles=self.cycle,
            idle_cycles=self.idle_cycles,
            instructions=be.committed_instructions,
            uops=be.committed_uops,
            branches=be.counter("branches"),
            mispredicts=be.counter("mispredicts"),
            drain_cycles=fe.counter("drain_cycles"),
            drain_mispredict=fe.counter("drain_cycles_mispredict"),
            drain_exception=fe.counter("drain_cycles_exception"),
            drain_interrupt=fe.counter("drain_cycles_interrupt"),
            drain_serialize=fe.counter("drain_cycles_serialize"),
            icache_accesses=l1i.counter("accesses"),
            icache_hits=l1i.counter("hits"),
            dcache_accesses=l1d.counter("accesses"),
            dcache_hits=l1d.counter("hits"),
            l2_accesses=l2.counter("accesses"),
            l2_hits=l2.counter("hits"),
        )
