"""Cycle-driven (timing-model-generated) interrupts.

"The timing model generates interrupts for reproducibility and passes
those interrupts to the functional model. ... It is, however, the
responsibility of the timing model to signal when an
interrupt/exception occurs.  When the timing model detects an
interrupt ... it freezes, notifies the functional model to start
generating the interrupt/exception handler instructions and waits until
those instructions arrive in the trace buffer."  (section 3.4)

By default this reproduction drives devices from the committed
instruction stream (QEMU icount-style), which is already deterministic.
:class:`CycleInterruptCoordinator` implements the paper's alternative:
the *timing model's target cycle count* schedules timer interrupts.  At
each firing:

1. the pipeline is flushed (everything uncommitted squashed -- the
   "freeze"),
2. the functional model is rolled back to the commit boundary and takes
   the interrupt there (``deliver_interrupt``),
3. fetch resumes following the regenerated stream (handler
   instructions, or the architectural continuation if interrupts were
   masked at the boundary).

Because firings are a pure function of commit cycles, the FAST and
lock-step couplings still agree exactly; the equivalence tests cover
this mode too.
"""

from __future__ import annotations

from typing import Optional

from repro.functional.model import FunctionalModel, VECTOR_BASE
from repro.system.interrupt_controller import IRQ_TIMER
from repro.system.timer import (
    PORT_CTRL as TIMER_PORT_CTRL,
    PORT_INTERVAL as TIMER_PORT_INTERVAL,
    Timer,
)
from repro.timing.core import IDLE_HINT_UNBOUNDED, TimingModel
from repro.timing.pipeline.frontend import DRAIN_INTERRUPT


class CycleInterruptCoordinator:
    """Schedules and delivers timer interrupts by target cycle."""

    def __init__(self, tm: TimingModel, fm: FunctionalModel,
                 interval_cycles: Optional[int] = None):
        self.tm = tm
        self.fm = fm
        self.feed = tm.feed
        self.timer = self._find_timer(fm)
        if self.timer is None:
            raise ValueError("no timer device on the functional model's bus")
        # The coordinator owns timer firing; device ticks must not.
        self.timer.external = True
        self.interval_override = interval_cycles
        self._interval = self.timer.interval
        self._enabled = False
        self.next_fire: Optional[int] = None
        self.deliveries = 0
        tm.commit_listeners.append(self._on_commit)
        # The cycle hook only acts at next_fire with an idle machine, so
        # everything strictly before next_fire is skippable: the idle
        # hint lets the compiled engine batch HALT spans right up to the
        # firing cycle, which then runs through the full per-cycle path.
        tm.add_cycle_listener(self._on_cycle, idle_hint=self._idle_hint)

    def _idle_hint(self, cycle: int) -> int:
        if self.next_fire is None:
            # Not armed: cycle count alone can never make _on_cycle act.
            return IDLE_HINT_UNBOUNDED
        return self.next_fire - cycle - 1

    @staticmethod
    def _find_timer(fm: FunctionalModel) -> Optional[Timer]:
        for device in fm.bus.devices:
            if isinstance(device, Timer):
                return device
        return None

    @property
    def interval(self) -> int:
        return self.interval_override or self._interval

    # -- scheduling ------------------------------------------------------
    #
    # Arming must depend only on the *committed* instruction stream: the
    # speculative FM enables the timer device earlier (in host time)
    # than the lock-step FM would, so reading device state here would
    # break FAST/lock-step equivalence.  The enabling OUT instruction is
    # visible in the trace entry it commits with.

    def _on_commit(self, di, cycle: int) -> None:
        entry = di.entry
        if entry.io_port == TIMER_PORT_CTRL:
            self._enabled = bool(entry.io_value & 1)
            if self._enabled and self.next_fire is None:
                self.next_fire = cycle + self.interval
            elif not self._enabled:
                self.next_fire = None
        elif entry.io_port == TIMER_PORT_INTERVAL:
            self._interval = max(1, entry.io_value)
        if self.next_fire is not None and cycle >= self.next_fire:
            self._deliver(entry.in_no, entry.next_pc, cycle)

    def _on_cycle(self, cycle: int) -> None:
        # The HALT case: no commits are happening, but target time still
        # passes and the timer must eventually wake the system.  The
        # firing condition must be a pure function of *timing-model*
        # state (the FM's position differs between the speculative and
        # lock-step couplings at any given cycle).
        if (
            self.next_fire is not None
            and cycle >= self.next_fire
            and self.tm.frontend.idle_this_cycle
            and self.tm.backend.rob_empty
            and not self.feed.finished
        ):
            self._deliver(self.fm.in_count, self.fm.state.pc, cycle)

    # -- delivery ----------------------------------------------------------

    def _deliver(self, after_in: int, fallback_pc: int, cycle: int) -> None:
        self.next_fire = cycle + self.interval
        self.timer.fires += 1
        self.deliveries += 1
        # Freeze: squash everything speculative in the pipeline.
        self.tm.backend.squash_all(cycle)
        taken, replayed = self.feed.interrupt_delivery(after_in, IRQ_TIMER)
        resume_pc = VECTOR_BASE if taken else fallback_pc
        self.tm.frontend.begin_drain(resume_pc, DRAIN_INTERRUPT)
        self.tm.frontend.bump("tm_interrupt_deliveries")
        if self.tm.tracer is not None:
            self.tm.tracer.emit("tm_interrupt", after_in=after_in,
                                taken=taken, replayed=replayed,
                                resume_pc=resume_pc)
