"""Timing-model-generated interrupts (section 3.4 cycle mode).

The coordinator schedules timer firings by *target cycle*, freezes the
pipeline, rolls the functional model back to the commit boundary and
resumes with handler instructions -- and the FAST/lock-step equivalence
invariant must still hold, since firings are a pure function of commit
cycles.
"""

from dataclasses import asdict

import pytest

from repro.baselines.lockstep import LockStepFeed
from repro.fast.interrupts import CycleInterruptCoordinator
from repro.fast.trace_buffer import TraceBufferFeed
from repro.functional.model import FunctionalModel
from repro.kernel import KernelConfig, UserProgram, build_os_image
from repro.system.bus import build_standard_system
from repro.timing.core import TimingConfig, TimingModel

SPINNER = UserProgram("spin", """
main:
    MOVI R5, 10
outer:
    MOVI R0, 1
    MOVI R1, 65
    SYSCALL
    MOVI R6, 1200
spin:
    DEC R6
    JNZ spin
    DEC R5
    JNZ outer
    MOVI R0, 0
    SYSCALL
""", entry="main")

SLEEPER = UserProgram("sleeper", """
main:
    MOVI R0, 2
    MOVI R1, 2
    SYSCALL           ; sleep 2 ticks (HALT-wake needs the timer)
    MOVI R0, 1
    MOVI R1, 87
    SYSCALL
    MOVI R0, 0
    SYSCALL
""", entry="main")


def run_cycle_mode(feed_cls, programs, interval_cycles=4000,
                   predictor="gshare", max_cycles=4_000_000):
    memory, bus, _i, _t, console, _d = build_standard_system(
        memory_size=1 << 22
    )
    image, _ = build_os_image(
        programs, config=KernelConfig(timer_interval=100_000)
    )
    fm = FunctionalModel(memory=memory, bus=bus)
    fm.load(image)
    feed = feed_cls(fm)
    tm = TimingModel(feed, microcode=fm.microcode,
                     config=TimingConfig(predictor=predictor))
    coordinator = CycleInterruptCoordinator(
        tm, fm, interval_cycles=interval_cycles
    )
    stats = tm.run(max_cycles=max_cycles)
    return stats, fm, console, coordinator


class TestCycleMode:
    def test_preemption_happens_by_cycles(self):
        stats, fm, console, coord = run_cycle_mode(
            TraceBufferFeed, [SPINNER, SPINNER]
        )
        assert fm.bus.shutdown_requested
        assert coord.deliveries > 2
        assert fm.stats.forced_interrupts > 2
        assert stats.drain_interrupt > 0
        # Both processes made progress: 20 'A's total.
        assert console.text().count("A") == 20

    def test_halt_woken_by_cycle_timer(self):
        stats, fm, console, coord = run_cycle_mode(
            TraceBufferFeed, [SLEEPER], interval_cycles=2500
        )
        assert fm.bus.shutdown_requested
        assert "W" in console.text()
        assert fm.stats.halted_steps > 0
        assert coord.deliveries >= 2  # sleep(2) needs two ticks

    @pytest.mark.parametrize("predictor", ["gshare", "perfect"])
    def test_fast_equals_lockstep_in_cycle_mode(self, predictor):
        fast_stats, fast_fm, fast_console, _ = run_cycle_mode(
            TraceBufferFeed, [SPINNER, SLEEPER], predictor=predictor
        )
        lock_stats, lock_fm, lock_console, _ = run_cycle_mode(
            LockStepFeed, [SPINNER, SLEEPER], predictor=predictor
        )
        assert fast_stats.cycles == lock_stats.cycles
        assert fast_stats.instructions == lock_stats.instructions
        assert fast_stats.mispredicts == lock_stats.mispredicts
        assert fast_console.text() == lock_console.text()
        assert list(fast_fm.state.regs) == list(lock_fm.state.regs)

    def test_interval_scales_delivery_count(self):
        _s1, _f1, _c1, fast_timer = run_cycle_mode(
            TraceBufferFeed, [SPINNER], interval_cycles=2000
        )
        _s2, _f2, _c2, slow_timer = run_cycle_mode(
            TraceBufferFeed, [SPINNER], interval_cycles=20_000
        )
        assert fast_timer.deliveries > slow_timer.deliveries

    def test_rollback_replay_reproduces_forced_interrupts(self):
        """A mispredict rollback crossing a forced-interrupt boundary
        must replay the delivery identically (the interrupt log)."""
        stats, fm, console, coord = run_cycle_mode(
            TraceBufferFeed, [SPINNER, SPINNER], interval_cycles=3000,
            predictor="gshare",
        )
        # Plenty of both happened in the same run; if replay were wrong
        # the run would have diverged/crashed or produced bad output.
        assert coord.deliveries > 1
        assert fm.stats.rollbacks > 0
        assert console.text().count("A") == 20

    def test_forced_interrupt_log_trimmed_to_checkpoints(self, monkeypatch):
        """Replay starts at a retained checkpoint, so commits drop the
        deliveries logged before the oldest one -- without changing the
        run."""
        stats, fm, console, coord = run_cycle_mode(
            TraceBufferFeed, [SPINNER, SPINNER], interval_cycles=2000
        )
        assert coord.deliveries > 5
        oldest = fm.ckpt.oldest_in
        assert all(after_in >= oldest for after_in in fm._forced_irqs)
        # The same run with the whole log kept.
        monkeypatch.setattr(
            FunctionalModel, "commit",
            lambda self, in_no: self.ckpt.release(in_no),
        )
        kept_stats, kept_fm, kept_console, _ = run_cycle_mode(
            TraceBufferFeed, [SPINNER, SPINNER], interval_cycles=2000
        )
        assert len(kept_fm._forced_irqs) > len(fm._forced_irqs)
        assert asdict(stats) == asdict(kept_stats)
        assert console.text() == kept_console.text()

    def test_requires_timer_device(self):
        from repro.system.bus import IOBus
        from repro.system.memory import PhysicalMemory
        from repro.isa.program import ProgramImage

        memory = PhysicalMemory(4096)
        bus = IOBus()
        fm = FunctionalModel(memory=memory, bus=bus)
        fm.load(ProgramImage.from_assembly("t", "HALT\n", base=0))
        tm = TimingModel(TraceBufferFeed(fm), microcode=fm.microcode)
        with pytest.raises(ValueError):
            CycleInterruptCoordinator(tm, fm)
