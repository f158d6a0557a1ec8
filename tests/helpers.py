"""Shared test helpers: bare-metal runs and the coupled-simulator matrix.

The equivalence suites (``test_fast_equivalence``,
``test_compiled_engine``, ``test_fuzz*``) all build the same object
graph -- standard system + functional model + feed + timing model,
optionally a cycle-interrupt coordinator -- and compare fingerprints of
the result.  That construction lives here once, keyed by the same
(engine, feed, interrupt-mode) axes the FastFuzz oracle matrix uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.baselines.lockstep import LockStepFeed
from repro.fast.interrupts import CycleInterruptCoordinator
from repro.fast.trace_buffer import TraceBufferFeed
from repro.functional.model import FunctionalConfig, FunctionalModel
from repro.isa.program import ProgramImage
from repro.kernel import build_os_image
from repro.system.bus import build_standard_system
from repro.timing.core import TimingModel, TimingStats

# The two coupling feeds of the oracle matrix, by short name.
FEEDS = {"lockstep": LockStepFeed, "tb": TraceBufferFeed}


def run_bare(source: str, max_instructions: int = 100_000,
             config: FunctionalConfig = None, memory_size: int = 1 << 20,
             base: int = 0x1000):
    """Assemble and run *source* in kernel mode (physical addressing).

    The program should end with HALT or a power-off OUT.  Returns the
    functional model for inspection.
    """
    image = ProgramImage.from_assembly("test", source, base=base)
    memory, bus, _i, _t, console, _d = build_standard_system(
        memory_size=memory_size
    )
    fm = FunctionalModel(memory=memory, bus=bus, config=config)
    fm.load(image)
    fm.run(max_instructions=max_instructions)
    fm.console = console
    return fm


def regs_of(fm) -> list:
    return list(fm.state.regs)


# ---------------------------------------------------------------------------
# Coupled (FM + TM) runs.
# ---------------------------------------------------------------------------


@dataclass
class CoupledRun:
    """Everything one coupled simulation produced."""

    stats: TimingStats
    console_text: str
    fm: FunctionalModel
    coordinator: Optional[CycleInterruptCoordinator] = None

    def fingerprint(self) -> dict:
        return equivalence_fingerprint(self.stats, self.console_text, self.fm)


def equivalence_fingerprint(stats, console_text, fm) -> dict:
    """The cross-coupling comparison key used by the equivalence suites:
    cycle-accurate counters plus observable architecture."""
    return {
        "cycles": stats.cycles,
        "instructions": stats.instructions,
        "uops": stats.uops,
        "branches": stats.branches,
        "mispredicts": stats.mispredicts,
        "drain_mispredict": stats.drain_mispredict,
        "drain_interrupt": stats.drain_interrupt,
        "icache_hits": stats.icache_hits,
        "dcache_hits": stats.dcache_hits,
        "console": console_text,
        "regs": list(fm.state.regs),
    }


def run_coupled(image_factory, feed_cls, timing_config, disk_image=None,
                max_cycles=3_000_000, fm_config=None, memory_size=1 << 22,
                cycle_irq_interval=None, disk_timing_model=None,
                **feed_kwargs) -> CoupledRun:
    """Build the standard machine, couple *feed_cls* to a timing model,
    run to completion.

    *cycle_irq_interval* switches the run to cycle-driven (timing-model
    generated) interrupts via :class:`CycleInterruptCoordinator`;
    ``None`` keeps the default instruction-driven devices.
    *disk_timing_model* is a zero-arg factory (e.g. the model class):
    the models are stateful (head position), so each run needs its own.
    """
    memory, bus, _i, _t, console, _d = build_standard_system(
        memory_size=memory_size, disk_image=disk_image,
        disk_timing_model=disk_timing_model() if disk_timing_model else None,
    )
    fm = FunctionalModel(memory=memory, bus=bus, config=fm_config)
    fm.load(image_factory())
    feed = feed_cls(fm, **feed_kwargs)
    tm = TimingModel(feed, microcode=fm.microcode, config=timing_config)
    coordinator = None
    if cycle_irq_interval is not None:
        coordinator = CycleInterruptCoordinator(
            tm, fm, interval_cycles=cycle_irq_interval
        )
    stats = tm.run(max_cycles=max_cycles)
    return CoupledRun(stats, console.text(), fm, coordinator)


def assert_equivalent(image_factory, timing_config, disk_image=None,
                      fm_config=None, max_cycles=3_000_000,
                      disk_timing_model=None, cycle_irq_interval=None,
                      **feed_kwargs):
    """THE FAST invariant: trace-buffer coupling == lock-step reference.

    *feed_kwargs* (depth, lookahead, ...) configure the trace-buffer
    side only; everything else applies to both runs.  Returns
    ``(fast_fingerprint, fast_fm)`` for further assertions.
    """
    shared = dict(
        disk_image=disk_image, fm_config=fm_config, max_cycles=max_cycles,
        disk_timing_model=disk_timing_model,
        cycle_irq_interval=cycle_irq_interval,
    )
    fast = run_coupled(image_factory, TraceBufferFeed, timing_config,
                       **shared, **feed_kwargs)
    lock = run_coupled(image_factory, LockStepFeed, timing_config, **shared)
    assert fast.fingerprint() == lock.fingerprint()
    return fast.fingerprint(), fast.fm


def os_image_factory(programs, config=None):
    """Image factory for FastOS workloads (fresh build per run)."""

    def factory():
        image, _ = build_os_image(programs, config=config)
        return image

    return factory


def bare_image_factory(source, base=0x1000):
    """Image factory for bare-metal (kernel mode, physical) programs."""

    def factory():
        return ProgramImage.from_assembly("t", source, base=base)

    return factory
