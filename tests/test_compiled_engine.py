"""The compiled tick engine (repro.timing.schedule).

The compile step must reproduce the legacy hand-ordered dispatch
exactly -- same consumer-first order, same per-cycle semantics, same
``TimingStats`` bit for bit -- across drivers, interrupt modes and the
idle-fast-forward boundary cases (wake-up at the watchdog edge, a
cycle-mode interrupt firing inside a skipped span).
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.timing_rules import lint_timing_graph
from repro.baselines.lockstep import LockStepFeed, LockStepSimulator
from repro.fast.trace_buffer import TraceBufferFeed
from repro.kernel import KernelConfig, UserProgram
from repro.microcode import MicrocodeTable
from repro.timing.connector import Connector
from repro.timing.core import TimingConfig, TimingModel
from repro.timing.feed import NullFeed
from repro.timing.module import Module
from repro.timing.schedule import (
    CompiledSchedule,
    ScheduleError,
    unscheduled_tickables,
)
from repro.analysis.graph import extract_graph

from tests.helpers import os_image_factory, run_coupled


def _program(spin: int, sleep_ticks: int, char: int = 65) -> UserProgram:
    sleep = ""
    if sleep_ticks:
        sleep = """
    MOVI R0, 2
    MOVI R1, %d
    SYSCALL
""" % sleep_ticks
    source = """
main:
    MOVI R5, 3
outer:
    MOVI R0, 1
    MOVI R1, %d
    SYSCALL
    MOVI R6, %d
spin:
    DEC R6
    JNZ spin
%s
    DEC R5
    JNZ outer
    MOVI R0, 0
    SYSCALL
""" % (char, spin, sleep)
    return UserProgram("prog", source, entry="main")


def _run_feed(feed_cls, programs, engine, cycle_mode=False,
              watchdog=500_000, timer_interval=3000):
    run = run_coupled(
        os_image_factory(programs,
                         KernelConfig(timer_interval=timer_interval)),
        feed_cls,
        TimingConfig(engine=engine, watchdog_cycles=watchdog),
        max_cycles=2_000_000,
        cycle_irq_interval=2500 if cycle_mode else None,
    )
    return run.stats, run.console_text, run.coordinator


def _null_tm(engine="compiled"):
    return TimingModel(
        NullFeed(), microcode=MicrocodeTable(),
        config=TimingConfig(engine=engine),
    )


class _Ticky(Module):
    """A unit module with a per-cycle step, for synthetic trees."""

    def __init__(self, name):
        super().__init__(name)
        self.ticks = []

    def bind_tick(self):
        return self.ticks.append


class TestCompileStep:
    def test_order_matches_legacy_hand_order(self):
        tm = _null_tm()
        assert tm._schedule.describe() == [
            "timing_model/frontend/fetch2decode",
            "timing_model/frontend/decode2dispatch",
            "timing_model/backend",
            "timing_model/frontend",
        ]
        assert tm._schedule.unscheduled == []

    def test_default_core_has_no_tg006(self):
        report = lint_timing_graph(_null_tm())
        assert not [d for d in report.diagnostics if d.rule == "TG006"]

    def test_zero_latency_cycle_rejected(self):
        root = Module("root")
        a, b = _Ticky("a"), _Ticky("b")
        ab = Connector("ab", min_latency=0).bind_endpoints(a, b)
        ba = Connector("ba", min_latency=0).bind_endpoints(b, a)
        for m in (a, b, ab, ba):
            root.add_child(m)
        with pytest.raises(ScheduleError):
            CompiledSchedule(root)

    def test_consumer_ticks_before_producer(self):
        root = Module("root")
        producer, consumer = _Ticky("producer"), _Ticky("consumer")
        link = Connector("link").bind_endpoints(producer, consumer)
        # Tree order deliberately lists the producer first; the
        # dataflow edge must still flip them.
        for m in (producer, link, consumer):
            root.add_child(m)
        schedule = CompiledSchedule(root)
        assert schedule.describe() == [
            "root/link", "root/consumer", "root/producer",
        ]

    def test_unscheduled_tickable_reported_as_tg006(self):
        root = Module("root")
        a, b = _Ticky("a"), _Ticky("b")
        link = Connector("link").bind_endpoints(a, b)
        orphan = _Ticky("orphan")
        for m in (a, b, link, orphan):
            root.add_child(m)
        found = unscheduled_tickables(extract_graph(root))
        assert [path for path, _m in found] == ["root/orphan"]
        report = lint_timing_graph(root)
        tg006 = [d for d in report.diagnostics if d.rule == "TG006"]
        assert len(tg006) == 1
        assert "orphan" in tg006[0].message
        schedule = CompiledSchedule(root)
        assert [p for p, _m in schedule.unscheduled] == ["root/orphan"]

    def test_manual_tick_stepping_matches_legacy(self):
        legacy, compiled = _null_tm("legacy"), _null_tm("compiled")
        for _ in range(7):
            legacy.tick()
            compiled.tick()
        assert compiled.cycle == legacy.cycle == 7
        assert compiled.idle_cycles == legacy.idle_cycles

    @pytest.mark.parametrize("engine", ["shraded", "sharded"])
    def test_unknown_engine_rejected(self, engine):
        with pytest.raises(ValueError, match="'compiled' or 'legacy'"):
            _null_tm(engine)


class TestEngineEquivalence:
    @settings(max_examples=6, deadline=None)
    @given(
        spin=st.integers(min_value=1, max_value=300),
        sleep_ticks=st.integers(min_value=0, max_value=2),
    )
    def test_stats_field_for_field(self, spin, sleep_ticks):
        programs = [_program(spin, sleep_ticks)]
        for feed_cls in (LockStepFeed, TraceBufferFeed):
            legacy, text_l, _ = _run_feed(feed_cls, programs, "legacy")
            compiled, text_c, _ = _run_feed(feed_cls, programs, "compiled")
            assert dataclasses.asdict(legacy) == dataclasses.asdict(compiled)
            assert text_l == text_c

    def test_monolithic_driver(self):
        results = {}
        for engine in ("legacy", "compiled"):
            sim = LockStepSimulator.from_programs(
                [_program(40, 1)],
                timing_config=TimingConfig(engine=engine),
            )
            results[engine] = sim.run(max_cycles=2_000_000)
        assert results["legacy"].timing == results["compiled"].timing
        assert (results["legacy"].console_text
                == results["compiled"].console_text)

    def test_wake_at_watchdog_edge(self):
        # The sleep span (~3000 idle cycles per kernel tick) exceeds the
        # watchdog budget.  The legacy engine survives because idle
        # ticks count as progress every cycle; a batched span must
        # account the same progress or it would false-trip the
        # watchdog mid-skip.
        programs = [_program(10, 2)]
        for feed_cls in (LockStepFeed, TraceBufferFeed):
            legacy, _t, _ = _run_feed(feed_cls, programs, "legacy",
                                      watchdog=2000)
            compiled, _t, _ = _run_feed(feed_cls, programs, "compiled",
                                        watchdog=2000)
            assert legacy == compiled
            assert compiled.idle_cycles > 2000

    def test_interrupt_fires_during_skipped_span(self):
        # Cycle-mode: the coordinator's firing lands inside what would
        # otherwise be one long HALT span.  Its idle hint must end the
        # batch one cycle short of next_fire so delivery happens on the
        # exact cycle it does under the legacy engine.
        programs = [_program(40, 2, char=87)]
        out = {}
        for engine in ("legacy", "compiled"):
            stats, text, coord = _run_feed(
                TraceBufferFeed, programs, engine, cycle_mode=True
            )
            out[engine] = (stats, text, coord.deliveries)
        assert out["legacy"] == out["compiled"]
        assert out["compiled"][2] > 0
        assert out["compiled"][0].idle_cycles > 0


class TestListenerFastPaths:
    def test_commit_hook_rebinds_on_mutation(self):
        tm = _null_tm()
        backend = tm.backend
        assert backend.on_instr_commit is None
        one = lambda di, cycle: None  # noqa: E731
        two = lambda di, cycle: None  # noqa: E731
        tm.commit_listeners.append(one)
        assert backend.on_instr_commit is one
        tm.commit_listeners.append(two)
        assert backend.on_instr_commit == tm._notify_commit
        tm.commit_listeners.remove(two)
        assert backend.on_instr_commit is one
        tm.commit_listeners.clear()
        assert backend.on_instr_commit is None

    def test_commit_hook_rebinds_on_assignment(self):
        tm = _null_tm()
        fn = lambda di, cycle: None  # noqa: E731
        tm.commit_listeners = [fn]
        assert tm.backend.on_instr_commit is fn
        tm.commit_listeners.pop()
        assert tm.backend.on_instr_commit is None

    def test_cycle_listener_without_hint_pins_single_stepping(self):
        tm = _null_tm()
        tm.add_cycle_listener(lambda cycle: None)
        assert tm._schedule._idle_span(5, 100, tm._cycle_idle_hints) == 0

    def test_cycle_listener_hint_registered(self):
        tm = _null_tm()
        hook = lambda cycle: None  # noqa: E731
        hint = lambda cycle: 7  # noqa: E731
        tm.add_cycle_listener(hook, idle_hint=hint)
        assert tm._cycle_idle_hints[id(hook)] is hint


class TestAddChildScaling:
    def test_duplicate_sibling_name_still_warns(self):
        from repro.timing.module import DuplicateModuleNameWarning

        parent = Module("parent")
        parent.add_child(Module("bank"))
        with pytest.warns(DuplicateModuleNameWarning):
            parent.add_child(Module("bank"))

    def test_wide_module_children_unique(self):
        import warnings as _warnings

        parent = Module("parent")
        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            for i in range(500):
                parent.add_child(Module("bank%d" % i))
        assert len(parent.children) == 500
