"""Additional coverage: QEMU-knob equivalences, feed behaviours,
deadlock detection, SR_CYCLE, console input, and harness pricing."""

import pytest

from repro.baselines.lockstep import LockStepFeed
from repro.fast.trace_buffer import TraceBufferFeed
from repro.functional.model import (
    FunctionalConfig,
    FunctionalModel,
)
from repro.isa.program import ProgramImage
from repro.system.bus import build_standard_system
from repro.timing.core import DeadlockError, TimingConfig, TimingModel, TimingStats
from repro.timing.feed import InstructionFeed
from tests.helpers import run_bare


class TestFunctionalKnobs:
    SOURCE = """
        MOVI R1, 20
    top:
        MOVI R2, 0x9000
        ST [R2+0], R1
        LD R3, [R2+0]
        DEC R1
        JNZ top
        HALT
    """

    def _run(self, **config_kwargs):
        memory, bus, *_ = build_standard_system(memory_size=1 << 20)
        fm = FunctionalModel(
            memory=memory, bus=bus, config=FunctionalConfig(**config_kwargs)
        )
        fm.load(ProgramImage.from_assembly("t", self.SOURCE, base=0x1000))
        fm.run(max_instructions=10_000)
        return fm

    def test_block_chaining_off_same_architecture(self):
        """Disabling the decode cache (the paper's de-optimized QEMU)
        changes host cost only, never architectural results."""
        with_cache = self._run(block_chaining=True)
        without = self._run(block_chaining=False)
        assert list(with_cache.state.regs) == list(without.state.regs)
        assert with_cache.in_count == without.in_count
        assert without.stats.decode_hits == 0
        assert with_cache.stats.decode_hits > 0

    def test_bb_compression_counts_fewer_words(self):
        full = self._run(trace_compression="full")
        bb = self._run(trace_compression="bb")
        assert bb.stats.trace_words < full.stats.trace_words
        assert bb.in_count == full.in_count

    def test_coverage_collection_can_be_disabled(self):
        off = self._run(collect_coverage=False)
        assert off.microcode.coverage.total == 0


class TestSpecialRegisters:
    def test_sr_cycle_reads_instruction_count(self):
        fm = run_bare(
            "MOVI R1, 1\nMOVI R2, 2\nMOVRS R3, CYCLE\nHALT\n"
        )
        # CYCLE counts completed instructions; the reading MOVRS has
        # not completed yet, so it observes 2.
        assert fm.state.regs[3] == 2

    def test_sr_cycle_is_read_only(self):
        fm = run_bare(
            "MOVI R1, 99\nMOVSR CYCLE, R1\nMOVRS R2, CYCLE\nHALT\n"
        )
        assert fm.state.regs[2] == 2  # the write was ignored


class TestConsoleInput:
    def test_program_reads_scripted_input(self):
        from repro.isa.program import ProgramImage

        memory, bus, _i, _t, console, _d = build_standard_system(
            console_input=b"hi"
        )
        fm = FunctionalModel(memory=memory, bus=bus)
        fm.load(ProgramImage.from_assembly("t", """
            IN R1, 0x11       ; status: input available
            IN R2, 0x10       ; 'h'
            IN R3, 0x10       ; 'i'
            IN R4, 0x11       ; status: drained
            HALT
        """, base=0x1000))
        fm.run(max_instructions=10)
        assert fm.state.regs[1] == 1
        assert fm.state.regs[2] == ord("h")
        assert fm.state.regs[3] == ord("i")
        assert fm.state.regs[4] == 0


class TestFeedBehaviour:
    def _fm(self, source="MOVI R1, 1\nMOVI R2, 2\nHALT\n"):
        memory, bus, *_ = build_standard_system()
        fm = FunctionalModel(memory=memory, bus=bus)
        fm.load(ProgramImage.from_assembly("t", source, base=0x1000))
        return fm

    def test_lockstep_counts_round_trips(self):
        feed = LockStepFeed(self._fm())
        while feed.peek() is not None:
            feed.consume()
        assert feed.stats.fetch_round_trips == 3  # one per instruction

    def test_trace_buffer_idle_tick_advances_devices(self):
        fm = self._fm()
        feed = TraceBufferFeed(fm)
        while feed.peek() is not None:
            feed.consume()
        timer = [d for d in fm.bus.devices if d.name == "timer"][0]
        timer.enabled = True
        before = timer.count
        feed.idle_tick()
        assert timer.count == before + 1

    def test_force_then_resolve_restores_stream(self):
        source = """
            MOVI R1, 1
            JMP good
        bad:
            MOVI R2, 66
            HALT
        good:
            MOVI R3, 3
            HALT
        """
        fm = self._fm(source)
        from repro.isa.assembler import assemble

        symbols = assemble(source, base=0x1000).symbols
        feed = TraceBufferFeed(fm)
        first = feed.peek()
        feed.consume()
        jmp = feed.peek()
        feed.consume()
        feed.force_wrong_path(jmp.in_no, symbols["bad"])
        wrong = feed.peek()
        assert wrong.wrong_path and wrong.pc == symbols["bad"]
        feed.resolve_wrong_path(jmp.in_no, symbols["good"])
        right = feed.peek()
        assert not right.wrong_path and right.pc == symbols["good"]
        assert feed.protocol.round_trips == 2


class TestDeadlockDetection:
    def test_watchdog_raises_on_wedged_feed(self):
        class WedgedFeed(InstructionFeed):
            finished = False

            def refill(self):
                pass  # never produces an entry, and never finishes

            def idle_tick(self):
                pass

        # A feed that never yields entries nor finishes, with a
        # functional model that is NOT halted, wedges the pipeline; the
        # watchdog must convert that into a diagnosable error.
        tm = TimingModel(
            WedgedFeed(), config=TimingConfig(watchdog_cycles=200)
        )
        # idle_tick IS called (an empty deque after refill counts as
        # idle) -> that's progress.  Suppress it by marking the feed
        # finished halfway.
        feed = tm.feed
        with pytest.raises(DeadlockError):
            for _ in range(100_000):
                tm.tick()
                feed.finished = True  # idle path disabled from now on


class TestTimingStatsEdges:
    def test_empty_stats_properties(self):
        stats = TimingStats()
        assert stats.ipc == 0.0
        assert stats.bp_accuracy == 1.0
        assert stats.icache_hit_rate == 1.0
        assert stats.pipe_drain_fraction == 0.0


class TestUserPhasePricing:
    def test_user_host_mips_positive_and_mode_ordered(self):
        from repro.experiments.harness import run_fast_workload

        run = run_fast_workload("186.crafty", scale=1)
        assert run.user_mips["prototype"] > 0
        assert (
            run.user_mips["mispredict-only"] >= run.user_mips["prototype"]
        )
        assert 0.0 <= run.user_idle_fraction < 1.0

    def test_windows_boot_runs_under_fast(self):
        from repro.experiments.harness import run_fast_workload

        run = run_fast_workload("windows-xp", scale=1)
        assert run.result.timing.instructions > 40_000
        assert "windows" in run.result.console_text
