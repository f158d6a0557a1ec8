"""Baseline simulator tests: monolithic, timing-directed, FPGA-cache
hybrid, FastSim-style, and the Table 3 shape assertions."""

import pytest

from repro.baselines import (
    LockStepSimulator,
    MemoizationModel,
    TABLE3_SURVEY,
    price_fastsim,
    price_fpga_cache_hybrid,
    survey_row,
)
from repro.fast import FastSimulator
from repro.host.platforms import DRC_PLATFORM
from repro.kernel import UserProgram
from repro.timing.core import TimingConfig

PROGRAM = UserProgram("p", """
main:
    MOVI R5, 15
loop:
    MOVI R6, 100
spin:
    DEC R6
    JNZ spin
    DEC R5
    JNZ loop
    MOVI R0, 0
    SYSCALL
""", entry="main")


@pytest.fixture(scope="module")
def runs():
    # One lock-step run carries both the monolithic and the
    # timing-directed pricings.
    lockstep = LockStepSimulator.from_programs(
        [PROGRAM], timing_config=TimingConfig(predictor="gshare")
    ).run()
    fast = FastSimulator.from_programs(
        [PROGRAM], timing_config=TimingConfig(predictor="gshare")
    )
    fast.run()
    return lockstep, lockstep, fast


class TestCycleAgreement:
    def test_all_three_architectures_agree_on_cycles(self, runs):
        mono, td, fast = runs
        assert mono.timing.cycles == td.timing.cycles
        assert mono.timing.cycles == fast._result.timing.cycles

    def test_console_identical(self, runs):
        mono, td, fast = runs
        assert mono.console_text == td.console_text
        assert mono.console_text == fast._result.console_text


class TestHostSpeeds:
    def test_monolithic_in_simoutorder_band(self, runs):
        mono, _, _ = runs
        assert 50 < mono.kips < 2000  # sim-outorder/GEMS class

    def test_timing_directed_software_similar_to_monolithic(self, runs):
        mono, td, _ = runs
        ratio = td.mips_software * 1e3 / mono.kips
        assert 0.5 < ratio < 2.0

    def test_split_capped_by_round_trips(self, runs):
        _, td, _ = runs
        # Per-fetch round trips cap the split mapping near 1/469ns.
        assert td.mips_split < 2.2

    def test_fast_beats_everything(self, runs):
        mono, td, fast = runs
        fast_mips = fast.host_time(protocol_mode="prototype").mips
        assert fast_mips > td.mips_split
        assert fast_mips * 1e3 > mono.kips

    def test_fast_order_of_magnitude_over_monolithic(self, runs):
        mono, _, fast = runs
        fast_mips = fast.host_time(protocol_mode="mispredict-only").mips
        assert fast_mips * 1e3 > 3 * mono.kips


class TestFpgaCacheHybrid:
    def test_hybrid_is_slower_than_software(self, runs):
        """The Intel experiment's negative result."""
        mono, _, fast = runs
        result = price_fpga_cache_hybrid(
            fast._result.timing, fast.fm.stats.executed
        )
        assert result.slowdown > 1.0
        assert result.hybrid_mips < result.software_mips


class TestFastSim:
    def test_memoization_model_hits_on_repeats(self):
        memo = MemoizationModel()
        assert not memo.observe(0x100, 1)
        assert memo.observe(0x100, 1)
        assert not memo.observe(0x100, 2)

    def test_capacity_eviction(self):
        memo = MemoizationModel(capacity=2)
        memo.observe(1, 0)
        memo.observe(2, 0)
        memo.observe(3, 0)
        assert not memo.observe(1, 0)  # evicted

    def test_memoization_speeds_up_fastsim(self, runs):
        _, _, fast = runs
        timing = fast._result.timing
        cold = MemoizationModel()
        warm = MemoizationModel()
        for i in range(1000):
            cold.observe(i, i)  # never repeats
            warm.observe(i % 10, 0)  # repeats a lot
        cold_result = price_fastsim(
            timing, fast.fm.stats.executed, timing.branches, cold
        )
        warm_result = price_fastsim(
            timing, fast.fm.stats.executed, timing.branches, warm
        )
        assert warm_result.mips > cold_result.mips
        assert warm_result.memo_hit_rate > 0.9


class TestSurvey:
    def test_survey_rows_complete(self):
        names = {row.simulator for row in TABLE3_SURVEY}
        assert {"Intel", "AMD", "IBM", "Freescale", "PTLSim",
                "sim-outorder", "GEMS", "FAST"} == names

    def test_fast_row_fastest(self):
        fast = survey_row("FAST")
        assert all(
            fast.speed_ips >= row.speed_ips for row in TABLE3_SURVEY
        )

    def test_speed_text_units(self):
        assert survey_row("FAST").speed_text == "1.2MIPS"
        assert "KIPS" in survey_row("GEMS").speed_text

    def test_unknown_row(self):
        with pytest.raises(KeyError):
            survey_row("hal9000")
