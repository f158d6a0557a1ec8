"""Host platform models, resource estimation and the analytical model."""

import pytest
from hypothesis import given, strategies as st

from repro.analytical import PartitionedSimulatorModel, fast_round_trip_fraction
from repro.analytical import scenarios
from repro.host import (
    DRC_LINK,
    DRC_PLATFORM,
    OPTERON_275,
    VIRTEX4_LX200,
    estimate_resources,
)
from repro.host.fpga import FpgaHost
from repro.experiments.table2 import build_timing_model


class TestAnalyticalModel:
    def test_rate_is_min_of_components(self):
        model = PartitionedSimulatorModel(t_a=1e-7, t_b=2e-7, f=0.0, l_rt=0.0)
        assert model.cycles_per_second() == pytest.approx(1 / 2e-7)

    def test_round_trips_slow_things_down(self):
        base = PartitionedSimulatorModel(t_a=1e-7, t_b=0, f=0.0, l_rt=5e-7)
        loaded = PartitionedSimulatorModel(t_a=1e-7, t_b=0, f=0.5, l_rt=5e-7)
        assert loaded.cycles_per_second() < base.cycles_per_second()

    def test_alpha_terms_add(self):
        no_alpha = PartitionedSimulatorModel(t_a=1e-7, t_b=0, f=0.1, l_rt=5e-7)
        with_alpha = PartitionedSimulatorModel(
            t_a=1e-7, t_b=0, f=0.1, l_rt=5e-7, alpha_aa=1e-6
        )
        assert with_alpha.cycles_per_second() < no_alpha.cycles_per_second()

    def test_fraction_formula(self):
        # 92% BP, 20% branches -> 0.08 * 0.2 * 2 = 0.032 (paper).
        assert fast_round_trip_fraction(0.92, 0.2) == pytest.approx(0.032)

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            fast_round_trip_fraction(1.2, 0.2)
        with pytest.raises(ValueError):
            fast_round_trip_fraction(0.9, -0.1)

    @given(st.floats(0.5, 1.0), st.floats(0.0, 0.5))
    def test_better_bp_never_hurts(self, accuracy, branch_ratio):
        worse = fast_round_trip_fraction(max(0.0, accuracy - 0.1), branch_ratio)
        better = fast_round_trip_fraction(accuracy, branch_ratio)
        assert better <= worse


class TestPaperScenarios:
    """The section 3.1 worked examples, digit for digit."""

    def test_naive_fpga_icache_1_8_mips(self):
        assert scenarios.naive_fpga_icache_mips() == pytest.approx(1.8, abs=0.05)

    def test_infinite_sw_cap_2_1_mips(self):
        assert scenarios.naive_fpga_icache_infinite_sw_mips() == pytest.approx(
            2.1, abs=0.05
        )

    def test_fast_partitioning_8_7_mips(self):
        assert scenarios.fast_partitioning_mips() == pytest.approx(8.7, abs=0.05)

    def test_fast_with_rollback_6_8_mips(self):
        assert scenarios.fast_with_rollback_mips() == pytest.approx(6.8, abs=0.05)

    def test_prototype_arithmetic_4_7_mips(self):
        assert scenarios.prototype_bottleneck_mips() == pytest.approx(4.7, abs=0.1)

    def test_coherent_projection_near_5_9(self):
        assert scenarios.coherent_projection_mips() == pytest.approx(5.9, abs=0.3)


class TestHostModels:
    def test_qemu_ladder_constants(self):
        cpu = OPTERON_275
        assert 1e3 / cpu.qemu_full_ns == pytest.approx(137, abs=1)
        assert 1e3 / cpu.qemu_deopt_ns == pytest.approx(45.8, abs=0.3)
        assert 1e3 / cpu.qemu_traced_ns == pytest.approx(11.5, abs=0.1)

    def test_drc_link_measurements(self):
        assert DRC_LINK.read_ns == 469.0
        assert DRC_LINK.write_ns == 307.0
        assert DRC_LINK.burst_write_ns_per_word == 20.0

    def test_trace_write_cost(self):
        assert DRC_LINK.trace_write_ns(20) == pytest.approx(400.0)

    def test_fpga_target_cycle_time(self):
        fpga = FpgaHost(clock_mhz=100, host_cycles_per_target_cycle=20)
        assert fpga.ns_per_target_cycle == pytest.approx(200.0)
        assert fpga.timing_model_seconds(1_000_000) == pytest.approx(0.2)

    def test_platform_bundle(self):
        assert DRC_PLATFORM.cpu is OPTERON_275
        assert DRC_PLATFORM.fpga is VIRTEX4_LX200
        assert DRC_PLATFORM.link is DRC_LINK


class TestResourceEstimation:
    def test_table2_shape_flat_across_widths(self):
        reports = {
            width: estimate_resources(build_timing_model(width))
            for width in (1, 2, 4, 8)
        }
        logic = [reports[w].user_logic_fraction for w in (1, 2, 4, 8)]
        # Flat: 8-wide costs less than 10% more logic than 1-wide.
        assert max(logic) / min(logic) < 1.10
        # Absolute calibration: ~1/3 of the FPGA, as in Table 2.
        assert 0.30 < logic[1] < 0.36

    def test_bram_band(self):
        report = estimate_resources(build_timing_model(2))
        assert 0.45 < report.bram_fraction < 0.56

    def test_fits_in_lx200(self):
        """The paper's headline: a modern OOO target fits in one FPGA."""
        report = estimate_resources(build_timing_model(8))
        assert report.user_logic_fraction < 1.0
        assert report.bram_fraction < 1.0

    def test_bigger_caches_cost_brams(self):
        from repro.timing.cache.hierarchy import CacheGeometry
        from repro.timing.core import TimingConfig, TimingModel
        from repro.timing.feed import NullFeed

        small = estimate_resources(
            TimingModel(NullFeed(), config=TimingConfig())
        )
        big = estimate_resources(
            TimingModel(
                NullFeed(),
                config=TimingConfig(
                    caches=CacheGeometry(l2_bytes=2 * 1024 * 1024)
                ),
            )
        )
        assert big.brams > small.brams
