"""Workload suite tests: every workload boots, runs, terminates, and
exhibits its designed behavioural signature."""

import pytest

from repro.experiments.harness import boot_functional
from repro.experiments.table1 import BOOT_WORKLOADS, measure_workload
from repro.workloads import (
    SUITE_ORDER,
    build,
    full_suite,
    make_disk_image,
    quick_suite,
    workload_names,
)
from repro.workloads.generator import Workload, data_bytes, data_words, seeded


class TestFramework:
    def test_registry_contains_all_16_rows(self):
        names = workload_names()
        assert len(SUITE_ORDER) == 16
        for name in SUITE_ORDER:
            assert name in names

    def test_build_unknown_rejected(self):
        with pytest.raises(KeyError):
            build("999.nonesuch")

    def test_full_suite_order(self):
        suite = full_suite()
        assert [w.name for w in suite] == SUITE_ORDER

    def test_quick_suite_subset(self):
        assert {w.name for w in quick_suite()} <= set(SUITE_ORDER)

    def test_workload_requires_programs(self):
        with pytest.raises(ValueError):
            Workload(name="x", programs=[])

    def test_seeded_deterministic(self):
        assert seeded(5).random() == seeded(5).random()

    def test_data_words_format(self):
        text = data_words("tbl", [1, 2, 3])
        assert text.startswith("tbl:")
        assert ".word 1, 2, 3" in text

    def test_data_bytes_empty(self):
        assert ".byte 0" in data_bytes("b", b"")

    def test_generators_deterministic(self):
        a = build("164.gzip", 1).programs[0].source
        b = build("164.gzip", 1).programs[0].source
        assert a == b


@pytest.mark.parametrize("name", SUITE_ORDER)
def test_workload_runs_to_completion(name):
    workload = build(name, scale=1)
    fm = boot_functional(workload)
    fm.run(max_instructions=3_000_000)
    assert fm.bus.shutdown_requested, "%s did not shut down" % name
    assert "!" not in fm.console.text(), "%s had a killed process" % name
    assert "F" != fm.console.text()[-1:], "%s hit a kernel panic" % name


class TestScaling:
    def test_scale_multiplies_work(self):
        small = boot_functional(build("254.gap", 1))
        small.run(max_instructions=5_000_000)
        big = boot_functional(build("254.gap", 3))
        big.run(max_instructions=15_000_000)
        assert big.stats.traced > small.stats.traced * 1.5


class TestSignatures:
    """Each workload's designed behavioural signature."""

    def test_eon_low_coverage(self):
        row = measure_workload("252.eon")
        assert row.fraction_translated < 0.65  # paper: 52.32%

    def test_eon_table1_row_is_exact(self):
        # The coverage reset lands on the first user-mode instruction,
        # not at the end of whichever FM batch holds it: these are the
        # committed results/table1.txt figures.
        row = measure_workload("252.eon")
        assert "%.2f%%" % (100 * row.fraction_translated) == "54.54%"
        assert "%.2f" % row.uops_per_instruction == "1.15"
        assert row.instructions == 34534

    def test_sweep3d_lowest_coverage(self):
        row = measure_workload("sweep3d")
        assert row.fraction_translated < 0.55  # paper: 44.05%

    def test_vpr_moderate_coverage(self):
        row = measure_workload("175.vpr")
        assert 0.75 < row.fraction_translated < 0.95  # paper: 84.62%

    def test_integer_benchmarks_high_coverage(self):
        for name in ("164.gzip", "181.mcf", "254.gap", "256.bzip2"):
            row = measure_workload(name)
            assert row.fraction_translated > 0.98, name

    def test_perlbmk_sleeps(self):
        fm = boot_functional(build("253.perlbmk", 1))
        fm.run(max_instructions=3_000_000)
        assert fm.stats.halted_steps > 100  # the Figure 4 HALT signature

    def test_mysql_uses_the_disk(self):
        workload = build("mysql", 1)
        fm = boot_functional(workload)
        fm.run(max_instructions=5_000_000)
        disk = [d for d in fm.bus.devices if d.name == "disk"][0]
        assert disk.commands > 8  # boot reads + query page reads

    def test_mysql_highest_uops(self):
        mysql = measure_workload("mysql")
        gzip_row = measure_workload("164.gzip")
        assert mysql.uops_per_instruction > gzip_row.uops_per_instruction

    def test_mcf_memory_bound(self):
        """mcf's pointer chase must miss the cache far more than crafty."""
        from repro.experiments.harness import run_fast_workload

        mcf = run_fast_workload("181.mcf")
        crafty = run_fast_workload("186.crafty")
        mcf_miss = 1 - (
            mcf.result.timing.dcache_hits
            / max(1, mcf.result.timing.dcache_accesses)
        )
        crafty_miss = 1 - (
            crafty.result.timing.dcache_hits
            / max(1, crafty.result.timing.dcache_accesses)
        )
        assert mcf_miss > crafty_miss

    def test_boot_workloads_report_whole_run(self):
        assert "linux-2.4" in BOOT_WORKLOADS
        row = measure_workload("linux-2.4")
        assert row.instructions > 10_000

    def test_disk_image_sorted_pages(self):
        image = make_disk_image(num_sectors=4)
        for sector in range(4):
            keys = [
                int.from_bytes(image[sector * 512 + 4 * i : sector * 512 + 4 * i + 4],
                               "little")
                for i in range(128)
            ]
            assert keys == sorted(keys)
