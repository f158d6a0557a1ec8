"""Engine speed: the compiled tick engine with FM superblock replay
against the legacy engine interpreting every instruction, the busy
path the compiled stack replaced.

For each busy workload the test runs PAIRS alternating pairs (legacy
first), timing ``sim.run`` alone.  Every pair must reach equal
``TimingStats``, and the median legacy/compiled time ratio must clear
MIN_SPEEDUP on each workload by itself.  Host times vary by machine,
so nothing is written under ``results/``; ``pytest -s`` prints the
ratios.
"""

import statistics
import time

import pytest

from repro.fast.simulator import FastSimulator
from repro.functional.model import FunctionalConfig
from repro.timing.core import TimingConfig
from repro.workloads import build

PAIRS = 5
MIN_SPEEDUP = 1.15
MAX_CYCLES = 8_000_000

# (tick engine, FM superblock capture and replay)
LEGACY = ("legacy", False)
COMPILED = ("compiled", True)


def _timed_run(workload, engine, superblocks):
    sim = FastSimulator.from_programs(
        workload.programs, kernel_config=workload.kernel_config,
        timing_config=TimingConfig(engine=engine),
        functional_config=FunctionalConfig(superblocks=superblocks))
    start = time.perf_counter()
    timing = sim.run(MAX_CYCLES).timing
    seconds = time.perf_counter() - start
    assert sim.fm.bus.shutdown_requested, "workload did not finish"
    return timing, seconds


@pytest.mark.parametrize("name", ["164.gzip", "181.mcf"])
def test_compiled_engine_speedup(name):
    workload = build(name, scale=1)
    ratios = []
    for _ in range(PAIRS):
        legacy, legacy_s = _timed_run(workload, *LEGACY)
        compiled, compiled_s = _timed_run(workload, *COMPILED)
        assert compiled == legacy, "engines disagree on TimingStats"
        ratios.append(legacy_s / compiled_s)
    median = statistics.median(ratios)
    print("%s: legacy/compiled %s, median %.3fx"
          % (name, " ".join("%.3f" % r for r in ratios), median))
    assert median >= MIN_SPEEDUP, (
        "%s: median speedup %.3fx below %.2fx" % (name, median, MIN_SPEEDUP))
