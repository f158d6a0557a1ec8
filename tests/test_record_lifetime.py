"""Pipeline records live only while they are in flight.

Like the ROB and reservation-station slots of the paper's FPGA timing
model, a retired or squashed DynInstr/DynUop must leave nothing behind.
The records form no reference cycle, so reference counting frees them
the moment the pipeline drops them: the cyclic collector never finds
one, and the live set stays within the in-flight window (ROB, queues
and register map) however long the run.
"""

import gc

import pytest

from repro.fast.simulator import FastSimulator
from repro.functional.trace import TraceEntry
from repro.timing.core import TimingConfig
from repro.timing.pipeline.dynamic import DynInstr, DynUop
from repro.workloads import build

RECORD_TYPES = (DynInstr, DynUop, TraceEntry)
RUN_CYCLES = 5000
SLICE_CYCLES = 500


def _live(cls) -> int:
    return sum(1 for obj in gc.get_objects() if type(obj) is cls)


@pytest.mark.parametrize("engine", ["compiled", "legacy"])
def test_live_records_bounded_by_in_flight_window(engine):
    workload = build("181.mcf", scale=1)
    sim = FastSimulator.from_programs(
        workload.programs, kernel_config=workload.kernel_config,
        timing_config=TimingConfig(engine=engine),
    )
    window = 2 * sim.tm.backend.rob_entries
    debug_flags = gc.get_debug()
    gc.collect()
    baseline = _live(DynInstr)  # records other tests may still hold
    saved_before = len(gc.garbage)
    peak = 0
    gc.set_debug(debug_flags | gc.DEBUG_SAVEALL)
    try:
        for limit in range(SLICE_CYCLES, RUN_CYCLES + 1, SLICE_CYCLES):
            sim.run(limit)
            saved = sum(1 for obj in gc.garbage if type(obj) is DynInstr)
            peak = max(peak, _live(DynInstr) - saved - baseline)
        gc.collect()
        leaked = sorted(
            {type(obj).__name__ for obj in gc.garbage[saved_before:]
             if isinstance(obj, RECORD_TYPES)}
        )
    finally:
        gc.set_debug(debug_flags)
        del gc.garbage[saved_before:]
    assert sim.tm.cycle == RUN_CYCLES  # busy the whole time
    assert sim.tm.stats().instructions > 1000
    assert leaked == []
    assert 0 < peak <= window
