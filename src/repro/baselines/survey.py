"""Table 3 survey data: software simulator performance as reported.

These rows are the paper's survey of industrial and academic
cycle-accurate (or near cycle-accurate) simulators.  The industry
numbers come from personal communications and cannot be re-measured;
they are reproduced as reported.  The sim-outorder/GEMS-class and FAST
rows are *also* produced live by our own baselines
(:class:`repro.baselines.lockstep.LockStepSimulator`,
:class:`repro.fast.FastSimulator`), which is how the benchmark
regenerating Table 3 checks the shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class SimulatorSurveyRow:
    simulator: str
    isa: str
    microarchitecture: str
    speed_ips: float  # instructions per second
    full_system: bool
    source: str = "reported"

    @property
    def speed_text(self) -> str:
        ips = self.speed_ips
        if ips >= 1e6:
            return "%.1fMIPS" % (ips / 1e6)
        return "%.0fKIPS" % (ips / 1e3)


# The paper's Table 3.  Intel/AMD report 1-10 KHz cycle rates; at an
# IPC near one that is roughly 1-10 KIPS -- we record the geometric
# middle of the stated range.
TABLE3_SURVEY: Tuple[SimulatorSurveyRow, ...] = (
    SimulatorSurveyRow("Intel", "x86-64", "Core 2", 3_000, True),
    SimulatorSurveyRow("AMD", "x86-64", "Opteron", 3_000, True),
    SimulatorSurveyRow("IBM", "Power", "Power5", 200_000, True),
    SimulatorSurveyRow("Freescale", "PPC", "e500", 80_000, False),
    SimulatorSurveyRow("PTLSim", "x86-64", "Athlon", 270_000, True),
    SimulatorSurveyRow("sim-outorder", "Alpha", "21264", 740_000, False),
    SimulatorSurveyRow("GEMS", "Sparc", "generic", 69_000, True),
    SimulatorSurveyRow("FAST", "x86", "generic", 1_200_000, True),
)


def survey_row(name: str) -> SimulatorSurveyRow:
    for row in TABLE3_SURVEY:
        if row.simulator.lower() == name.lower():
            return row
    raise KeyError(name)
