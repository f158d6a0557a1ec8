"""Table 3: software simulator performance comparison.

Combines the paper's survey rows (reported industry numbers) with
*live* measurements from our own baseline architectures on the same
workload: one lock-step run priced as the monolithic software
simulator and as the timing-directed simulator (both host mappings),
and FAST.  The shape to check: FAST is orders of magnitude faster than
software cycle-accurate simulation, and the no-speculation FPGA split
is capped by round trips.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.baselines.lockstep import LockStepSimulator
from repro.baselines.survey import TABLE3_SURVEY
from repro.experiments.harness import (
    build_fast_simulator,
    finish_experiment,
    format_table,
)
from repro.host.platforms import DRC_PLATFORM
from repro.timing.core import TimingConfig
from repro.workloads import build as build_workload


@dataclass
class Table3Row:
    simulator: str
    isa: str
    microarch: str
    speed_ips: float
    full_system: bool
    source: str  # "reported" or "measured"


def measured_rows(
    workload_name: str = "164.gzip", scale: int = 1, max_cycles: int = 5_000_000
) -> List[Table3Row]:
    """Run our live baselines on one workload."""
    rows: List[Table3Row] = []

    lockstep = LockStepSimulator.from_programs(
        build_workload(workload_name, scale).programs,
        timing_config=TimingConfig(predictor="gshare"),
    ).run(max_cycles=max_cycles)
    rows.append(
        Table3Row(
            "monolithic (sim-outorder-like)",
            "FastISA",
            "Fig.3 OOO",
            lockstep.kips * 1e3,
            True,
            "measured",
        )
    )
    rows.append(
        Table3Row(
            "timing-directed (Asim-like, software)",
            "FastISA",
            "Fig.3 OOO",
            lockstep.mips_software * 1e6,
            True,
            "measured",
        )
    )
    rows.append(
        Table3Row(
            "timing-directed (FPGA split, no speculation)",
            "FastISA",
            "Fig.3 OOO",
            lockstep.mips_split * 1e6,
            True,
            "measured",
        )
    )

    fast = build_fast_simulator(
        build_workload(workload_name, scale),
        predictor="gshare",
        platform=DRC_PLATFORM,
    )
    fast.run(max_cycles=max_cycles)
    breakdown = fast.host_time(protocol_mode="prototype")
    rows.append(
        Table3Row(
            "FAST (measured events, DRC model)",
            "FastISA",
            "Fig.3 OOO",
            breakdown.mips * 1e6,
            True,
            "measured",
        )
    )
    return rows


def compute(
    workload_name: str = "164.gzip", scale: int = 1, live: bool = True
) -> List[Table3Row]:
    rows = [
        Table3Row(r.simulator, r.isa, r.microarchitecture, r.speed_ips,
                  r.full_system, "reported")
        for r in TABLE3_SURVEY
    ]
    if live:
        rows += measured_rows(workload_name, scale)
    return rows


def _speed_text(ips: float) -> str:
    if ips >= 1e6:
        return "%.2f MIPS" % (ips / 1e6)
    return "%.0f KIPS" % (ips / 1e3)


def main() -> str:
    rows = compute()
    table = format_table(
        ["Simulator", "ISA", "uarch", "Speed", "OS", "Source"],
        [
            (
                r.simulator,
                r.isa,
                r.microarch,
                _speed_text(r.speed_ips),
                "Y" if r.full_system else "N",
                r.source,
            )
            for r in rows
        ],
    )
    return finish_experiment("table3", "Table 3: simulator performance\n" + table)


if __name__ == "__main__":
    print(main())
