"""Table 1: fraction of dynamic instructions translated to µops, and
µops per instruction, for every workload.

Functional-only runs (no timing model needed): boot FastOS, reset the
microcode coverage counters at the first user-mode instruction, and
report the workload-phase coverage.  Boot rows (linux/windows) report
the whole run, since the boot *is* the workload there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.experiments.harness import (
    boot_functional,
    finish_experiment,
    format_table,
)
from repro.functional.model import FunctionalModel
from repro.kernel.layout import VBASE
from repro.workloads import build as build_workload
from repro.workloads.suite import SUITE_ORDER

# The paper's reported values, for side-by-side comparison.
PAPER_TABLE1 = {
    "linux-2.4": (0.9594, 1.15),
    "164.gzip": (0.9998, 1.34),
    "175.vpr": (0.8462, 1.19),
    "176.gcc": (0.9990, 1.30),
    "181.mcf": (0.9993, 1.17),
    "186.crafty": (0.9896, 1.15),
    "197.parser": (0.9974, 1.27),
    "252.eon": (0.5232, 1.24),
    "253.perlbmk": (0.9864, 1.29),
    "254.gap": (0.9980, 1.31),
    "255.vortex": (0.9991, 1.21),
    "256.bzip2": (0.9998, 1.29),
    "300.twolf": (0.9520, 1.25),
    "linux-2.6": (0.9802, 1.45),
    "sweep3d": (0.4405, 1.19),
    "mysql": (0.9915, 1.51),
}

BOOT_WORKLOADS = frozenset({"linux-2.4", "linux-2.6", "windows-xp"})


@dataclass
class Table1Row:
    workload: str
    fraction_translated: float
    uops_per_instruction: float
    instructions: int
    paper_fraction: float
    paper_uops: float


def _run_workload_phase(fm: FunctionalModel, max_instructions: int) -> int:
    """Run *fm* standalone, resetting microcode coverage right after
    the first user-mode instruction; returns instructions executed.

    The boot is stepped one instruction at a time -- the same loop as
    :meth:`FunctionalModel.run`'s stepped path, with its commit grid
    and halt handling -- so the reset lands exactly on that
    instruction however the batched path groups the rest of the run.
    """
    executed = 0
    idle = 0
    while executed < max_instructions:
        entry = fm.execute_next()
        if fm.bus.shutdown_requested:
            break
        if entry is None:
            if fm.state.halted and not fm.state.interrupts_enabled:
                break  # HALT with no possible wake: program finished
            idle += 1
            if idle > 200_000:
                raise RuntimeError("functional model wedged while halted")
            continue
        idle = 0
        executed += 1
        if executed % 1024 == 0:
            fm.commit(fm.in_count)
        if entry.pc >= VBASE:
            fm.microcode.reset_coverage()
            return executed + fm.run(max_instructions - executed)
    return executed


def measure_workload(name: str, scale: int = 1,
                     max_instructions: int = 3_000_000) -> Table1Row:
    workload = build_workload(name, scale)
    fm = boot_functional(workload)
    if name in BOOT_WORKLOADS:
        executed = fm.run(max_instructions=max_instructions)
    else:
        executed = _run_workload_phase(fm, max_instructions)
    cov = fm.microcode.coverage
    paper = PAPER_TABLE1.get(name, (float("nan"), float("nan")))
    return Table1Row(
        workload=name,
        fraction_translated=cov.fraction_translated,
        uops_per_instruction=cov.uops_per_instruction,
        instructions=executed,
        paper_fraction=paper[0],
        paper_uops=paper[1],
    )


def compute(scale: int = 1, names=None) -> List[Table1Row]:
    names = names or SUITE_ORDER
    return [measure_workload(name, scale) for name in names]


def main(scale: int = 1) -> str:
    rows = compute(scale)
    table = format_table(
        ["App", "Fraction", "uOps/inst", "paper Frac", "paper uOps", "instrs"],
        [
            (
                r.workload,
                "%.2f%%" % (100 * r.fraction_translated),
                "%.2f" % r.uops_per_instruction,
                "%.2f%%" % (100 * r.paper_fraction),
                "%.2f" % r.paper_uops,
                r.instructions,
            )
            for r in rows
        ],
    )
    return finish_experiment(
        "table1", "Table 1: dynamic instructions translated to uOps\n" + table
    )


if __name__ == "__main__":
    print(main())
