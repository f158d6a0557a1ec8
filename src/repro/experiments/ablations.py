"""Ablations of the design choices DESIGN.md calls out.

1. **Partitioning ablation** -- the same simulated run priced under
   every simulator architecture: monolithic software, timing-directed
   software, timing-directed FPGA split (no speculation), the Intel
   FPGA-cache hybrid, and FAST under its three protocol variants.  This
   is the paper's core argument in one table: only speculative
   decoupling (small F) lets the FPGA's speed through.
2. **Checkpoint interval** -- rollback re-execution cost (alpha) versus
   checkpointing overhead.
3. **Trace compression** -- full trace vs basic-block mirroring, priced
   as link time.
4. **Branch predictor quality vs simulator speed** -- the Figure 4
   coupling, swept over fixed accuracies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.baselines.fpga_cache import price_fpga_cache_hybrid
from repro.baselines.monolithic import MonolithicSimulator
from repro.baselines.timing_directed import TimingDirectedSimulator
from repro.experiments.harness import (
    build_fast_simulator,
    format_table,
    run_fast_workload,
)
from repro.functional.model import FunctionalConfig
from repro.host.link import DRC_LINK
from repro.host.platforms import DRC_PLATFORM
from repro.workloads import build as build_workload


@dataclass
class ArchitectureRow:
    architecture: str
    mips: float
    note: str = ""


def partitioning_ablation(
    workload: str = "164.gzip", scale: int = 1
) -> List[ArchitectureRow]:
    """Price one workload under every simulator architecture."""
    rows: List[ArchitectureRow] = []
    wl = build_workload(workload, scale)

    mono = MonolithicSimulator.from_programs(wl.programs,
                                             kernel_config=wl.kernel_config)
    mono_result = mono.run()
    rows.append(
        ArchitectureRow("monolithic software", mono_result.mips,
                        "sim-outorder structure")
    )

    td = TimingDirectedSimulator.from_programs(
        build_workload(workload, scale).programs,
        kernel_config=wl.kernel_config,
    )
    td_result = td.run()
    rows.append(
        ArchitectureRow("timing-directed software", td_result.mips_software,
                        "Asim structure")
    )
    rows.append(
        ArchitectureRow(
            "timing-directed FPGA split", td_result.mips_split,
            "round trip per fetch: F~1",
        )
    )
    hybrid = price_fpga_cache_hybrid(td_result.timing, td.fm.stats.executed)
    rows.append(
        ArchitectureRow(
            "FPGA L1 cache hybrid", hybrid.hybrid_mips,
            "slower than pure software (x%.2f)" % hybrid.slowdown,
        )
    )

    fast = build_fast_simulator(build_workload(workload, scale),
                                platform=DRC_PLATFORM)
    fast.run()
    for mode in ("prototype", "mispredict-only", "coherent"):
        rows.append(
            ArchitectureRow(
                "FAST (%s)" % mode,
                fast.host_time(protocol_mode=mode).mips,
                "speculative decoupling",
            )
        )
    return rows


@dataclass
class CheckpointRow:
    interval: int
    replays_per_rollback: float
    checkpoints_taken: int
    cycles: int


def checkpoint_interval_sweep(
    workload: str = "164.gzip",
    intervals=(8, 32, 128, 512),
    scale: int = 1,
) -> List[CheckpointRow]:
    from repro.fast.simulator import FastSimulator

    rows = []
    for interval in intervals:
        wl = build_workload(workload, scale)
        sim = FastSimulator.from_programs(
            wl.programs,
            kernel_config=wl.kernel_config,
            functional_config=FunctionalConfig(checkpoint_interval=interval),
        )
        result = sim.run()
        rollbacks = max(1, result.functional.rollbacks)
        rows.append(
            CheckpointRow(
                interval=interval,
                replays_per_rollback=result.functional.replayed / rollbacks,
                checkpoints_taken=sim.fm.ckpt.stats.taken,
                cycles=result.timing.cycles,
            )
        )
    return rows


@dataclass
class CompressionRow:
    compression: str
    words_per_instruction: float
    trace_seconds_per_minstr: float


def trace_compression_ablation(workload: str = "164.gzip",
                               scale: int = 1) -> List[CompressionRow]:
    """Full trace vs basic-block-mirroring compression (section 3.2)."""
    from repro.fast.simulator import FastSimulator

    rows = []
    for compression in ("full", "bb"):
        wl = build_workload(workload, scale)
        sim = FastSimulator.from_programs(
            wl.programs,
            kernel_config=wl.kernel_config,
            functional_config=FunctionalConfig(trace_compression=compression),
        )
        result = sim.run()
        words = result.functional.trace_words / max(1, result.functional.traced)
        rows.append(
            CompressionRow(
                compression=compression,
                words_per_instruction=words,
                trace_seconds_per_minstr=(
                    words * DRC_LINK.burst_write_ns_per_word * 1e-9 * 1e6
                ),
            )
        )
    return rows


@dataclass
class BpSweepRow:
    predictor: str
    bp_accuracy: float
    mips: float
    rollback_replays: int


def bp_quality_sweep(
    workload: str = "164.gzip",
    predictors=("fixed:0.85", "fixed:0.92", "fixed:0.97", "perfect"),
    scale: int = 1,
) -> List[BpSweepRow]:
    """The paper's core coupling: target BP accuracy drives *simulator*
    speed, because F scales with mispredictions."""
    rows = []
    for predictor in predictors:
        run = run_fast_workload(workload, scale=scale, predictor=predictor)
        rows.append(
            BpSweepRow(
                predictor=predictor,
                bp_accuracy=run.result.timing.bp_accuracy,
                mips=run.host_mips["prototype"],
                rollback_replays=run.result.protocol.rollback_replays,
            )
        )
    return rows


def main() -> str:
    parts = []
    arch = partitioning_ablation()
    parts.append(
        "Partitioning ablation (164.gzip)\n"
        + format_table(
            ["Architecture", "MIPS", "note"],
            [(r.architecture, "%.3f" % r.mips, r.note) for r in arch],
        )
    )
    ckpt = checkpoint_interval_sweep()
    parts.append(
        "Checkpoint interval sweep\n"
        + format_table(
            ["interval", "replays/rollback", "checkpoints", "cycles"],
            [(r.interval, "%.1f" % r.replays_per_rollback,
              r.checkpoints_taken, r.cycles) for r in ckpt],
        )
    )
    comp = trace_compression_ablation()
    parts.append(
        "Trace compression\n"
        + format_table(
            ["mode", "words/instr", "s per M instr"],
            [(r.compression, "%.2f" % r.words_per_instruction,
              "%.4f" % r.trace_seconds_per_minstr) for r in comp],
        )
    )
    bp = bp_quality_sweep()
    parts.append(
        "BP quality vs simulator speed\n"
        + format_table(
            ["predictor", "accuracy", "MIPS", "replays"],
            [(r.predictor, "%.3f" % r.bp_accuracy, "%.2f" % r.mips,
              r.rollback_replays) for r in bp],
        )
    )
    return "\n\n".join(parts)


if __name__ == "__main__":
    print(main())
