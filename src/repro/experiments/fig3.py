"""Figure 3: the target microarchitecture, rendered from the live model.

Not an experiment with numbers — Figure 3 is the block diagram of the
simulated target — but rendering it from the actual Module tree keeps
documentation and implementation from drifting apart, and doubles as
the FPGA-build estimate of section 4.7 ("a fresh build ... takes a
total of about two hours").
"""

from __future__ import annotations

from repro.experiments.harness import finish_experiment
from repro.host.resources import estimate_resources
from repro.timing.core import TimingConfig, TimingModel
from repro.timing.feed import NullFeed


def describe_target(config: TimingConfig = None) -> str:
    config = config or TimingConfig()
    tm = TimingModel(NullFeed(), config=config)
    g = config.caches
    lines = [
        "Figure 3 target microarchitecture (issue width %d):" % config.issue_width,
        "",
        "  Fetch: %s predictor, %d-entry iTLB, %dKB/%d-way iL1"
        % (config.predictor, tm.frontend.itlb.capacity,
           g.l1i_bytes // 1024, g.l1_ways),
        "  Decode -> Rename/ROB(%d) -> RS(%d shared)"
        % (config.rob_entries, config.rs_entries),
        "  Units: %d ALUs, %d branch units, %d LSU (LSQ %d), %d FPUs"
        % (config.num_alus, config.num_brus, config.num_lsus,
           config.lsq_entries, config.num_fpus),
        "  Memory: %dKB/%d-way dL1, %dKB/%d-way shared L2 (+%d cyc), "
        "DRAM (+%d cyc)"
        % (g.l1d_bytes // 1024, g.l1_ways, g.l2_bytes // 1024, g.l2_ways,
           g.l2_latency, g.mem_latency),
        "  Up to %d nested branches; commit width %d; result bus %d"
        % (config.max_nested_branches, config.commit_width,
           config.result_bus_width),
        "",
        "Module tree:",
    ]
    for module in tm.walk():
        depth = _depth_of(tm, module)
        lines.append("  " + "  " * depth + module.name)
    report = estimate_resources(tm)
    lines += [
        "",
        "Estimated FPGA cost: %.1f%% user logic, %.1f%% BRAM of a Virtex4 "
        "LX200" % (100 * report.user_logic_fraction,
                   100 * report.bram_fraction),
        "Estimated build time: %.1f h fresh, %.1f h incremental"
        % build_time_hours(tm),
    ]
    return "\n".join(lines)


def _depth_of(root, target) -> int:
    def walk(module, depth):
        if module is target:
            return depth
        for child in module.children:
            found = walk(child, depth + 1)
            if found is not None:
                return found
        return None

    return walk(root, 0) or 0


def build_time_hours(tm: TimingModel) -> tuple:
    """Section 4.7 build-flow model: compile (Bluespec->Verilog),
    synthesis and place-and-route scale with module count; a fresh
    build of the default target takes ~2 hours, incremental builds
    rebuild only what changed (~1/6 of the design on average)."""
    modules = sum(1 for _ in tm.walk())
    fresh = 0.5 + modules * 0.1  # calibrated: the default target -> ~2h
    incremental = 0.2 + fresh / 6.0
    return fresh, incremental


def main() -> str:
    return finish_experiment("fig3", describe_target())


if __name__ == "__main__":
    print(main())
