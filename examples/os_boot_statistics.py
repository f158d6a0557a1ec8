"""Full-system observability: a Figure 6 statistic trace of an OS boot,
plus a run-time trigger query and a relative power estimate.

Boots FastOS (Linux-2.4 variant) under the FAST simulator with the
statistics machinery attached:

* a sampled statistic trace (BP accuracy / I-cache hit rate / pipe
  drains per basic-block window) that exposes the BIOS, decompression
  and kernel phases,
* the paper's example query "when does the number of active functional
  units drop below 1?",
* the future-work relative power estimate.

Run:  python examples/os_boot_statistics.py
"""

from repro.experiments.harness import build_fast_simulator
from repro.observability.triggers import CompiledTriggerQuery
from repro.timing.stats import (
    StatisticTraceSampler,
    active_functional_units,
    estimate_power,
)
from repro.workloads import build as build_workload


def bar(fraction: float, width: int = 30) -> str:
    filled = int(round(fraction * width))
    return "#" * filled + "." * (width - filled)


def main():
    sim = build_fast_simulator(build_workload("linux-2.4", 1))
    sampler = StatisticTraceSampler(sim.tm, interval=250)
    # The probe reads tm.cycle, so it is evaluated on every cycle.
    query = CompiledTriggerQuery.below(
        sim.tm,
        "no-active-fus",
        lambda: active_functional_units(sim.tm),
        1,
        single_step=True,
    )
    result = sim.run()

    print("boot: %s\n" % result.summary())
    print("statistic trace (window = 250 basic blocks):")
    print("  blocks   BP accuracy                      iL1 hit  drains")
    for sample in sampler.samples:
        print(
            "  %6d   %s %5.1f%%  %5.1f%%  %5.1f%%"
            % (
                sample.basic_blocks,
                bar(sample.bp_accuracy),
                100 * sample.bp_accuracy,
                100 * sample.icache_hit_rate,
                100 * sample.pipe_drain_fraction,
            )
        )

    print()
    print(
        "query '%s': fired %d times; first at cycle %s"
        % (
            query.name,
            query.fire_count,
            query.first_fired if query.firings else "never",
        )
    )

    power = estimate_power(sim.tm)
    print()
    print("relative power estimate (arbitrary units):")
    print("  dynamic: %.0f   leakage: %.0f   per instruction: %.2f"
          % (power.dynamic, power.leakage, power.per_instruction))
    top = sorted(
        (item for item in power.breakdown.items() if not item[0].startswith("_")),
        key=lambda item: -item[1],
    )[:4]
    for name, value in top:
        print("  %-16s %.0f" % (name, value))


if __name__ == "__main__":
    main()
