"""Command-line entry point: regenerate the paper's experiments and
drive the engine/observability tooling.

Usage::

    python -m repro                 # generated usage listing
    python -m repro table1          # regenerate one experiment
    python -m repro all             # regenerate everything (slow)
    python -m repro <subcommand>    # lint / stats / trace / report
                                    # / debug / fuzz / top / pulse

Experiment runs invoked here emit FastFlight run artifacts under
``results/runs/`` (suppress with ``REPRO_FLIGHT=0``).
"""

from __future__ import annotations

import importlib
import sys
from typing import Dict, Tuple

EXPERIMENTS = {
    "fig3": ("Figure 3: the target microarchitecture", "fig3"),
    "table1": ("Table 1: microcode coverage per workload", "table1"),
    "table2": ("Table 2: FPGA resources vs issue width", "table2"),
    "table3": ("Table 3: simulator performance survey", "table3"),
    "fig4": ("Figure 4: simulator MIPS per workload", "fig4"),
    "fig5": ("Figure 5: gshare branch prediction accuracy", "fig5"),
    "fig6": ("Figure 6: Linux boot statistic trace", "fig6"),
    "bottleneck": ("Section 4.5 bottleneck analysis", "bottleneck"),
    "ablations": ("Design-choice ablations", "ablations"),
    "fp-extension": ("Extension: hand-patched FP microcode", "fp_extension"),
}


# Every registered subcommand: name -> (description, "module:function"
# entry point taking the remaining argv).  Entry modules are imported
# only when their subcommand runs.  The usage listing below is generated
# from this table plus EXPERIMENTS, so a new subcommand cannot be
# forgotten there.
SUBCOMMANDS: Dict[str, Tuple[str, str]] = {
    "lint": ("FastLint static verification (exit 0 clean / 1 findings)",
             "repro.analysis.cli:main"),
    "stats": ("FastScope statistics fabric report",
              "repro.observability.cli:stats_main"),
    "trace": ("FM/TM seam event trace (JSONL)",
              "repro.observability.cli:trace_main"),
    "report": ("FastFlight artifact analytics & cross-run regression "
               "diagnosis", "repro.observability.flight.cli:report_main"),
    "fuzz": ("FastFuzz differential conformance fuzzing (FM/TM oracle "
             "matrix)", "repro.fuzz.cli:main"),
    "debug": ("FastWatch time-travel debug capsules (capture / list / "
              "show / diff / flame)",
              "repro.observability.flight.debug:debug_main"),
    "top": ("live status of running/finished simulations (tails "
            "pulse.jsonl sidecars)", "repro.observability.pulse_cli:top_main"),
    "pulse": ("FastPulse live telemetry plane (run / export)",
              "repro.observability.pulse_cli:pulse_main"),
}


def usage() -> str:
    """The generated usage listing (bare invocation and unknown
    subcommands both print this)."""
    lines = [
        "usage: python -m repro <experiment|subcommand> [args]",
        "",
        "experiments (regenerate the paper's tables and figures):",
    ]
    for key, (title, _module) in EXPERIMENTS.items():
        lines.append("  %-14s %s" % (key, title))
    lines.append("  %-14s %s" % ("all", "regenerate every experiment (slow)"))
    lines.append("")
    lines.append("subcommands:")
    for key in sorted(SUBCOMMANDS):
        lines.append("  %-14s %s" % (key, SUBCOMMANDS[key][0]))
    return "\n".join(lines)


def run_one(key: str) -> None:
    module = importlib.import_module("repro.experiments." + EXPERIMENTS[key][1])
    print(module.main())


def _enable_flight() -> None:
    """Experiment runs from this entry point persist run artifacts
    (library and test use stays opt-in)."""
    from repro.experiments.harness import set_flight

    set_flight(True)


def main(argv) -> int:
    if len(argv) < 2:
        print(usage())
        return 0
    target = argv[1]
    if target in ("-h", "--help", "help"):
        print(usage())
        return 0
    if target in SUBCOMMANDS:
        module, _, function = SUBCOMMANDS[target][1].partition(":")
        return getattr(importlib.import_module(module), function)(argv[2:])
    if target == "all":
        _enable_flight()
        for key in EXPERIMENTS:
            print("=" * 72)
            run_one(key)
            print()
        return 0
    if target not in EXPERIMENTS:
        print("unknown command %r" % target)
        print()
        print(usage())
        return 1
    _enable_flight()
    run_one(target)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
