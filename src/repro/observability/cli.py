"""``python -m repro stats`` and ``python -m repro trace``.

Both commands run a workload under a fully FastScope-instrumented
simulator.  ``stats`` prints the fabric/trigger/profile report (and can
write it as JSON); ``trace`` writes the FM/TM seam event ring as
JSONL.  The default workload is the fixed-seed Linux boot slice
(``repro.workloads.linux_boot_slice``), so two invocations with the
same arguments are byte-reproducible -- the acceptance bar for the
trace command.
"""

from __future__ import annotations

import argparse
import json
from typing import List, Optional

from repro.observability.scope import FastScope
from repro.observability.triggers import (
    rob_occupancy,
    trace_buffer_occupancy,
)

DEFAULT_WORKLOAD = "linux-boot"
DEFAULT_MAX_CYCLES = 2_000_000


def add_run_arguments(parser: argparse.ArgumentParser) -> None:
    """The run flags of every command that simulates a workload
    (``stats``, ``trace``, ``debug capture``, ``pulse run``)."""
    parser.add_argument(
        "--workload",
        default=DEFAULT_WORKLOAD,
        help="workload name (default %(default)s)",
    )
    parser.add_argument(
        "--engine",
        default="compiled",
        choices=("compiled", "legacy"),
        help="tick engine (default %(default)s)",
    )
    parser.add_argument(
        "--max-cycles",
        type=int,
        default=DEFAULT_MAX_CYCLES,
        help="target cycle budget (default %(default)s)",
    )
    parser.add_argument(
        "--boot-sleep-ticks",
        type=int,
        default=20,
        help="sleep span of the default boot slice (default %(default)s)",
    )


def build_workload(name: str, boot_sleep_ticks: int, scale: int = 1):
    """The fixed-seed Linux boot slice, or the suite workload *name*
    at *scale*."""
    if name == DEFAULT_WORKLOAD:
        from repro.workloads import linux_boot_slice

        return linux_boot_slice(sleep_ticks=boot_sleep_ticks)
    from repro.workloads import build

    return build(name, scale=scale)


def simulator_factory(args, scale: int = 1):
    """``(workload, factory)`` for the run flags in *args*.  Every
    ``factory()`` call rebuilds the identical coupled system -- the
    determinism anchor time-travel capture replays from."""
    from repro.experiments.harness import build_fast_simulator
    from repro.timing.core import TimingConfig

    workload = build_workload(args.workload, args.boot_sleep_ticks, scale)

    def build():
        return build_fast_simulator(
            workload, timing_config=TimingConfig(engine=args.engine)
        )

    return workload, build


def _workload_names() -> List[str]:
    from repro.workloads import workload_names

    return [DEFAULT_WORKLOAD] + list(workload_names())


def _scoped_run(args, profile: bool):
    _workload, factory = simulator_factory(args)
    sim = factory()
    scope = FastScope(
        sim,
        window_cycles=args.window,
        tracer_capacity=args.capacity,
        profile=profile,
    )
    scope.watch_below(
        "tb_occupancy_low", trace_buffer_occupancy(sim.feed), args.tb_low
    )
    scope.watch_below("rob_empty", rob_occupancy(sim.tm), 1)
    sim.run(args.max_cycles)
    scope.finalize()
    return sim, scope


def _common_arguments(parser: argparse.ArgumentParser) -> None:
    add_run_arguments(parser)
    parser.add_argument(
        "--list", action="store_true", help="list workload names and exit"
    )
    parser.add_argument(
        "--window",
        type=int,
        default=65536,
        help="fabric sampling window in cycles (default %(default)s)",
    )
    parser.add_argument(
        "--capacity",
        type=int,
        default=65536,
        help="event tracer ring capacity (default %(default)s)",
    )
    parser.add_argument(
        "--tb-low",
        type=int,
        default=4,
        help="trigger threshold: trace-buffer occupancy below N "
        "(default %(default)s)",
    )
    parser.add_argument(
        "--artifact",
        action="store_true",
        help="persist the run as a FastFlight artifact under "
        "results/runs/ (stats, windows, trace, profile)",
    )


def _emit_artifact(args, sim, scope, profile: bool):
    from repro.observability.flight.artifact import emit_artifact

    artifact = emit_artifact(
        experiment=args.prog_name,
        workload=args.workload,
        config={
            "engine": args.engine,
            "max_cycles": args.max_cycles,
            "window": args.window,
            "capacity": args.capacity,
            "tb_low": args.tb_low,
            "boot_sleep_ticks": args.boot_sleep_ticks,
            "profile": profile,
        },
        result=sim._result,
        scope=scope,
    )
    print("artifact: %s" % artifact.path)
    return artifact


def stats_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro stats",
        description="run one workload under full FastScope instrumentation "
        "and report the statistics fabric, triggers and (optionally) the "
        "tick-time profile",
    )
    _common_arguments(parser)
    parser.add_argument(
        "--profile",
        action="store_true",
        help="attribute host wall-time per module tick and pipeline stage",
    )
    parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="also write the full report as JSON",
    )
    args = parser.parse_args(argv)
    args.prog_name = "stats"
    if args.list:
        print("\n".join(_workload_names()))
        return 0
    sim, scope = _scoped_run(args, profile=args.profile)
    report = scope.report()
    fabric = report["fabric"]
    print(
        "fabric: %d streams, %d windows (%d elided, %d partial) over %d "
        "cycles (%d idle)"
        % (
            fabric["registered_streams"],
            len(fabric["windows"]),
            fabric["elided_windows"],
            sum(1 for w in fabric["windows"] if w["partial"]),
            sim.tm.cycle,
            sim.tm.idle_cycles,
        )
    )
    totals = fabric["totals"]
    for name in sorted(totals):
        print("  %-32s %s" % (name, totals[name]))
    print("trace: %(recorded)d events (%(dropped)d dropped)"
          % report["trace"])
    if report["trace"]["dropped"]:
        print(
            "  WARNING: event ring overflowed; %d oldest events were "
            "dropped (per-kind totals below remain exact)"
            % report["trace"]["dropped"]
        )
    for kind, count in report["trace"]["kinds"].items():
        print("  %-32s %d" % (kind, count))
    for query in report["triggers"]:
        print(
            "trigger %-24s fired %d times (first: %s)"
            % (query["name"], query["fire_count"], query["first_fired"])
        )
    if scope.profiler is not None:
        print()
        print(scope.profiler.render())
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print("wrote %s" % args.out)
    if args.artifact:
        _emit_artifact(args, sim, scope, profile=args.profile)
    return 0


def trace_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro trace",
        description="run one workload with the FM/TM seam event tracer and "
        "write the ring as deterministic JSONL",
    )
    _common_arguments(parser)
    parser.add_argument(
        "--out", default="trace.jsonl", metavar="PATH",
        help="JSONL output path (default %(default)s)",
    )
    args = parser.parse_args(argv)
    args.prog_name = "trace"
    if args.list:
        print("\n".join(_workload_names()))
        return 0
    sim, scope = _scoped_run(args, profile=False)
    # The footer makes drops visible to downstream consumers of the
    # JSONL itself, not just readers of this stdout summary.
    count = scope.write_trace(args.out, footer=True)
    summary = scope.tracer.summary()
    print(
        "wrote %s: %d records + summary footer (%d emitted, %d dropped)"
        % (args.out, count, summary["recorded"], summary["dropped"])
    )
    if summary["dropped"]:
        print(
            "  WARNING: event ring overflowed; %d oldest events are "
            "missing from the JSONL (the footer records the gap)"
            % summary["dropped"]
        )
    for kind, total in summary["kinds"].items():
        print("  %-32s %d" % (kind, total))
    if args.artifact:
        _emit_artifact(args, sim, scope, profile=False)
    return 0
