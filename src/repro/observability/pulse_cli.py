"""``python -m repro top`` and ``python -m repro pulse``.

``top`` attaches to one or many live or finished runs by tailing their
``pulse.jsonl`` sidecars -- no coordination with the emitting process,
just line-oriented reads -- and renders a refreshing status table
(``--once`` for CI/scripts, ``--json`` for tooling).  ``pulse`` drives
the plane directly: ``pulse run`` executes a workload with the emitter
and liveness watchdog armed (the process ``top`` watches), and
``pulse export`` renders sidecars as OpenMetrics text for scrape-style
integration.

This file reads the host clock on purpose -- liveness *is* a host
property -- so the DT002 wall-clock rule is suppressed line by line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import List, Optional

from repro.observability.cli import add_run_arguments
from repro.observability.pulse import (
    DEFAULT_HEARTBEAT_TIMEOUT,
    DEFAULT_INTERVAL_CYCLES,
    DEFAULT_PULSE_DIR,
    DEFAULT_STALL_CYCLES,
    LivenessWatchdog,
    PulseEmitter,
    find_sidecars,
    load_sidecar,
    render_openmetrics,
    snapshot,
)

_RUNS_ROOT = os.path.join("results", "runs")


def _default_paths() -> List[str]:
    """Where sidecars live by default: the live pulse directory plus
    every FastFlight run dir that adopted a ``pulse.jsonl`` payload."""
    paths = [DEFAULT_PULSE_DIR]
    if os.path.isdir(_RUNS_ROOT):
        for name in sorted(os.listdir(_RUNS_ROOT)):
            adopted = os.path.join(_RUNS_ROOT, name, "pulse.jsonl")
            if os.path.exists(adopted):
                paths.append(adopted)
    return paths


def _rows(paths: List[str], heartbeat_timeout: float) -> List[dict]:
    now = time.time()  # fastlint: ignore[DT002]
    return [
        snapshot(load_sidecar(path), now=now,
                 heartbeat_timeout=heartbeat_timeout)
        for path in find_sidecars(paths)
    ]


def _cell(value, pattern: str = "%s", suffix: str = "") -> str:
    if value is None:
        return "-"
    return (pattern % value) + suffix


def render_rows(rows: List[dict]) -> str:
    lines = [
        "%-18s %-12s %10s %10s %6s %9s %4s %4s %4s %4s %5s %7s %6s"
        % ("RUN", "STATUS", "CYCLE", "INSTR", "IPC", "CPS", "TB",
           "ROB", "INV", "STL", "PROG", "ETA", "AGE")
    ]
    for row in rows:
        progress = row.get("progress")
        lines.append(
            "%-18s %-12s %10d %10d %6.3f %9s %4s %4s %4s %4s %5s %7s %6s"
            % (
                row["run"][:18],
                row["status"],
                row["cycle"],
                row["instructions"],
                row["ipc"],
                _cell(row.get("cps"), "%.0f"),
                _cell(row.get("tb_occupancy")),
                _cell(row.get("rob_occupancy")),
                _cell(row.get("invariants")),
                _cell(row.get("stalls")),
                _cell(round(progress * 100) if progress is not None
                      else None, "%d", "%"),
                _cell(row.get("eta_s"), "%.0f", "s"),
                _cell(row.get("age_s"), "%.1f", "s"),
            )
        )
    return "\n".join(lines)


def top_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro top",
        description="live status of running and finished simulations, "
        "tailed from their pulse.jsonl sidecars",
    )
    parser.add_argument(
        "paths", nargs="*",
        help="sidecar files or directories (default: %s plus adopted "
        "run-dir payloads)" % DEFAULT_PULSE_DIR,
    )
    parser.add_argument(
        "--once", action="store_true",
        help="render one snapshot and exit (CI/script mode)",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the snapshot as JSON instead of a table",
    )
    parser.add_argument(
        "--interval", type=float, default=2.0, metavar="S",
        help="refresh period in seconds (default %(default)s)",
    )
    parser.add_argument(
        "--hb-timeout", type=float, default=DEFAULT_HEARTBEAT_TIMEOUT,
        metavar="S",
        help="no-heartbeat threshold in seconds (default %(default)s)",
    )
    args = parser.parse_args(argv)
    paths = args.paths or _default_paths()
    if args.once:
        rows = _rows(paths, args.hb_timeout)
        if args.as_json:
            print(json.dumps(rows, indent=2, sort_keys=True))
        elif not rows:
            print("no pulse sidecars under: %s" % ", ".join(paths))
            return 1
        else:
            print(render_rows(rows))
        return 0
    try:
        while True:
            rows = _rows(paths, args.hb_timeout)
            body = (
                json.dumps(rows, indent=2, sort_keys=True)
                if args.as_json
                else render_rows(rows)
            )
            # Clear + home, like any curses-free top.
            sys.stdout.write("\x1b[2J\x1b[H")
            print("repro top -- %d run(s); ctrl-c to exit" % len(rows))
            print(body)
            sys.stdout.flush()
            time.sleep(max(0.1, args.interval))
    except KeyboardInterrupt:
        return 0


def _run(args) -> int:
    from repro.observability.cli import simulator_factory
    from repro.observability.watch import InvariantMonitor

    workload, factory = simulator_factory(args, scale=args.scale)
    sim = factory()
    sidecar = args.sidecar or os.path.join(
        DEFAULT_PULSE_DIR, "%s.jsonl" % workload.name
    )
    monitor = InvariantMonitor(sim.tm, extra_roots=(sim.feed,))
    emitter = PulseEmitter(
        sim.tm,
        feed=sim.feed,
        path=sidecar,
        workload=workload.name,
        interval_cycles=args.interval_cycles,
        horizon=args.max_cycles,
        min_wall_s=args.min_wall_s,
        monitor=monitor,
        watchdog=LivenessWatchdog(no_commit_cycles=args.stall_cycles),
    )
    result = sim.run(args.max_cycles)
    footer = emitter.finalize()
    det = footer["det"]
    print(
        "pulse: %s  cycles=%d instructions=%d samples=%d stalls=%d "
        "cps=%.0f" % (
            sidecar, det["cycle"], det["instructions"], det["samples"],
            det["stalls"], footer["host"]["cps"],
        )
    )
    if args.artifact:
        from repro.experiments.harness import flight_root
        from repro.observability.flight.artifact import emit_artifact

        artifact = emit_artifact(
            experiment="pulse",
            workload=workload.name,
            config={
                "engine": args.engine,
                "max_cycles": args.max_cycles,
                "interval_cycles": args.interval_cycles,
            },
            result=result,
            pulse=emitter,
            root=flight_root(),
        )
        print("artifact: %s" % artifact.path)
    return 0


def _export(args) -> int:
    paths = args.paths or _default_paths()
    sidecars = [load_sidecar(p) for p in find_sidecars(paths)]
    text = render_openmetrics(sidecars)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print("wrote %s (%d run(s))" % (args.out, len(sidecars)))
    else:
        sys.stdout.write(text)
    return 0


def pulse_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro pulse",
        description="drive the FastPulse live telemetry plane: run a "
        "workload with the emitter armed, or export sidecars as "
        "OpenMetrics text",
    )
    sub = parser.add_subparsers(dest="verb")

    run_p = sub.add_parser(
        "run", help="run one workload with pulse + liveness watchdog armed",
        description="run one workload with pulse + liveness watchdog "
        "armed; --max-cycles is also the ETA horizon",
    )
    add_run_arguments(run_p)
    run_p.add_argument("--interval-cycles", type=int,
                       default=DEFAULT_INTERVAL_CYCLES,
                       help="sampling cadence (default %(default)s)")
    run_p.add_argument("--stall-cycles", type=int,
                       default=DEFAULT_STALL_CYCLES,
                       help="watchdog no-progress threshold "
                       "(default %(default)s)")
    run_p.add_argument("--min-wall-s", type=float, default=0.0,
                       help="coalesce sample writes closer than this "
                       "(default: write every sample)")
    run_p.add_argument("--sidecar", default=None, metavar="PATH",
                       help="sidecar path (default %s/<workload>.jsonl)"
                       % DEFAULT_PULSE_DIR)
    run_p.add_argument("--scale", type=int, default=1,
                       help="workload scale factor for suite workloads "
                       "(default %(default)s; ignored by linux-boot)")
    run_p.add_argument("--artifact", action="store_true",
                       help="adopt the sidecar into a FastFlight run "
                       "artifact under results/runs/")

    export_p = sub.add_parser(
        "export", help="render sidecars as OpenMetrics text"
    )
    export_p.add_argument("paths", nargs="*",
                          help="sidecar files or directories")
    export_p.add_argument("--out", default=None, metavar="PATH",
                          help="write to a file instead of stdout")

    args = parser.parse_args(argv)
    if args.verb == "run":
        return _run(args)
    if args.verb == "export":
        return _export(args)
    parser.print_help()
    return 2
