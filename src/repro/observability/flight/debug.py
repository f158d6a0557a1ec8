"""``python -m repro debug``: the time-travel debugging CLI.

Capsules are captured (``debug capture``), listed, inspected
(``debug show``: window rows, seam events, the triggering violation),
diffed cycle-by-cycle with first-divergence search (``debug diff``) and
exported as collapsed flame stacks (``debug flame``).  Capture builds
on run determinism: a probe run with the invariant fabric armed finds
the violation cycle, then the window around it is re-executed on a
fresh simulator with maximum-detail capture
(:mod:`repro.functional.replay`).

``--inject {rob,credit,ckpt}`` deliberately fires one canonical
invariant by shrinking its armed (observation-only) bound -- the CI
smoke job uses this to prove the whole path end to end; ``--at-cycle``
and ``--watch-below`` capture around an explicit cycle or the first
firing of a trigger watchpoint instead.
"""

from __future__ import annotations

import argparse
import json
from typing import List, Optional

from repro.observability.cli import add_run_arguments, simulator_factory
from repro.observability.flight.artifact import ArtifactError, DEFAULT_ROOT
from repro.observability.flight.capsule import (
    diff_capsules,
    list_capsules,
    load_capsule,
    verify_capsule,
)


def _parse_watch(spec: str):
    """``probe:threshold`` with probe in {rob, tb}."""
    probe_name, _, threshold = spec.partition(":")
    if probe_name not in ("rob", "tb") or not threshold:
        raise argparse.ArgumentTypeError(
            "expected PROBE:THRESHOLD with PROBE one of rob, tb"
        )
    return probe_name, float(threshold)


def _watchpoint_cycle(factory, probe_name: str, threshold: float,
                      max_cycles: int) -> Optional[int]:
    """First cycle the armed trigger query fires, or None."""
    from repro.observability.triggers import (
        CompiledTriggerQuery,
        rob_occupancy,
        trace_buffer_occupancy,
    )

    sim = factory()
    probe = (
        rob_occupancy(sim.tm)
        if probe_name == "rob"
        else trace_buffer_occupancy(sim.feed)
    )
    query = CompiledTriggerQuery.below(
        sim.tm, "watchpoint", probe, threshold
    )
    sim.run(max_cycles=max_cycles)
    return query.first_fired


def _cmd_capture(args) -> int:
    from repro.observability.watch import capture_debug_capsule

    _workload, factory = simulator_factory(args)
    center = args.at_cycle
    if center is None and args.watch_below is not None:
        probe_name, threshold = args.watch_below
        center = _watchpoint_cycle(
            factory, probe_name, threshold, args.max_cycles
        )
        if center is None:
            print("watchpoint never fired; nothing to capture")
            return 1
    capsule = capture_debug_capsule(
        factory,
        workload=args.workload,
        label=args.label,
        inject=args.inject,
        center=center,
        delta=args.delta,
        profile=not args.no_profile,
        max_cycles=args.max_cycles,
        root=args.root,
    )
    if capsule is None:
        print("no invariant fired; nothing to capture")
        return 1
    window = capsule.window
    print("capsule: %s" % capsule.capsule_id)
    print("  path:    %s" % capsule.path)
    print("  reason:  %s" % capsule.reason)
    print("  window:  cycles [%s, %s] around %s"
          % (window.get("start"), window.get("end"), window.get("center")))
    print("  content: %s" % capsule.content_hash)
    return 0


def _cmd_list(args) -> int:
    ids = list_capsules(args.root)
    if not ids:
        print("no capsules under %s" % args.root)
        return 0
    for capsule_id in ids:
        capsule = load_capsule(capsule_id, args.root)
        window = capsule.window
        print(
            "%-48s %-12s cycles [%s, %s]  %s"
            % (
                capsule_id,
                capsule.workload or "-",
                window.get("start"),
                window.get("end"),
                capsule.reason,
            )
        )
    return 0


def _cmd_show(args) -> int:
    capsule = load_capsule(args.ref, args.root)
    problems = verify_capsule(capsule)
    if args.json:
        print(json.dumps(
            {
                "manifest": capsule.manifest,
                "payload": capsule.payload(),
                "rows": capsule.rows(),
                "events": capsule.events(),
                "integrity_problems": problems,
            },
            indent=2, sort_keys=True,
        ))
        return 1 if problems else 0
    window = capsule.window
    print("capsule %s" % capsule.capsule_id)
    print("  workload: %s" % (capsule.workload or "-"))
    print("  reason:   %s" % capsule.reason)
    print("  engine:   %s" % capsule.host.get("engine", "?"))
    print("  window:   cycles [%s, %s] around %s (delta %s)"
          % (window.get("start"), window.get("end"),
             window.get("center"), window.get("delta")))
    if capsule.source_run:
        print("  source:   %s" % capsule.source_run)
    print("  content:  %s" % capsule.content_hash)
    if problems:
        for problem in problems:
            print("  INTEGRITY: %s" % problem)
    violation = capsule.violation
    if violation:
        print("  violation: %s/%s at cycle %s (observed %s)"
              % (violation.get("path"), violation.get("invariant"),
                 violation.get("cycle"), violation.get("value")))
        if violation.get("desc"):
            print("    %s" % violation["desc"])
    rows = capsule.rows()
    events = capsule.events()
    print("  %d rows, %d events" % (len(rows), len(events)))
    shown = rows if args.rows is None else rows[: args.rows]
    if shown:
        print()
        print("  %8s %10s %8s %4s %4s %4s %5s %6s %10s"
              % ("cycle", "pc", "in", "rob", "rs", "lsq", "tb",
                 "ckpts", "committed"))
        violation_cycle = capsule.violation_cycle
        for row in shown:
            marker = " <-- violation" if row["cycle"] == violation_cycle \
                else ""
            print("  %8d 0x%08x %8d %4d %4d %4d %5d %6d %10d%s"
                  % (row["cycle"], row["pc"], row["in_count"], row["rob"],
                     row["rs"], row["lsq"], row["tb"], row["checkpoints"],
                     row["committed"], marker))
    if args.events and events:
        print()
        for event in events[: args.events]:
            print("  %s" % json.dumps(event, sort_keys=True,
                                      separators=(",", ":")))
    return 1 if problems else 0


def _cmd_diff(args) -> int:
    a = load_capsule(args.a, args.root)
    b = load_capsule(args.b, args.root)
    report = diff_capsules(a, b, max_diffs=args.max_diffs)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0 if report["identical"] else 1
    print("diff %s vs %s" % (a.capsule_id, b.capsule_id))
    if report["identical"]:
        print("  identical (content hash %s)" % a.content_hash)
        return 0
    if report["content_hash_match"]:
        print("  content hashes match")
    else:
        print("  content hashes DIFFER: %s vs %s"
              % (a.content_hash[:12], b.content_hash[:12]))
    first = report["first_divergence"]
    if first is not None:
        print("  first divergence: cycle %d field %r"
              % (first["cycle"], first["field"]))
        print("    a: %s" % (first["a"],))
        print("    b: %s" % (first["b"],))
    for diff in report["diffs"][1:]:
        print("  cycle %d %r: %s -> %s"
              % (diff["cycle"], diff["field"], diff["a"], diff["b"]))
    if report["diffs_truncated"]:
        print("  ... further diffs truncated (--max-diffs)")
    if report["cycles_only_a"]:
        print("  cycles only in a: %s" % report["cycles_only_a"])
    if report["cycles_only_b"]:
        print("  cycles only in b: %s" % report["cycles_only_b"])
    return 1


def _cmd_flame(args) -> int:
    from repro.observability.flight.analytics import write_flame

    capsule = load_capsule(args.ref, args.root)
    if capsule.profile() is None:
        print(
            "capsule %s carries no tick profile (captured on the legacy "
            "engine, or with --no-profile)" % capsule.capsule_id
        )
        return 1
    count = write_flame(capsule, args.out)
    print("wrote %s: %d collapsed stacks" % (args.out, count))
    return 0


def debug_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro debug",
        description="capture, list, inspect and diff time-travel debug "
        "capsules",
    )
    parser.add_argument(
        "--root", default=DEFAULT_ROOT,
        help="artifact root directory (default %(default)s)",
    )
    # Accepted both before and after the subcommand; SUPPRESS keeps the
    # subparser from clobbering a value given up front.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--root", default=argparse.SUPPRESS,
                        help="artifact root directory")
    sub = parser.add_subparsers(dest="command")

    cap = sub.add_parser(
        "capture",
        parents=[common],
        help="probe for an invariant violation (or use an explicit "
        "cycle/watchpoint) and capture the window around it",
    )
    add_run_arguments(cap)
    cap.add_argument("--delta", type=int, default=64,
                     help="half-width of the capture window in cycles "
                     "(default %(default)s)")
    cap.add_argument("--inject", default=None,
                     choices=("rob", "credit", "ckpt"),
                     help="deliberately fire one canonical invariant by "
                     "shrinking its armed bound (observation-only)")
    cap.add_argument("--at-cycle", type=int, default=None,
                     help="skip the probe run and capture around this cycle")
    cap.add_argument("--watch-below", type=_parse_watch, default=None,
                     metavar="PROBE:THRESHOLD",
                     help="capture around the first cycle the probe (rob "
                     "or tb occupancy) drops below THRESHOLD")
    cap.add_argument("--label", default=None,
                     help="capsule label (default: the invariant name)")
    cap.add_argument("--no-profile", action="store_true",
                     help="skip TickProfiler rows in the capture")

    lst = sub.add_parser("list", parents=[common], help="list capsules")

    show = sub.add_parser("show", parents=[common],
                          help="inspect one capsule")
    show.add_argument("ref", help="capsule id, unique prefix, or path")
    show.add_argument("--rows", type=int, default=16,
                      help="window rows to print (default %(default)s)")
    show.add_argument("--events", type=int, default=0,
                      help="seam events to print (default %(default)s)")
    show.add_argument("--json", action="store_true",
                      help="dump manifest, payload, rows and events as JSON")

    diff = sub.add_parser(
        "diff", parents=[common],
        help="cycle-by-cycle field diff of two capsules",
    )
    diff.add_argument("a")
    diff.add_argument("b")
    diff.add_argument("--max-diffs", type=int, default=64)
    diff.add_argument("--json", action="store_true")

    flame = sub.add_parser(
        "flame", parents=[common],
        help="export a capsule's tick profile as collapsed stacks",
    )
    flame.add_argument("ref")
    flame.add_argument("--out", default="capsule-flame.txt", metavar="PATH")

    args = parser.parse_args(argv)
    del lst  # no extra arguments beyond --root
    try:
        if args.command == "capture":
            return _cmd_capture(args)
        if args.command == "list" or args.command is None:
            return _cmd_list(args)
        if args.command == "show":
            return _cmd_show(args)
        if args.command == "diff":
            return _cmd_diff(args)
        if args.command == "flame":
            return _cmd_flame(args)
    except ArtifactError as exc:
        print("error: %s" % exc)
        return 2
    parser.error("unknown command %r" % args.command)
    return 2
