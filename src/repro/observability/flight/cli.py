"""``python -m repro report``: offline artifact analytics & regression.

Modes::

    report --list                         list run artifacts
    report A                              analyze one artifact (seam-cost
                                          attribution, timeline, flame)
    report A B                            diff baseline A vs candidate B;
                                          exit 1 on regression
    report B --against BENCH_x.json       gate one artifact against a
                                          committed bench baseline
    report --against BENCH_x.json         gate every artifact whose
                                          workload the baseline knows

``--warn-only`` downgrades failures to warnings (exit 0), for a gate
whose noise bands are not yet trusted.  The CI regression gate runs
without it: target stats must match exactly and only host speed sits
in the ``--noise`` band.
"""

from __future__ import annotations

import argparse
import json
import os
from typing import List, Optional

from repro.observability.flight.analytics import (
    render_attribution,
    render_timeline,
    seam_attribution,
)
from repro.observability.flight.artifact import (
    DEFAULT_ROOT,
    ArtifactError,
    RunArtifact,
    list_artifacts,
    load_artifact,
    verify_artifact,
)
from repro.observability.flight.capsule import find_capsules
from repro.observability.flight.regression import (
    DEFAULT_NOISE,
    compare_against_bench,
    compare_runs,
    render_report,
)


def _describe(artifact: RunArtifact) -> str:
    timing = artifact.timing()
    host = artifact.host
    bits = [
        "experiment=%s" % artifact.experiment,
        "workload=%s" % artifact.workload,
    ]
    if timing:
        bits.append("cycles=%s" % timing.get("cycles"))
    if "cycles_per_sec" in host:
        bits.append("cps=%.0f" % float(host["cycles_per_sec"]))
    if artifact.has_trace():
        bits.append("trace")
    if artifact.profile() is not None:
        bits.append("profile")
    pulse = artifact.pulse_summary()
    if pulse is not None:
        bits.append(_describe_pulse(pulse))
    return " ".join(bits)


def _describe_pulse(pulse: dict) -> str:
    """The per-run telemetry summary column: final sim rate, peak
    occupancies and stall count from the FastPulse footer."""
    det = pulse.get("det", {})
    host = pulse.get("host", {})
    parts = []
    cps = host.get("cps")
    if cps:
        parts.append("cps=%.0f" % float(cps))
    peak_tb = det.get("peak_tb")
    if peak_tb is not None:
        parts.append("peak_tb=%s" % peak_tb)
    peak_rob = det.get("peak_rob")
    if peak_rob is not None:
        parts.append("peak_rob=%s" % peak_rob)
    parts.append("stalls=%s" % det.get("stalls", 0))
    return "pulse[%s]" % " ".join(parts)


def _list(root: str) -> int:
    run_ids = list_artifacts(root)
    if not run_ids:
        print("no run artifacts under %s" % root)
    for run_id in run_ids:
        artifact = load_artifact(run_id, root=root)
        print("%-44s %s" % (run_id, _describe(artifact)))
    capsules = find_capsules(root)
    if capsules:
        print()
        print("debug capsules (inspect with `python -m repro debug`):")
        for capsule in capsules:
            window = capsule.window
            print("%-44s workload=%s cycles=[%s, %s]" % (
                capsule.capsule_id, capsule.workload or "-",
                window.get("start"), window.get("end")))
    return 0


def _analyze_one(artifact: RunArtifact, flame_out: Optional[str],
                 root: str = DEFAULT_ROOT) -> int:
    print("artifact %s (%s)" % (artifact.run_id, artifact.path))
    problems = verify_artifact(artifact)
    for problem in problems:
        print("INTEGRITY: %s" % problem)
    print()
    print(render_attribution(seam_attribution(artifact)))
    if artifact.windows() is not None:
        print()
        print(render_timeline(artifact))
    summary = artifact.trace_summary()
    if summary is not None:
        print()
        print(
            "trace: %d recorded, %d retained, %d dropped"
            % (summary.get("recorded", 0), summary.get("retained", 0),
               summary.get("dropped", 0))
        )
        if summary.get("dropped", 0):
            print(
                "  WARNING: ring overflowed; oldest events are missing "
                "from the stream (per-kind totals remain exact)"
            )
    pulse = artifact.pulse_summary()
    if pulse is not None:
        det = pulse.get("det", {})
        host = pulse.get("host", {})
        print()
        line = "pulse: %s samples, %s stalls" % (
            det.get("samples", 0), det.get("stalls", 0))
        if host.get("cps"):
            line += ", %.0f cyc/s" % float(host["cps"])
        if det.get("peak_tb") is not None:
            line += ", peak tb=%s" % det["peak_tb"]
        if det.get("peak_rob") is not None:
            line += ", peak rob=%s" % det["peak_rob"]
        if det.get("det_hash"):
            line += ", det %s" % str(det["det_hash"])[:12]
        print(line)
        if not det.get("finished", True):
            print("  WARNING: sidecar footer says the run never finished")
    capsules = find_capsules(root, source_run=artifact.run_id)
    if not capsules:
        capsules = find_capsules(root, workload=artifact.workload)
    if capsules:
        print()
        print("debug capsules for this run/workload:")
        for capsule in capsules:
            window = capsule.window
            print("  %-44s cycles=[%s, %s]  %s" % (
                capsule.capsule_id, window.get("start"),
                window.get("end"), capsule.reason))
        print("  (inspect with `python -m repro debug show <id>`)")
    if flame_out and artifact.profile() is not None:
        from repro.observability.flight.analytics import write_flame

        count = write_flame(artifact, flame_out)
        print()
        print("wrote %s (%d collapsed stacks)" % (flame_out, count))
    return 1 if problems else 0


def _link_divergence_capsules(report, candidate: RunArtifact,
                              root: str) -> None:
    """After event-stream bisection, point at any debug capsule whose
    re-executed window already covers the diverging cycle -- or say how
    to capture one."""
    divergence = report.divergence
    if divergence is None or divergence.cycle_a is None:
        return
    capsules = find_capsules(root, workload=candidate.workload,
                             containing_cycle=divergence.cycle_a)
    print()
    if capsules:
        print("debug capsules covering the diverging cycle %d:"
              % divergence.cycle_a)
        for capsule in capsules:
            window = capsule.window
            print("  %-44s cycles=[%s, %s]" % (
                capsule.capsule_id, window.get("start"),
                window.get("end")))
        print("  (diff with `python -m repro debug diff`)")
    else:
        print(
            "no capsule covers the diverging cycle %d; capture one with "
            "`python -m repro debug capture --workload %s --at-cycle %d`"
            % (divergence.cycle_a, candidate.workload, divergence.cycle_a)
        )


def report_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro report",
        description="offline analytics and cross-run regression diagnosis "
        "over persistent run artifacts",
    )
    parser.add_argument(
        "runs", nargs="*", metavar="RUN",
        help="artifact directory, run id, or unique id prefix "
        "(baseline first when two are given)",
    )
    parser.add_argument(
        "--root", default=DEFAULT_ROOT,
        help="artifact store (default %(default)s)",
    )
    parser.add_argument(
        "--against", default=None, metavar="BENCH.json",
        help="gate against a committed bench baseline instead of a "
        "second artifact",
    )
    parser.add_argument(
        "--noise", type=float, default=DEFAULT_NOISE,
        help="host-metric noise band (default %(default)s)",
    )
    parser.add_argument(
        "--warn-only", action="store_true",
        help="report regressions but exit 0 (CI soft-launch mode)",
    )
    parser.add_argument(
        "--list", action="store_true", dest="list_runs",
        help="list run artifacts and exit",
    )
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the regression report(s) as JSON",
    )
    parser.add_argument(
        "--flame", default=None, metavar="PATH",
        help="with one RUN: write collapsed flame-graph stacks",
    )
    args = parser.parse_args(argv)

    if args.list_runs:
        return _list(args.root)

    try:
        return _dispatch(args)
    except ArtifactError as error:
        print("error: %s" % error)
        return 2


def _dispatch(args) -> int:
    reports = []
    exit_code = 0
    if args.against is not None:
        with open(args.against) as fh:
            bench = json.load(fh)
        baseline_name = os.path.basename(args.against)
        if args.runs:
            targets = [load_artifact(ref, root=args.root)
                       for ref in args.runs]
        else:
            targets = [
                load_artifact(run_id, root=args.root)
                for run_id in list_artifacts(args.root)
            ]
            targets = [
                t for t in targets
                if t.workload in bench.get("workloads", {})
            ]
            if not targets:
                print(
                    "no artifacts under %s match baseline workloads in %s"
                    % (args.root, args.against)
                )
                return 0
        for candidate in targets:
            report = compare_against_bench(
                candidate, bench, noise=args.noise,
                baseline_name=baseline_name,
            )
            print(render_report(report, attribution=candidate))
            print()
            reports.append(report)
    elif len(args.runs) == 2:
        baseline = load_artifact(args.runs[0], root=args.root)
        candidate = load_artifact(args.runs[1], root=args.root)
        report = compare_runs(baseline, candidate, noise=args.noise)
        print(render_report(report, attribution=candidate))
        _link_divergence_capsules(report, candidate, args.root)
        reports.append(report)
    elif len(args.runs) == 1:
        return _analyze_one(
            load_artifact(args.runs[0], root=args.root), args.flame,
            root=args.root,
        )
    else:
        print(
            "error: give one RUN to analyze, two to diff, or --against/"
            "--list (see --help)"
        )
        return 2

    if args.json:
        body = [r.to_dict() for r in reports]
        with open(args.json, "w") as fh:
            json.dump(body[0] if len(body) == 1 else body, fh,
                      indent=2, sort_keys=True)
            fh.write("\n")
        print("wrote %s" % args.json)
    failed = any(r.failed for r in reports)
    if failed:
        if args.warn_only:
            print("WARN: regressions found (exit 0: --warn-only)")
            return 0
        exit_code = 1
    return exit_code
