"""The ``python -m repro lint`` entry point.

Runs the five FastLint passes against the default targets:

1. timing-graph lint over the default 1/2/4/8-issue cores (Table 2
   configurations) from :mod:`repro.timing.core`;
2. microcode/ISA cross-check over the default microcode table;
3. determinism lint over the ``repro`` package sources;
4. statistics-fabric lint (ST001-ST003): the same default cores'
   stat registries plus an AST pass over the sources;
5. invariant-fabric lint (IV001-IV002): FastWatch registration
   placement and check-closure purity over the sources.

The AST passes share one :class:`~repro.analysis.suppress.
SuppressionTracker`, so a ``# fastlint: ignore[RULE]`` escape is
honored uniformly and an escape no pass ever needed is itself reported
(IG001) -- but only when every AST pass ran, since a partial run
cannot know an escape is dead.

Exit code 0 when no diagnostic reaches WARNING severity, 1 otherwise.
INFO-level notes (the paper's declared FP microcode gap) are printed
with ``--verbose`` but never fail the lint.  ``--json`` prints the
shared machine-readable report document instead (stable sort order).
"""

from __future__ import annotations

import argparse
from typing import List, Optional, Sequence

from repro.analysis.determinism import lint_determinism
from repro.analysis.diagnostics import Report, Severity
from repro.analysis.microcode_rules import lint_microcode
from repro.analysis.stat_rules import lint_stat_registry, lint_stat_sources
from repro.analysis.suppress import SuppressionTracker
from repro.analysis.timing_rules import lint_timing_graph
from repro.analysis.watch_rules import lint_watch_sources

PASS_NAMES = ("graph", "microcode", "determinism", "stats", "watch")

# Passes that walk source files and honor fastlint ignore escapes.
# Unused-escape reporting (IG001) requires all of them to have run.
AST_PASSES = frozenset({"determinism", "stats", "watch"})


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            "issue width must be >= 1 (got %d)" % value
        )
    return value


def run_lint(
    passes: Sequence[str] = PASS_NAMES,
    issue_widths: Optional[Sequence[int]] = None,
    paths: Optional[Sequence[str]] = None,
) -> Report:
    """Run the selected passes on the default targets; returns the
    merged report."""
    from repro.timing.core import DEFAULT_ISSUE_WIDTHS, build_default_core

    report = Report()
    tracker = SuppressionTracker()
    if "graph" in passes:
        for width in issue_widths or DEFAULT_ISSUE_WIDTHS:
            core = build_default_core(width)
            core_report = lint_timing_graph(core)
            for diag in core_report:
                report.add(
                    diag.rule,
                    diag.severity,
                    "%d-issue:%s" % (width, diag.location),
                    diag.message,
                    diag.hint,
                )
    if "microcode" in passes:
        report.extend(lint_microcode())
    if "determinism" in passes:
        report.extend(lint_determinism(paths, tracker))
    if "stats" in passes:
        for width in issue_widths or DEFAULT_ISSUE_WIDTHS:
            core = build_default_core(width)
            for diag in lint_stat_registry(core):
                report.add(
                    diag.rule,
                    diag.severity,
                    "%d-issue:%s" % (width, diag.location),
                    diag.message,
                    diag.hint,
                )
        report.extend(lint_stat_sources(paths, tracker))
    if "watch" in passes:
        report.extend(lint_watch_sources(paths, tracker))
    if AST_PASSES.issubset(passes) and not paths:
        # Only a full default-target run of every escape-honoring pass
        # can prove an escape dead.
        report.extend(tracker.report_unused())
    return report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro lint",
        description="FastLint: static verification of the timing graph, "
        "microcode table and simulator determinism.",
    )
    parser.add_argument(
        "--pass",
        dest="passes",
        action="append",
        choices=PASS_NAMES,
        help="run only this pass (repeatable; default: all five)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the machine-readable report document (stable sort "
        "order) instead of the human-readable lines",
    )
    parser.add_argument(
        "--issue-width",
        dest="issue_widths",
        action="append",
        type=_positive_int,
        metavar="N",
        help="lint the default core at this issue width "
        "(repeatable; default: 1 2 4 8)",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files/directories for the determinism pass "
        "(default: the repro package sources)",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="also print INFO-level notes",
    )
    args = parser.parse_args(argv)

    report = run_lint(
        passes=args.passes or PASS_NAMES,
        issue_widths=args.issue_widths,
        paths=args.paths or None,
    )
    min_severity = (
        Severity.INFO if (args.verbose or args.json) else Severity.WARNING
    )
    if args.json:
        print(report.to_json(min_severity), end="")
        return 0 if report.clean else 1
    text = report.format(min_severity)
    if text:
        print(text)
    failing = report.failing
    infos = len(report) - len(failing)
    print(
        "fastlint: %d error(s), %d warning(s), %d info note(s)%s"
        % (
            len(report.errors),
            len(failing) - len(report.errors),
            infos,
            "" if args.verbose or not infos else " (-v to show)",
        )
    )
    return 0 if report.clean else 1
