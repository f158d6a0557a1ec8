"""The shared fastlint ignore machinery: parsing, usage, IG001."""

import textwrap

import pytest

from repro.analysis.determinism import lint_determinism, lint_source
from repro.analysis.diagnostics import Severity
from repro.analysis.stat_rules import lint_stat_source, lint_stat_sources
from repro.analysis.suppress import (
    FileSuppressions,
    SuppressionTracker,
    parse_ignores,
)
from repro.analysis.watch_rules import lint_watch_source, lint_watch_sources


def test_parse_ignore_forms():
    assert parse_ignores("x = 1") is None
    assert parse_ignores("x = 1  # fastlint: ignore") == set()
    assert parse_ignores("x = 1  # fastlint: ignore[DT002]") == {"DT002"}
    assert parse_ignores(
        "x = 1  # fastlint: ignore[DT002, SH005]"
    ) == {"DT002", "SH005"}


def test_docstring_mention_is_not_a_directive():
    source = '"""Docs mention # fastlint: ignore[DT002] here."""\nx = 1\n'
    suppressions = FileSuppressions("sample.py", source.splitlines())
    assert suppressions.declared == {}


def test_string_literal_mention_is_not_a_directive():
    source = "msg = \"use '# fastlint: ignore[DT002]' to suppress\"\n"
    suppressions = FileSuppressions("sample.py", source.splitlines())
    assert suppressions.declared == {}


def test_qualified_ignore_suppresses_only_listed_rules():
    source = textwrap.dedent("""
        import time
        a = time.time()  # fastlint: ignore[DT002]
        b = time.time()  # fastlint: ignore[DT001]
    """)
    suppressions = FileSuppressions("sample.py", source.splitlines())
    report = lint_source(source, "sample.py", suppressions)
    locations = [d.location for d in report.by_rule("DT002")]
    assert locations == ["sample.py:4"]  # wrong-rule ignore does not hide


def test_aliased_wallclock_read_is_still_flagged():
    source = textwrap.dedent("""
        import time
        perf = time.perf_counter
        t0 = perf()
    """)
    report = lint_source(source, "sample.py")
    assert [d.location for d in report.by_rule("DT002")] == ["sample.py:4"]


def test_unused_ignore_reported_as_ig001():
    source = "x = 1  # fastlint: ignore[DT002]\n"
    tracker = SuppressionTracker()
    suppressions = tracker.for_file("/tmp/sample.py", "sample.py",
                                    source.splitlines())
    lint_source(source, "sample.py", suppressions)
    report = tracker.report_unused()
    diags = report.by_rule("IG001")
    assert len(diags) == 1
    assert diags[0].location == "sample.py:1"


def test_used_ignore_not_reported():
    source = "import time\nt = time.time()  # fastlint: ignore[DT002]\n"
    tracker = SuppressionTracker()
    suppressions = tracker.for_file("/tmp/sample2.py", "sample.py",
                                    source.splitlines())
    report = lint_source(source, "sample.py", suppressions)
    assert report.by_rule("DT002") == ()
    assert tracker.report_unused().by_rule("IG001") == ()


def test_tracker_shares_usage_across_passes():
    # A suppression exercised by ANY pass counts as used: register the
    # same file twice (as two passes would) and use it once.
    source = "import time\nt = time.time()  # fastlint: ignore[DT002]\n"
    tracker = SuppressionTracker()
    first = tracker.for_file("/tmp/sample3.py", "sample.py",
                             source.splitlines())
    second = tracker.for_file("/tmp/sample3.py", "sample.py",
                              source.splitlines())
    assert first is second
    lint_source(source, "sample.py", first)
    assert tracker.report_unused().by_rule("IG001") == ()


@pytest.mark.parametrize(
    "lint_one, lint_paths, rule",
    [
        (lint_source, lint_determinism, "DT000"),
        (lint_stat_source, lint_stat_sources, "ST000"),
        (lint_watch_source, lint_watch_sources, "IV000"),
    ],
    ids=["determinism", "stats", "watch"],
)
def test_source_pass_reports_its_own_error_rule(lint_one, lint_paths, rule,
                                                tmp_path):
    def findings(report):
        return [(d.rule, d.severity, d.location, d.message) for d in report]

    [unparsable] = findings(lint_one("def broken(:\n", "bad.py"))
    assert unparsable[:3] == (rule, Severity.ERROR, "bad.py:1")
    assert unparsable[3].startswith("syntax error: ")

    missing = str(tmp_path / "absent.py")
    assert findings(lint_paths([missing])) == [
        (rule, Severity.ERROR, missing, "no such file or directory"),
    ]

    # A directory argument labels its files relative to its parent.
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "bad.py").write_text("def broken(:\n")
    assert [d.location for d in lint_paths([str(package)])] == [
        "pkg/bad.py:1",
    ]
