"""The fastlint escape hatch, shared by every AST-based pass.

A finding is suppressed by a ``# fastlint: ignore`` comment on the
offending line.  Three forms are honored, uniformly, by every pass
that reports ``file:line`` locations (determinism DT*, statistics
ST*, shard-safety SH*):

* ``# fastlint: ignore`` -- suppress every rule on this line;
* ``# fastlint: ignore[DT002]`` -- suppress exactly one rule;
* ``# fastlint: ignore[DT002,SH005]`` -- suppress a rule list.

Suppression is an audited exception, so an ignore that suppresses
nothing is itself a finding: the CLI collects every comment seen and
every suppression actually exercised across *all* passes (a comment
used by any one pass is used), and reports the leftovers as rule
``IG001``.  Structural rules (TG*, MC*, ST001, SH001-SH003/SH006)
locate findings by module path or opcode, not by source line, and are
deliberately not suppressible -- fix the structure instead.

:class:`SourceChecker` is the other half of the shared machinery: the
per-file plumbing (parse, path walk, labels, suppression routing,
construction-context tracking) that the determinism, stats and watch
source passes inherit, each adding only its rules.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.diagnostics import Report, Severity

_IGNORE_RE = re.compile(
    r"#\s*fastlint:\s*ignore"
    r"(?:\[([A-Z]{2}\d{3}(?:\s*,\s*[A-Z]{2}\d{3})*)\])?"
)


def parse_ignores(line: str) -> Optional[Set[str]]:
    """Rules suppressed on *line*; empty set means "all rules",
    ``None`` means no ignore comment at all."""
    match = _IGNORE_RE.search(line)
    if not match:
        return None
    rules = match.group(1)
    if not rules:
        return set()
    return {rule.strip() for rule in rules.split(",")}


def _comment_tokens(lines: List[str]) -> Iterable[Tuple[int, str]]:
    """``(line, comment text)`` for every real COMMENT token.

    Tokenizing (rather than regex-scanning raw lines) keeps docstrings
    and string literals that merely *mention* the ignore syntax from
    being mistaken for directives.  Unparseable source falls back to
    the raw line scan -- over-matching beats silently dropping a
    directive.
    """
    source = "".join(
        line if line.endswith("\n") else line + "\n" for line in lines
    )
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        for number, line in enumerate(lines, start=1):
            yield number, line
        return
    for token in tokens:
        if token.type == tokenize.COMMENT:
            yield token.start[0], token.string


class FileSuppressions:
    """Every ignore comment in one source file, with usage marks."""

    def __init__(self, label: str, lines: Iterable[str]):
        self.label = label
        # line number -> declared rule set (empty set = all rules)
        self.declared: Dict[int, Set[str]] = {}
        # line number -> rules actually suppressed there (any pass)
        self.used: Dict[int, Set[str]] = {}
        for number, comment in _comment_tokens(list(lines)):
            rules = parse_ignores(comment)
            if rules is not None:
                self.declared[number] = rules

    def suppresses(self, rule: str, line_no: int) -> bool:
        """True if *rule* is suppressed on *line_no*; marks the ignore
        as exercised."""
        declared = self.declared.get(line_no)
        if declared is None:
            return False
        if declared and rule not in declared:
            return False
        self.used.setdefault(line_no, set()).add(rule)
        return True

    def unused(self) -> List[Tuple[int, Optional[str]]]:
        """``(line, rule-or-None)`` for every declared suppression that
        never fired; ``None`` marks an unqualified (suppress-all)
        comment that suppressed nothing."""
        out: List[Tuple[int, Optional[str]]] = []
        for line_no in sorted(self.declared):
            declared = self.declared[line_no]
            used = self.used.get(line_no, set())
            if not declared:
                if not used:
                    out.append((line_no, None))
                continue
            for rule in sorted(declared):
                if rule not in used:
                    out.append((line_no, rule))
        return out


class SuppressionTracker:
    """Suppression state shared across every pass of one lint run.

    Passes register each file they scan (keyed by absolute path, so
    the determinism pass's relative labels and the effect analyzer's
    ``inspect``-derived paths meet on one record) and route every
    would-be diagnostic through :meth:`suppresses`.  After all passes
    ran, :meth:`report_unused` turns leftover ignores into IG001
    warnings.
    """

    def __init__(self) -> None:
        self._files: Dict[str, FileSuppressions] = {}

    def for_file(self, path: str, label: str,
                 lines: Iterable[str]) -> FileSuppressions:
        key = os.path.abspath(path)
        existing = self._files.get(key)
        if existing is None:
            existing = FileSuppressions(label, lines)
            self._files[key] = existing
        return existing

    def report_unused(self) -> Report:
        report = Report()
        for key in sorted(self._files):
            suppressions = self._files[key]
            for line_no, rule in suppressions.unused():
                what = (
                    "unqualified '# fastlint: ignore'"
                    if rule is None
                    else "'# fastlint: ignore[%s]'" % rule
                )
                report.add(
                    "IG001",
                    Severity.WARNING,
                    "%s:%d" % (suppressions.label, line_no),
                    "%s suppresses nothing: no pass reported a finding "
                    "it covers on this line" % what,
                    hint="remove the stale ignore, or qualify it with "
                    "the rule it is meant to suppress",
                )
        return report


def python_files(root: str) -> Iterable[str]:
    """Every ``*.py`` under *root*, in deterministic walk order."""
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                yield os.path.join(dirpath, filename)


# Function names inside which registration is construction-time by
# convention: initializers, dataclass post-init, builder helpers and the
# ``new_*`` registration wrappers themselves (ST002, IV001).
_CONSTRUCTION_PREFIXES: Tuple[str, ...] = ("build", "_build", "new_")
_CONSTRUCTION_NAMES: Set[str] = {"__init__", "__post_init__"}


class SourceChecker(ast.NodeVisitor):
    """Plumbing shared by the AST source passes (DT, ST, IV).

    A subclass adds its ``visit_*`` rules and names its pass's
    ``error_rule`` (``DT000``/``ST000``/``IV000``), which reports
    unparsable sources and missing paths.  :meth:`lint_source` and
    :meth:`lint_paths` are the pass's whole public surface.
    """

    error_rule = ""

    def __init__(self, filename: str, source_lines: Sequence[str],
                 suppressions: Optional[FileSuppressions] = None):
        self.filename = filename
        self.suppressions = suppressions or FileSuppressions(
            filename, source_lines
        )
        self.report = Report()
        self._function_stack: List[str] = []

    def _add(self, rule: str, severity: Severity, node: ast.AST,
             message: str, hint: str = "") -> None:
        line_no = getattr(node, "lineno", 0)
        if self.suppressions.suppresses(rule, line_no):
            return
        self.report.add(
            rule, severity, "%s:%d" % (self.filename, line_no), message, hint
        )

    def _visit_function(self, node) -> None:
        self._function_stack.append(node.name)
        self.generic_visit(node)
        self._function_stack.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def _in_construction(self) -> bool:
        if not self._function_stack:
            # Module level: a registration at import time belongs to
            # no instance under construction.
            return False
        name = self._function_stack[-1]
        if name in _CONSTRUCTION_NAMES:
            return True
        return name.startswith(_CONSTRUCTION_PREFIXES)

    @classmethod
    def lint_source(cls, source: str, filename: str = "<string>",
                    suppressions: Optional[FileSuppressions] = None
                    ) -> Report:
        """Check one Python source string; *filename* labels
        diagnostics."""
        try:
            tree = ast.parse(source, filename=filename)
        except SyntaxError as exc:
            report = Report()
            report.add(
                cls.error_rule,
                Severity.ERROR,
                "%s:%d" % (filename, exc.lineno or 0),
                "syntax error: %s" % exc.msg,
            )
            return report
        checker = cls(filename, source.splitlines(), suppressions)
        checker.visit(tree)
        return checker.report

    @classmethod
    def lint_paths(cls, paths: Optional[Sequence[str]] = None,
                   tracker: Optional[SuppressionTracker] = None) -> Report:
        """Check Python files/directories (default: the installed
        ``repro`` package sources), labelling each file relative to
        the directory holding its root argument.  *tracker*, when
        given, shares ignore usage with the other passes (IG001)."""
        if paths is None:
            import repro

            paths = [os.path.dirname(os.path.abspath(repro.__file__))]
        report = Report()
        for path in paths:
            if not os.path.exists(path):
                report.add(cls.error_rule, Severity.ERROR, path,
                           "no such file or directory")
                continue
            if os.path.isdir(path):
                base = os.path.dirname(os.path.abspath(path))
                files = list(python_files(path))
            else:
                base = os.path.dirname(os.path.abspath(path)) or "."
                files = [path]
            for file_path in files:
                rel = os.path.relpath(os.path.abspath(file_path), base)
                with open(file_path, "r", encoding="utf-8") as handle:
                    source = handle.read()
                suppressions = None
                if tracker is not None:
                    suppressions = tracker.for_file(
                        file_path, rel, source.splitlines()
                    )
                report.extend(cls.lint_source(source, rel, suppressions))
        return report
