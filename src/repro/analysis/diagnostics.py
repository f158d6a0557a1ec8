"""The unified diagnostic model shared by every FastLint pass.

Bluespec gives the paper's timing model a compiler that rejects
malformed hardware before it is ever synthesized; FastLint is the
Python equivalent for this reproduction.  Every analysis pass -- the
timing-graph lint, the microcode/ISA cross-check and the determinism
lint -- reports findings through one :class:`Diagnostic` shape so the
CLI, CI and tests can treat them uniformly.

A diagnostic carries a stable *rule id* (``TG001`` ... for the timing
graph, ``MC001`` ... for microcode, ``DT001`` ... for determinism), a
severity, a location (module path, opcode, or ``file:line``), a
human-readable message and a fix hint.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple


class Severity(enum.IntEnum):
    """Diagnostic severity; ordering matters (INFO < WARNING < ERROR)."""

    INFO = 0
    WARNING = 1
    ERROR = 2

    def __str__(self) -> str:  # "error", not "Severity.ERROR"
        return self.name.lower()


@dataclass(frozen=True)
class Diagnostic:
    """One finding from one FastLint rule."""

    rule: str  # stable rule id, e.g. "TG002"
    severity: Severity
    location: str  # module path, opcode name, or file:line
    message: str
    hint: str = ""  # how to fix it

    def format(self) -> str:
        text = "%s [%s] %s: %s" % (self.location, self.rule,
                                   self.severity, self.message)
        if self.hint:
            text += " (hint: %s)" % self.hint
        return text

    def to_dict(self) -> dict:
        """Plain-dict form, the machine-readable shape ``lint --json``
        prints."""
        return {
            "rule": self.rule,
            "severity": str(self.severity),
            "location": self.location,
            "message": self.message,
            "hint": self.hint,
        }

    def sort_key(self) -> Tuple[str, str, str, str]:
        return (self.rule, self.location, self.message, self.hint)


class Report:
    """An ordered collection of diagnostics with exit-code semantics.

    The lint CLI exits non-zero when any diagnostic is WARNING or worse;
    INFO-level notes (e.g. the paper's deliberately-untranslated FP
    opcodes, Table 1) never fail a build.
    """

    def __init__(self, diagnostics: Iterable[Diagnostic] = ()):
        self.diagnostics: List[Diagnostic] = list(diagnostics)

    def add(
        self,
        rule: str,
        severity: Severity,
        location: str,
        message: str,
        hint: str = "",
    ) -> Diagnostic:
        diag = Diagnostic(rule, severity, location, message, hint)
        self.diagnostics.append(diag)
        return diag

    def extend(self, other: "Report") -> None:
        self.diagnostics.extend(other.diagnostics)

    def by_rule(self, rule: str) -> Tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.rule == rule)

    def at_least(self, severity: Severity) -> Tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity >= severity)

    @property
    def errors(self) -> Tuple[Diagnostic, ...]:
        return self.at_least(Severity.ERROR)

    @property
    def failing(self) -> Tuple[Diagnostic, ...]:
        """Diagnostics that make the lint exit non-zero."""
        return self.at_least(Severity.WARNING)

    @property
    def clean(self) -> bool:
        return not self.failing

    def rules(self) -> Sequence[str]:
        return tuple(d.rule for d in self.diagnostics)

    def format(self, min_severity: Severity = Severity.INFO) -> str:
        lines = [
            d.format() for d in self.diagnostics if d.severity >= min_severity
        ]
        return "\n".join(lines)

    def to_dicts(self, min_severity: Severity = Severity.INFO) -> List[dict]:
        """Diagnostics as plain dicts in stable sort order (by rule,
        location, message, hint) -- the byte-stable report format CI
        consumes."""
        selected = [
            d for d in self.diagnostics if d.severity >= min_severity
        ]
        return [d.to_dict() for d in sorted(selected,
                                            key=Diagnostic.sort_key)]

    def to_document(self, min_severity: Severity = Severity.INFO) -> dict:
        """The shared report document: sorted diagnostics plus a
        summary block.  ``lint --json`` prints exactly this."""
        failing = self.failing
        return {
            "diagnostics": self.to_dicts(min_severity),
            "summary": {
                "errors": len(self.errors),
                "warnings": len(failing) - len(self.errors),
                "infos": len(self.diagnostics) - len(failing),
                "clean": self.clean,
            },
        }

    def to_json(self, min_severity: Severity = Severity.INFO) -> str:
        """Sorted-key, stable-order JSON document for the report."""
        import json

        document = self.to_document(min_severity)
        return json.dumps(document, sort_keys=True, indent=2) + "\n"

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __iter__(self):
        return iter(self.diagnostics)

    def __repr__(self) -> str:
        return "<Report %d diagnostics (%d failing)>" % (
            len(self.diagnostics),
            len(self.failing),
        )
