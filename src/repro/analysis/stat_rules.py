"""FastLint pass 4: statistics-fabric rules (the ST family).

The FastScope fabric (:mod:`repro.observability`) makes three standing
assumptions about how statistics are declared; each gets a rule:

=======  =========  ==========================================================
rule id  severity   meaning
=======  =========  ==========================================================
ST001    error      duplicate statistic names within a Module subtree: a
                    typed stat shadowing an ad hoc ``bump()`` counter on the
                    same module, or two modules sharing a flattened path --
                    either way two streams merge silently in
                    ``stats_report()`` and in the fabric
ST002    warning    stat registration (``new_counter``/``new_gauge``/
                    ``new_histogram``/``register_stat``) outside
                    ``__init__``/construction: the fabric baselines the
                    stream set when it attaches, so a stream registered
                    mid-run is missing from earlier windows and skews
                    deltas
ST003    warning    per-cycle listeners registered without an idle hint --
                    a bare ``tm.cycle_listeners.append(...)`` or an
                    ``add_cycle_listener(...)`` call with no ``idle_hint``
                    -- which pins the compiled engine to single-stepping
                    for the whole run
ST004    warning    a ``PulseEmitter(...)`` constructed with a truthy (or
                    dynamic) ``single_step`` argument: the emitter then
                    registers its listener hintless, which is ST003 one
                    constructor-frame removed -- the telemetry plane
                    silently forfeits idle fast-forward
=======  =========  ==========================================================

ST001 is structural (walks a built module tree); ST002/ST003/ST004 parse
the sources (AST only, no execution), reusing the determinism pass's
``# fastlint: ignore[STnnn]`` escape hatch.
"""

from __future__ import annotations

import ast
from typing import Dict, Optional, Sequence, Set

from repro.analysis.diagnostics import Report, Severity
from repro.analysis.suppress import (
    FileSuppressions,
    SourceChecker,
    SuppressionTracker,
)
from repro.timing.module import Module

_REGISTRATION_CALLS: Set[str] = {
    "new_counter",
    "new_gauge",
    "new_histogram",
    "register_stat",
}


# -- ST001: structural duplicate-name lint ----------------------------------


def lint_stat_registry(root: Module) -> Report:
    """Check the flattened statistics namespace of *root*'s subtree."""
    report = Report()
    seen_paths: Dict[str, str] = {}
    for path, module in root.walk_paths():
        if path in seen_paths:
            report.add(
                "ST001",
                Severity.ERROR,
                path,
                "two modules share the statistics path %r (types %s and "
                "%s): their streams merge silently" % (
                    path, seen_paths[path], type(module).__name__,
                ),
                hint="rename one sibling (see also TG003)",
            )
        else:
            seen_paths[path] = type(module).__name__
        overlap = sorted(set(module._counters) & set(module._stats))
        for name in overlap:
            report.add(
                "ST001",
                Severity.ERROR,
                "%s/%s" % (path, name),
                "typed stat %r shadows an ad hoc bump() counter of the "
                "same name on module %r" % (name, module.name),
                hint="rename the typed stat or migrate the counter to it",
            )
    return report


# -- ST002/ST003: AST lint ---------------------------------------------------


class _StatChecker(SourceChecker):
    error_rule = "ST000"

    def _check_pulse_emitter(self, node: ast.Call) -> None:
        # ST004: PulseEmitter(single_step=...) with anything but a
        # literal False.  single_step routes registration around the
        # idle-hint path, so it inherits ST003's single-stepping cost
        # without tripping ST003 (the hintless call lives inside the
        # constructor, behind the flag).
        for kw in node.keywords:
            if kw.arg != "single_step":
                continue
            value = kw.value
            if isinstance(value, ast.Constant) and not value.value:
                return
            certain = isinstance(value, ast.Constant)
            self._add(
                "ST004",
                Severity.WARNING,
                node,
                "PulseEmitter constructed with %s single_step: the "
                "emitter registers its cycle listener without an idle "
                "hint, pinning the compiled engine to single-stepping "
                "while telemetry is armed" % (
                    "a truthy" if certain else "a dynamic"
                ),
                hint="drop single_step (the cadence hint samples the "
                "same cycles) or suppress with "
                "# fastlint: ignore[ST004] where the single-stepping "
                "is deliberate diagnostics",
            )

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        callee = None
        if isinstance(func, ast.Name):
            callee = func.id
        elif isinstance(func, ast.Attribute):
            callee = func.attr
        if callee == "PulseEmitter":
            self._check_pulse_emitter(node)
        if isinstance(func, ast.Attribute):
            # ST002: registration outside construction.
            if (
                func.attr in _REGISTRATION_CALLS
                and not self._in_construction()
            ):
                where = (
                    "function %r" % self._function_stack[-1]
                    if self._function_stack
                    else "module level"
                )
                self._add(
                    "ST002",
                    Severity.WARNING,
                    node,
                    "%s() called in %s: stats must be registered during "
                    "construction so every fabric window observes the "
                    "same stream set" % (func.attr, where),
                    hint="move the registration into __init__ (or a "
                    "build*/new_* constructor helper)",
                )
            # ST003: bare cycle_listeners.append(...).
            if (
                func.attr == "append"
                and isinstance(func.value, ast.Attribute)
                and func.value.attr == "cycle_listeners"
            ):
                self._add(
                    "ST003",
                    Severity.WARNING,
                    node,
                    "per-cycle listener registered by appending directly "
                    "to cycle_listeners: no idle hint, so the compiled "
                    "engine single-steps for the whole run",
                    hint="use tm.add_cycle_listener(listener, "
                    "idle_hint=...) (see CompiledTriggerQuery)",
                )
            # ST003: add_cycle_listener without an idle hint.
            if func.attr == "add_cycle_listener":
                keywords = {kw.arg for kw in node.keywords}
                if "idle_hint" not in keywords and len(node.args) < 2:
                    self._add(
                        "ST003",
                        Severity.WARNING,
                        node,
                        "add_cycle_listener() without an idle_hint pins "
                        "the compiled engine to single-stepping while the "
                        "listener is subscribed",
                        hint="declare how many upcoming cycles the "
                        "listener ignores (unbounded is sound for probes "
                        "of module state; see "
                        "repro.observability.triggers)",
                    )
        self.generic_visit(node)


def lint_stat_source(source: str, filename: str = "<string>",
                     suppressions: Optional[FileSuppressions] = None) -> Report:
    """Run ST002/ST003 over one Python source string."""
    return _StatChecker.lint_source(source, filename, suppressions)


def lint_stat_sources(
    paths: Optional[Sequence[str]] = None,
    tracker: Optional[SuppressionTracker] = None,
) -> Report:
    """ST002/ST003 over Python files/directories; defaults to the
    installed ``repro`` package sources."""
    return _StatChecker.lint_paths(paths, tracker)
