"""FastLint pass 3: nondeterminism hazards in modelled-time code.

The central FAST correctness property is that the same timing model
driven three ways reports *identical* target cycle counts; any
nondeterminism in a modelled-time path silently breaks that
equivalence.  This pass parses the simulator sources (AST only -- no
imports, no execution) and flags the hazards that have historically
caused irreproducible cycle counts:

=======  =========  ==========================================================
rule id  severity   meaning
=======  =========  ==========================================================
DT001    warning    iteration directly over a ``set``/``frozenset`` value:
                    order varies across processes (hash randomization), so
                    any cycle-count decision fed by it is irreproducible
DT002    error      wall-clock reads (``time.time`` & friends): modelled
                    time must never depend on host time
DT003    error      module-level ``random.*`` calls or an unseeded
                    ``random.Random()``: global RNG state is shared and
                    unseeded; use ``random.Random(seed)``
DT004    warning    ``==``/``!=`` between a float literal and a
                    modelled-time quantity (cycle/time/latency/... names):
                    exact float comparison is representation-dependent
=======  =========  ==========================================================

A finding is suppressed by a ``# fastlint: ignore[DTnnn]`` comment on
the offending line (the explicit escape hatch for audited code; rule
lists and usage tracking live in :mod:`repro.analysis.suppress`).
"""

from __future__ import annotations

import ast
from typing import Optional, Sequence, Tuple

from repro.analysis.diagnostics import Report, Severity
from repro.analysis.suppress import (
    FileSuppressions,
    SourceChecker,
    SuppressionTracker,
)

_WALLCLOCK_TIME_FNS = frozenset(
    {"time", "time_ns", "perf_counter", "perf_counter_ns",
     "monotonic", "monotonic_ns", "clock"}
)
_RANDOM_MODULE_FNS = frozenset(
    {"random", "randint", "randrange", "choice", "choices", "shuffle",
     "sample", "uniform", "gauss", "betavariate", "expovariate",
     "getrandbits", "seed"}
)
_TIMEY_TOKENS = frozenset(
    {"cycle", "cycles", "time", "latency", "latencies", "mips",
     "seconds", "secs", "ns", "us", "ms", "hz", "mhz", "ghz"}
)


def _name_tokens(node: ast.AST) -> Tuple[str, ...]:
    """Identifier tokens of a Name/Attribute operand, split on ``_``."""
    if isinstance(node, ast.Name):
        return tuple(node.id.lower().split("_"))
    if isinstance(node, ast.Attribute):
        return tuple(node.attr.lower().split("_"))
    return ()


def _is_float_literal(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return True
    # A negated float literal (-1.0) parses as UnaryOp(USub, Constant).
    return (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, (ast.USub, ast.UAdd))
        and _is_float_literal(node.operand)
    )


class _Checker(SourceChecker):
    error_rule = "DT000"

    def __init__(self, filename: str, source_lines: Sequence[str],
                 suppressions: Optional[FileSuppressions] = None):
        super().__init__(filename, source_lines, suppressions)
        # Names bound by "from time import perf_counter" style imports.
        self._time_aliases: set = set()
        self._random_aliases: set = set()

    # -- imports ---------------------------------------------------------

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "time":
            for alias in node.names:
                if alias.name in _WALLCLOCK_TIME_FNS:
                    self._time_aliases.add(alias.asname or alias.name)
        if node.module == "random":
            for alias in node.names:
                if alias.name in _RANDOM_MODULE_FNS:
                    self._random_aliases.add(alias.asname or alias.name)
        self.generic_visit(node)

    # -- alias assignments -------------------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        """Track ``perf = time.perf_counter`` style local aliases so the
        later ``perf()`` calls are still recognized as wall-clock reads
        (aliasing must not launder a DT002/DT003 hazard)."""
        value = node.value
        alias_pool = None
        if isinstance(value, ast.Attribute) and isinstance(
            value.value, ast.Name
        ):
            module, attr = value.value.id, value.attr
            if module == "time" and attr in _WALLCLOCK_TIME_FNS:
                alias_pool = self._time_aliases
            elif module == "random" and attr in _RANDOM_MODULE_FNS:
                alias_pool = self._random_aliases
        elif isinstance(value, ast.Name):
            if value.id in self._time_aliases:
                alias_pool = self._time_aliases
            elif value.id in self._random_aliases:
                alias_pool = self._random_aliases
        if alias_pool is not None:
            for target in node.targets:
                if isinstance(target, ast.Name):
                    alias_pool.add(target.id)
        self.generic_visit(node)

    # -- DT001: unordered iteration --------------------------------------

    def _check_iterable(self, iter_node: ast.AST) -> None:
        unordered = isinstance(iter_node, (ast.Set, ast.SetComp))
        if (
            isinstance(iter_node, ast.Call)
            and isinstance(iter_node.func, ast.Name)
            and iter_node.func.id in ("set", "frozenset")
        ):
            unordered = True
        if unordered:
            self._add(
                "DT001",
                Severity.WARNING,
                iter_node,
                "iteration over an unordered set: order varies across "
                "processes under hash randomization",
                hint="iterate over sorted(...) or an ordered container",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iterable(node.iter)
        self.generic_visit(node)

    def _visit_comprehension(self, node) -> None:
        for generator in node.generators:
            self._check_iterable(generator.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    # -- DT002 / DT003: wall clock and global RNG -------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            module, attr = func.value.id, func.attr
            if module == "time" and attr in _WALLCLOCK_TIME_FNS:
                self._add(
                    "DT002",
                    Severity.ERROR,
                    node,
                    "wall-clock read time.%s(): modelled time must not "
                    "depend on host time" % attr,
                    hint="derive timestamps from target cycles, or take the "
                    "clock as an injected parameter",
                )
            elif module == "datetime" and attr in ("now", "today", "utcnow"):
                self._add(
                    "DT002",
                    Severity.ERROR,
                    node,
                    "wall-clock read datetime.%s()" % attr,
                    hint="derive timestamps from target cycles",
                )
            elif module == "random" and attr in _RANDOM_MODULE_FNS:
                self._add(
                    "DT003",
                    Severity.ERROR,
                    node,
                    "module-level random.%s() uses shared, unseeded global "
                    "RNG state" % attr,
                    hint="use a random.Random(seed) instance",
                )
            elif module == "random" and attr == "Random" and not node.args:
                self._add(
                    "DT003",
                    Severity.ERROR,
                    node,
                    "random.Random() without a seed argument is "
                    "nondeterministic across runs",
                    hint="pass an explicit seed",
                )
        elif isinstance(func, ast.Name):
            if func.id in self._time_aliases:
                self._add(
                    "DT002",
                    Severity.ERROR,
                    node,
                    "wall-clock read %s() (imported from time)" % func.id,
                    hint="derive timestamps from target cycles",
                )
            elif func.id in self._random_aliases:
                self._add(
                    "DT003",
                    Severity.ERROR,
                    node,
                    "%s() (imported from random) uses shared, unseeded "
                    "global RNG state" % func.id,
                    hint="use a random.Random(seed) instance",
                )
        self.generic_visit(node)

    # -- DT004: float equality on modelled-time names ---------------------

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left] + list(node.comparators)
        eq_ops = any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
        if eq_ops and any(_is_float_literal(o) for o in operands):
            for operand in operands:
                tokens = _name_tokens(operand)
                if any(token in _TIMEY_TOKENS for token in tokens):
                    self._add(
                        "DT004",
                        Severity.WARNING,
                        node,
                        "exact float comparison on modelled-time quantity "
                        "%r" % "_".join(tokens),
                        hint="compare integers (cycle counts) or use an "
                        "explicit tolerance",
                    )
                    break
        self.generic_visit(node)


def lint_source(source: str, filename: str = "<string>",
                suppressions: Optional[FileSuppressions] = None) -> Report:
    """Lint one Python source string; *filename* labels diagnostics."""
    return _Checker.lint_source(source, filename, suppressions)


def lint_determinism(
    paths: Optional[Sequence[str]] = None,
    tracker: Optional[SuppressionTracker] = None,
) -> Report:
    """Lint Python files/directories; defaults to the installed
    ``repro`` package sources.  *tracker*, when given, shares ignore
    usage with the other AST passes (unused-ignore rule IG001)."""
    return _Checker.lint_paths(paths, tracker)
