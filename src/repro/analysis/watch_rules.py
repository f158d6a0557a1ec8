"""FastLint pass 6: invariant-fabric rules (the IV family).

The FastWatch monitor (:mod:`repro.observability.watch`) makes the same
standing assumptions about invariants that the stats fabric makes about
statistics, plus one of its own -- checks must be pure:

=======  =========  ==========================================================
rule id  severity   meaning
=======  =========  ==========================================================
IV001    warning    invariant registration (``new_invariant``/
                    ``register_invariant``) outside ``__init__``/
                    construction: the monitor compiles the invariant set
                    when it arms, so an invariant registered mid-run is
                    never checked (mirror of ST002)
IV002    error      invariant ``check`` closure with side effects -- an
                    attribute assignment, augmented assignment, ``del``,
                    ``setattr`` or a mutating container/stat call
                    (``append``/``pop``/``bump``/``observe``/...) in the
                    lambda body or the referenced same-class method.  The
                    monitor runs checks on every executed cycle of both
                    engines; an impure check perturbs the run and breaks
                    the determinism contract (the effect families FastPart
                    charges as writes)
IV003    warning    always-on invariant declared without an idle hint:
                    the monitor must then register its cycle listener
                    hintless, which pins the compiled engine to
                    single-stepping and blows the <= 1.10x observability
                    budget (mirror of ST003)
=======  =========  ==========================================================

AST only, no execution; shares the ``# fastlint: ignore[IVnnn]`` escape
machinery with the other source passes.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.diagnostics import Report, Severity
from repro.analysis.suppress import (
    FileSuppressions,
    SourceChecker,
    SuppressionTracker,
)

_REGISTRATION_CALLS: Set[str] = {"new_invariant", "register_invariant"}

# Method names that mutate their receiver: container mutators plus the
# fabric/tracer write APIs.  Anything here inside a check closure is a
# side effect on simulation or observability state.
_MUTATING_CALLS: Set[str] = {
    "add",
    "append",
    "appendleft",
    "bump",
    "clear",
    "discard",
    "emit",
    "extend",
    "insert",
    "observe",
    "pop",
    "popleft",
    "push",
    "release",
    "remove",
    "set",
    "setdefault",
    "take",
    "update",
    "write",
}


def _mutations(node: ast.AST) -> List[Tuple[int, str]]:
    """``(lineno, description)`` for every side effect in *node*'s body.

    Local-name assignments are fine (they die with the call frame);
    anything that stores through an attribute or subscript, deletes
    state, or calls a known mutator is charged.
    """
    found: List[Tuple[int, str]] = []

    def _stored_target(target: ast.AST) -> Optional[str]:
        if isinstance(target, ast.Attribute):
            return "assignment to attribute %r" % target.attr
        if isinstance(target, ast.Subscript):
            return "subscript assignment"
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                nested = _stored_target(element)
                if nested:
                    return nested
        return None

    for sub in ast.walk(node):
        if isinstance(sub, ast.Assign):
            for target in sub.targets:
                desc = _stored_target(target)
                if desc:
                    found.append((sub.lineno, desc))
        elif isinstance(sub, (ast.AugAssign, ast.AnnAssign)):
            desc = _stored_target(sub.target)
            if desc and not (
                isinstance(sub, ast.AnnAssign) and sub.value is None
            ):
                found.append((sub.lineno, desc))
        elif isinstance(sub, ast.Delete):
            for target in sub.targets:
                desc = _stored_target(target)
                if desc:
                    found.append((sub.lineno, "del through " + desc))
        elif isinstance(sub, ast.Call):
            func = sub.func
            if isinstance(func, ast.Attribute) and \
                    func.attr in _MUTATING_CALLS:
                found.append(
                    (sub.lineno, "call to mutating method %r" % func.attr)
                )
            elif isinstance(func, ast.Name) and \
                    func.id in ("setattr", "delattr"):
                found.append((sub.lineno, "call to %r" % func.id))
    return found


class _WatchChecker(SourceChecker):
    error_rule = "IV000"

    def __init__(self, filename: str, source_lines: Sequence[str],
                 suppressions: Optional[FileSuppressions] = None):
        super().__init__(filename, source_lines, suppressions)
        # Innermost enclosing class's method name -> FunctionDef, so a
        # ``check=self._method`` reference can be resolved statically.
        self._class_methods: List[Dict[str, ast.AST]] = []

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        methods: Dict[str, ast.AST] = {}
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                methods[stmt.name] = stmt
        self._class_methods.append(methods)
        self.generic_visit(node)
        self._class_methods.pop()

    def _check_body(self, check: ast.AST) -> Optional[ast.AST]:
        """The AST whose body IV002 inspects: the lambda itself, or the
        same-class method a ``self._name`` / bare-name reference
        resolves to.  None when the check is not statically visible."""
        if isinstance(check, ast.Lambda):
            return check
        name = None
        if isinstance(check, ast.Attribute) and \
                isinstance(check.value, ast.Name) and \
                check.value.id == "self":
            name = check.attr
        elif isinstance(check, ast.Name):
            name = check.id
        if name and self._class_methods:
            return self._class_methods[-1].get(name)
        return None

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and \
                func.attr in _REGISTRATION_CALLS:
            keywords = {kw.arg: kw.value for kw in node.keywords}
            # IV001: registration outside construction.
            if not self._in_construction():
                where = (
                    "function %r" % self._function_stack[-1]
                    if self._function_stack
                    else "module level"
                )
                self._add(
                    "IV001",
                    Severity.WARNING,
                    node,
                    "%s() called in %s: invariants must be registered "
                    "during construction so the monitor's compiled set "
                    "is complete when it arms" % (func.attr, where),
                    hint="move the registration into __init__ (or a "
                    "build*/new_* constructor helper)",
                )
            # IV002: impure check closure.
            check = keywords.get("check")
            if check is None and func.attr == "new_invariant" and \
                    len(node.args) >= 2:
                check = node.args[1]
            body = self._check_body(check) if check is not None else None
            if body is not None:
                for line_no, desc in _mutations(body):
                    self._add(
                        "IV002",
                        Severity.ERROR,
                        check,
                        "invariant check closure has a side effect "
                        "(%s at line %d): checks run on every executed "
                        "cycle of both engines and must not perturb the "
                        "run" % (desc, line_no),
                        hint="make the check a pure predicate over "
                        "module state; record/probe values through the "
                        "invariant's probe= instead",
                    )
            # IV003: hintless always-on invariant.
            hint_value = keywords.get("hint")
            hintless = "hint" not in keywords or (
                isinstance(hint_value, ast.Constant)
                and hint_value.value is None
            )
            if func.attr == "new_invariant" and hintless:
                self._add(
                    "IV003",
                    Severity.WARNING,
                    node,
                    "new_invariant() without an idle hint: arming this "
                    "invariant registers the monitor's cycle listener "
                    "hintless, pinning the compiled engine to "
                    "single-stepping for the whole run",
                    hint="declare hint=\"idle-stable\" for structural "
                    "bounds (idle cycles advance no pipeline state), or "
                    "an explicit cycle bound / callable",
                )
        self.generic_visit(node)


def lint_watch_source(source: str, filename: str = "<string>",
                      suppressions: Optional[FileSuppressions] = None,
                      ) -> Report:
    """Run IV001-IV003 over one Python source string."""
    return _WatchChecker.lint_source(source, filename, suppressions)


def lint_watch_sources(
    paths: Optional[Sequence[str]] = None,
    tracker: Optional[SuppressionTracker] = None,
) -> Report:
    """IV001-IV003 over Python files/directories; defaults to the
    installed ``repro`` package sources."""
    return _WatchChecker.lint_paths(paths, tracker)
