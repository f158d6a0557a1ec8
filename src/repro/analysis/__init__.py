"""FastLint: static verification for the FAST reproduction.

The paper's timing model is written in Bluespec, whose compiler rejects
malformed hardware -- dangling FIFOs, combinational loops -- before
synthesis.  This package is the Python equivalent for our
Module/Connector timing models, plus checks Bluespec could not give
the paper: a microcode/ISA def-use cross-check (hardening the Table 1
coverage story) and AST lints for nondeterminism hazards, statistics
and invariant registration in modelled-time code.

Five passes, one diagnostic model:

* :func:`lint_timing_graph` -- structural rules over the extracted
  dataflow graph (:mod:`repro.analysis.graph`), rules ``TG001-TG006``;
* :func:`lint_microcode` -- microcode table vs. ISA opcode table,
  rules ``MC001-MC005``;
* :func:`lint_determinism` -- AST scan of simulator sources, rules
  ``DT001-DT004``;
* :func:`lint_stat_registry` / stat-source lint -- statistics fabric,
  rules ``ST001-ST003``;
* :mod:`repro.analysis.watch_rules` -- invariant fabric, rules
  ``IV001-IV002`` (plus ``IG001`` for unused ``# fastlint: ignore``
  escapes when every AST pass runs).

``python -m repro lint`` runs all five against the default targets.
The extracted :class:`~repro.analysis.graph.TimingGraph` is also the
substrate of the compiled tick engine's static schedule
(:mod:`repro.timing.schedule`).

The package resolves its exports on first use (PEP 562), so importing
one submodule -- the compiled engine imports only
:mod:`repro.analysis.graph` -- loads no lint pass.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING

# Export -> the submodule that defines it.
_EXPORTS = {
    "Diagnostic": "diagnostics",
    "Edge": "graph",
    "Report": "diagnostics",
    "Severity": "diagnostics",
    "SuppressionTracker": "suppress",
    "TimingGraph": "graph",
    "extract_graph": "graph",
    "lint_determinism": "determinism",
    "lint_microcode": "microcode_rules",
    "lint_source": "determinism",
    "lint_stat_registry": "stat_rules",
    "lint_timing_graph": "timing_rules",
}

__all__ = [
    "Diagnostic",
    "Edge",
    "Report",
    "Severity",
    "SuppressionTracker",
    "TimingGraph",
    "extract_graph",
    "lint_determinism",
    "lint_microcode",
    "lint_source",
    "lint_stat_registry",
    "lint_timing_graph",
]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module(__name__ + "." + module), name)
    globals()[name] = value
    return value


if TYPE_CHECKING:
    from repro.analysis.determinism import lint_determinism, lint_source
    from repro.analysis.diagnostics import Diagnostic, Report, Severity
    from repro.analysis.graph import Edge, TimingGraph, extract_graph
    from repro.analysis.microcode_rules import lint_microcode
    from repro.analysis.stat_rules import lint_stat_registry
    from repro.analysis.suppress import SuppressionTracker
    from repro.analysis.timing_rules import lint_timing_graph
