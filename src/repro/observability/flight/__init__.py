"""FastFlight: persistent run artifacts and offline trace analytics.

FastScope (PR 3) made a running simulator observable; FastFlight makes
finished runs *durable and comparable*.  The paper's evaluation is
post-run analysis -- attributing lost cycles to rollbacks, interrupts
and trace-buffer starvation (section 6) -- and that analysis needs runs
that survive the process that produced them:

* :mod:`repro.observability.flight.artifact` -- content-addressed,
  self-describing ``results/runs/<id>/`` directories holding the run
  manifest, the final stats snapshot, the fabric window series, the
  seam event trace and (optionally) the tick-time profile;
* :mod:`repro.observability.flight.columns` -- a small columnar table
  the offline queries run over (no external dependencies);
* :mod:`repro.observability.flight.analytics` -- the offline query
  engine: seam-cost attribution, per-window IPC/occupancy timelines,
  collapsed-stack flame-graph export from TickProfiler samples;
* :mod:`repro.observability.flight.regression` -- cross-run diffing
  with noise bands and event-stream bisection to the first diverging
  event when two supposedly deterministic runs disagree;
* :mod:`repro.observability.flight.capsule` -- time-travel debug
  capsules: content-addressed captures of a re-executed window around
  an invariant violation or watchpoint (FastWatch), with cycle-by-cycle
  diffing and first-divergence search.

Exposed on the command line as ``python -m repro report`` and
``python -m repro debug``.
"""

from repro.observability.flight.analytics import (
    events_table,
    flame_stacks,
    seam_attribution,
    window_timeline,
)
from repro.observability.flight.artifact import (
    RunArtifact,
    emit_artifact,
    list_artifacts,
    load_artifact,
)
from repro.observability.flight.capsule import (
    CapsuleArtifact,
    diff_capsules,
    emit_capsule,
    find_capsules,
    list_capsules,
    load_capsule,
)
from repro.observability.flight.columns import ColumnTable
from repro.observability.flight.regression import (
    Divergence,
    RegressionReport,
    bisect_divergence,
    compare_runs,
)

__all__ = [
    "CapsuleArtifact",
    "ColumnTable",
    "Divergence",
    "RegressionReport",
    "RunArtifact",
    "bisect_divergence",
    "compare_runs",
    "diff_capsules",
    "emit_artifact",
    "emit_capsule",
    "events_table",
    "find_capsules",
    "flame_stacks",
    "list_artifacts",
    "list_capsules",
    "load_artifact",
    "load_capsule",
    "seam_attribution",
    "window_timeline",
]
