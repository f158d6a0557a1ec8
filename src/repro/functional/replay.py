"""Deterministic window re-execution for time-travel debugging.

The FAST coupling is deterministic end to end: a same-seed run visits
bit-identical architectural and microarchitectural state on every
target cycle, on either tick engine.  That turns any recorded cycle
number -- an invariant violation, a trigger firing, a first-diverging
event from regression bisection -- into an *address* we can travel back
to: rebuild the identical simulator from a zero-argument factory, fast-
forward to the window start, then single-step through ``[C-delta,
C+delta]`` with maximum-detail capture.

The fast-forward leg reuses the production run loop (idle spans
batched, superblocks replayed); inside the window every cycle is
stepped individually so per-tick rows can be captured.  Single-stepped
cycles are bit-identical to fast-forwarded ones -- the same property
the engine-equivalence tests pin -- so the capture itself never
perturbs what it observes.  Intra-window mis-speculation is handled by
the same ``set_pc``/:meth:`FunctionalModel.rollback_to` checkpoint
machinery (:meth:`CheckpointManager.checkpoint_for` picks the leapfrog
checkpoint) that the original run used: re-execution replays those
excursions exactly rather than reconstructing them.

Capture per tick:

* an architectural fingerprint of the FM (pc, registers, flags,
  in-flight instruction count),
* microarchitectural occupancies (ROB / RS / LSQ / trace buffer),
* every typed FastScope stat that changed this tick,
* the seam events of the tick (unbounded :class:`EventTracer`), and
* (compiled engine only) TickProfiler rows for the whole window.

Everything except the profiler rows is target-deterministic, which is
what lets the debug-capsule layer content-address the capture.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.observability.events import attach_tracer

# Capture windows are small (tens to hundreds of cycles); this holds
# every event a window can plausibly produce, i.e. the tracer is
# effectively unbounded.
WINDOW_TRACER_CAPACITY = 1 << 20

DEFAULT_DELTA = 64


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode("ascii")).hexdigest()[:16]


@dataclass
class WindowCapture:
    """Everything one re-executed window produced."""

    center: int
    delta: int
    start_cycle: int
    end_cycle: int  # last captured cycle (inclusive)
    engine: str
    rows: List[dict] = field(default_factory=list)
    events: List[dict] = field(default_factory=list)
    baseline: Dict[str, float] = field(default_factory=dict)
    profile: Optional[dict] = None
    finished_early: bool = False

    def contains(self, cycle: int) -> bool:
        return self.start_cycle <= cycle <= self.end_cycle

    def summary(self) -> dict:
        """Target-deterministic description of the capture (the part
        of the capsule identity derived from the window itself)."""
        return {
            "center": self.center,
            "delta": self.delta,
            "start": self.start_cycle,
            "end": self.end_cycle,
            "rows": len(self.rows),
            "events": len(self.events),
            "finished_early": self.finished_early,
        }


def _collect_stats(roots) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for root in roots:
        out.update(
            (path, stat.value()) for path, stat in root.all_stats().items()
        )
    return out


def _tick_row(sim, prev_stats: Dict[str, float]) -> dict:
    """One per-tick capture row.  Every field is target-deterministic
    and engine-independent (both engines visit identical state)."""
    tm = sim.tm
    fm = sim.fm
    state = fm.state
    backend = tm.backend
    stats_now = _collect_stats((tm, sim.feed))
    changed = {
        path: value
        for path, value in stats_now.items()
        if value != prev_stats.get(path)
    }
    prev_stats.clear()
    prev_stats.update(stats_now)
    return {
        "cycle": tm.cycle,
        "pc": state.pc,
        "in_count": fm.in_count,
        "halted": bool(state.halted),
        "flags": state.flags,
        "regs": list(state.regs),
        "fregs_digest": _digest(tuple(state.fregs)),
        "srs_digest": _digest(tuple(state.srs)),
        "rob": len(backend.rob),
        "rs": len(backend.rs),
        "lsq": len(backend.lsq),
        "tb": fm.in_count - sim.feed._last_committed,
        "buffered": len(sim.feed.entries),
        "committed": backend.committed_instructions,
        "checkpoints": len(fm.ckpt),
        "stats": changed,
    }


def replay_window(
    factory: Callable[[], object],
    center: int,
    delta: int = DEFAULT_DELTA,
    profile: bool = True,
) -> WindowCapture:
    """Re-execute ``[center-delta, center+delta]`` on a fresh simulator
    built by the zero-argument *factory*, capturing per-tick detail.

    The factory must reconstruct the run whose cycle numbering *center*
    came from (same workload, same configuration) -- determinism does
    the rest.  Returns a :class:`WindowCapture`; ``finished_early`` is
    set when the workload completed before ``center+delta``.
    """
    if center < 0:
        raise ValueError("window center must be >= 0")
    if delta < 1:
        raise ValueError("window delta must be >= 1")
    sim = factory()
    tm = sim.tm
    start = max(1, center - delta)  # cycle numbering starts at 1
    end = center + delta

    # Fast-forward to just before the window with the production run
    # loop (idle spans batched); the tracer is attached only
    # afterwards, so the capture holds exactly the window's events.
    if start > 1:
        tm.run(max_cycles=start - 1)
    tracer = attach_tracer(sim, capacity=WINDOW_TRACER_CAPACITY)

    profiler = None
    if profile and tm.config.engine == "compiled":
        from repro.observability.profiler import TickProfiler

        profiler = TickProfiler(tm).install()

    capture = WindowCapture(
        center=center,
        delta=delta,
        start_cycle=tm.cycle,
        end_cycle=tm.cycle,
        engine=tm.config.engine,
        baseline=_collect_stats((tm, sim.feed)),
    )
    prev = dict(capture.baseline)
    # The fast-forward stopped at cycle start-1, so the first captured
    # tick is exactly the window start.
    while tm.cycle < end:
        if sim.feed.finished and tm.drained:
            capture.finished_early = True
            break
        tm.tick()
        capture.rows.append(_tick_row(sim, prev))
    capture.end_cycle = tm.cycle
    if capture.rows:
        capture.start_cycle = capture.rows[0]["cycle"]
    else:
        capture.start_cycle = tm.cycle
        capture.finished_early = True

    if profiler is not None:
        capture.profile = profiler.report()
        profiler.uninstall()
    capture.events = [event.to_dict() for event in tracer.events]
    return capture
