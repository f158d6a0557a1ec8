"""Host wall-time attribution for the compiled tick engine.

The compiled schedule (PR 2) made the engine fast and opaque at once:
`CompiledSchedule.run` is one fused loop over pre-bound step callables,
so nothing tells you *where* host time goes.  :class:`TickProfiler`
re-opens the box without giving up the static schedule: it rewrites the
schedule's step tuple in place, wrapping every step with a
perf_counter bracket keyed by the module's schedule path, and wraps the
generated pipeline stage closures (fetch/decode and
writeback/commit/issue/dispatch) the same way: it binds the front and
back ends' steps afresh with each stage closure bracketed
(:func:`repro.timing.pipeline.fastpath.bind_stages`), without any change
to the pipeline code.

Instance-attribute shadowing brackets the *functional* side of the busy
path -- the trace-buffer span fill and FastBlock superblock
capture/replay -- so a profile can split host time between "the TM
ticking" and "the FM streaming the trace", and show how much of the
stream was replayed rather than interpreted (``repro report``'s
busy-path explanation).

Install **before** ``run()``: the run loop hoists ``self._steps`` into
a local once at entry, so a mid-run install would never be observed.

Profiling is read-only with respect to the simulation (each wrapper
calls its wrapped step exactly once, with the same arguments), so
``TimingStats`` stay bit-identical.  It is *not* free in host time --
two clock reads per step per cycle -- which is why it is opt-in
(``--profile``) and excluded from the overhead acceptance bar.

This file reads the host clock on purpose -- it *measures* the
simulator rather than simulating -- so the DT002 wall-clock rule is
suppressed line by line.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.timing.pipeline.fastpath import bind_stages

# Modules whose generated stage closures are bracketed per call.
STAGE_OWNERS: Tuple[str, ...] = ("frontend", "backend")


class TickProfiler:
    """Attributes host wall-time per scheduled module and per pipeline
    stage, over one compiled-engine run."""

    def __init__(self, tm):
        schedule = getattr(tm, "_schedule", None)
        if schedule is None:
            raise RuntimeError(
                "TickProfiler requires the compiled engine "
                "(TimingConfig(engine='compiled'))"
            )
        self.tm = tm
        self.schedule = schedule
        self.module_seconds: Dict[str, float] = {}
        self.module_calls: Dict[str, int] = {}
        self.stage_seconds: Dict[str, float] = {}
        self.stage_calls: Dict[str, int] = {}
        # Functional-side busy path: feed span fill, superblock work.
        self.fm_seconds: Dict[str, float] = {}
        self.fm_calls: Dict[str, int] = {}
        self._orig_steps: Optional[tuple] = None
        self._orig_stages: List[Tuple[object, str]] = []
        self.installed = False

    # -- wrapping --------------------------------------------------------

    def _wrap_step(self, path: str,
                   step: Callable[[int], None]) -> Callable[[int], None]:
        seconds = self.module_seconds
        calls = self.module_calls
        perf = time.perf_counter

        def profiled_step(cycle: int) -> None:
            t0 = perf()  # fastlint: ignore[DT002]
            step(cycle)
            seconds[path] += perf() - t0  # fastlint: ignore[DT002]
            calls[path] += 1

        return profiled_step

    def _wrap_stage(self, label: str, method: Callable,
                    seconds: Optional[Dict[str, float]] = None,
                    calls: Optional[Dict[str, int]] = None) -> Callable:
        seconds = self.stage_seconds if seconds is None else seconds
        calls = self.stage_calls if calls is None else calls
        perf = time.perf_counter

        def profiled_stage(*args):
            t0 = perf()  # fastlint: ignore[DT002]
            result = method(*args)
            seconds[label] += perf() - t0  # fastlint: ignore[DT002]
            calls[label] += 1
            return result

        return profiled_stage

    def install(self) -> "TickProfiler":
        if self.installed:
            return self
        for path in self.schedule.describe():
            self.module_seconds[path] = 0.0
            self.module_calls[path] = 0
        # Functional-side brackets: the span fill that streams the
        # trace, and FastBlock capture/replay inside it, by instance
        # shadowing.  Fetch hoists the feed's refill when its stage is
        # bound, so they go in before the stages are re-bound below.
        feed = getattr(self.tm, "feed", None)
        fm_targets: List[Tuple[object, str, str]] = []
        if feed is not None and hasattr(feed, "refill"):
            fm_targets.append((feed, "refill", "feed.fill"))
        blocks = getattr(getattr(feed, "fm", None), "blocks", None)
        if blocks is not None:
            fm_targets.append((blocks, "_capture", "blocks.capture"))
            fm_targets.append((blocks, "_replay", "blocks.replay"))
        for owner, name, label in fm_targets:
            self.fm_seconds[label] = 0.0
            self.fm_calls[label] = 0
            setattr(
                owner,
                name,
                self._wrap_stage(label, getattr(owner, name),
                                 self.fm_seconds, self.fm_calls),
            )
            self._orig_stages.append((owner, name))
        paths = {id(module): path for path, module in self.schedule.unit_order}
        rebound: Dict[str, Callable[[int], None]] = {}
        for owner_attr in STAGE_OWNERS:
            owner = getattr(self.tm, owner_attr)

            def wrap(name, stage, owner_attr=owner_attr):
                label = "%s.%s" % (owner_attr, name.lstrip("_"))
                self.stage_seconds[label] = 0.0
                self.stage_calls[label] = 0
                return self._wrap_stage(label, stage)

            rebound[paths[id(owner)]] = bind_stages(owner, wrap)
        self._orig_steps = self.schedule.instrument_steps(
            lambda path, step: self._wrap_step(path, rebound.get(path, step))
        )
        self.installed = True
        return self

    def uninstall(self) -> None:
        if not self.installed:
            return
        self.schedule._steps = self._orig_steps
        for owner, name in self._orig_stages:
            delattr(owner, name)  # fall back to the class method
        self._orig_stages = []
        self.installed = False

    # -- reporting -------------------------------------------------------

    def report(self) -> dict:
        total = sum(self.module_seconds.values())
        modules = [
            {
                "path": path,
                "seconds": round(self.module_seconds[path], 6),
                "calls": self.module_calls[path],
                "share": round(self.module_seconds[path] / total, 4)
                if total
                else 0.0,
            }
            for path in sorted(
                self.module_seconds,
                key=lambda p: -self.module_seconds[p],
            )
        ]
        stages = [
            {
                "stage": label,
                "seconds": round(self.stage_seconds[label], 6),
                "calls": self.stage_calls[label],
            }
            for label in sorted(
                self.stage_seconds,
                key=lambda s: -self.stage_seconds[s],
            )
        ]
        functional = [
            {
                "label": label,
                "seconds": round(self.fm_seconds[label], 6),
                "calls": self.fm_calls[label],
            }
            for label in sorted(
                self.fm_seconds,
                key=lambda s: -self.fm_seconds[s],
            )
        ]
        return {
            "engine_seconds": round(total, 6),
            "modules": modules,
            "stages": stages,
            "functional": functional,
        }

    def render(self) -> str:
        report = self.report()
        lines = [
            "tick-time profile (host seconds inside the compiled schedule)",
            "%-40s %10s %12s %7s" % ("module", "seconds", "calls", "share"),
        ]
        for row in report["modules"]:
            lines.append(
                "%-40s %10.4f %12d %6.1f%%"
                % (row["path"], row["seconds"], row["calls"],
                   100 * row["share"])
            )
        lines.append("")
        lines.append("%-40s %10s %12s" % ("pipeline stage", "seconds",
                                          "calls"))
        for row in report["stages"]:
            lines.append(
                "%-40s %10.4f %12d"
                % (row["stage"], row["seconds"], row["calls"])
            )
        if report["functional"]:
            lines.append("")
            lines.append("%-40s %10s %12s"
                         % ("functional busy path", "seconds", "calls"))
            for row in report["functional"]:
                lines.append(
                    "%-40s %10.4f %12d"
                    % (row["label"], row["seconds"], row["calls"])
                )
        return "\n".join(lines)
