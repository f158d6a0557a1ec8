"""Span recording for the traced run (imported by the traced worker only).

:func:`install` wraps each layer's public entry points in timers that
record host seconds per span name, with *self time*: a span's duration
minus the part covered by the spans it calls.  Self times of all spans
therefore add up to the time spent inside the outermost ones.

Entry points that the compiled engine binds at construction (the stage
steps from ``bind_tick``, ``Connector.tick``, the feed and cache
methods the fused steps hoist) are wrapped on their classes, so
:func:`install` must run before the simulator is built.  Observer
listeners are wrapped as they subscribe, so the observers must be
armed after :func:`install`.

Span names and the layer each belongs to:

======================  =============================================
``run``                 ``FastSimulator.run``: its self time is the
                        engine loop residual
``tm.connectors``       ``Connector.tick``
``tm.frontend``         the front-end step from ``Frontend.bind_tick``
``tm.backend``          the back-end step from ``Backend.bind_tick``
``tm.cache``            ``CacheHierarchy.access_instr/access_data``
``tm.bpred``            ``GsharePredictor.predict/update/record_outcome``
``feed``                ``TraceBufferFeed.peek/consume/commit/
                        interrupt_delivery``
``feed.wrong_path``     ``TraceBufferFeed.force_wrong_path/
                        resolve_wrong_path``
``engine.idle_tick``    ``TraceBufferFeed.idle_tick`` (one idle cycle)
``engine.ff``           ``TraceBufferFeed.idle_ticks`` (one batched
                        idle span)
``engine.horizon``      ``TraceBufferFeed.idle_horizon``
``fm.fill``             ``FunctionalModel.execute_into/execute_next``
``fm.sb_replay``        ``SuperblockCache.step``
``fm.rollback``         ``FunctionalModel.set_pc/deliver_interrupt``
``obs``                 cycle listeners and their idle hints
                        (``TimingModel.add_cycle_listener``) and
                        ``EventTracer.emit``
``setup.image``         ``build_os_image`` inside ``from_programs``
``setup.system``        ``FastSimulator.from_programs``
``setup.tm_build``      ``FastSimulator.__init__`` (feed, timing
                        model, schedule compile)
======================  =============================================

The worker times its own calls to the workload builder, the observer
arming and the artifact write as ``setup.workload``, ``setup.arm`` and
``flight.artifact`` through :meth:`Spans.wrap`.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Dict, List


class Spans:
    """Per-name self seconds, total seconds and call counts."""

    def __init__(self) -> None:
        # name -> [self seconds, total seconds, calls]
        self.cells: Dict[str, List[float]] = {}
        # One child-time accumulator per open span; the bottom entry
        # collects the time of outermost spans.
        self._stack: List[float] = [0.0]

    def _cell(self, name: str) -> List[float]:
        cell = self.cells.get(name)
        if cell is None:
            cell = self.cells[name] = [0.0, 0.0, 0]
        return cell

    def wrap(self, name: str, fn: Callable) -> Callable:
        """*fn* timed as span *name*."""
        cell = self._cell(name)
        stack = self._stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = perf()
            stack.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                child = stack.pop()
                stack[-1] += dt
                cell[0] += dt - child
                cell[1] += dt
                cell[2] += 1

        return timed

    def to_dict(self) -> Dict[str, Dict[str, float]]:
        return {
            name: {"self_s": c[0], "total_s": c[1], "calls": int(c[2])}
            for name, c in sorted(self.cells.items())
        }


def _patch(spans: Spans, owner, attr: str, name: str) -> None:
    setattr(owner, attr, spans.wrap(name, getattr(owner, attr)))


def _patch_bind_tick(spans: Spans, cls, name: str) -> None:
    bind = cls.bind_tick

    @functools.wraps(bind)
    def bind_tick(self):
        return spans.wrap(name, bind(self))

    cls.bind_tick = bind_tick


def install(spans: Spans) -> None:
    """Wrap every layer entry point listed in the module docstring."""
    import repro.fast.simulator as simulator
    from repro.fast.trace_buffer import TraceBufferFeed
    from repro.functional.blocks import SuperblockCache
    from repro.functional.model import FunctionalModel
    from repro.observability.events import EventTracer
    from repro.timing.bpred.predictors import GsharePredictor
    from repro.timing.cache.hierarchy import CacheHierarchy
    from repro.timing.connector import Connector
    from repro.timing.core import TimingModel
    from repro.timing.pipeline.backend import Backend
    from repro.timing.pipeline.frontend import Frontend

    _patch(spans, simulator, "build_os_image", "setup.image")
    # from_programs is a classmethod: wrap the underlying function and
    # re-bind it as a classmethod.
    from_programs = simulator.FastSimulator.__dict__["from_programs"].__func__
    simulator.FastSimulator.from_programs = classmethod(
        spans.wrap("setup.system", from_programs)
    )
    _patch(spans, simulator.FastSimulator, "__init__", "setup.tm_build")
    _patch(spans, simulator.FastSimulator, "run", "run")

    _patch(spans, Connector, "tick", "tm.connectors")
    _patch_bind_tick(spans, Frontend, "tm.frontend")
    _patch_bind_tick(spans, Backend, "tm.backend")
    for attr in ("access_instr", "access_data"):
        _patch(spans, CacheHierarchy, attr, "tm.cache")
    for attr in ("predict", "update", "record_outcome"):
        _patch(spans, GsharePredictor, attr, "tm.bpred")

    for attr in ("peek", "consume", "commit", "interrupt_delivery"):
        _patch(spans, TraceBufferFeed, attr, "feed")
    for attr in ("force_wrong_path", "resolve_wrong_path"):
        _patch(spans, TraceBufferFeed, attr, "feed.wrong_path")
    _patch(spans, TraceBufferFeed, "idle_tick", "engine.idle_tick")
    _patch(spans, TraceBufferFeed, "idle_ticks", "engine.ff")
    _patch(spans, TraceBufferFeed, "idle_horizon", "engine.horizon")

    for attr in ("execute_into", "execute_next"):
        _patch(spans, FunctionalModel, attr, "fm.fill")
    _patch(spans, SuperblockCache, "step", "fm.sb_replay")
    for attr in ("set_pc", "deliver_interrupt"):
        _patch(spans, FunctionalModel, attr, "fm.rollback")

    add_listener = TimingModel.add_cycle_listener

    @functools.wraps(add_listener)
    def add_cycle_listener(self, listener, idle_hint=None):
        if idle_hint is not None:
            idle_hint = spans.wrap("obs", idle_hint)
        add_listener(self, spans.wrap("obs", listener), idle_hint=idle_hint)

    TimingModel.add_cycle_listener = add_cycle_listener
    _patch(spans, EventTracer, "emit", "obs")
