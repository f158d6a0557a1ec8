"""Static tick scheduling: the compiled engine for the timing model.

The paper's Bluespec compiler turns the timing model into hardware: the
evaluation order of modules within a target cycle is fixed at *compile*
time, not rediscovered every cycle.  The legacy Python engine instead
hand-orders a dynamic dispatch sequence inside ``TimingModel.tick()``.
This module closes that gap: a **compile step**, run once at
construction, extracts the dataflow graph (:mod:`repro.analysis.graph`)
from the Module/Connector tree and emits a flat list of pre-bound tick
callables -- the schedule -- plus a tight run loop over it.

Ordering rule
-------------

Within one target cycle every Connector's throughput budget resets
first (phase 0), then units evaluate **consumer-first**: if module A
pushes into a Connector drained by module B, B ticks before A, so data
pushed by A this cycle becomes poppable no earlier than ``min_latency``
cycles later regardless of evaluation order.  Consumer-first is the
topological order of the dataflow condensation; it is well defined only
when every dataflow cycle crosses at least one ``min_latency >= 1``
Connector -- a zero-latency cycle would make the order load-bearing
(FastLint rule TG002), so compilation rejects it.

Modules declare their per-cycle step by overriding
:meth:`repro.timing.module.Module.bind_tick`.  A module that overrides
it but is reachable through no Connector cannot be ordered -- it is
silently never ticked by *either* engine (the legacy sequence is
hand-written; the compiled schedule is derived).  Such scheduling blind
spots are recorded on the schedule and reported by FastLint as TG006.

On top of the static order the compiled run loop adds **idle
fast-forward**: when a tick leaves the machine quiescent (front end
idle, ROB/RS/queues empty -- perlbmk's ``sleep`` stalls, boot-phase
idling), the feed reports how many further cycles are guaranteed
uneventful (:meth:`repro.timing.feed.InstructionFeed.idle_horizon`) and
the loop advances ``cycle``, ``idle_cycles`` and device time in one
batched step, preserving watchdog and cycle-listener semantics exactly.

The observer seam
----------------

Every per-cycle observer -- the stats fabric, trigger queries, the
FastWatch invariant monitor (:mod:`repro.observability.watch`), the
FastPulse emitter (:mod:`repro.observability.pulse`) and the cycle-mode
interrupt coordinator -- subscribes through one call,
``TimingModel.add_cycle_listener(listener, idle_hint)``, and both
engines run every listener after the cycle's steps.  Probes must go
through this seam, never inside the generated stage closures: listeners
observe the post-step state of a fully-evaluated cycle on either
engine, which keeps an invariant violation's cycle number and the set
of sampled pulse cycles engine-independent.

One idle-hint contract bounds fast-forward: an observer of module state
passes ``unbounded_idle_hint`` (no module steps inside a quiescent
span, so nothing it reads changes), and a cadence observer returns the
cycles left before its next due cycle (FastPulse: ``next due sample -
cycle - 1``), so the wake cycle replays the whole per-cycle path.
``_idle_span`` takes the minimum; a listener registered without a hint
pins the loop to single-cycle stepping (FastLint rule ST003).
"""

from __future__ import annotations

from typing import Callable, List, Tuple

from repro.analysis.graph import TimingGraph, extract_graph
from repro.timing.connector import Connector
from repro.timing.module import Module
from repro.timing.pipeline.frontend import F_FETCH


class ScheduleError(RuntimeError):
    """The module tree cannot be statically scheduled."""


def _is_tickable(module: Module) -> bool:
    """True if *module* overrides :meth:`Module.bind_tick`."""
    return type(module).bind_tick is not Module.bind_tick


def unscheduled_tickables(
    graph: TimingGraph,
) -> List[Tuple[str, Module]]:
    """Tickable modules the compiled schedule cannot reach.

    A module that overrides ``bind_tick`` participates in the schedule
    only if it is an endpoint of at least one Connector (Connectors
    themselves are phase 0, and the root *is* the engine).  Anything
    else is a blind spot: no engine will ever tick it.  FastLint rule
    TG006 reports these.
    """
    endpoint_ids = set()
    for edge in graph.edges:
        if edge.producer is not None:
            endpoint_ids.add(id(edge.producer))
        if edge.consumer is not None:
            endpoint_ids.add(id(edge.consumer))
    out: List[Tuple[str, Module]] = []
    for path, module in graph.modules:
        if module is graph.root or isinstance(module, Connector):
            continue
        if _is_tickable(module) and id(module) not in endpoint_ids:
            out.append((path, module))
    return out


def _order_units(
    graph: TimingGraph, units: List[Tuple[str, Module]]
) -> List[Tuple[str, Module]]:
    """Consumer-first topological order of *units* (tree order breaks
    ties, deterministically)."""
    index = {id(module): i for i, (_path, module) in enumerate(units)}
    # H holds one edge consumer -> producer per bound dataflow edge
    # between distinct units: "the consumer evaluates first".
    indegree = [0] * len(units)
    successors: List[List[int]] = [[] for _ in units]
    seen_pairs = set()
    for edge in graph.edges:
        if not edge.bound:
            continue
        p = index.get(id(edge.producer))
        c = index.get(id(edge.consumer))
        if p is None or c is None or p == c:
            continue
        if (c, p) in seen_pairs:
            continue
        seen_pairs.add((c, p))
        successors[c].append(p)
        indegree[p] += 1
    order: List[int] = []
    placed = [False] * len(units)
    ready = sorted(i for i in range(len(units)) if indegree[i] == 0)
    while len(order) < len(units):
        if not ready:
            # Every remaining unit sits on a cycle of min_latency >= 1
            # edges: any order is sound (data crosses cycles anyway);
            # break the tie deterministically by tree order.
            forced = min(i for i in range(len(units)) if not placed[i])
            ready = [forced]
        i = ready.pop(0)
        if placed[i]:
            continue
        placed[i] = True
        order.append(i)
        changed = False
        for j in successors[i]:
            indegree[j] -= 1
            if indegree[j] == 0 and not placed[j]:
                ready.append(j)
                changed = True
        if changed:
            ready.sort()
    return [units[i] for i in order]


class CompiledSchedule:
    """The pre-compiled tick engine for one :class:`TimingModel`.

    Built once at construction (``TimingConfig(engine="compiled")``);
    holds the step tuple ``TimingModel.tick`` runs for one cycle and
    :meth:`run`, the batched run loop with idle fast-forward.
    """

    def __init__(self, tm) -> None:
        self._tm = tm
        graph = extract_graph(tm)
        if graph.zero_latency_cycles():
            raise ScheduleError(
                "zero-min_latency dataflow cycle: consumer-first order "
                "is undefined (FastLint rule TG002 pinpoints the loop)"
            )
        # Phase 0: every Connector's budget reset, in tree order (the
        # legacy engine clocks fetch2decode then decode2dispatch; tree
        # order generalizes that).
        self.connector_order: List[Tuple[str, Connector]] = list(
            graph.connectors
        )
        units = [
            (path, module)
            for path, module in graph.modules
            if module is not tm
            and not isinstance(module, Connector)
            and _is_tickable(module)
        ]
        self.unscheduled: List[Tuple[str, Module]] = unscheduled_tickables(
            graph
        )
        unscheduled_ids = {id(module) for _p, module in self.unscheduled}
        units = [u for u in units if id(u[1]) not in unscheduled_ids]
        self.unit_order: List[Tuple[str, Module]] = _order_units(graph, units)
        steps: List[Callable[[int], None]] = [
            conn.tick for _path, conn in self.connector_order
        ]
        for _path, module in self.unit_order:
            step = module.bind_tick()
            if step is None:
                raise ScheduleError(
                    "module %r advertises bind_tick but returned None"
                    % module.name
                )
            steps.append(step)
        self._steps: Tuple[Callable[[int], None], ...] = tuple(steps)

    # -- introspection ---------------------------------------------------

    def describe(self) -> List[str]:
        """The schedule as an ordered list of module paths."""
        return [path for path, _m in self.connector_order] + [
            path for path, _m in self.unit_order
        ]

    def instrument_steps(
        self,
        wrap: Callable[[str, Callable[[int], None]], Callable[[int], None]],
    ) -> Tuple[Callable[[int], None], ...]:
        """Replace every step with ``wrap(path, step)`` (FastScope's
        tick profiler).  ``TimingModel.tick`` reads the current tuple on
        every call; :meth:`run` hoists it into a local at entry, so
        instrument before running.  Returns the previous tuple so the
        caller can restore it."""
        previous = self._steps
        self._steps = tuple(
            wrap(path, step)
            for path, step in zip(self.describe(), previous)
        )
        return previous

    # -- the batched run loop --------------------------------------------

    def run(self, max_cycles: int):
        """Run to completion (or budget), fast-forwarding idle spans.

        The loop body is ``TimingModel.tick`` fused inline with every
        per-cycle attribute hoisted into locals: on this Python host the
        engine overhead is attribute traffic, and the whole point of
        compiling the schedule is that none of these bindings can change
        between cycles.  ``cycle_listeners`` is hoisted as a *list
        object* -- subscribing mid-run mutates it in place, so the hoist
        still observes late listeners.  Mutable counters are carried in
        locals and written back on every exit path (``finally``) so
        stats and post-mortem state match the legacy engine exactly.
        """
        tm = self._tm
        feed = tm.feed
        # A feed is never finished while it holds entries
        # (InstructionFeed.finished), so the property -- a call per
        # read -- is consulted only once the deque is empty.
        entries = feed.entries
        frontend = tm.frontend
        backend = tm.backend
        steps = self._steps
        listeners = tm.cycle_listeners
        hints = tm._cycle_idle_hints
        watchdog = tm.config.watchdog_cycles
        idle_span = self._idle_span
        cycle = tm.cycle
        last_progress = tm._last_progress
        try:
            while cycle < max_cycles:
                cycle += 1
                tm.cycle = cycle
                for step in steps:
                    step(cycle)
                if listeners:
                    if len(listeners) == 1:
                        listeners[0](cycle)
                    else:
                        for listener in listeners:
                            listener(cycle)
                idle = frontend.idle_this_cycle and not backend.rob
                if idle and (entries or not feed.finished):
                    feed.idle_tick()
                    # Not hoisted into a local: commit listeners (the
                    # statistics sampler) snapshot tm.idle_cycles
                    # mid-run, and it is only written on idle cycles,
                    # so the busy hot path pays nothing.
                    tm.idle_cycles += 1
                    last_progress = cycle
                committed = backend.last_commit_cycle
                if committed > last_progress:
                    last_progress = committed
                if cycle - last_progress > watchdog:
                    tm._raise_deadlock(cycle)
                if not entries and feed.finished:
                    if (
                        not backend.rob
                        and len(frontend.fetch_q) == 0
                        and len(frontend.decode_q) == 0
                        and backend._dispatching is None
                    ):
                        break
                    continue
                # Idle fast-forward: only from a fully quiescent machine
                # (this tick fetched nothing, committed nothing, holds
                # nothing in flight and is not draining or stalled), so
                # a batched span is a pure repetition of uneventful
                # cycles.
                if idle:
                    span = idle_span(cycle, max_cycles, hints)
                    if span > 0:
                        feed.idle_ticks(span)
                        cycle += span
                        tm.cycle = cycle
                        tm.idle_cycles += span
                        last_progress = cycle
                        # Seam event, once per batched span (not per
                        # cycle): how far the engine fast-forwarded.
                        if tm.tracer is not None:
                            tm.tracer.emit("idle_span", cycles=span,
                                           from_cycle=cycle - span)
        finally:
            tm.cycle = cycle
            tm._last_progress = last_progress
        return tm.stats()

    def _idle_span(self, cycle: int, max_cycles: int, hints: dict) -> int:
        """How many upcoming cycles may be skipped in one batch.

        Bounded by (a) machine quiescence, (b) the feed's guaranteed-
        uneventful horizon, (c) every cycle listener's declared idle
        hint (a listener without one forces 0 -- it may observe any
        cycle), and (d) the cycle budget.  The waking cycle itself is
        never skipped: spans end one cycle short, so wake-ups (device
        IRQ, coordinator firing, watchdog accounting) replay through
        the full per-cycle path exactly as in the legacy engine.
        """
        tm = self._tm
        frontend = tm.frontend
        backend = tm.backend
        if (
            frontend.mode != F_FETCH
            or frontend.stall_until > cycle
            or backend.rs
            or backend.in_flight
            or backend._dispatching is not None
            or len(frontend.fetch_q)
            or len(frontend.decode_q)
        ):
            return 0
        span = tm.feed.idle_horizon()
        if span <= 0:
            return 0
        if cycle + span > max_cycles:
            span = max_cycles - cycle
        for listener in tm.cycle_listeners:
            hint = hints.get(id(listener))
            if hint is None:
                return 0
            bound = hint(cycle)
            if bound < span:
                span = bound
            if span <= 0:
                return 0
        return span


def compile_schedule(tm) -> CompiledSchedule:
    """Compile the static schedule for *tm* (a ``TimingModel``)."""
    return CompiledSchedule(tm)


# Re-exported for TG006 without importing the whole engine.
__all__ = [
    "CompiledSchedule",
    "ScheduleError",
    "compile_schedule",
    "unscheduled_tickables",
]
