"""FastScope: the facade wiring the whole observability layer.

One call instruments a :class:`~repro.fast.simulator.FastSimulator`
with the stats fabric, the seam event tracer, optional trigger queries
and the optional tick profiler::

    sim = FastSimulator.from_programs([...])
    scope = FastScope(sim)
    scope.watch_below("tb_low", trace_buffer_occupancy(sim.feed), 4)
    sim.run()
    report = scope.report()
    scope.write_trace("trace.jsonl")

Everything FastScope attaches is read-only with respect to the
simulation, so a scoped run produces bit-identical ``TimingStats`` to a
bare one -- the invariant the determinism tests pin.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.observability.events import (
    DEFAULT_CAPACITY,
    EventTracer,
    attach_tracer,
)
from repro.observability.fabric import DEFAULT_WINDOW_CYCLES, StatsFabric
from repro.observability.profiler import TickProfiler
from repro.observability.pulse import (
    DEFAULT_INTERVAL_CYCLES,
    LivenessWatchdog,
    PulseEmitter,
)
from repro.observability.triggers import CompiledTriggerQuery
from repro.observability.watch import InvariantMonitor


class FastScope:
    """Full observability over one FastSimulator instance.

    Construct *before* ``sim.run()`` -- the fabric baselines counters at
    attach time and the profiler must rewrite the schedule before the
    run loop hoists it.
    """

    def __init__(
        self,
        sim,
        window_cycles: int = DEFAULT_WINDOW_CYCLES,
        tracer_capacity: int = DEFAULT_CAPACITY,
        profile: bool = False,
        invariants: bool = True,
        pulse_path: Optional[str] = None,
        pulse_interval: int = DEFAULT_INTERVAL_CYCLES,
    ):
        self.sim = sim
        self.tracer: EventTracer = attach_tracer(sim, tracer_capacity)
        self.fabric = StatsFabric(
            sim.tm, window_cycles=window_cycles, extra_roots=(sim.feed,)
        )
        self.triggers: List[CompiledTriggerQuery] = []
        # The FastWatch invariant fabric is always-on by default: every
        # invariant declares an idle hint, so arming it keeps the
        # compiled engine's idle fast-forward and stays inside the
        # 1.10x observability overhead budget CI gates on FastBench.
        self.monitor: Optional[InvariantMonitor] = None
        if invariants:
            self.monitor = InvariantMonitor(
                sim.tm, extra_roots=(sim.feed,)
            )
        # The FastPulse live telemetry plane: cadence-hinted like the
        # monitor, so arming it also keeps idle fast-forward (and rides
        # inside the same overhead budget).
        self.pulse: Optional[PulseEmitter] = None
        if pulse_path is not None:
            self.pulse = PulseEmitter(
                sim.tm,
                feed=sim.feed,
                path=pulse_path,
                interval_cycles=pulse_interval,
                monitor=self.monitor,
                watchdog=LivenessWatchdog(),
            )
        self.profiler: Optional[TickProfiler] = None
        if profile:
            self.profiler = TickProfiler(sim.tm).install()

    # -- trigger queries -------------------------------------------------

    def watch(self, name: str, probe: Callable[[], float],
              condition: Callable[[float], bool],
              **kwargs) -> CompiledTriggerQuery:
        query = CompiledTriggerQuery(self.sim.tm, name, probe, condition,
                                     **kwargs)
        self.triggers.append(query)
        return query

    def watch_below(self, name: str, probe: Callable[[], float],
                    threshold: float, **kwargs) -> CompiledTriggerQuery:
        query = CompiledTriggerQuery.below(self.sim.tm, name, probe,
                                           threshold, **kwargs)
        self.triggers.append(query)
        return query

    # -- reporting -------------------------------------------------------

    def finalize(self) -> None:
        self.fabric.finalize()
        if self.pulse is not None:
            self.pulse.finalize()

    def report(self) -> Dict:
        """JSON-ready report for the whole scoped run."""
        self.finalize()
        flat, tree = self.fabric.statnet_reports()
        out: Dict = {
            "fabric": self.fabric.report(),
            "statnet": {
                scheme.scheme: {
                    "counters": scheme.counters,
                    "modules": scheme.modules,
                    "routing_units": round(scheme.routing_units, 1),
                    "aggregator_luts": scheme.aggregator_luts,
                    "congestion": round(scheme.congestion, 3),
                    "total_cost": round(scheme.total_cost, 1),
                }
                for scheme in (flat, tree)
            },
            "trace": self.tracer.summary(),
            "triggers": [query.report() for query in self.triggers],
        }
        if self.monitor is not None:
            out["invariants"] = self.monitor.report()
        if self.pulse is not None:
            out["pulse"] = self.pulse.summary()
        if self.profiler is not None:
            out["profile"] = self.profiler.report()
        return out

    def write_trace(self, path: str, footer: bool = False) -> int:
        """Dump the event ring as JSONL; returns the record count.
        With *footer*, append the ``trace_summary`` gap-detection
        record (whole-run drop accounting)."""
        return self.tracer.write_jsonl(path, footer=footer)
