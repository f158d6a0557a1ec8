"""Statistics gathering: sampled traces, run-time queries, power.

"FAST simulators can gather statistics with little to no simulation
performance degradation since hardware can be dedicated to gather and
aggregate statistics ...  run-time queries, such as 'when does the
number of active functional units drop below 1?', can continuously run
in hardware at full speed."  (paper section 3)

:class:`StatisticTraceSampler` reproduces the Figure 6 instrumentation:
counter snapshots every N committed basic blocks, yielding per-window
branch-prediction accuracy, I-cache hit rate and pipe-drain percentage
(the boot-phase structure of Figure 6).

:func:`active_functional_units` probes the paper's example query; the
continuously-evaluated queries themselves are
:class:`repro.observability.triggers.CompiledTriggerQuery`, opt-in
because in this Python host they cost real time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.timing.core import TimingModel


@dataclass
class StatSample:
    """One Figure 6 window."""

    basic_blocks: int  # cumulative blocks at the end of the window
    cycle: int
    bp_accuracy: float
    icache_hit_rate: float
    pipe_drain_fraction: float
    ipc: float
    # Idle (fast-forwarded) cycles inside the window.  Rates above are
    # computed over *busy* cycles, so a window spanning a long HALT
    # sleep is comparable to one that never idled.
    idle_cycles: int = 0
    # True for the trailing partial window flushed by finalize(): under
    # the compiled engine an idle fast-forward span can jump straight
    # from the last committed block to shutdown, and everything after
    # the last interval boundary would otherwise be silently dropped.
    elided: bool = False


class StatisticTraceSampler:
    """Samples pipeline counters every *interval* committed basic blocks.

    Attach before running::

        sampler = StatisticTraceSampler(tm, interval=2000)
        tm.run()
        for s in sampler.samples: ...
    """

    def __init__(self, tm: TimingModel, interval: int = 2000):
        if interval < 1:
            raise ValueError("interval must be >= 1")
        self.tm = tm
        self.interval = interval
        self.samples: List[StatSample] = []
        self._blocks = 0
        self._last = self._snapshot()
        self._finalized = False
        tm.commit_listeners.append(self._on_commit)

    def _snapshot(self) -> Dict[str, int]:
        be, fe = self.tm.backend, self.tm.frontend
        l1i = self.tm.hierarchy.l1i
        return {
            "branches": be.counter("branches"),
            "mispredicts": be.counter("mispredicts"),
            "iacc": l1i.counter("accesses"),
            "ihit": l1i.counter("hits"),
            "drain": fe.counter("drain_cycles_mispredict"),
            "cycle": self.tm.cycle,
            "idle": self.tm.idle_cycles,
            "instructions": be.committed_instructions,
        }

    def _close_window(self, elided: bool) -> None:
        now = self._snapshot()
        last = self._last
        self._last = now
        branches = now["branches"] - last["branches"]
        mispredicts = now["mispredicts"] - last["mispredicts"]
        iacc = now["iacc"] - last["iacc"]
        ihit = now["ihit"] - last["ihit"]
        idle = now["idle"] - last["idle"]
        # Rates are per *busy* cycle: windows are keyed by committed
        # basic blocks, so one that brackets a HALT sleep (or, under
        # the compiled engine, a fast-forwarded span) would otherwise
        # report diluted ipc/drain numbers that depend on the engine's
        # batching rather than on pipeline behaviour.
        busy = max(1, now["cycle"] - last["cycle"] - idle)
        self.samples.append(
            StatSample(
                basic_blocks=self._blocks,
                cycle=now["cycle"],
                bp_accuracy=1.0 - mispredicts / branches if branches else 1.0,
                icache_hit_rate=ihit / iacc if iacc else 1.0,
                pipe_drain_fraction=(now["drain"] - last["drain"]) / busy,
                ipc=(now["instructions"] - last["instructions"]) / busy,
                idle_cycles=idle,
                elided=elided,
            )
        )

    def _on_commit(self, di, cycle: int) -> None:
        if not di.is_control:
            return
        self._blocks += 1
        if self._blocks % self.interval:
            return
        self._close_window(elided=False)

    def finalize(self) -> None:
        """Flush the trailing partial window (idempotent).

        Blocks committed after the last interval boundary -- and any
        pure-idle tail the compiled engine fast-forwarded through, such
        as a final sleep before shutdown -- never reach an interval
        boundary, so without this flush they are silently dropped.  The
        flushed sample is marked ``elided=True``.
        """
        if self._finalized:
            return
        self._finalized = True
        if self.tm.cycle > self._last["cycle"]:
            self._close_window(elided=True)


def active_functional_units(tm: TimingModel) -> float:
    """Probe: functional units busy this cycle (for the paper's example
    query "when does the number of active functional units drop below
    1?")."""
    busy = 0
    cycle = tm.cycle
    for unit_list in tm.backend._units.values():
        for busy_until in unit_list:
            if busy_until > cycle:
                busy += 1
    return float(busy)


# ---------------------------------------------------------------------------
# Relative power estimation (the paper's future-work extension): "The
# initial goal is not to perfectly estimate power, but to provide
# relative power estimates that will permit architects to compare
# different architectures."
# ---------------------------------------------------------------------------

# Activity energy weights, in arbitrary units per event.
DEFAULT_ENERGY_WEIGHTS = {
    "fetch": 1.0,
    "decode": 0.6,
    "dispatch": 0.8,
    "issue": 1.2,
    "writeback": 0.8,
    "icache_access": 2.0,
    "dcache_access": 2.5,
    "l2_access": 8.0,
    "bp_lookup": 0.4,
    "squash": 0.5,
}

LEAKAGE_PER_CYCLE = 0.8


@dataclass
class PowerEstimate:
    dynamic: float
    leakage: float
    breakdown: Dict[str, float] = field(default_factory=dict)

    @property
    def total(self) -> float:
        return self.dynamic + self.leakage

    @property
    def per_instruction(self) -> float:
        count = self.breakdown.get("_instructions", 0)
        return self.total / count if count else 0.0


def estimate_power(
    tm: TimingModel, weights: Optional[Dict[str, float]] = None
) -> PowerEstimate:
    """Activity-based relative power for a finished run."""
    w = dict(DEFAULT_ENERGY_WEIGHTS)
    if weights:
        w.update(weights)
    fe, be = tm.frontend, tm.backend
    activities = {
        "fetch": fe.counter("fetched"),
        "decode": fe.counter("decoded"),
        "dispatch": be.counter("dispatched_uops"),
        "issue": be.counter("issues"),
        "writeback": be.counter("writebacks"),
        "icache_access": tm.hierarchy.l1i.counter("accesses"),
        "dcache_access": tm.hierarchy.l1d.counter("accesses"),
        "l2_access": tm.hierarchy.l2.counter("accesses"),
        "bp_lookup": tm.predictor.counter("predictions"),
        "squash": be.counter("squashed_uops"),
    }
    breakdown = {key: count * w[key] for key, count in activities.items()}
    dynamic = sum(breakdown.values())
    breakdown["_instructions"] = be.committed_instructions
    return PowerEstimate(
        dynamic=dynamic,
        leakage=LEAKAGE_PER_CYCLE * tm.cycle,
        breakdown=breakdown,
    )
