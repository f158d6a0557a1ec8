"""Run-time trigger queries compiled into the schedule.

"Run-time queries, such as 'when does the number of active functional
units drop below 1?', can continuously run in hardware at full speed."
(paper section 3)

A bare listener appended to ``tm.cycle_listeners`` disables the
compiled engine's idle fast-forward entirely, because a hintless
listener may need to observe *every* cycle.  :class:`CompiledTriggerQuery`
is the engine-aware query: it registers through
``tm.add_cycle_listener`` **with an idle hint** (FastLint rule ST003
flags the bare-append pattern).

The default hint is unbounded, and that is sound for the common case:
a probe that reads only module state (queue occupancy, ROB depth,
busy-unit counts) cannot change value across a quiescent span, because
no module executes a step inside one.  The condition is evaluated on
the cycle the span starts from and again on the waking cycle, which is
exactly the set of cycles on which its value can differ.  A probe that
depends on the cycle number itself must pass an explicit *idle_hint*
(or ``single_step=True``) instead.

The per-cycle listener is *compiled*, the same move the engine makes
for module ticks (:mod:`repro.timing.pipeline.fastpath`) and the
invariant monitor makes for its fused probe: a canonical probe carries
an ``inline_expr`` that is spliced into the generated listener source,
and the ``below``/``at_least`` comparisons become literal operators,
so the armed steady state costs one Python call per executed cycle
instead of a listener -> probe -> condition chain.  Arbitrary probe
and condition callables still work -- they are called from the
generated body instead of being inlined.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.timing.core import IDLE_HINT_UNBOUNDED

DEFAULT_MAX_FIRINGS = 10_000


@dataclass(frozen=True)
class TriggerFiring:
    """One edge-triggered match of a trigger query."""

    cycle: int
    value: float


class CompiledTriggerQuery:
    """An edge-triggered predicate over simulator state, evaluated as a
    compiled-schedule cycle listener with an idle hint.

    *probe* is a zero-argument callable returning the watched value;
    *condition* maps that value to a bool.  The query records the cycle
    at which the condition first becomes true (edge-triggered: it
    re-arms only after the condition goes false again).
    """

    def __init__(
        self,
        tm,
        name: str,
        probe: Callable[[], float],
        condition: Callable[[float], bool],
        idle_hint: Optional[Callable[[int], int]] = None,
        single_step: bool = False,
        max_firings: int = DEFAULT_MAX_FIRINGS,
        _compare: Optional[Tuple[str, float]] = None,
    ):
        self.tm = tm
        self.name = name
        self.probe = probe
        self.condition = condition
        self.max_firings = max_firings
        self.firings: List[TriggerFiring] = []
        self.fire_count = 0
        self._armed = True
        self._compare = _compare
        if single_step:
            # The caller's probe is cycle-dependent: evaluate every
            # cycle, accepting that idle fast-forward is disabled.
            hint = self._hint_zero
        elif idle_hint is not None:
            hint = idle_hint
        else:
            hint = self._hint_unbounded
        tm.add_cycle_listener(self._compile_listener(), idle_hint=hint)

    @staticmethod
    def _hint_unbounded(cycle: int) -> int:
        return IDLE_HINT_UNBOUNDED

    @staticmethod
    def _hint_zero(cycle: int) -> int:
        return 0

    def _compile_listener(self) -> Callable[[int], None]:
        """Generate the per-cycle hook with the probe and comparison
        spliced in.

        The steady state (condition false, or still inside an active
        edge) must touch nothing but locals and one ``_q._armed`` read.
        Equivalence with the reference semantics -- evaluate the
        condition every executed cycle, fire on the rising edge, re-arm
        on the first false cycle after -- is pinned by the
        generic-vs-inlined test in tests/test_observability.py.
        """
        namespace: dict = {"_q": self}
        expr = getattr(self.probe, "inline_expr", None)
        if expr is not None:
            namespace.update(self.probe.inline_ns)
            value_src = expr
        else:
            namespace["_probe"] = self.probe
            value_src = "_probe()"
        if self._compare is not None:
            op, threshold = self._compare
            namespace["_t"] = threshold
            test_src = "value %s _t" % op
        else:
            # An arbitrary condition keeps the float contract canonical
            # probes would otherwise guarantee through their lambda.
            namespace["_cond"] = self.condition
            if expr is not None:
                value_src = "float(%s)" % value_src
            test_src = "_cond(value)"
        source = (
            "def _listener(cycle):\n"
            "    value = %s\n"
            "    if %s:\n"
            "        if _q._armed:\n"
            "            _q._fire_edge(cycle, value)\n"
            "    elif not _q._armed:\n"
            "        _q._armed = True\n" % (value_src, test_src)
        )
        exec(source, namespace)
        return namespace["_listener"]

    def _fire_edge(self, cycle: int, value) -> None:
        """Rising edge (cold path): record the firing and disarm until
        the condition goes false again."""
        self._armed = False
        self.fire_count += 1
        if len(self.firings) < self.max_firings:
            self.firings.append(TriggerFiring(cycle, float(value)))

    @property
    def first_fired(self) -> Optional[int]:
        return self.firings[0].cycle if self.firings else None

    def report(self) -> dict:
        return {
            "name": self.name,
            "fire_count": self.fire_count,
            "first_fired": self.first_fired,
            "firings": [
                {"cycle": f.cycle, "value": f.value}
                for f in self.firings[:64]
            ],
        }

    @classmethod
    def below(cls, tm, name: str, probe: Callable[[], float],
              threshold: float, **kwargs) -> "CompiledTriggerQuery":
        """The paper's canonical shape: "when does <probe> drop below
        <threshold>?"."""
        return cls(tm, name, probe,
                   lambda value: value < threshold,
                   _compare=("<", threshold), **kwargs)

    @classmethod
    def at_least(cls, tm, name: str, probe: Callable[[], float],
                 threshold: float, **kwargs) -> "CompiledTriggerQuery":
        return cls(tm, name, probe,
                   lambda value: value >= threshold,
                   _compare=(">=", threshold), **kwargs)


# -- canonical probes -------------------------------------------------------
#
# Each probe is a plain zero-argument callable, plus an ``inline_expr``
# / ``inline_ns`` pair the trigger compiler splices into its generated
# listener.  The expression must compute the same value as the lambda;
# where it inlines another module's accessor body, a lockstep note at
# the definition site records the pairing.


def trace_buffer_occupancy(feed) -> Callable[[], float]:
    """Probe: uncommitted entries held by the trace buffer ("when does
    trace-buffer occupancy drop below N?")."""
    probe = lambda: float(feed.occupancy)  # noqa: E731
    # Inlined body of TraceBufferFeed.occupancy (see the lockstep note
    # on the property in repro/fast/trace_buffer.py).
    probe.inline_expr = "(_feed.fm.in_count - _feed._last_committed)"
    probe.inline_ns = {"_feed": feed}
    return probe


def rob_occupancy(tm) -> Callable[[], float]:
    """Probe: instructions resident in the reorder buffer."""
    rob = tm.backend.rob
    probe = lambda: float(len(rob))  # noqa: E731
    probe.inline_expr = "len(_rob)"
    probe.inline_ns = {"_rob": rob}
    return probe
