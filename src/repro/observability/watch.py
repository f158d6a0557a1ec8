"""FastWatch: the always-on invariant fabric.

FAST's correctness story rests on structural properties that must hold
on *every* cycle: the ROB never exceeds its entry count, Connectors
never carry more transactions than their credit allows, the trace
buffer never runs ahead of its depth, the checkpoint grid always covers
every uncommitted rollback target, and the TM never acknowledges
commits the FM has not produced.  Today a violated property only
surfaces later, as a stats divergence FastFuzz must shrink after the
fact; FastWatch checks the properties *at the cycle they break*.

Modules declare invariants at construction time with
:meth:`~repro.timing.module.Module.new_invariant`, exactly parallel to
their FastScope stats.  :class:`InvariantMonitor` walks the module
roots, compiles every registered invariant into one per-cycle probe and
subscribes it as a cycle listener on both tick engines -- with the
unbounded idle hint every module-state observer shares, so the compiled
engine's idle fast-forward (and with it the <= 1.10x observability
budget) survives arming.

When an invariant fires, the recorded :class:`Violation` carries the
exact target cycle; run determinism then lets the capture layer
(:mod:`repro.functional.replay` + the ``python -m repro debug`` CLI)
re-execute a window around that cycle with maximum-detail capture and
emit a content-addressed debug capsule.

Everything here is observation-only: an armed monitor never changes
``TimingStats``, traces or architectural state (the determinism tests
pin this), and invariant ``check`` closures must be side-effect free
(FastLint rule IV002).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.timing.core import unbounded_idle_hint
from repro.timing.module import Invariant, Module

# Violations kept for the report (the firing count keeps climbing).
MAX_VIOLATIONS = 256
# The storm limit: an invariant that fires this often stops being
# recorded.
MAX_FIRINGS_PER_INVARIANT = 64


@dataclass(frozen=True)
class Violation:
    """One invariant firing: the edge cycle where ``check`` first
    returned False, plus the observed probe value (if the invariant
    registered one)."""

    invariant: str
    path: str
    cycle: int
    value: Optional[float]
    desc: str

    def message(self) -> str:
        base = "invariant %s/%s violated at cycle %d" % (
            self.path, self.invariant, self.cycle)
        if self.value is not None:
            base += " (observed %g)" % self.value
        return base

    def to_dict(self) -> dict:
        return {
            "invariant": self.invariant,
            "path": self.path,
            "cycle": self.cycle,
            "value": self.value,
            "desc": self.desc,
        }


class _Watch:
    """One compiled invariant: hot-path state for the monitor loop."""

    __slots__ = ("path", "invariant", "check", "module", "active",
                 "firings")

    def __init__(self, path: str, invariant: Invariant, module: Module):
        self.path = path
        self.invariant = invariant
        self.check = invariant.check
        self.module = module
        self.active = False  # currently in violation (edge detection)
        self.firings = 0


def _compile_fused(watches: List[_Watch]) -> Callable[[], bool]:
    """Fuse every watch into one ``lambda: (...) and (...) and ...``.

    The same codegen move the compiled engine makes when it generates
    the pipeline stages from their reference methods
    (repro.timing.pipeline.fastpath): the always-on hot path becomes a
    single Python call.  An invariant that declared an ``expr`` is
    inlined -- its expression is re-rooted from the free name ``m``
    onto the owning module -- and one without falls back to calling its
    ``check`` closure inside the chain.
    """
    parts, namespace = _fused_parts(watches)
    return eval("lambda: " + " and ".join(parts), namespace)


def _fused_parts(watches: List[_Watch]):
    """The per-watch source fragments and their namespace, shared by
    the standalone fused probe and the compiled cycle listener."""
    import ast

    namespace: dict = {}
    parts: List[str] = []
    for index, watch in enumerate(watches):
        expr = watch.invariant.expr
        if expr is not None:
            name = "m%d" % index

            class _Rename(ast.NodeTransformer):
                def visit_Name(self, node: ast.Name) -> ast.Name:
                    if node.id == "m":
                        return ast.copy_location(
                            ast.Name(id=name, ctx=node.ctx), node
                        )
                    return node

            tree = _Rename().visit(ast.parse(expr, mode="eval"))
            namespace[name] = watch.module
            parts.append("(%s)" % ast.unparse(tree))
        else:
            name = "c%d" % index
            namespace[name] = watch.check
            parts.append("%s()" % name)
    return parts, namespace


def _compile_listener(watches: List[_Watch], monitor) -> Callable[[int], None]:
    """Compile the monitor's whole cycle hook with the fused probe
    spliced in.

    One Python call per executed cycle on the healthy path -- the
    conjunction evaluates inline instead of through a separate
    ``self._fused()`` call, and the only attribute the fast path
    touches is the stale-edge flag.  Selfcheck mode, which needs the
    authoritative check closures every cycle, subscribes
    ``InvariantMonitor._on_cycle`` instead.
    """
    parts, namespace = _fused_parts(watches)
    namespace["_mon"] = monitor
    source = (
        "def _listener(cycle):\n"
        "    if %s:\n"
        "        if _mon._any_active:\n"
        "            _mon._clear_active()\n"
        "        return\n"
        "    _mon._scan(cycle)\n" % " and ".join(parts)
    )
    exec(source, namespace)
    return namespace["_listener"]


class InvariantMonitor:
    """Arm every registered invariant under the given module roots.

    Parallel to :class:`~repro.observability.fabric.StatsFabric`: walk
    ``(tm,) + extra_roots``, collect the typed invariants, compile them
    into one cycle listener and subscribe it with the unbounded idle
    hint.  Checks run after every executed target cycle, on both the
    legacy and compiled engines (both run the cycle-listener hook after
    their per-cycle steps).

    Firings are edge-triggered -- a persistently-false invariant records
    one :class:`Violation` at the first failing cycle, and re-arms only
    after the check holds again.  An invariant that fires
    :data:`MAX_FIRINGS_PER_INVARIANT` times stops being recorded.
    """

    def __init__(self, tm, extra_roots: Tuple = (), selfcheck: bool = False):
        self.tm = tm
        self.violations: List[Violation] = []
        self.firings = 0

        watches: List[_Watch] = []
        roots = (tm,) + tuple(
            root for root in extra_roots if isinstance(root, Module)
        )
        for root in roots:
            for path, module in root.walk_paths():
                for invariant in module._invariants.values():
                    watches.append(_Watch(path, invariant, module))
        # The listener is compiled once over every watch; the storm
        # limit only shrinks _watches, the set still recorded.
        self._watches = watches
        self._any_active = False
        if watches:
            if selfcheck:
                self._probed = tuple(watches)
                self._fused = _compile_fused(watches)
                hook = self._on_cycle
            else:
                hook = _compile_listener(watches, self)
            tm.add_cycle_listener(hook, idle_hint=unbounded_idle_hint)

    # -- hot path --------------------------------------------------------

    def _on_cycle(self, cycle: int) -> None:
        """The selfcheck listener: the fused probe, cross-validated
        against the authoritative check closures every cycle."""
        holds = self._fused()
        if holds != all(w.check() for w in self._probed):
            raise AssertionError(
                "fused invariant probe disagrees with the check closures "
                "at cycle %d: some expr= drifted from its check=" % cycle
            )
        if holds:
            if self._any_active:
                self._clear_active()
            return
        self._scan(cycle)

    # -- firing (cold path) ----------------------------------------------

    def _clear_active(self) -> None:
        """Every invariant holds again: drop stale edge state so the
        next failure fires fresh."""
        for watch in self._watches:
            watch.active = False
        self._any_active = False

    def _scan(self, cycle: int) -> None:
        """Something failed: find which, edge-detect, fire."""
        for watch in self._watches:
            if watch.check():
                watch.active = False
            elif not watch.active:
                watch.active = True
                self._fire(watch, cycle)
        # _fire may have dropped a watch (storm limit); a dropped watch
        # no longer holds the fast path hostage.
        self._any_active = any(w.active for w in self._watches)

    def _fire(self, watch: _Watch, cycle: int) -> None:
        watch.firings += 1
        self.firings += 1
        invariant = watch.invariant
        value: Optional[float] = None
        if invariant.probe is not None:
            value = float(invariant.probe())
        if len(self.violations) < MAX_VIOLATIONS:
            self.violations.append(Violation(
                invariant=invariant.name,
                path=watch.path,
                cycle=cycle,
                value=value,
                desc=invariant.desc,
            ))
        if watch.firings >= MAX_FIRINGS_PER_INVARIANT:
            # A storming invariant stops being recorded.  The compiled
            # probe still evaluates it, so while it keeps failing every
            # executed cycle takes the scan path; the scan skips it.
            self._watches = [w for w in self._watches if w is not watch]

    # -- reporting -------------------------------------------------------

    @property
    def armed(self) -> int:
        """Invariants still being recorded."""
        return len(self._watches)

    @property
    def fired(self) -> bool:
        return self.firings > 0

    @property
    def first_violation(self) -> Optional[Violation]:
        return self.violations[0] if self.violations else None

    def report(self) -> dict:
        return {
            "armed": len(self._watches),
            "firings": self.firings,
            "violations": [v.to_dict() for v in self.violations],
        }


# -- violation injection (tests, CI, `repro debug capture --inject`) -----

# Each canonical invariant reads its bound from an observation-only
# attribute initialized to the real configured value.  Injection
# shrinks that *armed copy* -- never the simulation state -- so the run
# itself is bit-identical to an uninjected one and the window replay
# around the (now deterministic) firing cycle stays exact.
INJECTION_KINDS = ("rob", "credit", "ckpt")


def _first_connector(tm):
    from repro.timing.connector import Connector

    for module in tm.walk():
        if isinstance(module, Connector):
            return module
    return None


def inject_violation(sim, kind: str) -> None:
    """Force a deterministic firing of one canonical invariant on
    *sim* without perturbing the simulation itself."""
    if kind == "rob":
        # Forced ROB overflow: any occupied ROB entry now violates.
        sim.tm.backend._rob_limit = 0
    elif kind == "credit":
        # Forced credit leak on the first Connector in the TM tree: the
        # armed transaction bound drops below zero, so even an empty
        # queue reads as over-credit.
        connector = _first_connector(sim.tm)
        if connector is None:
            raise ValueError("no Connector in the timing-model tree")
        connector._transactions_limit = -1
    elif kind == "ckpt":
        # Rollback-past-checkpoint: the coverage window collapses, so
        # the oldest live checkpoint can never cover it.
        sim.feed._ckpt_window = -(1 << 40)
    else:
        raise ValueError(
            "unknown injection %r (expected one of %s)"
            % (kind, ", ".join(INJECTION_KINDS))
        )


def find_first_violation(
    factory: Callable[[], object],
    inject: Optional[str] = None,
    max_cycles: int = 100_000_000,
) -> Tuple[Optional[Violation], object]:
    """Probe run: build a simulator from the zero-argument *factory*,
    arm the invariant fabric (optionally with an injected violation)
    and run to completion.  Returns ``(first_violation, monitor)``;
    the violation is None if nothing fired.

    Because runs are deterministic and the monitor evaluates on every
    executed cycle of either engine, the returned cycle is stable
    across repeated runs and across ``{legacy, compiled}``.
    """
    sim = factory()
    if inject is not None:
        inject_violation(sim, inject)
    monitor = InvariantMonitor(sim.tm, extra_roots=(sim.feed,))
    sim.run(max_cycles=max_cycles)
    return monitor.first_violation, monitor


def capture_debug_capsule(
    factory: Callable[[], object],
    workload: str,
    label: Optional[str] = None,
    inject: Optional[str] = None,
    center: Optional[int] = None,
    delta: int = 64,
    profile: bool = True,
    max_cycles: int = 100_000_000,
    source_run: Optional[str] = None,
    host: Optional[dict] = None,
    root: Optional[str] = None,
):
    """End-to-end triggered time travel: probe for the first invariant
    violation (optionally injected), re-execute the window around it,
    and emit a content-addressed debug capsule.

    With an explicit *center* the probe run is skipped entirely and the
    window is captured around that cycle (the watchpoint form: the
    caller got the cycle from a CompiledTriggerQuery firing, a
    regression divergence, or a hunch).  Returns the loaded
    :class:`~repro.observability.flight.capsule.CapsuleArtifact`, or
    None when no violation fired and no center was given.
    """
    from repro.functional.replay import replay_window
    from repro.observability.flight.capsule import DEFAULT_ROOT, emit_capsule

    violation = None
    if center is None:
        violation, _monitor = find_first_violation(
            factory, inject=inject, max_cycles=max_cycles
        )
        if violation is None:
            return None
        center = violation.cycle
    capture = replay_window(factory, center, delta=delta, profile=profile)
    if violation is not None:
        reason = violation.message()
        if inject:
            reason += " [injected: %s]" % inject
    else:
        reason = "watchpoint capture at cycle %d" % center
    return emit_capsule(
        capture,
        label=label or (violation.invariant if violation else "watchpoint"),
        workload=workload,
        reason=reason,
        violation=violation.to_dict() if violation else None,
        source_run=source_run,
        host=host,
        root=root if root is not None else DEFAULT_ROOT,
    )
