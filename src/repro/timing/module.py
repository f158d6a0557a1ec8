"""Module: the base building block of the timing model.

"The timing model ... is constructed from configurable hierarchical
Modules.  The base Modules consist of structures such as CAMs, FIFOs,
memories, registers and arbiters ... from which are built caches and
load/store queues, from which are built branch predictors ... from which
are built our top-level modules."  (paper section 4)

Modules register named statistics counters; the statistics network
(:mod:`repro.timing.stats`) aggregates them, and the FPGA host model
(:mod:`repro.host.resources`) estimates slice/BRAM usage from the
module tree (Table 2).
"""

from __future__ import annotations

import bisect
import warnings
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple


class DuplicateModuleNameWarning(UserWarning):
    """Two siblings share a name: their statistics paths collide."""


class StatRegistrationError(ValueError):
    """A typed statistic was registered twice under one name."""


class InvariantRegistrationError(ValueError):
    """A typed invariant was registered twice under one name."""


class Invariant:
    """A machine-checkable structural property owned by one Module.

    The FastWatch monitor (:mod:`repro.observability.watch`) walks the
    module tree, compiles every registered invariant into a single
    per-cycle probe and evaluates it after each executed target cycle.
    ``check`` is a zero-argument predicate returning True while the
    invariant holds; it must be observation-only (FastLint rule IV002)
    because it runs on the live simulation state.  ``probe``, if given,
    supplies the observed scalar recorded when the invariant fires.

    An invariant reads module state only, which no module step changes
    inside a quiescent (idle/halted) span, so the monitor never bounds
    the compiled engine's idle fast-forward.

    *expr*, if given, is the check as a Python expression string over
    the single free name ``m`` (the owning module).  The monitor
    inlines every expr into one fused per-cycle closure -- the same
    move the compiled engine makes for module ticks -- so the always-on
    hot path is a single Python call instead of one per invariant.  An
    expr must be observationally equivalent to ``check`` (the monitor
    cross-validates when armed with ``selfcheck=True``) and, like the
    check, side-effect free.

    Like stats, invariants must be registered at construction time
    (FastLint rule IV001) so every run checks the same lattice.
    """

    __slots__ = ("name", "check", "probe", "desc", "expr")
    kind = "invariant"

    def __init__(self, name: str, check: Callable[[], bool],
                 probe: Optional[Callable[[], float]] = None,
                 desc: str = "", expr: Optional[str] = None):
        self.name = name
        self.check = check
        self.probe = probe
        self.desc = desc
        self.expr = expr

    def holds(self) -> bool:
        return bool(self.check())

    def __repr__(self) -> str:
        return "<Invariant %r>" % (self.name,)


class Stat:
    """A typed, named statistic owned by one :class:`Module`.

    The FastScope fabric (:mod:`repro.observability`) walks the module
    tree, snapshots every registered stat per sampling window and
    aggregates the values hop-by-hop toward the root -- the software
    realization of the paper's tree-based statistics network (§4.7).
    Stats must be registered at construction time (FastLint rule ST002)
    so every sampling window observes the same set of streams.
    """

    __slots__ = ("name", "desc")
    kind = "stat"

    def __init__(self, name: str, desc: str = ""):
        self.name = name
        self.desc = desc

    def value(self) -> float:
        """Current scalar value (counters: cumulative; gauges: level)."""
        raise NotImplementedError

    def reset(self) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:
        return "<%s %r=%r>" % (type(self).__name__, self.name, self.value())


class Counter(Stat):
    """A monotonically-increasing event count."""

    __slots__ = ("count",)
    kind = "counter"

    def __init__(self, name: str, desc: str = ""):
        super().__init__(name, desc)
        self.count = 0

    def add(self, amount: int = 1) -> None:
        self.count += amount

    def value(self) -> float:
        return self.count

    def reset(self) -> None:
        self.count = 0


class Gauge(Stat):
    """A point-in-time level, either set explicitly or probed lazily.

    A probed gauge costs nothing on the simulation hot path: the probe
    runs only when a sampling window closes (dedicated statistics
    hardware is free on an FPGA; on this host, laziness is the
    equivalent).
    """

    __slots__ = ("probe", "_value")
    kind = "gauge"

    def __init__(self, name: str, probe: Optional[Callable[[], float]] = None,
                 desc: str = ""):
        super().__init__(name, desc)
        self.probe = probe
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = value

    def value(self) -> float:
        if self.probe is not None:
            return self.probe()
        return self._value

    def reset(self) -> None:
        self._value = 0.0


class Histogram(Stat):
    """A bucketed distribution of observed values.

    *bounds* are the inclusive upper edges of the finite buckets; one
    overflow bucket is appended.  ``value()`` reports the observation
    count so histograms aggregate like counters in the fabric; the
    buckets ride along in window snapshots.
    """

    __slots__ = ("bounds", "buckets", "count", "total")
    kind = "histogram"

    def __init__(self, name: str, bounds: Sequence[float], desc: str = ""):
        super().__init__(name, desc)
        if list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be sorted")
        self.bounds: Tuple[float, ...] = tuple(bounds)
        self.buckets: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.buckets[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value

    def value(self) -> float:
        return self.count

    def reset(self) -> None:
        self.buckets = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0


class Module:
    """Base class: named, hierarchical, with statistics counters.

    Subclasses call :meth:`add_child` for sub-modules and
    :meth:`counter`/:meth:`bump` for statistics.
    """

    # Attributes (dotted paths allowed) that no method rebinds after
    # construction.  The compiled engine's stage generator
    # (:mod:`repro.timing.pipeline.fastpath`) hoists ``self.`` chains
    # through them into locals at bind time; every other attribute is
    # re-read at each use.  A class's set is the union over its MRO.
    STABLE_ATTRS: Tuple[str, ...] = ("_counters", "_counters.get")

    def __init__(self, name: str):
        self.name = name
        self._children: List["Module"] = []
        self._child_names: set = set()
        self._counters: Dict[str, int] = {}
        # Typed stats (Counter/Gauge/Histogram) registered at
        # construction; the FastScope fabric snapshots these per window.
        self._stats: Dict[str, Stat] = {}
        # Typed invariants registered at construction; the FastWatch
        # monitor compiles these into its per-cycle probe.
        self._invariants: Dict[str, Invariant] = {}

    # -- hierarchy -------------------------------------------------------

    def add_child(self, child: "Module") -> "Module":
        # Sibling names must be unique: all_counters() keys by path, so
        # two children named "l1" would silently merge their statistics,
        # and find() would only ever see the first.  FastLint reports
        # this as TG003; the warning catches it at construction time.
        # The per-parent name set keeps insertion O(1) regardless of how
        # wide the module (a big cache's bank array, say) gets.
        if child.name in self._child_names:
            warnings.warn(
                "module %r already has a child named %r; statistics paths "
                "and find() lookups will collide" % (self.name, child.name),
                DuplicateModuleNameWarning,
                stacklevel=2,
            )
        self._children.append(child)
        self._child_names.add(child.name)
        return child

    @property
    def children(self) -> Tuple["Module", ...]:
        return tuple(self._children)

    def walk(self) -> Iterator["Module"]:
        """Depth-first (preorder) iteration over this module and all
        descendants.  Iterative: deep trees neither recurse per level
        nor chain one generator frame per ancestor."""
        stack: List["Module"] = [self]
        while stack:
            module = stack.pop()
            yield module
            stack.extend(reversed(module._children))

    def walk_paths(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        """Depth-first ``(slash/separated/path, module)`` pairs, in the
        same preorder as :meth:`walk`."""
        stack: List[Tuple[str, "Module"]] = [(prefix + self.name, self)]
        while stack:
            path, module = stack.pop()
            yield path, module
            child_prefix = path + "/"
            stack.extend(
                (child_prefix + child.name, child)
                for child in reversed(module._children)
            )

    def find(self, name: str) -> Optional["Module"]:
        for module in self.walk():
            if module.name == name:
                return module
        return None

    # -- statistics ---------------------------------------------------------

    def counter(self, name: str) -> int:
        return self._counters.get(name, 0)

    def bump(self, name: str, amount: int = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + amount

    def counters(self) -> Dict[str, int]:
        return dict(self._counters)

    def all_counters(self, prefix: str = "") -> Dict[str, int]:
        """Flattened ``module.path/counter`` -> value map for the tree."""
        out: Dict[str, int] = {}
        for path, module in self.walk_paths(prefix):
            counter_prefix = path + "/"
            for key, value in module._counters.items():
                out[counter_prefix + key] = value
        return out

    def reset_counters(self) -> None:
        for module in self.walk():
            module._counters.clear()

    # -- typed statistics (the FastScope fabric, §4.7) --------------------

    def register_stat(self, stat: Stat) -> Stat:
        """Register a typed stat on this module.

        Registration must happen during construction (FastLint rule
        ST002): the fabric's first sampling window baselines every
        registered stream, and the statnet routing model prices the
        fabric from the registered set.
        """
        if stat.name in self._stats:
            raise StatRegistrationError(
                "module %r already registers a stat named %r"
                % (self.name, stat.name)
            )
        self._stats[stat.name] = stat
        return stat

    def new_counter(self, name: str, desc: str = "") -> Counter:
        counter = Counter(name, desc)
        self.register_stat(counter)
        return counter

    def new_gauge(self, name: str, probe: Optional[Callable[[], float]] = None,
                  desc: str = "") -> Gauge:
        gauge = Gauge(name, probe, desc)
        self.register_stat(gauge)
        return gauge

    def new_histogram(self, name: str, bounds: Sequence[float],
                      desc: str = "") -> Histogram:
        histogram = Histogram(name, bounds, desc)
        self.register_stat(histogram)
        return histogram

    def stat(self, name: str) -> Optional[Stat]:
        return self._stats.get(name)

    # -- typed invariants (the FastWatch fabric) --------------------------

    def register_invariant(self, invariant: Invariant) -> Invariant:
        """Register a typed invariant on this module.

        Registration must happen during construction (FastLint rule
        IV001): the FastWatch monitor compiles the invariant lattice
        once, when it arms, and every armed run must check the same
        set.
        """
        if invariant.name in self._invariants:
            raise InvariantRegistrationError(
                "module %r already registers an invariant named %r"
                % (self.name, invariant.name)
            )
        self._invariants[invariant.name] = invariant
        return invariant

    def new_invariant(self, name: str, check: Callable[[], bool],
                      probe: Optional[Callable[[], float]] = None,
                      desc: str = "",
                      expr: Optional[str] = None) -> Invariant:
        invariant = Invariant(name, check, probe=probe, desc=desc,
                              expr=expr)
        self.register_invariant(invariant)
        return invariant

    def invariant(self, name: str) -> Optional[Invariant]:
        return self._invariants.get(name)

    def invariants_registry(self) -> Dict[str, Invariant]:
        return dict(self._invariants)

    def all_invariants(self, prefix: str = "") -> Dict[str, Invariant]:
        """Flattened ``module.path/invariant`` -> Invariant map."""
        out: Dict[str, Invariant] = {}
        for path, module in self.walk_paths(prefix):
            inv_prefix = path + "/"
            for name, invariant in module._invariants.items():
                out[inv_prefix + name] = invariant
        return out

    def stats_registry(self) -> Dict[str, Stat]:
        return dict(self._stats)

    def all_stats(self, prefix: str = "") -> Dict[str, Stat]:
        """Flattened ``module.path/stat`` -> Stat map for the tree."""
        out: Dict[str, Stat] = {}
        for path, module in self.walk_paths(prefix):
            stat_prefix = path + "/"
            for name, stat in module._stats.items():
                out[stat_prefix + name] = stat
        return out

    # -- static scheduling (repro.timing.schedule) ------------------------

    def bind_tick(self) -> Optional[Callable[[int], None]]:
        """Return this module's per-cycle step as a pre-bound
        ``cycle -> None`` callable, or ``None`` if the module has no
        per-cycle behaviour of its own.

        The compiled tick engine calls this once, at schedule-compile
        time, for every module in the tree; modules that need per-cycle
        evaluation (the pipeline front/back ends, Connectors) override
        it.  A module that overrides ``bind_tick`` but is not reachable
        through the dataflow graph is a scheduling blind spot -- FastLint
        reports it as TG006.
        """
        return None

    # -- host resource estimation (overridden where meaningful) --------------

    def resource_estimate(self) -> Dict[str, int]:
        """Rough FPGA cost of this module alone: ``{"luts": n, "brams": m}``.

        Subclasses with real storage override this; the default charges a
        small fixed control cost.
        """
        return {"luts": 50, "brams": 0}

    def __repr__(self) -> str:
        return "<%s %r>" % (type(self).__name__, self.name)
