"""The hierarchical statistics fabric (the §4.7 tree network, at runtime).

"We are developing a tree-based statistics network that will flow back
through the Connectors, ensuring distributed and easy resource
routing."  (paper §4.7)

:class:`StatsFabric` is that network realized in the Python runtime.
Every :class:`~repro.timing.module.Module` owns its statistics -- the
ad hoc ``bump()`` counters that predate this fabric plus the typed
:class:`~repro.timing.module.Counter`/``Gauge``/``Histogram`` stats
registered at construction -- and the fabric aggregates them
*hop-by-hop along the module hierarchy* instead of wiring every stream
to a central point (the flat scheme whose routing cost
:mod:`repro.timing.statnet` prices).

Sampling windows
----------------

The fabric subscribes a compiled-schedule cycle listener that closes a
window every ``window_cycles`` target cycles, recording the per-stream
deltas since the previous window plus a sample of every gauge.  The
listener declares an **unbounded idle hint**: during a quiescent span no
module ticks, so no counter can change, and skipping the listener is
sound.  A window boundary crossed inside a fast-forwarded span is
therefore closed *retroactively* on the first executed cycle after the
span; the fully-idle windows it jumped over are not silently dropped --
they are merged into the closing record and counted in
``elided_windows``, with the span's cycles in ``idle_cycles``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.timing.core import unbounded_idle_hint
from repro.timing.module import Gauge, Module

DEFAULT_WINDOW_CYCLES = 65536


@dataclass
class StatWindow:
    """One closed sampling window of the fabric."""

    index: int  # nominal window index at close (boundaries passed so far)
    start_cycle: int
    end_cycle: int  # first executed cycle at/after the nominal boundary
    idle_cycles: int  # idle (incl. fast-forwarded) cycles inside the window
    elided_windows: int  # nominal windows merged in (skipped while idle)
    partial: bool = False  # closed by finalize(), not by a boundary
    deltas: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)

    @property
    def cycles(self) -> int:
        return self.end_cycle - self.start_cycle

    @property
    def busy_cycles(self) -> int:
        return self.cycles - self.idle_cycles

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "start_cycle": self.start_cycle,
            "end_cycle": self.end_cycle,
            "cycles": self.cycles,
            "idle_cycles": self.idle_cycles,
            "elided_windows": self.elided_windows,
            "partial": self.partial,
            "deltas": dict(sorted(self.deltas.items())),
            "gauges": dict(sorted(self.gauges.items())),
        }


class WindowSeries(list):
    """The window series as the JSON encoder streams it: a ``list`` to
    ``json.JSONEncoder.iterencode`` (which ``flight.artifact``'s
    ``json_chunks`` drives), which asks a list only for its truth value
    and its items, so each window's dict is made as the encoder reaches
    it and none is kept.  The list storage itself is empty: the C
    one-shot encoder (``json.dumps``, ``JSONEncoder.encode``) reads that
    storage and would write ``[]``, so this goes only to ``iterencode``.
    """

    def __init__(self, windows: List[StatWindow]):
        super().__init__()
        self._windows = windows

    def __len__(self) -> int:
        return len(self._windows)

    def __iter__(self):
        return (window.to_dict() for window in self._windows)


class StatsFabric:
    """The runtime statistics fabric over one TimingModel's module tree.

    *extra_roots* adds module trees that hang off the simulator but not
    off the TimingModel itself -- most importantly the
    :class:`~repro.fast.trace_buffer.TraceBufferFeed`, which is a Module
    on the FM/TM seam rather than a child of the pipeline.
    """

    def __init__(
        self,
        tm,
        window_cycles: int = DEFAULT_WINDOW_CYCLES,
        extra_roots: Sequence[Module] = (),
    ):
        if window_cycles < 1:
            raise ValueError("window_cycles must be >= 1")
        self.tm = tm
        self.window_cycles = window_cycles
        self.roots: Tuple[Module, ...] = (tm,) + tuple(extra_roots)
        self.windows: List[StatWindow] = []
        self._last: Dict[str, float] = self._collect()
        self._last_idle = tm.idle_cycles
        self._last_close_cycle = tm.cycle
        self._boundaries_closed = 0
        self._next_boundary = tm.cycle + window_cycles
        self._finalized = False
        # "Skip as far as you can": boundary crossings inside a skipped
        # span are reconstructed retroactively as elided windows.
        tm.add_cycle_listener(self._on_cycle, idle_hint=unbounded_idle_hint)

    # -- collection ------------------------------------------------------

    def _walk_stats(self):
        """(path, module) pairs across every root, in deterministic
        tree order."""
        for root in self.roots:
            for path, module in root.walk_paths():
                yield path, module

    def _collect(self) -> Dict[str, float]:
        """Flat ``path/name -> cumulative value`` for every counter-like
        stream (ad hoc counters, typed counters, histogram counts)."""
        out: Dict[str, float] = {}
        for path, module in self._walk_stats():
            prefix = path + "/"
            for name, value in module._counters.items():
                out[prefix + name] = value
            for name, stat in module._stats.items():
                if stat.kind != "gauge":
                    out[prefix + name] = stat.value()
        return out

    def _sample_gauges(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for path, module in self._walk_stats():
            prefix = path + "/"
            for name, stat in module._stats.items():
                if isinstance(stat, Gauge):
                    out[prefix + name] = stat.value()
        return out

    # -- the per-cycle listener ------------------------------------------

    def _on_cycle(self, cycle: int) -> None:
        # Hot path: one compare per executed cycle.
        if cycle >= self._next_boundary:
            self._close(cycle, partial=False)

    def _close(self, cycle: int, partial: bool) -> None:
        now = self._collect()
        last = self._last
        deltas = {
            key: value - last.get(key, 0)
            for key, value in now.items()
            if value != last.get(key, 0)
        }
        idle_now = self.tm.idle_cycles
        if partial:
            boundaries_passed = 0
        else:
            boundaries_passed = 1 + (cycle - self._next_boundary) // self.window_cycles
        self._boundaries_closed += boundaries_passed
        self.windows.append(
            StatWindow(
                index=self._boundaries_closed,
                start_cycle=self._last_close_cycle,
                end_cycle=cycle,
                idle_cycles=idle_now - self._last_idle,
                elided_windows=max(0, boundaries_passed - 1),
                partial=partial,
                deltas=deltas,
                gauges=self._sample_gauges(),
            )
        )
        self._last = now
        self._last_idle = idle_now
        self._last_close_cycle = cycle
        self._next_boundary = (
            self.tm.cycle - (self.tm.cycle % self.window_cycles)
            + self.window_cycles
        )

    def finalize(self) -> None:
        """Close the trailing partial window (idempotent)."""
        if self._finalized:
            return
        self._finalized = True
        if self.tm.cycle > self._last_close_cycle:
            self._close(self.tm.cycle, partial=True)

    # -- hierarchical aggregation ----------------------------------------

    def aggregate_tree(self) -> Dict[str, Dict[str, float]]:
        """``path -> {stat name -> subtree-aggregated value}``.

        Computed hop-by-hop: each node's aggregate is its own streams
        plus the sum of its children's aggregates, exactly the
        dataflow of the paper's tree-based statistics network (each
        Connector link carries one aggregated stream instead of one
        wire per counter).
        """
        order = list(self._walk_stats())
        aggregates: Dict[str, Dict[str, float]] = {}
        for path, module in order:
            own: Dict[str, float] = {}
            for name, value in module._counters.items():
                own[name] = own.get(name, 0) + value
            for name, stat in module._stats.items():
                own[name] = own.get(name, 0) + stat.value()
            aggregates[path] = own
        # Reversed preorder puts every node after all of its
        # descendants, so one pass accumulates child sums into parents.
        for path, _module in reversed(order):
            if "/" not in path:
                continue
            parent = path.rsplit("/", 1)[0]
            target = aggregates[parent]
            for name, value in aggregates[path].items():
                target[name] = target.get(name, 0) + value
        return aggregates

    def totals(self) -> Dict[str, float]:
        """Root-level aggregate across every attached tree, by name."""
        aggregates = self.aggregate_tree()
        out: Dict[str, float] = {}
        for root in self.roots:
            for name, value in aggregates[root.name].items():
                out[name] = out.get(name, 0) + value
        return out

    def registered_streams(self) -> int:
        """How many statistics streams the fabric actually carries."""
        return len(self._collect()) + len(self._sample_gauges())

    # -- statnet coupling -------------------------------------------------

    def statnet_reports(self):
        """Price the flat vs tree routing schemes (§4.7) from the
        *actually registered* streams of this fabric -- see
        :func:`repro.timing.statnet.compare`."""
        from repro.timing.statnet import compare_modules

        return compare_modules(self.roots)

    # -- export ----------------------------------------------------------

    def report(self) -> dict:
        self.finalize()
        return self._report([w.to_dict() for w in self.windows])

    def streamed_report(self) -> dict:
        """:meth:`report` with the window series as a
        :class:`WindowSeries`, for writing ``windows.json`` window by
        window: the same JSON text, without the whole series in memory."""
        self.finalize()
        return self._report(WindowSeries(self.windows))

    def _report(self, windows: list) -> dict:
        return {
            "window_cycles": self.window_cycles,
            "windows": windows,
            "elided_windows": sum(w.elided_windows for w in self.windows),
            "totals": dict(sorted(self.totals().items())),
            "registered_streams": self.registered_streams(),
        }
