"""Structured, cycle-stamped event tracing for the FM/TM seam.

The interesting behaviour of a FAST simulator is concentrated at the
functional/timing boundary: mispredict ``set_pc`` round trips, wrong-
path resolution, rollback replays, interrupt deliveries, checkpoint
creation, trace-buffer high-water marks.  :class:`EventTracer` records
those as structured events in a bounded ring buffer and serializes them
as JSONL.

Determinism is a hard requirement (it is what makes traces diffable
across runs): records carry only target-deterministic fields -- the
timing model's cycle at emit time, a monotonic sequence number, the
event kind and its payload.  No wall-clock, no ids, no addresses of
host objects.  Serialization uses sorted keys and compact separators so
two same-seed runs produce *byte-identical* output.

Tracing is read-only with respect to the simulation: emitting an event
never touches FM or TM state, so ``TimingStats`` are bit-identical with
tracing enabled or disabled.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import (Callable, Deque, Dict, Iterable, Iterator, List,
                    Optional, Tuple)

DEFAULT_CAPACITY = 65536

# Records per text chunk of :func:`jsonl_chunks` (about 25 KB of seam
# events).
JSONL_CHUNK_RECORDS = 256

_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def jsonl_chunks(records: Iterable[dict]) -> Iterator[str]:
    """Byte-reproducible JSONL as text chunks of up to
    :data:`JSONL_CHUNK_RECORDS` lines: one sorted-key compact record per
    line, every line newline-terminated, no chunk for no records."""
    encode = _ENCODER.encode
    lines: List[str] = []
    for record in records:
        lines.append(encode(record))
        if len(lines) == JSONL_CHUNK_RECORDS:
            lines.append("")
            yield "\n".join(lines)
            lines = []
    if lines:
        lines.append("")
        yield "\n".join(lines)


@dataclass(frozen=True)
class Event:
    """One cycle-stamped record from the FM/TM seam: a read-side view
    built from the tracer's compact record on iteration."""

    seq: int
    cycle: int
    kind: str
    fields: Dict[str, object]

    def to_dict(self) -> dict:
        return _event_dict(self.seq, self.cycle, self.kind, self.fields)

    def to_json(self) -> str:
        return _ENCODER.encode(self.to_dict())


def _event_dict(seq: int, cycle: int, kind: str, fields) -> dict:
    out: Dict[str, object] = {"seq": seq, "cycle": cycle, "kind": kind}
    out.update(fields)
    return out


class EventTracer:
    """A bounded ring buffer of seam events.

    When the ring is full the oldest events are dropped (and counted in
    :attr:`dropped`) -- observability must never grow without bound
    inside a hundred-million-cycle run.  ``seq`` keeps climbing across
    drops, so consumers can detect the gap.

    Each event is stored as one flat tuple ``(cycle, shape, *values)``,
    about half the heap of a dataclass holding a payload dict: *shape*
    is the ``(kind, keys)`` pair naming the values, interned so every
    event of one kind and field set shares it.  ``seq`` is not stored:
    the ring holds consecutive sequence numbers, so an event's is its
    position plus that of the oldest retained one.  Iteration and
    :attr:`events` rebuild :class:`Event` views.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 cycle_source: Optional[Callable[[], int]] = None):
        if capacity < 1:
            raise ValueError("tracer capacity must be >= 1")
        self.capacity = capacity
        self.cycle_source = cycle_source
        self.seq = 0
        self.dropped = 0
        self._ring: Deque[tuple] = deque(maxlen=capacity)
        self._shapes: Dict[Tuple[str, Tuple[str, ...]],
                           Tuple[str, Tuple[str, ...]]] = {}
        # kind -> count, over the whole run (not just what the ring
        # still holds); cheap enough to keep always.
        self.kind_counts: Dict[str, int] = {}

    def emit(self, kind: str, **fields) -> None:
        cycle = self.cycle_source() if self.cycle_source is not None else 0
        shape = (kind, tuple(fields))
        shape = self._shapes.setdefault(shape, shape)
        self.seq += 1
        self.kind_counts[kind] = self.kind_counts.get(kind, 0) + 1
        if len(self._ring) == self.capacity:
            self.dropped += 1
        self._ring.append((cycle, shape, *fields.values()))

    def __len__(self) -> int:
        return len(self._ring)

    def _numbered(self) -> Iterator[Tuple[int, tuple]]:
        return enumerate(self._ring, self.seq - len(self._ring))

    def __iter__(self) -> Iterator[Event]:
        for seq, record in self._numbered():
            kind, keys = record[1]
            yield Event(seq, record[0], kind, dict(zip(keys, record[2:])))

    @property
    def events(self) -> List[Event]:
        return list(self)

    def footer(self) -> dict:
        """The gap-detection summary record appended to JSONL output:
        whole-run recorded/dropped counts and exact per-kind totals,
        which survive ring overflow even when the events themselves
        were dropped.  Target-deterministic, like every record."""
        return {
            "kind": "trace_summary",
            "recorded": self.seq,
            "retained": len(self._ring),
            "dropped": self.dropped,
            "kinds": dict(sorted(self.kind_counts.items())),
        }

    def _dicts(self, footer: bool) -> Iterator[dict]:
        for seq, record in self._numbered():
            kind, keys = record[1]
            yield _event_dict(seq, record[0], kind, zip(keys, record[2:]))
        if footer:
            yield self.footer()

    def iter_jsonl(self, footer: bool = False) -> Iterator[str]:
        """Byte-reproducible JSONL in text chunks (:func:`jsonl_chunks`):
        one sorted-key compact record per line.  With *footer*, a final
        ``trace_summary`` record carries the whole-run drop accounting
        so consumers can detect ring-overflow gaps.  The one
        serializer behind :meth:`to_jsonl`, :meth:`write_jsonl` and the
        FastFlight store."""
        return jsonl_chunks(self._dicts(footer))

    def to_jsonl(self, footer: bool = False) -> str:
        """:meth:`iter_jsonl` joined: trailing newline if nonempty."""
        return "".join(self.iter_jsonl(footer=footer))

    def write_jsonl(self, path: str, footer: bool = False) -> int:
        """Stream the ring to *path*; returns the number of records."""
        with open(path, "w") as fh:
            fh.writelines(self.iter_jsonl(footer=footer))
        return len(self._ring)

    def summary(self) -> dict:
        return {
            "capacity": self.capacity,
            "recorded": self.seq,
            "retained": len(self._ring),
            "dropped": self.dropped,
            "kinds": dict(sorted(self.kind_counts.items())),
        }


class _FunctionalObserver:
    """Adapter giving the FunctionalModel a tracer-shaped observer.

    The FM has no notion of target cycles; events it raises (checkpoint
    creation, rollback replay) are stamped with the timing model's
    cycle at emit time, which is deterministic because every FM step is
    driven synchronously from inside a TM tick.
    """

    def __init__(self, tracer: EventTracer):
        self.tracer = tracer

    def on_checkpoint(self, in_no: int, live: int) -> None:
        self.tracer.emit("fm_checkpoint", in_no=in_no, live_checkpoints=live)

    def on_rollback(self, target_in: int, replayed: int) -> None:
        self.tracer.emit("fm_rollback", target_in=target_in,
                         replayed=replayed)


def attach_tracer(sim, capacity: int = DEFAULT_CAPACITY) -> EventTracer:
    """Wire one :class:`EventTracer` across a FastSimulator's seam.

    Hooks the trace buffer feed (mispredict/resolve/interrupt/high-
    water), the functional model (checkpoints, rollbacks) and the
    timing model's interrupt coordinator, all stamping with
    ``sim.tm.cycle``.  Call *before* ``sim.run()``.
    """
    tm = sim.tm
    tracer = EventTracer(capacity=capacity,
                         cycle_source=lambda: tm.cycle)
    sim.feed.tracer = tracer
    sim.fm.observer = _FunctionalObserver(tracer)
    tm.tracer = tracer
    return tracer
