"""The instruction-feed interface between functional and timing models.

The timing model consumes trace entries *in fetch order* through this
interface and drives path changes through it.  The two concrete feeds
are the point of the paper:

* :class:`~repro.baselines.lockstep.LockStepFeed` executes the
  functional model exactly when the timing model fetches (the
  Asim/Timing-First structure: a round trip per fetch), and
* :class:`~repro.fast.trace_buffer.TraceBufferFeed` lets the functional
  model run ahead speculatively through a trace buffer, paying
  round-trips only on mis-speculation and resolution (the FAST
  structure).

Both wrap the same functional model and must deliver identical streams;
the cycle-equivalence tests rely on that.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.functional.trace import TraceEntry


class InstructionFeed:
    """What the timing model needs from the functional side.

    Entries reach fetch through :attr:`entries`, a deque in fetch order:
    fetch reads its head in place and pops what it takes, and calls
    :meth:`refill` when it finds it empty.  :meth:`peek` and
    :meth:`consume` are the same protocol as two calls.
    """

    # Optional FastScope event tracer (repro.observability.events).  A
    # feed that implements seam events emits through this when it is
    # non-None; it must never be consulted for feed decisions, so any
    # feed stays bit-identical with tracing on or off.
    tracer = None

    def __init__(self) -> None:
        # One deque for the feed's lifetime: fetch holds it.
        self.entries: Deque[TraceEntry] = deque()

    def refill(self) -> None:
        """Append the next fetch-order entries to :attr:`entries`, if
        any can be produced now (CPU halted / shut down: none).  A feed
        that never produces entries keeps this no-op."""

    def peek(self) -> Optional[TraceEntry]:
        """Next fetch-order entry, or None (CPU halted / shut down)."""
        entries = self.entries
        if not entries:
            self.refill()
            if not entries:
                return None
        return entries[0]

    def consume(self) -> TraceEntry:
        """Consume the entry last returned by :meth:`peek`."""
        return self.entries.popleft()

    def force_wrong_path(self, branch_in_no: int, wrong_pc: int) -> None:
        """The fetched branch was mispredicted: produce wrong-path
        instructions starting at *wrong_pc* (paper: ``set_pc``)."""
        raise NotImplementedError

    def resolve_wrong_path(self, branch_in_no: int, actual_pc: int) -> None:
        """The branch resolved: resume the correct path at *actual_pc*."""
        raise NotImplementedError

    def commit(self, in_no: int, count: int = 1) -> None:
        """Instructions up to *in_no* committed, *count* of them since
        the last call: rollback resources may be released."""
        raise NotImplementedError

    def interrupt_delivery(self, after_in: int, line: int):
        """A timing-model-generated interrupt arrives at the commit
        boundary after *after_in* (cycle-driven interrupt mode,
        section 3.4).  Returns ``(taken, replayed)`` from the FM."""
        raise NotImplementedError

    def idle_tick(self) -> None:
        """One target cycle passed with nothing to fetch (HALT): let
        device time advance so an interrupt can eventually arrive."""
        raise NotImplementedError

    # -- idle fast-forward (compiled tick engine) -----------------------

    def idle_horizon(self) -> int:
        """How many *further* idle target cycles are guaranteed to be
        uneventful.

        ``k > 0`` promises that the next ``k`` calls to :meth:`idle_tick`
        would each return nothing to fetch and wake no instruction
        stream, so the compiled engine may batch them into one
        :meth:`idle_ticks` call.  The contract is one-sided: a feed may
        always *under*-estimate (0 disables batching entirely -- the
        default, so feeds that predate the compiled engine stay
        correct), but must never overestimate, or the batched run would
        skip a wake-up the legacy engine sees.
        """
        return 0

    def idle_ticks(self, count: int) -> None:
        """Advance *count* idle cycles at once.  Only called with
        ``count <= idle_horizon()``; the default just loops."""
        for _ in range(count):
            self.idle_tick()

    @property
    def finished(self) -> bool:
        """True once the simulated system has shut down and every entry
        has been consumed: never while :attr:`entries` holds one (the
        compiled engine's run loop reads this only on an empty deque)."""
        raise NotImplementedError


class NullFeed(InstructionFeed):
    """A feed with no instructions: the CPU is already shut down.

    Used to instantiate a timing model for structural inspection
    (FastLint's graph extraction, resource estimation) without wiring a
    functional model behind it.
    """

    def idle_tick(self) -> None:
        pass

    @property
    def finished(self) -> bool:
        return True
