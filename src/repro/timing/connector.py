"""Connectors: parameterized FIFOs joining timing-model Modules.

"Modules are connected by Connectors which are FIFOs that enforce
timing and throughput constraints.  Connectors can be configured for
input throughput, output throughput, minimum latency and maximum
transactions ...  By specifying parameters to a Connector, one can ...
reconfigure a target from a single issue machine to a multi-issue
machine."  (paper section 4)

A Connector is clocked by the timing model: producers ``push`` up to
``input_throughput`` items per cycle; items become visible to the
consumer ``min_latency`` cycles later; consumers ``pop`` up to
``output_throughput`` items per cycle; at most ``max_transactions``
items are in flight.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional, Tuple

from repro.timing.module import Module


class Connector(Module):
    """A latency/throughput-constrained FIFO between two Modules."""

    STABLE_ATTRS = ("_queue", "input_throughput", "output_throughput",
                    "min_latency", "max_transactions")

    def __init__(
        self,
        name: str,
        input_throughput: int = 1,
        output_throughput: int = 1,
        min_latency: int = 1,
        max_transactions: int = 4,
    ):
        super().__init__(name)
        if min_latency < 0:
            raise ValueError("min_latency must be >= 0")
        if max_transactions < 1:
            raise ValueError("max_transactions must be >= 1")
        self.input_throughput = input_throughput
        self.output_throughput = output_throughput
        self.min_latency = min_latency
        self.max_transactions = max_transactions
        self._queue: Deque[Tuple[int, Any]] = deque()  # (visible_cycle, item)
        self._now = 0
        self._pushed_this_cycle = 0
        self._popped_this_cycle = 0
        # Explicit dataflow endpoints.  Bluespec infers producers and
        # consumers from the module connections it compiles; here the
        # builder declares them so FastLint (repro.analysis) can extract
        # the dataflow graph and reject malformed targets before a run.
        self.producer: Optional[Module] = None
        self.consumer: Optional[Module] = None
        # Optional event tracing with triggering (the paper's planned
        # "logging/tracing statistics support with triggering (start,
        # stop and dump logs/traces based on user-specified criteria)",
        # section 4.7).  Disabled by default: tracing is free in FPGA
        # hardware but not on this host.
        self._trace_log: Optional[list] = None
        self._trace_limit = 0
        self._trigger = None
        # FastWatch credit conservation (registered here, at
        # construction -- FastLint rule IV001): in-flight transactions
        # never exceed the configured capacity, and per-cycle traffic
        # never exceeds the declared throughput budgets.  The armed
        # bound is an observation-only copy so violation-injection
        # tests can shrink it without touching the FIFO itself.
        self._transactions_limit = max_transactions
        self.new_invariant(
            "credit_conservation",
            check=self._credits_conserved,
            expr="len(m._queue) <= m._transactions_limit"
                 " and m._pushed_this_cycle <= m.input_throughput"
                 " and m._popped_this_cycle <= m.output_throughput",
            probe=lambda: float(len(self._queue)),
            desc="in-flight <= max_transactions and per-cycle "
                 "push/pop counts within throughput budgets")

    def _credits_conserved(self) -> bool:
        return (
            len(self._queue) <= self._transactions_limit
            and self._pushed_this_cycle <= self.input_throughput
            and self._popped_this_cycle <= self.output_throughput
        )

    # -- dataflow endpoints -------------------------------------------------

    def bind_endpoints(
        self,
        producer: Optional[Module] = None,
        consumer: Optional[Module] = None,
    ) -> "Connector":
        """Declare which Modules push into and pop from this Connector.

        Either side may be bound later (e.g. the consumer is built after
        the producer); rebinding an already-bound side raises, since a
        Connector joins exactly one producer to one consumer.
        """
        if producer is not None:
            if self.producer is not None and self.producer is not producer:
                raise ValueError(
                    "connector %r already has producer %r" % (self.name, self.producer)
                )
            self.producer = producer
        if consumer is not None:
            if self.consumer is not None and self.consumer is not consumer:
                raise ValueError(
                    "connector %r already has consumer %r" % (self.name, self.consumer)
                )
            self.consumer = consumer
        return self

    @property
    def bound(self) -> bool:
        """True when both endpoints have been declared."""
        return self.producer is not None and self.consumer is not None

    # -- clocking -----------------------------------------------------------

    def bind_tick(self):
        """Pre-bound per-cycle step for the compiled schedule.  The
        schedule clocks every Connector first each cycle (budget reset
        precedes all unit evaluation), mirroring the legacy engine."""
        return self.tick

    def tick(self, cycle: int) -> None:
        """Advance to *cycle*; resets per-cycle throughput budgets."""
        self._now = cycle
        self._pushed_this_cycle = 0
        self._popped_this_cycle = 0

    # -- producer side --------------------------------------------------------

    def can_push(self) -> bool:
        return (
            self._pushed_this_cycle < self.input_throughput
            and len(self._queue) < self.max_transactions
        )

    def push(self, item: Any) -> bool:
        """Push one item; returns False if throughput/capacity exhausted."""
        if not self.can_push():
            self.bump("push_stalls")
            return False
        self.put(item)
        return True

    def put(self, item: Any) -> None:
        """Push one item without the capacity check: for a producer
        that has just seen ``can_push()`` return True."""
        self._queue.append((self._now + self.min_latency, item))
        self._pushed_this_cycle += 1
        self.bump("pushes")
        if self._trace_log is not None and (
            self._trigger is None or self._trigger(self._now, item)
        ):
            if len(self._trace_log) < self._trace_limit:
                self._trace_log.append((self._now, item))

    # -- tracing with triggering (section 4.7) -------------------------

    def start_trace(self, limit: int = 4096, trigger=None) -> None:
        """Begin logging pushed transactions.

        *trigger*, if given, is a ``(cycle, item) -> bool`` predicate
        that selects which transactions to log (the "user-specified
        criteria").  At most *limit* events are retained.
        """
        self._trace_log = []
        self._trace_limit = limit
        self._trigger = trigger

    def stop_trace(self) -> list:
        """Stop logging and return the captured ``(cycle, item)`` events."""
        log = self._trace_log or []
        self._trace_log = None
        self._trigger = None
        return log

    @property
    def tracing(self) -> bool:
        return self._trace_log is not None

    # -- consumer side ----------------------------------------------------------

    def can_pop(self) -> bool:
        return (
            self._popped_this_cycle < self.output_throughput
            and len(self._queue) > 0
            and self._queue[0][0] <= self._now
        )

    def peek(self) -> Optional[Any]:
        if not self._queue:
            return None
        visible, item = self._queue[0]
        return item if visible <= self._now else None

    def pop(self) -> Optional[Any]:
        """Pop the oldest visible item, or None."""
        if not self.can_pop():
            return None
        self._popped_this_cycle += 1
        self.bump("pops")
        return self._queue.popleft()[1]

    # -- management ---------------------------------------------------------------

    def flush(self) -> int:
        """Drop everything in flight (pipeline squash).  Returns count."""
        dropped = len(self._queue)
        self._queue.clear()
        self.bump("flushes")
        return dropped

    def drop_if(self, predicate) -> int:
        """Selectively squash items (e.g. wrong-path entries)."""
        kept = [entry for entry in self._queue if not predicate(entry[1])]
        dropped = len(self._queue) - len(kept)
        self._queue.clear()
        self._queue.extend(kept)
        return dropped

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def occupancy(self) -> int:
        return len(self._queue)

    def resource_estimate(self):
        # FIFO storage maps to distributed RAM / small BRAMs; the paper
        # notes Connectors are BRAM-hungry before optimization.
        brams = 0
        if self.max_transactions > 4:
            brams = 1 + self.max_transactions // 8
        return {
            "luts": 80 + 10 * self.max_transactions,
            "brams": brams,
        }


# The compiled engine's stage generator (repro.timing.pipeline.fastpath)
# splices these methods' source in place of calls on a Connector inside
# a pipeline stage; any other Connector call there fails the bind.
# Captured at import, so a class-level wrapper installed later (a
# profiler's span, say) changes the calls it wraps, not what is inlined.
# Each template names only ``self``, its parameters and builtins, and
# returns only as its last statement or at the end of a top-level
# ``if`` block.
INLINE_TEMPLATES = {
    name: vars(Connector)[name]
    for name in ("tick", "can_push", "push", "put", "can_pop", "pop")
}
