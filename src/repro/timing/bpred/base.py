"""Branch predictor interface.

The timing model owns branch prediction ("Since most branch predictors
depend on timing information, the branch predictor must be implemented
in the timing model", paper section 2.1).

Determinism contract: predictor state is updated only at **commit**, so
prediction outcomes are a pure function of the committed instruction
stream.  This is what makes the FAST-coupled simulator produce exactly
the same cycle counts as the lock-step reference: wrong-path fetches
consult the predictor but never perturb it.
"""

from __future__ import annotations

from typing import Tuple

from repro.functional.trace import TraceEntry
from repro.timing.module import Module


class BranchPredictor(Module):
    """Direction + target prediction for one control instruction."""

    def predict(self, entry: TraceEntry) -> Tuple[bool, int]:
        """Fetch-time prediction for *entry* (a control instruction).

        Returns ``(taken, next_fetch_pc)``.  The target must always be a
        concrete PC: predictors fall back to the sequential successor
        when they have no target (e.g. a BTB miss).
        """
        raise NotImplementedError

    def update(self, entry: TraceEntry, taken: bool, target: int) -> None:
        """Commit-time training with the architectural outcome."""
        raise NotImplementedError

    @staticmethod
    def sequential(entry: TraceEntry) -> int:
        return (entry.pc + entry.instr.length) & 0xFFFFFFFF

    # -- common statistics helpers --------------------------------------

    def record_outcome(self, correct: bool) -> None:
        # Counters update in place: Module.bump would be a call each.
        counters = self._counters
        counters["predictions"] = counters.get("predictions", 0) + 1
        key = "correct" if correct else "mispredictions"
        counters[key] = counters.get(key, 0) + 1

    @property
    def accuracy(self) -> float:
        total = self.counter("predictions")
        if not total:
            return 1.0
        return self.counter("correct") / total
