"""Leapfrog checkpoints with memory write-logging.

"We currently support set_pc using periodic software checkpoints of
architectural state along with memory and I/O logging.  At least two
checkpoints that leapfrog each other are maintained to ensure that the
functional model can rollback to any non-committed instruction.  As
commits return from the timing model, checkpoints are released and
others are taken."  (paper section 3.2)

A checkpoint records the architectural state, TLB and device state
*after* executing instruction ``in_no``.  Between checkpoints, every
memory word written is logged with its pre-image; rolling back to a
checkpoint applies the undo log in reverse, restores the snapshots, and
the CPU then re-executes forward to the exact target instruction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple


@dataclass
class Checkpoint:
    in_no: int
    arch: Tuple
    tlb: Tuple
    bus: Tuple
    undo_base: int  # index into the undo log at snapshot time


@dataclass
class CheckpointStats:
    taken: int = 0
    released: int = 0
    undo_entries: int = 0
    rollbacks: int = 0
    reexecuted_instructions: int = 0


class CheckpointManager:
    """Owns the checkpoint list and the shared memory undo log."""

    def __init__(self, interval: int = 128, max_checkpoints: int = 64):
        if interval < 1:
            raise ValueError("checkpoint interval must be >= 1")
        self.interval = interval
        self.max_checkpoints = max_checkpoints
        self._checkpoints: List[Checkpoint] = []
        # Undo log entries: (addr, old_word).  Indexes partition it by
        # checkpoint via Checkpoint.undo_base.
        self._undo: List[Tuple[int, int]] = []
        self.stats = CheckpointStats()

    def __len__(self) -> int:
        """Live (retained) checkpoints."""
        return len(self._checkpoints)

    # -- write logging -----------------------------------------------------

    def log_write(self, addr: int, old_word: int) -> None:
        self._undo.append((addr, old_word))
        self.stats.undo_entries += 1

    # -- checkpoint lifecycle ------------------------------------------------

    def due(self, in_no: int) -> bool:
        """Should a checkpoint be taken after instruction *in_no*?"""
        if not self._checkpoints:
            return True
        return in_no - self._checkpoints[-1].in_no >= self.interval

    def next_due(self, in_no: int) -> int:
        """The smallest instruction count > *in_no* at which ``due``
        becomes true -- the superblock replay loop precomputes this so
        its fused loop checkpoints on exactly the interpreted grid."""
        if not self._checkpoints:
            return in_no + 1
        return self._checkpoints[-1].in_no + self.interval

    def take(self, in_no: int, arch: Tuple, tlb: Tuple, bus: Tuple) -> None:
        if self._checkpoints and in_no <= self._checkpoints[-1].in_no:
            raise ValueError("checkpoints must advance monotonically")
        self._checkpoints.append(
            Checkpoint(in_no, arch, tlb, bus, len(self._undo))
        )
        self.stats.taken += 1
        if len(self._checkpoints) > self.max_checkpoints:
            # Merge forward: dropping the oldest is only safe because
            # release() keeps at least one checkpoint at or before every
            # uncommitted instruction; hitting this limit means commits
            # are extremely stale, so we refuse instead of corrupting.
            raise RuntimeError(
                "checkpoint limit exceeded; timing model stopped committing?"
            )

    def release(self, committed_in: int) -> None:
        """Free checkpoints no longer needed once *committed_in* commits.

        We must always retain the newest checkpoint with
        ``in_no <= committed_in`` (rollback to committed_in+1 needs it),
        and everything after it.  The list is in IN order, so the scan
        stops at the first checkpoint newer than *committed_in*.
        """
        keep_from = 0
        for i, ckpt in enumerate(self._checkpoints):
            if ckpt.in_no > committed_in:
                break
            keep_from = i
        if keep_from > 0:
            dropped = self._checkpoints[:keep_from]
            self._checkpoints = self._checkpoints[keep_from:]
            self.stats.released += len(dropped)
            # Trim undo entries older than the new oldest checkpoint.
            base = self._checkpoints[0].undo_base
            if base:
                del self._undo[:base]
                for ckpt in self._checkpoints:
                    ckpt.undo_base -= base

    # -- rollback ------------------------------------------------------------

    def checkpoint_for(self, target_in: int) -> Optional[Checkpoint]:
        """Newest checkpoint with ``in_no <= target_in``."""
        best = None
        for ckpt in self._checkpoints:
            if ckpt.in_no <= target_in:
                best = ckpt
            else:
                break
        return best

    def undo_entries_since(self, ckpt: Checkpoint):
        """Undo entries newer than *ckpt*, in reverse (apply order)."""
        return reversed(self._undo[ckpt.undo_base :])

    def truncate_to(self, ckpt: Checkpoint) -> None:
        """Discard checkpoints and undo entries newer than *ckpt*."""
        index = self._checkpoints.index(ckpt)
        self._checkpoints = self._checkpoints[: index + 1]
        del self._undo[ckpt.undo_base :]

    @property
    def checkpoints(self) -> Tuple[Checkpoint, ...]:
        return tuple(self._checkpoints)

    @property
    def oldest_in(self) -> Optional[int]:
        return self._checkpoints[0].in_no if self._checkpoints else None
