"""Architectural state of the simulated CPU."""

from __future__ import annotations

from typing import Tuple

from repro.isa.registers import (
    NUM_FPRS,
    NUM_GPRS,
    NUM_SRS,
    SR_STATUS,
    STATUS_IE,
    STATUS_KERNEL,
)

# STATUS shadow bits used by interrupt entry/exit (IRET).
STATUS_PREV_IE = 1 << 2
STATUS_PREV_KERNEL = 1 << 3


class ArchState:
    """Registers, flags, PC and special registers.

    Snapshot/restore is the basis of functional-model checkpoints; the
    snapshot is a flat tuple so copies are cheap.
    """

    __slots__ = ("regs", "fregs", "flags", "pc", "srs", "halted")

    def __init__(self):
        self.regs = [0] * NUM_GPRS
        self.fregs = [0.0] * NUM_FPRS
        self.flags = 0
        self.pc = 0
        self.srs = [0] * NUM_SRS
        self.halted = False
        # Boot in kernel mode with interrupts disabled, like any CPU.
        self.srs[SR_STATUS] = STATUS_KERNEL

    # -- mode queries ----------------------------------------------------
    # For cold callers: the per-instruction readers (cpu._translate,
    # the superblock keys and replay horizon, _maybe_take_interrupt)
    # test the srs[SR_STATUS] bits in line, since CPython 3.11 cannot
    # specialize a property load and every read costs a call.

    @property
    def kernel_mode(self) -> bool:
        return bool(self.srs[SR_STATUS] & STATUS_KERNEL)

    @property
    def interrupts_enabled(self) -> bool:
        return bool(self.srs[SR_STATUS] & STATUS_IE)

    # -- checkpointing ---------------------------------------------------

    def snapshot(self) -> Tuple:
        return (
            tuple(self.regs),
            tuple(self.fregs),
            self.flags,
            self.pc,
            tuple(self.srs),
            self.halted,
        )

    def restore(self, snap: Tuple) -> None:
        regs, fregs, self.flags, self.pc, srs, self.halted = snap
        self.regs[:] = regs
        self.fregs[:] = fregs
        self.srs[:] = srs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "ArchState(pc=%#x regs=%s flags=%#x halted=%s)" % (
            self.pc,
            ["%#x" % r for r in self.regs],
            self.flags,
            self.halted,
        )
