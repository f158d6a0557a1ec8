"""Dynamic (in-flight) instruction and µop records.

Lifetime rule: the records form no reference cycle, so a retired or
squashed record is freed by reference counting as soon as the pipeline
drops it.  ``DynUop.instr`` is the only back edge (a DynInstr names its
µops by ``last_seq``, not by reference).  Between µops the links run
one way, producer to consumer: a producer lists the consumers it must
wake (``waiters``, emptied at its writeback) and a consumer keeps only
a count of the producers it waits for (``pending``).  Live records are
therefore bounded by the ROB, the queues and the register map.
"""

from __future__ import annotations

from typing import List

from repro.functional.trace import TraceEntry
from repro.microcode.uop import Uop

# µop lifecycle states.
U_WAITING = 0  # in the reservation station, operands pending
U_ISSUED = 1  # executing on a functional unit
U_DONE = 2  # result written back
U_SQUASHED = 3


class DynInstr:
    """One fetched dynamic instruction (maybe wrong-path)."""

    __slots__ = (
        "entry",
        "fetch_cycle",
        "last_seq",
        "uops_template",
        "uops_committed",
        "wrong_path",
        "mispredicted",
        "predicted_pc",
        "is_barrier",
        "resolved",
        "squashed",
    )

    def __init__(self, entry: TraceEntry, fetch_cycle: int, wrong_path: bool):
        self.entry = entry
        self.fetch_cycle = fetch_cycle
        self.last_seq = -1  # seq of the newest dispatched µop
        self.uops_template = ()  # set by decode, consumed by dispatch
        self.uops_committed = 0
        self.wrong_path = wrong_path
        self.mispredicted = False
        self.predicted_pc = -1
        self.is_barrier = False
        self.resolved = False
        self.squashed = False

    @property
    def is_control(self) -> bool:
        return self.entry.instr.is_control

    @property
    def in_no(self) -> int:
        return self.entry.in_no

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "DynInstr(IN=%d %s%s%s)" % (
            self.entry.in_no,
            self.entry.instr.name,
            " WP" if self.wrong_path else "",
            " MISP" if self.mispredicted else "",
        )


class DynUop:
    """One in-flight µop."""

    __slots__ = (
        "seq",
        "instr",
        "uop",
        "state",
        "pending",
        "waiters",
        "done_cycle",
        "is_last",
        "mem_paddr",
        "fu",
    )

    def __init__(self, seq: int, instr: DynInstr, uop: Uop, is_last: bool,
                 mem_paddr: int):
        self.seq = seq
        self.instr = instr
        self.uop = uop
        self.state = U_WAITING
        self.pending = 0  # producers not yet written back
        self.waiters: List["DynUop"] = []  # consumers; emptied at writeback
        self.done_cycle = -1
        self.is_last = is_last
        self.mem_paddr = mem_paddr  # the entry's, for a memory µop; else -1
        self.fu = None  # (unit_class, index) while issued

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "DynUop(#%d %s/%s st=%d)" % (
            self.seq,
            self.uop.kind,
            self.uop.op,
            self.state,
        )
