"""Micro-op (µop) definitions.

Like virtually all modern x86 implementations, the simulated target
cracks each CISC instruction into RISC-like micro-ops (section 4.3 of
the paper).  A µop names its destination and source registers in a
*unified register namespace* so the rename stage can track dependencies
uniformly:

* 0-7    general-purpose registers R0-R7
* 8-15   floating point registers F0-F7
* 16     the flags register
* 17-20  microcode temporaries (architecturally invisible)
* -1     "no register"
"""

from __future__ import annotations

from typing import Optional

GPR_BASE = 0
FPR_BASE = 8
FLAGS_REG = 16
TEMP_BASE = 17
NUM_TEMPS = 4
NUM_UOP_REGS = TEMP_BASE + NUM_TEMPS
NO_REG = -1

# µop kinds.
UOP_ALU = "alu"
UOP_MULDIV = "muldiv"
UOP_FP = "fp"
UOP_LOAD = "load"
UOP_STORE = "store"
UOP_BRANCH = "branch"
UOP_JUMP = "jump"
UOP_SYS = "sys"
UOP_NOP = "nop"

# Functional units in the timing model.
UNIT_ALU = "alu"
UNIT_BRU = "bru"
UNIT_LSU = "lsu"
UNIT_FPU = "fpu"

KIND_TO_UNIT = {
    UOP_ALU: UNIT_ALU,
    UOP_MULDIV: UNIT_ALU,
    UOP_FP: UNIT_FPU,
    UOP_LOAD: UNIT_LSU,
    UOP_STORE: UNIT_LSU,
    UOP_BRANCH: UNIT_BRU,
    UOP_JUMP: UNIT_BRU,
    UOP_SYS: UNIT_ALU,
    UOP_NOP: UNIT_ALU,
}

# µop ops that occupy their unit for the full latency (not pipelined).
UNPIPELINED = frozenset({"div", "fdiv", "fsqrt"})


class Uop:
    """One micro-op.

    ``__slots__`` keeps these small: the timing model allocates one per
    dynamic µop and the simulator executes millions of them.
    """

    # "meta" is a lazily-computed cache of the dispatch/issue metadata
    # the timing model's back end reads (see :func:`uop_meta`); it is
    # derived from the other fields and excluded from equality and
    # hashing.
    _FIELDS = ("kind", "op", "dst", "src1", "src2", "lat", "wflags", "rflags")
    __slots__ = _FIELDS + ("meta",)

    def __init__(
        self,
        kind: str,
        op: str = "",
        dst: int = NO_REG,
        src1: int = NO_REG,
        src2: int = NO_REG,
        lat: int = 1,
        wflags: bool = False,
        rflags: bool = False,
    ):
        self.kind = kind
        self.op = op
        self.dst = dst
        self.src1 = src1
        self.src2 = src2
        self.lat = lat
        self.wflags = wflags
        self.rflags = rflags
        self.meta: Optional["UopMeta"] = None

    @property
    def unit(self) -> str:
        return KIND_TO_UNIT[self.kind]

    @property
    def is_mem(self) -> bool:
        return self.kind in (UOP_LOAD, UOP_STORE)

    def sources(self):
        """Yield source register ids (including flags when read)."""
        if self.src1 != NO_REG:
            yield self.src1
        if self.src2 != NO_REG:
            yield self.src2
        if self.rflags:
            yield FLAGS_REG

    def destinations(self):
        """Yield destination register ids (including flags when written)."""
        if self.dst != NO_REG:
            yield self.dst
        if self.wflags:
            yield FLAGS_REG

    def __repr__(self) -> str:
        return "Uop(%s/%s d=%d s1=%d s2=%d lat=%d%s%s)" % (
            self.kind,
            self.op,
            self.dst,
            self.src1,
            self.src2,
            self.lat,
            " WF" if self.wflags else "",
            " RF" if self.rflags else "",
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Uop):
            return NotImplemented
        return all(
            getattr(self, field) == getattr(other, field) for field in self._FIELDS
        )

    def __hash__(self) -> int:
        return hash(tuple(getattr(self, field) for field in self._FIELDS))


class UopMeta:
    """Dispatch/issue metadata of one µop template.

    Templates are immutable once cracked, so this is computed once per
    template instead of re-walking the ``sources()``/``destinations()``
    generators at every dispatch.
    """

    __slots__ = ("unit", "is_mem", "sources", "destinations", "holds_unit")

    def __init__(self, uop: Uop):
        kind = uop.kind
        self.unit = KIND_TO_UNIT[kind]
        self.is_mem = kind == UOP_LOAD or kind == UOP_STORE
        self.sources = tuple(uop.sources())
        self.destinations = tuple(uop.destinations())
        # Occupies its functional unit for the whole latency.
        self.holds_unit = uop.op in UNPIPELINED or kind == UOP_LOAD


def uop_meta(uop: Uop) -> UopMeta:
    """Compute and cache ``uop.meta`` (callers read the cache first)."""
    meta = uop.meta = UopMeta(uop)
    return meta


def fpr(index: int) -> int:
    """Unified id of floating point register *index*."""
    return FPR_BASE + index


def temp(index: int) -> int:
    """Unified id of microcode temporary *index*."""
    if index >= NUM_TEMPS:
        raise ValueError("microcode temporary %d out of range" % index)
    return TEMP_BASE + index


NOP_UOP = Uop(UOP_NOP, "nop")
