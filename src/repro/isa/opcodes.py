"""Opcode table for FastISA.

Every opcode has a fixed *format* that determines the instruction length
and operand encoding, and a *class* that the microcode compiler and the
timing model use to select functional units and latencies.

Formats (total length in bytes, excluding an optional ``REP`` prefix):

=========  ======  =======================================================
format     length  layout
=========  ======  =======================================================
``none``   1       opcode
``r``      2       opcode, mod (dst << 4 | src)
``ri8``    3       opcode, mod (dst << 4), imm8
``i8``     2       opcode, imm8
``ri32``   6       opcode, mod (dst << 4 | src), imm32 (little endian)
``m``      4       opcode, mod (dst << 4 | base), disp16 (signed)
``rel16``  3       opcode, rel16 (signed, relative to next instruction)
``port``   4       opcode, mod (reg << 4), port16
=========  ======  =======================================================

Variable lengths of 1-6 bytes (7 with a REP prefix) reproduce the
variable-length-CISC decode problem the paper highlights for x86.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

REP_PREFIX = 0xFF

FORMAT_LENGTHS = {
    "none": 1,
    "r": 2,
    "ri8": 3,
    "i8": 2,
    "ri32": 6,
    "m": 4,
    "rel16": 3,
    "port": 4,
}

# Instruction classes.  These drive microcode cracking and functional-unit
# selection in the timing model.
CLASS_ALU = "alu"
CLASS_MULDIV = "muldiv"
CLASS_FP = "fp"
CLASS_LOAD = "load"
CLASS_STORE = "store"
CLASS_BRANCH = "branch"  # conditional control flow
CLASS_JUMP = "jump"  # unconditional control flow
CLASS_CALL = "call"
CLASS_RET = "ret"
CLASS_SYS = "sys"
CLASS_NOP = "nop"
CLASS_STRING = "string"


@dataclass(frozen=True)
class OpSpec:
    """Static description of one opcode."""

    name: str
    value: int
    fmt: str
    iclass: str
    writes_flags: bool = False
    reads_flags: bool = False
    privileged: bool = False

    # Derived once at construction.  Both models read these once per
    # dynamic instruction, so they are plain instance attributes: a name
    # shadowed by a descriptor on the type (``property`` or
    # ``cached_property``) is never specialized by CPython's adaptive
    # interpreter, while a plain attribute of a uniform dict layout is.
    # Excluded from ``__init__``, equality, hashing and ``repr``.
    length: int = field(init=False, compare=False, repr=False)
    is_control: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "length", FORMAT_LENGTHS[self.fmt])
        object.__setattr__(self, "is_control", self.iclass in (
            CLASS_BRANCH,
            CLASS_JUMP,
            CLASS_CALL,
            CLASS_RET,
        ))


def _build_table() -> Dict[str, OpSpec]:
    spec_args = [
        # name, value, fmt, class, writes_flags, reads_flags, privileged
        ("NOP", 0x00, "none", CLASS_NOP),
        ("HALT", 0x01, "none", CLASS_SYS, False, False, True),
        ("SYSCALL", 0x02, "none", CLASS_SYS),
        ("IRET", 0x03, "none", CLASS_SYS, False, False, True),
        ("CLI", 0x04, "none", CLASS_SYS, False, False, True),
        ("STI", 0x05, "none", CLASS_SYS, False, False, True),
        ("RET", 0x06, "none", CLASS_RET),
        ("INT", 0x07, "i8", CLASS_SYS),
        # Data movement.
        ("MOV", 0x10, "r", CLASS_ALU),
        ("MOVI", 0x11, "ri32", CLASS_ALU),
        ("LD", 0x12, "m", CLASS_LOAD),
        ("ST", 0x13, "m", CLASS_STORE),
        ("PUSH", 0x14, "r", CLASS_STORE),
        ("POP", 0x15, "r", CLASS_LOAD),
        ("LEA", 0x16, "m", CLASS_ALU),
        ("LDB", 0x17, "m", CLASS_LOAD),
        ("STB", 0x18, "m", CLASS_STORE),
        # Integer ALU, register forms.
        ("ADD", 0x20, "r", CLASS_ALU, True),
        ("SUB", 0x21, "r", CLASS_ALU, True),
        ("AND", 0x22, "r", CLASS_ALU, True),
        ("OR", 0x23, "r", CLASS_ALU, True),
        ("XOR", 0x24, "r", CLASS_ALU, True),
        ("CMP", 0x25, "r", CLASS_ALU, True),
        ("TEST", 0x26, "r", CLASS_ALU, True),
        ("NOT", 0x27, "r", CLASS_ALU, True),
        ("NEG", 0x28, "r", CLASS_ALU, True),
        ("INC", 0x29, "r", CLASS_ALU, True),
        ("DEC", 0x2A, "r", CLASS_ALU, True),
        ("MUL", 0x2B, "r", CLASS_MULDIV, True),
        ("DIV", 0x2C, "r", CLASS_MULDIV, True),
        ("ADC", 0x2D, "r", CLASS_ALU, True, True),
        # Integer ALU, immediate forms.
        ("ADDI", 0x30, "ri32", CLASS_ALU, True),
        ("SUBI", 0x31, "ri32", CLASS_ALU, True),
        ("ANDI", 0x32, "ri32", CLASS_ALU, True),
        ("ORI", 0x33, "ri32", CLASS_ALU, True),
        ("XORI", 0x34, "ri32", CLASS_ALU, True),
        ("CMPI", 0x35, "ri32", CLASS_ALU, True),
        ("SHL", 0x36, "ri8", CLASS_ALU, True),
        ("SHR", 0x37, "ri8", CLASS_ALU, True),
        ("SAR", 0x38, "ri8", CLASS_ALU, True),
        # Control flow.
        ("JMP", 0x40, "rel16", CLASS_JUMP),
        ("JZ", 0x41, "rel16", CLASS_BRANCH, False, True),
        ("JNZ", 0x42, "rel16", CLASS_BRANCH, False, True),
        ("JL", 0x43, "rel16", CLASS_BRANCH, False, True),
        ("JGE", 0x44, "rel16", CLASS_BRANCH, False, True),
        ("JG", 0x45, "rel16", CLASS_BRANCH, False, True),
        ("JLE", 0x46, "rel16", CLASS_BRANCH, False, True),
        ("JC", 0x47, "rel16", CLASS_BRANCH, False, True),
        ("JNC", 0x48, "rel16", CLASS_BRANCH, False, True),
        ("CALL", 0x49, "rel16", CLASS_CALL),
        ("JR", 0x4A, "r", CLASS_JUMP),
        ("CALLR", 0x4B, "r", CLASS_CALL),
        ("LOOP", 0x4C, "m", CLASS_BRANCH),  # dec base-reg, branch if nonzero
        # String / complex CISC operations.  With a REP prefix, MOVSB and
        # STOSB iterate R2 times (R0 = source pointer, R1 = destination).
        ("MOVSB", 0x50, "none", CLASS_STRING),
        ("STOSB", 0x51, "none", CLASS_STRING),
        ("SCASB", 0x52, "none", CLASS_STRING, True),
        # Floating point.
        ("FADD", 0x60, "r", CLASS_FP),
        ("FSUB", 0x61, "r", CLASS_FP),
        ("FMUL", 0x62, "r", CLASS_FP),
        ("FDIV", 0x63, "r", CLASS_FP),
        ("FMOV", 0x64, "r", CLASS_FP),
        ("FLD", 0x65, "m", CLASS_FP),
        ("FST", 0x66, "m", CLASS_FP),
        ("FITOF", 0x67, "r", CLASS_FP),
        ("FFTOI", 0x68, "r", CLASS_FP),
        ("FSQRT", 0x69, "r", CLASS_FP),
        ("FCMP", 0x6A, "r", CLASS_FP, True),
        # Privileged / system interface.
        ("IN", 0x70, "port", CLASS_SYS, False, False, True),
        ("OUT", 0x71, "port", CLASS_SYS, False, False, True),
        ("TLBWR", 0x72, "r", CLASS_SYS, False, False, True),
        ("TLBFLUSH", 0x73, "none", CLASS_SYS, False, False, True),
        ("MOVSR", 0x74, "r", CLASS_SYS, False, False, True),  # SR <- GPR
        ("MOVRS", 0x75, "r", CLASS_SYS, False, False, True),  # GPR <- SR
    ]
    table = {}
    for args in spec_args:
        spec = OpSpec(*args)
        table[spec.name] = spec
    return table


OPCODES: Dict[str, OpSpec] = _build_table()
OPCODES_BY_VALUE: Dict[int, OpSpec] = {s.value: s for s in OPCODES.values()}

# Opcodes grouped by instruction class, in opcode-value order.  Tools
# that enumerate the ISA -- the FastFuzz program generator, coverage
# reports -- key off this table so a newly added opcode is picked up
# automatically instead of silently escaping generation.
OPCODES_BY_CLASS: Dict[str, tuple] = {}
for _spec in sorted(OPCODES.values(), key=lambda s: s.value):
    OPCODES_BY_CLASS.setdefault(_spec.iclass, ())
    OPCODES_BY_CLASS[_spec.iclass] += (_spec,)
del _spec


def by_class(iclass: str) -> tuple:
    """All opcodes of one instruction class, in opcode-value order."""
    return OPCODES_BY_CLASS.get(iclass, ())

# Branch condition -> (flag mask the condition reads, helper).  Used by
# both the functional model and the disassembler.
CONDITIONAL_BRANCHES = frozenset(
    name for name, spec in OPCODES.items() if spec.iclass == CLASS_BRANCH
)


def lookup(name: str) -> OpSpec:
    """Return the OpSpec for *name*, raising ``KeyError`` if unknown."""
    return OPCODES[name.upper()]


def decode_value(value: int) -> Optional[OpSpec]:
    """Return the OpSpec for an opcode byte, or ``None`` if invalid."""
    return OPCODES_BY_VALUE.get(value)
