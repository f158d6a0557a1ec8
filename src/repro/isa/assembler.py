"""A small one-pass assembler for FastISA.

Supports labels, numeric and symbolic operands, and data directives.
It exists so FastOS and the synthetic workloads can be written as
readable assembly-generating Python instead of hand-built byte arrays.

Syntax overview::

    ; comment
    .org 0x1000            ; set location counter
    start:
        MOVI R0, 100
        MOVI R1, buffer    ; labels usable as 32-bit immediates
    loop:
        LD   R2, [R1+0]
        ADD  R0, R2
        DEC  R1
        JNZ  loop
        REP MOVSB
        MOVSR EPC, R3      ; special registers by name
        FLD  F0, [R1+4]
        HALT
    buffer:
        .word 1, 2, 3
        .byte 0xFF
        .ascii "hi"
        .space 16
        .align 4

Each line is parsed once and its bytes are appended to the image at
once.  Only what names a label -- an instruction immediate or a
``.word`` entry -- and a branch whose numeric target is out of rel16
range wait for the fixup pass at the end, so errors surface in the
same order as a classic two-pass assembler's: every parse error first,
in line order, then every resolution error, in line order.  Every
source the simulator assembles is pinned byte-for-byte by
``tests/test_assembler_golden.py``.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass, field
from typing import Dict, List, NoReturn, Optional, Tuple, Union

from repro.isa import registers
from repro.isa.encoding import encode_fields
from repro.isa.opcodes import OPCODES, OpSpec


class AssemblerError(ValueError):
    """Raised on a syntax or semantic error, with line information."""


_LABEL_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.$]*$")
_LINE_LABEL_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_.$]*):\s*(.*)$")
_MEM_RE = re.compile(r"^\[([A-Za-z0-9_]+)\s*(?:([+-])\s*([^\]]+))?\]$")
# No integer literal starts with one of these, and every label does.
_LABEL_START = frozenset(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")

_GPRS = {name: i for i, name in enumerate(registers.GPR_NAMES)}
_GPRS.update(SP=registers.SP, FP=registers.FP)
_FPRS = {name: i for i, name in enumerate(registers.FPR_NAMES)}
_SRS = {name: i for i, name in enumerate(registers.SR_NAMES)}

# (addr, spec, dst, src, imm, rep, imm_is_rel, line_no): an instruction
# whose immediate awaits resolution, or a .word entry when spec is None.
_Fixup = Tuple[int, Optional[OpSpec], int, int, Union[int, str], bool,
               bool, int]


@dataclass
class AssembledProgram:
    """Result of assembling a source text."""

    data: bytes
    base: int
    symbols: Dict[str, int] = field(default_factory=dict)
    # Number of instructions assembled (data directives excluded).  The
    # FastFuzz shrinker minimizes against this measure.
    instruction_count: int = 0

    @property
    def end(self) -> int:
        return self.base + len(self.data)

    def symbol(self, name: str) -> int:
        return self.symbols[name]


def _encode(addr: int, spec: OpSpec, dst: int, src: int, imm: int,
            rep: bool, imm_is_rel: bool) -> Optional[bytes]:
    """One instruction's bytes at *addr*, or None when its rel16
    displacement is out of range."""
    if imm_is_rel:
        imm -= addr + spec.length + rep
        if not -0x8000 <= imm < 0x8000:
            return None
    return encode_fields(spec, dst, src, imm, rep)


class Assembler:
    """One-pass assembler.  Use :func:`assemble` for the common case."""

    def __init__(self, base: int = 0):
        self.base = base
        self._pc = base
        self._symbols: Dict[str, int] = {}
        self._image = bytearray()  # the bytes from base to _pc
        self._fixups: List[_Fixup] = []
        self._count = 0
        self._line_no = 0

    def run(self, source: str) -> AssembledProgram:
        for self._line_no, raw in enumerate(source.splitlines(), start=1):
            line = raw.split(";", 1)[0].strip()
            if not line:
                continue
            if ":" in line:
                line = self._labels(line)
                if not line:
                    continue
            if line[0] == ".":
                self._directive(line)
            else:
                self._instruction(line)
        return self._finish()

    def _labels(self, line: str) -> str:
        """Define the labels *line* starts with; return the rest."""
        while True:
            match = _LINE_LABEL_RE.match(line)
            if not match:
                return line
            label, line = match.group(1), match.group(2).strip()
            if label in self._symbols:
                self._err("duplicate label %r" % label)
            self._symbols[label] = self._pc
            if not line:
                return line

    def _emit(self, blob: bytes) -> None:
        self._image += blob
        self._pc += len(blob)

    def _directive(self, line: str) -> None:
        parts = line.split(None, 1)
        name = parts[0].lower()
        arg = parts[1] if len(parts) > 1 else ""
        if name == ".org":
            target = self._int(arg)
            if target < self._pc:
                self._err(".org cannot move backwards")
            self._emit(bytes(target - self._pc))
        elif name == ".word":
            words = self._numbers(arg, 0xFFFFFFFF)
            if words is None:
                words = []
                for text in arg.split(","):
                    value = self._int_or_label(text.strip())
                    if isinstance(value, str):
                        self._fixups.append((self._pc + 4 * len(words), None, 0, 0,
                                             value, False, False, self._line_no))
                        value = 0
                    words.append(value & 0xFFFFFFFF)
            self._emit(struct.pack("<%dI" % len(words), *words))
        elif name == ".byte":
            values = self._numbers(arg, 0xFF)
            if values is None:
                values = [self._int(v.strip()) & 0xFF for v in arg.split(",")]
            self._emit(bytes(values))
        elif name == ".ascii":
            text = arg.strip()
            if len(text) < 2 or text[0] != '"' or text[-1] != '"':
                self._err(".ascii needs a double-quoted string")
            self._emit(text[1:-1].encode("latin-1").decode("unicode_escape")
                       .encode("latin-1"))
        elif name == ".space":
            count = self._int(arg)
            if count < 0:
                self._err(".space count must not be negative, got %d" % count)
            self._emit(bytes(count))
        elif name == ".align":
            align = self._int(arg)
            if align < 1:
                self._err(".align boundary must be at least 1, got %d" % align)
            rem = self._pc % align
            if rem:
                self._emit(bytes(align - rem))
        else:
            self._err("unknown directive %r" % name)

    @staticmethod
    def _numbers(arg: str, mask: int) -> Optional[List[int]]:
        """The comma-separated integers of *arg*, masked, or None if any
        entry is not an integer."""
        try:
            return [int(v, 0) & mask for v in arg.split(",")]
        except ValueError:
            return None

    def _instruction(self, line: str) -> None:
        rep = False
        parts = line.split(None, 1)
        mnemonic = parts[0].upper()
        if mnemonic == "REP":
            rep = True
            if len(parts) < 2:
                self._err("REP prefix needs an instruction")
            parts = parts[1].split(None, 1)
            mnemonic = parts[0].upper()
        spec = OPCODES.get(mnemonic)
        if spec is None:
            self._err("unknown mnemonic %r" % mnemonic)
        operands = self._split_operands(parts[1]) if len(parts) > 1 else []
        dst, src, imm, imm_is_rel = self._operands(spec, operands)
        pc = self._pc
        blob = None
        if not isinstance(imm, str):
            blob = _encode(pc, spec, dst, src, imm, rep, imm_is_rel)
        if blob is None:
            self._fixups.append(
                (pc, spec, dst, src, imm, rep, imm_is_rel, self._line_no))
            blob = bytes(spec.length + rep)
        self._emit(blob)
        self._count += 1

    @staticmethod
    def _split_operands(text: str) -> List[str]:
        # A stray "]" stops the bracket walk below from splitting, so
        # only text with neither bracket takes the plain split.
        if "[" not in text and "]" not in text:
            out = list(map(str.strip, text.split(",")))
            if not out[-1]:
                out.pop()
            return out
        # Split on commas not inside brackets.
        out, depth, cur = [], 0, []
        for ch in text:
            if ch == "[":
                depth += 1
            elif ch == "]":
                depth -= 1
            if ch == "," and depth == 0:
                out.append("".join(cur).strip())
                cur = []
            else:
                cur.append(ch)
        tail = "".join(cur).strip()
        if tail:
            out.append(tail)
        return out

    def _operands(self, spec, ops) -> Tuple[int, int, Union[int, str], bool]:
        name, fmt = spec.name, spec.fmt
        dst = src = 0
        imm: Union[int, str] = 0
        imm_is_rel = False
        if fmt == "none":
            self._want(ops, 0)
        elif fmt == "r":
            if name == "MOVSR":  # MOVSR SRNAME, Rs
                self._want(ops, 2)
                dst = self._sreg(ops[0])
                src = self._reg(ops[1])
            elif name == "MOVRS":  # MOVRS Rd, SRNAME
                self._want(ops, 2)
                dst = self._reg(ops[0])
                src = self._sreg(ops[1])
            elif name in ("JR", "CALLR"):
                self._want(ops, 1)
                dst = self._reg(ops[0])
            elif name in ("NOT", "NEG", "INC", "DEC", "PUSH", "POP"):
                self._want(ops, 1)
                dst = self._reg(ops[0])
            elif spec.iclass == "fp":
                self._want(ops, 2)
                dst = self._anyreg(ops[0])
                src = self._anyreg(ops[1])
            else:
                self._want(ops, 2)
                dst = self._reg(ops[0])
                src = self._reg(ops[1])
        elif fmt in ("ri8", "ri32"):
            self._want(ops, 2)
            dst = self._reg(ops[0])
            imm = self._int_or_label(ops[1])
        elif fmt == "i8":
            self._want(ops, 1)
            imm = self._int(ops[0])
        elif fmt == "m":
            if name == "LOOP":  # LOOP Rc, label
                self._want(ops, 2)
                dst = self._reg(ops[0])
                imm = self._int_or_label(ops[1])
                imm_is_rel = True
            elif name in ("ST", "STB", "FST"):  # ST [Rb+d], Rs
                self._want(ops, 2)
                src, disp = self._mem(ops[0])
                dst = self._anyreg(ops[1])
                imm = disp
            else:  # LD Rd, [Rb+d]
                self._want(ops, 2)
                dst = self._anyreg(ops[0])
                src, imm = self._mem(ops[1])
        elif fmt == "rel16":
            self._want(ops, 1)
            imm = self._int_or_label(ops[0])
            imm_is_rel = True
        elif fmt == "port":
            if name == "OUT":  # OUT port, Rs
                self._want(ops, 2)
                imm = self._int(ops[0])
                dst = self._reg(ops[1])
            else:  # IN Rd, port
                self._want(ops, 2)
                dst = self._reg(ops[0])
                imm = self._int(ops[1])
        return dst, src, imm, imm_is_rel

    def _mem(self, text: str) -> Tuple[int, int]:
        match = _MEM_RE.match(text.strip())
        if not match:
            self._err("bad memory operand %r" % text)
        base = self._reg(match.group(1))
        disp = 0
        if match.group(3) is not None:
            disp = self._int(match.group(3))
            if match.group(2) == "-":
                disp = -disp
        return base, disp

    def _reg(self, text: str) -> int:
        name = text.strip().upper()
        index = _GPRS.get(name)
        if index is None:
            self._err("unknown GPR name: %r" % (name,))
        return index

    def _anyreg(self, text: str) -> int:
        name = text.strip().upper()
        if name.startswith("F") and name[1:].isdigit():
            index = _FPRS.get(name)
            if index is None:
                self._err("unknown FPR name: %r" % (name,))
            return index
        return self._reg(name)

    def _sreg(self, text: str) -> int:
        name = text.upper()
        index = _SRS.get(name)
        if index is None:
            self._err("unknown special register: %r" % (name,))
        return index

    def _int(self, text: str) -> int:
        text = text.strip()
        try:
            return int(text, 0)
        except ValueError:
            self._err("expected integer, got %r" % text)

    def _int_or_label(self, text: str) -> Union[int, str]:
        text = text.strip()
        if text[:1] in _LABEL_START:
            if _LABEL_RE.match(text):
                return text
        else:
            try:
                return int(text, 0)
            except ValueError:
                pass
        self._err("expected integer or label, got %r" % text)

    def _want(self, ops: List[str], count: int) -> None:
        if len(ops) != count:
            self._err("expected %d operand(s), got %d" % (count, len(ops)))

    def _err(self, message: str) -> NoReturn:
        raise AssemblerError("line %d: %s" % (self._line_no, message))

    # -- fixups ---------------------------------------------------------

    def _finish(self) -> AssembledProgram:
        image, base, symbols = self._image, self.base, self._symbols
        for addr, spec, dst, src, imm, rep, imm_is_rel, line_no in self._fixups:
            if isinstance(imm, str):
                if imm not in symbols:
                    raise AssemblerError(
                        "line %d: undefined label %r" % (line_no, imm))
                imm = symbols[imm]
            off = addr - base
            if spec is None:  # a .word entry
                image[off : off + 4] = (imm & 0xFFFFFFFF).to_bytes(4, "little")
                continue
            blob = _encode(addr, spec, dst, src, imm, rep, imm_is_rel)
            if blob is None:
                raise AssemblerError(
                    "line %d: branch displacement %d out of rel16 range"
                    % (line_no, imm - (addr + spec.length + rep)))
            image[off : off + len(blob)] = blob
        return AssembledProgram(bytes(image), base, dict(symbols), self._count)


def assemble(source: str, base: int = 0) -> AssembledProgram:
    """Assemble *source* at load address *base*."""
    return Assembler(base=base).run(source)
