"""Binary encoding and decoding of FastISA instructions.

All multi-byte immediates are little-endian.  Decoding is deliberately
cheap: one table lookup on the opcode byte plus fixed-format operand
extraction, so the functional model's interpreter loop stays fast.
"""

from __future__ import annotations

import struct
from typing import Tuple

from repro.isa.instructions import Instr
from repro.isa.opcodes import OPCODES_BY_VALUE, REP_PREFIX, OpSpec


class EncodingError(ValueError):
    """Raised when bytes cannot be decoded or an Instr cannot be encoded."""


def _sign16(value: int) -> int:
    return value - 0x10000 if value >= 0x8000 else value


def _sign8(value: int) -> int:
    return value - 0x100 if value >= 0x80 else value


def encode(instr: Instr) -> bytes:
    """Encode *instr* into its binary form."""
    return encode_fields(instr.spec, instr.dst, instr.src, instr.imm, instr.rep)


_PACK_RI32 = struct.Struct("<BBI").pack
_PACK_M = struct.Struct("<BBH").pack
_PACK_REL16 = struct.Struct("<BH").pack


def encode_fields(spec: OpSpec, dst: int, src: int, imm: int,
                  rep: bool) -> bytes:
    """The binary form of the instruction with these fields, without
    building an :class:`Instr` (the assembler's path)."""
    fmt = spec.fmt
    if fmt == "none":
        out = bytes((spec.value,))
    elif fmt == "r":
        _check_reg(dst)
        _check_reg(src)
        out = bytes((spec.value, (dst << 4) | src))
    elif fmt == "ri8":
        _check_reg(dst)
        out = bytes((spec.value, dst << 4, imm & 0xFF))
    elif fmt == "i8":
        out = bytes((spec.value, imm & 0xFF))
    elif fmt == "ri32":
        _check_reg(dst)
        _check_reg(src)
        out = _PACK_RI32(spec.value, (dst << 4) | src, imm & 0xFFFFFFFF)
    elif fmt == "m":
        _check_reg(dst)
        _check_reg(src)
        out = _PACK_M(spec.value, (dst << 4) | src, imm & 0xFFFF)
    elif fmt == "rel16":
        out = _PACK_REL16(spec.value, imm & 0xFFFF)
    elif fmt == "port":
        _check_reg(dst)
        out = _PACK_M(spec.value, dst << 4, imm & 0xFFFF)
    else:  # pragma: no cover - table is static
        raise EncodingError("unknown format %r" % (fmt,))
    return bytes((REP_PREFIX,)) + out if rep else out


def decode(data, offset: int = 0) -> Tuple[Instr, int]:
    """Decode one instruction from *data* at *offset*.

    Returns ``(instr, length)``.  Raises :class:`EncodingError` on an
    invalid opcode byte or truncated instruction.
    """
    rep = False
    start = offset
    try:
        byte0 = data[offset]
    except IndexError:
        raise EncodingError("truncated instruction at %#x" % (offset,))
    if byte0 == REP_PREFIX:
        rep = True
        offset += 1
        try:
            byte0 = data[offset]
        except IndexError:
            raise EncodingError("REP prefix with no opcode at %#x" % (start,))
    spec = OPCODES_BY_VALUE.get(byte0)
    if spec is None:
        raise EncodingError("invalid opcode byte %#04x at %#x" % (byte0, start))
    end = offset + spec.length
    if end > len(data):
        raise EncodingError("truncated %s at %#x" % (spec.name, start))
    dst = src = imm = 0
    fmt = spec.fmt
    if fmt == "r":
        mod = data[offset + 1]
        dst, src = mod >> 4, mod & 0x0F
    elif fmt == "ri8":
        dst = data[offset + 1] >> 4
        imm = _sign8(data[offset + 2])
    elif fmt == "i8":
        imm = data[offset + 1]
    elif fmt == "ri32":
        mod = data[offset + 1]
        dst, src = mod >> 4, mod & 0x0F
        imm = int.from_bytes(data[offset + 2 : offset + 6], "little")
    elif fmt == "m":
        mod = data[offset + 1]
        dst, src = mod >> 4, mod & 0x0F
        imm = _sign16(int.from_bytes(data[offset + 2 : offset + 4], "little"))
    elif fmt == "rel16":
        imm = _sign16(int.from_bytes(data[offset + 1 : offset + 3], "little"))
    elif fmt == "port":
        dst = data[offset + 1] >> 4
        imm = int.from_bytes(data[offset + 2 : offset + 4], "little")
    instr = Instr(spec=spec, dst=dst, src=src, imm=imm, rep=rep)
    return instr, end - start


def _check_reg(index: int) -> None:
    if not 0 <= index <= 15:
        raise EncodingError("register index %d out of range" % (index,))


def make(name: str, dst: int = 0, src: int = 0, imm: int = 0, rep: bool = False) -> Instr:
    """Convenience constructor: build an Instr from an opcode name."""
    from repro.isa.opcodes import lookup

    return Instr(spec=lookup(name), dst=dst, src=src, imm=imm, rep=rep)
