"""Decoded-instruction representation for FastISA.

A :class:`Instr` is the result of decoding raw bytes (or of assembling a
source line).  Operand fields are interpreted according to the opcode
format:

* ``r``      -- ``dst`` and ``src`` are register indices.  For ``MOVSR``
  the destination is a special-register index; for ``MOVRS`` the source
  is.  ``JR``/``CALLR`` take their target in ``dst``.
* ``ri8``/``ri32`` -- ``dst`` is a register, ``imm`` the immediate.
* ``m``      -- ``dst`` is the data register (destination for loads,
  source for stores), ``src`` the base register, ``imm`` the signed
  16-bit displacement.  ``LOOP`` uses ``dst`` as the counter and ``imm``
  as a branch displacement.
* ``rel16``  -- ``imm`` is a signed offset relative to the *next*
  instruction.
* ``port``   -- ``dst`` is the data register, ``imm`` the 16-bit port.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.opcodes import OpSpec


@dataclass(frozen=True)
class Instr:
    """One decoded FastISA instruction."""

    spec: OpSpec
    dst: int = 0
    src: int = 0
    imm: int = 0
    rep: bool = False

    # Derived once at construction from the fields above (see OpSpec):
    # plain attributes, set in the same order on every Instr so all of
    # them share one dict layout.  ``length`` is the encoded length in
    # bytes, including the REP prefix if present.
    name: str = field(init=False, compare=False, repr=False)
    length: int = field(init=False, compare=False, repr=False)
    is_control: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        spec = self.spec
        object.__setattr__(self, "name", spec.name)
        object.__setattr__(self, "length", spec.length + (1 if self.rep else 0))
        object.__setattr__(self, "is_control", spec.is_control)

    def branch_target(self, pc: int) -> int:
        """Target address of a PC-relative control instruction at *pc*."""
        return (pc + self.length + self.imm) & 0xFFFFFFFF

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        from repro.isa.disassembler import format_instr

        return format_instr(self)
