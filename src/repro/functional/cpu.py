"""The FastISA interpreter: instruction execution handlers.

This module is the execution half of the functional model; the
lifecycle half (checkpoints, rollback, tracing, run loops) lives in
:mod:`repro.functional.model`.  The split keeps each file focused: this
one is a plain, careful interpreter.

Faults are raised as :class:`Fault` and converted to exception entries
by the model.  Handlers mutate architectural state only after all
faults for the instruction have been checked, so exceptions are
precise.
"""

from __future__ import annotations

import math
import struct

from repro.isa import registers
from repro.isa.causes import (
    CAUSE_DIV_ZERO,
    CAUSE_PROTECTION,
    CAUSE_SOFT_INT,
    CAUSE_SYSCALL,
)
from repro.isa.instructions import Instr
from repro.isa.opcodes import OPCODES
from repro.isa.registers import (
    FLAG_C,
    FLAG_N,
    FLAG_V,
    FLAG_Z,
    SR_CYCLE,
    SR_STATUS,
    STATUS_IE,
    STATUS_KERNEL,
)

MASK32 = 0xFFFFFFFF
SIGN_BIT = 0x80000000


class Fault(Exception):
    """A synchronous exception discovered while executing an instruction."""

    def __init__(self, cause: int, badvaddr: int = 0, epc_next: bool = False):
        super().__init__("fault cause=%d" % cause)
        self.cause = cause
        self.badvaddr = badvaddr
        # epc_next=True: the handler resumes AFTER this instruction
        # (SYSCALL/INT); otherwise the instruction re-executes (TLB miss).
        self.epc_next = epc_next


def _signed(value: int) -> int:
    return value - 0x100000000 if value & SIGN_BIT else value


class ExecResult:
    """What one instruction execution produced (feeds the trace entry)."""

    __slots__ = ("next_pc", "mem_vaddr", "mem_paddr", "iterations",
                 "tlb_vpn", "tlb_pte", "io_port", "io_value")

    def __init__(self, next_pc: int):
        self.next_pc = next_pc
        self.mem_vaddr = -1
        self.mem_paddr = -1
        self.iterations = 1
        self.tlb_vpn = -1
        self.tlb_pte = -1
        self.io_port = -1  # OUT port (I/O writes are passed in the trace)
        self.io_value = 0


class CPUMixin:
    """Instruction execution.  Mixed into FunctionalModel.

    Expects the host class to provide: ``state`` (ArchState), ``tlb``,
    ``bus``, ``memory``, ``_phys_write32``/``_phys_write8`` (logged
    writes), and ``_wrong_path`` (bool).
    """

    def _build_dispatch(self):
        dispatch = {}
        for name, spec in OPCODES.items():
            handler = getattr(self, "_op_" + name.lower(), None)
            if handler is None:
                raise NotImplementedError("no handler for %s" % name)
            dispatch[spec.value] = handler
        return dispatch

    # -- address translation -------------------------------------------

    def _translate(self, vaddr: int, is_write: bool) -> int:
        vaddr &= MASK32
        # ArchState.kernel_mode tested in line: a property costs a call.
        if self.state.srs[SR_STATUS] & STATUS_KERNEL:
            return vaddr
        return self.tlb.translate(vaddr, is_write)

    # -- flag helpers -----------------------------------------------------

    def _set_zn(self, result: int) -> int:
        result &= MASK32
        flags = self.state.flags & ~(FLAG_Z | FLAG_N)
        if result == 0:
            flags |= FLAG_Z
        if result & SIGN_BIT:
            flags |= FLAG_N
        self.state.flags = flags
        return result

    def _flags_add(self, a: int, b: int, carry_in: int = 0) -> int:
        full = a + b + carry_in
        result = full & MASK32
        flags = 0
        if result == 0:
            flags |= FLAG_Z
        if result & SIGN_BIT:
            flags |= FLAG_N
        if full > MASK32:
            flags |= FLAG_C
        if (~(a ^ b) & (a ^ result)) & SIGN_BIT:
            flags |= FLAG_V
        self.state.flags = flags
        return result

    def _flags_sub(self, a: int, b: int) -> int:
        result = (a - b) & MASK32
        flags = 0
        if result == 0:
            flags |= FLAG_Z
        if result & SIGN_BIT:
            flags |= FLAG_N
        if a < b:
            flags |= FLAG_C  # borrow
        if ((a ^ b) & (a ^ result)) & SIGN_BIT:
            flags |= FLAG_V
        self.state.flags = flags
        return result

    def _cond(self, name: str) -> bool:
        flags = self.state.flags
        z = bool(flags & FLAG_Z)
        n = bool(flags & FLAG_N)
        c = bool(flags & FLAG_C)
        v = bool(flags & FLAG_V)
        if name == "JZ":
            return z
        if name == "JNZ":
            return not z
        if name == "JL":
            return n != v
        if name == "JGE":
            return n == v
        if name == "JG":
            return not z and n == v
        if name == "JLE":
            return z or n != v
        if name == "JC":
            return c
        return not c  # JNC

    # -- privileged check --------------------------------------------------

    def _require_kernel(self):
        if not self.state.kernel_mode:
            raise Fault(CAUSE_PROTECTION, self.state.pc)

    # -- memory helpers ------------------------------------------------------

    def _load32(self, vaddr: int, res: ExecResult) -> int:
        paddr = self._translate(vaddr, False)
        res.mem_vaddr = vaddr & MASK32
        res.mem_paddr = paddr
        return self.memory.read32(paddr)

    def _load8(self, vaddr: int, res: ExecResult) -> int:
        paddr = self._translate(vaddr, False)
        res.mem_vaddr = vaddr & MASK32
        res.mem_paddr = paddr
        return self.memory.read8(paddr)

    def _store32(self, vaddr: int, value: int, res: ExecResult) -> None:
        paddr = self._translate(vaddr, True)
        res.mem_vaddr = vaddr & MASK32
        res.mem_paddr = paddr
        self._phys_write32(paddr, value)

    def _store8(self, vaddr: int, value: int, res: ExecResult) -> None:
        paddr = self._translate(vaddr, True)
        res.mem_vaddr = vaddr & MASK32
        res.mem_paddr = paddr
        self._phys_write8(paddr, value)

    # ====================================================================
    # Handlers.  Each takes (instr, res) where res.next_pc is pre-set to
    # the sequential successor; control instructions overwrite it.
    # ====================================================================

    def _op_nop(self, instr: Instr, res: ExecResult) -> None:
        pass

    def _op_halt(self, instr: Instr, res: ExecResult) -> None:
        self._require_kernel()
        self.state.halted = True

    def _op_syscall(self, instr: Instr, res: ExecResult) -> None:
        raise Fault(CAUSE_SYSCALL, epc_next=True)

    def _op_int(self, instr: Instr, res: ExecResult) -> None:
        raise Fault(CAUSE_SOFT_INT | ((instr.imm & 0xFF) << 8), epc_next=True)

    def _op_iret(self, instr: Instr, res: ExecResult) -> None:
        from repro.functional.state import STATUS_PREV_IE, STATUS_PREV_KERNEL

        self._require_kernel()
        srs = self.state.srs
        status = srs[SR_STATUS]
        new_status = status & ~(STATUS_IE | STATUS_KERNEL)
        if status & STATUS_PREV_IE:
            new_status |= STATUS_IE
        if status & STATUS_PREV_KERNEL:
            new_status |= STATUS_KERNEL
        srs[SR_STATUS] = new_status
        res.next_pc = srs[registers.sr_index("EPC")] & MASK32

    def _op_cli(self, instr: Instr, res: ExecResult) -> None:
        self._require_kernel()
        self.state.srs[SR_STATUS] &= ~STATUS_IE

    def _op_sti(self, instr: Instr, res: ExecResult) -> None:
        self._require_kernel()
        self.state.srs[SR_STATUS] |= STATUS_IE

    # -- data movement ----------------------------------------------------

    def _op_mov(self, instr: Instr, res: ExecResult) -> None:
        self.state.regs[instr.dst] = self.state.regs[instr.src]

    def _op_movi(self, instr: Instr, res: ExecResult) -> None:
        self.state.regs[instr.dst] = instr.imm & MASK32

    def _op_ld(self, instr: Instr, res: ExecResult) -> None:
        addr = self.state.regs[instr.src] + instr.imm
        self.state.regs[instr.dst] = self._load32(addr, res)

    def _op_ldb(self, instr: Instr, res: ExecResult) -> None:
        addr = self.state.regs[instr.src] + instr.imm
        self.state.regs[instr.dst] = self._load8(addr, res)

    def _op_st(self, instr: Instr, res: ExecResult) -> None:
        addr = self.state.regs[instr.src] + instr.imm
        self._store32(addr, self.state.regs[instr.dst], res)

    def _op_stb(self, instr: Instr, res: ExecResult) -> None:
        addr = self.state.regs[instr.src] + instr.imm
        self._store8(addr, self.state.regs[instr.dst], res)

    def _op_push(self, instr: Instr, res: ExecResult) -> None:
        regs = self.state.regs
        sp = (regs[registers.SP] - 4) & MASK32
        self._store32(sp, regs[instr.dst], res)
        regs[registers.SP] = sp

    def _op_pop(self, instr: Instr, res: ExecResult) -> None:
        regs = self.state.regs
        sp = regs[registers.SP]
        regs[instr.dst] = self._load32(sp, res)
        regs[registers.SP] = (sp + 4) & MASK32

    def _op_lea(self, instr: Instr, res: ExecResult) -> None:
        self.state.regs[instr.dst] = (
            self.state.regs[instr.src] + instr.imm
        ) & MASK32

    # -- integer ALU ---------------------------------------------------------

    def _op_add(self, instr: Instr, res: ExecResult) -> None:
        regs = self.state.regs
        regs[instr.dst] = self._flags_add(regs[instr.dst], regs[instr.src])

    def _op_adc(self, instr: Instr, res: ExecResult) -> None:
        regs = self.state.regs
        carry = 1 if self.state.flags & FLAG_C else 0
        regs[instr.dst] = self._flags_add(regs[instr.dst], regs[instr.src], carry)

    def _op_sub(self, instr: Instr, res: ExecResult) -> None:
        regs = self.state.regs
        regs[instr.dst] = self._flags_sub(regs[instr.dst], regs[instr.src])

    def _op_and(self, instr: Instr, res: ExecResult) -> None:
        regs = self.state.regs
        regs[instr.dst] = self._set_zn(regs[instr.dst] & regs[instr.src])

    def _op_or(self, instr: Instr, res: ExecResult) -> None:
        regs = self.state.regs
        regs[instr.dst] = self._set_zn(regs[instr.dst] | regs[instr.src])

    def _op_xor(self, instr: Instr, res: ExecResult) -> None:
        regs = self.state.regs
        regs[instr.dst] = self._set_zn(regs[instr.dst] ^ regs[instr.src])

    def _op_cmp(self, instr: Instr, res: ExecResult) -> None:
        regs = self.state.regs
        self._flags_sub(regs[instr.dst], regs[instr.src])

    def _op_test(self, instr: Instr, res: ExecResult) -> None:
        regs = self.state.regs
        self._set_zn(regs[instr.dst] & regs[instr.src])

    def _op_not(self, instr: Instr, res: ExecResult) -> None:
        regs = self.state.regs
        regs[instr.dst] = self._set_zn(~regs[instr.dst] & MASK32)

    def _op_neg(self, instr: Instr, res: ExecResult) -> None:
        regs = self.state.regs
        regs[instr.dst] = self._flags_sub(0, regs[instr.dst])

    def _op_inc(self, instr: Instr, res: ExecResult) -> None:
        regs = self.state.regs
        regs[instr.dst] = self._flags_add(regs[instr.dst], 1)

    def _op_dec(self, instr: Instr, res: ExecResult) -> None:
        regs = self.state.regs
        regs[instr.dst] = self._flags_sub(regs[instr.dst], 1)

    def _op_mul(self, instr: Instr, res: ExecResult) -> None:
        regs = self.state.regs
        full = regs[instr.dst] * regs[instr.src]
        result = self._set_zn(full & MASK32)
        flags = self.state.flags & ~(FLAG_C | FLAG_V)
        if full > MASK32:
            flags |= FLAG_C | FLAG_V
        self.state.flags = flags
        regs[instr.dst] = result

    def _op_div(self, instr: Instr, res: ExecResult) -> None:
        regs = self.state.regs
        divisor = regs[instr.src]
        if divisor == 0:
            raise Fault(CAUSE_DIV_ZERO)
        regs[instr.dst] = self._set_zn(regs[instr.dst] // divisor)

    def _op_addi(self, instr: Instr, res: ExecResult) -> None:
        regs = self.state.regs
        regs[instr.dst] = self._flags_add(regs[instr.dst], instr.imm & MASK32)

    def _op_subi(self, instr: Instr, res: ExecResult) -> None:
        regs = self.state.regs
        regs[instr.dst] = self._flags_sub(regs[instr.dst], instr.imm & MASK32)

    def _op_andi(self, instr: Instr, res: ExecResult) -> None:
        regs = self.state.regs
        regs[instr.dst] = self._set_zn(regs[instr.dst] & instr.imm)

    def _op_ori(self, instr: Instr, res: ExecResult) -> None:
        regs = self.state.regs
        regs[instr.dst] = self._set_zn(regs[instr.dst] | (instr.imm & MASK32))

    def _op_xori(self, instr: Instr, res: ExecResult) -> None:
        regs = self.state.regs
        regs[instr.dst] = self._set_zn(regs[instr.dst] ^ (instr.imm & MASK32))

    def _op_cmpi(self, instr: Instr, res: ExecResult) -> None:
        self._flags_sub(self.state.regs[instr.dst], instr.imm & MASK32)

    def _op_shl(self, instr: Instr, res: ExecResult) -> None:
        regs = self.state.regs
        shift = instr.imm & 31
        value = regs[instr.dst]
        result = self._set_zn((value << shift) & MASK32)
        if shift:
            flags = self.state.flags & ~FLAG_C
            if (value >> (32 - shift)) & 1:
                flags |= FLAG_C
            self.state.flags = flags
        regs[instr.dst] = result

    def _op_shr(self, instr: Instr, res: ExecResult) -> None:
        regs = self.state.regs
        shift = instr.imm & 31
        value = regs[instr.dst]
        result = self._set_zn(value >> shift)
        if shift:
            flags = self.state.flags & ~FLAG_C
            if (value >> (shift - 1)) & 1:
                flags |= FLAG_C
            self.state.flags = flags
        regs[instr.dst] = result

    def _op_sar(self, instr: Instr, res: ExecResult) -> None:
        regs = self.state.regs
        shift = instr.imm & 31
        value = _signed(regs[instr.dst])
        regs[instr.dst] = self._set_zn((value >> shift) & MASK32)

    # -- control flow -----------------------------------------------------------

    def _op_jmp(self, instr: Instr, res: ExecResult) -> None:
        res.next_pc = instr.branch_target(self.state.pc)

    def _branch(self, instr: Instr, res: ExecResult) -> None:
        if self._cond(instr.name):
            res.next_pc = instr.branch_target(self.state.pc)

    _op_jz = _branch
    _op_jnz = _branch
    _op_jl = _branch
    _op_jge = _branch
    _op_jg = _branch
    _op_jle = _branch
    _op_jc = _branch
    _op_jnc = _branch

    def _op_call(self, instr: Instr, res: ExecResult) -> None:
        regs = self.state.regs
        sp = (regs[registers.SP] - 4) & MASK32
        self._store32(sp, (self.state.pc + instr.length) & MASK32, res)
        regs[registers.SP] = sp
        res.next_pc = instr.branch_target(self.state.pc)

    def _op_callr(self, instr: Instr, res: ExecResult) -> None:
        regs = self.state.regs
        sp = (regs[registers.SP] - 4) & MASK32
        self._store32(sp, (self.state.pc + instr.length) & MASK32, res)
        regs[registers.SP] = sp
        res.next_pc = regs[instr.dst] & MASK32

    def _op_jr(self, instr: Instr, res: ExecResult) -> None:
        res.next_pc = self.state.regs[instr.dst] & MASK32

    def _op_ret(self, instr: Instr, res: ExecResult) -> None:
        regs = self.state.regs
        sp = regs[registers.SP]
        target = self._load32(sp, res)
        regs[registers.SP] = (sp + 4) & MASK32
        res.next_pc = target & MASK32

    def _op_loop(self, instr: Instr, res: ExecResult) -> None:
        regs = self.state.regs
        regs[instr.dst] = self._flags_sub(regs[instr.dst], 1)
        if not self.state.flags & FLAG_Z:
            res.next_pc = instr.branch_target(self.state.pc)

    # -- string operations ---------------------------------------------------

    def _op_movsb(self, instr: Instr, res: ExecResult) -> None:
        regs = self.state.regs
        max_iters = regs[2] if instr.rep else 1
        done = 0
        while done < max_iters:
            byte = self._load8(regs[0], res)
            self._store8(regs[1], byte, res)
            regs[0] = (regs[0] + 1) & MASK32
            regs[1] = (regs[1] + 1) & MASK32
            regs[2] = self._flags_sub(regs[2], 1)
            done += 1
            if not instr.rep:
                break
            if regs[2] == 0:
                break
        res.iterations = done

    def _op_stosb(self, instr: Instr, res: ExecResult) -> None:
        regs = self.state.regs
        fill = regs[3] & 0xFF
        max_iters = regs[2] if instr.rep else 1
        done = 0
        while done < max_iters:
            self._store8(regs[1], fill, res)
            regs[1] = (regs[1] + 1) & MASK32
            regs[2] = self._flags_sub(regs[2], 1)
            done += 1
            if not instr.rep:
                break
            if regs[2] == 0:
                break
        res.iterations = done

    def _op_scasb(self, instr: Instr, res: ExecResult) -> None:
        # REPNE-style scan: stop when the byte matches R3 or R2 reaches 0.
        regs = self.state.regs
        needle = regs[3] & 0xFF
        done = 0
        found = False
        if instr.rep and regs[2] == 0:
            res.iterations = 0  # x86 semantics: REP with count 0 is a no-op
            return
        while True:
            byte = self._load8(regs[0], res)
            regs[0] = (regs[0] + 1) & MASK32
            regs[2] = (regs[2] - 1) & MASK32
            done += 1
            self._flags_sub(byte, needle)
            found = byte == needle
            if not instr.rep or found or regs[2] == 0:
                break
        res.iterations = done

    # -- floating point -------------------------------------------------------

    def _op_fadd(self, instr: Instr, res: ExecResult) -> None:
        fregs = self.state.fregs
        fregs[instr.dst] = fregs[instr.dst] + fregs[instr.src]

    def _op_fsub(self, instr: Instr, res: ExecResult) -> None:
        fregs = self.state.fregs
        fregs[instr.dst] = fregs[instr.dst] - fregs[instr.src]

    def _op_fmul(self, instr: Instr, res: ExecResult) -> None:
        fregs = self.state.fregs
        fregs[instr.dst] = fregs[instr.dst] * fregs[instr.src]

    def _op_fdiv(self, instr: Instr, res: ExecResult) -> None:
        fregs = self.state.fregs
        divisor = fregs[instr.src]
        if divisor == 0.0:
            fregs[instr.dst] = math.inf if fregs[instr.dst] >= 0 else -math.inf
        else:
            fregs[instr.dst] = fregs[instr.dst] / divisor

    def _op_fsqrt(self, instr: Instr, res: ExecResult) -> None:
        fregs = self.state.fregs
        value = fregs[instr.src]
        fregs[instr.dst] = math.sqrt(value) if value >= 0 else 0.0

    def _op_fmov(self, instr: Instr, res: ExecResult) -> None:
        fregs = self.state.fregs
        fregs[instr.dst] = fregs[instr.src]

    def _op_fitof(self, instr: Instr, res: ExecResult) -> None:
        self.state.fregs[instr.dst] = float(_signed(self.state.regs[instr.src]))

    def _op_fftoi(self, instr: Instr, res: ExecResult) -> None:
        value = self.state.fregs[instr.src]
        if math.isnan(value) or math.isinf(value):
            result = 0
        else:
            result = int(value)
        self.state.regs[instr.dst] = result & MASK32

    def _op_fcmp(self, instr: Instr, res: ExecResult) -> None:
        fregs = self.state.fregs
        diff = fregs[instr.dst] - fregs[instr.src]
        flags = 0
        if diff == 0.0:
            flags |= FLAG_Z
        if diff < 0.0:
            flags |= FLAG_N
        self.state.flags = flags

    def _op_fld(self, instr: Instr, res: ExecResult) -> None:
        addr = self.state.regs[instr.src] + instr.imm
        paddr = self._translate(addr, False)
        res.mem_vaddr = addr & MASK32
        res.mem_paddr = paddr
        blob = self.memory.read_blob(paddr, 4)
        self.state.fregs[instr.dst] = struct.unpack("<f", blob)[0]

    def _op_fst(self, instr: Instr, res: ExecResult) -> None:
        addr = self.state.regs[instr.src] + instr.imm
        paddr = self._translate(addr, True)
        res.mem_vaddr = addr & MASK32
        res.mem_paddr = paddr
        value = self.state.fregs[instr.dst]
        if math.isinf(value) or math.isnan(value):
            value = 0.0
        try:
            blob = struct.pack("<f", value)
        except OverflowError:
            blob = struct.pack("<f", 0.0)
        self._phys_write32(paddr, int.from_bytes(blob, "little"))

    # -- privileged -------------------------------------------------------------

    def _op_in(self, instr: Instr, res: ExecResult) -> None:
        self._require_kernel()
        self.state.regs[instr.dst] = self.bus.read(instr.imm)

    def _op_out(self, instr: Instr, res: ExecResult) -> None:
        self._require_kernel()
        res.io_port = instr.imm
        res.io_value = self.state.regs[instr.dst]
        self.bus.write(instr.imm, self.state.regs[instr.dst])

    def _op_tlbwr(self, instr: Instr, res: ExecResult) -> None:
        self._require_kernel()
        regs = self.state.regs
        vpn, pte = regs[instr.dst], regs[instr.src]
        self.tlb.write(vpn, pte)
        self._bump_tlb_generation()  # user-mode superblocks pin translations
        res.tlb_vpn = vpn
        res.tlb_pte = pte

    def _op_tlbflush(self, instr: Instr, res: ExecResult) -> None:
        self._require_kernel()
        self.tlb.flush()
        self._bump_tlb_generation()

    def _op_movsr(self, instr: Instr, res: ExecResult) -> None:
        self._require_kernel()
        if instr.dst == registers.SR_FLAGS:
            state_flags = self.state.regs[instr.src] & 0xF
            self.state.flags = state_flags
        elif instr.dst != SR_CYCLE:  # SR_CYCLE is read-only
            self.state.srs[instr.dst] = self.state.regs[instr.src] & MASK32

    def _op_movrs(self, instr: Instr, res: ExecResult) -> None:
        self._require_kernel()
        if instr.src == SR_CYCLE:
            self.state.regs[instr.dst] = self.in_count & MASK32
        elif instr.src == registers.SR_FLAGS:
            self.state.regs[instr.dst] = self.state.flags
        else:
            self.state.regs[instr.dst] = self.state.srs[instr.src]
