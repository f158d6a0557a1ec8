"""Instruction-trace entries flowing from the functional model to the
timing model.

"Each instruction entry in the trace includes everything needed by the
timing model that the functional model can conveniently provide, such as
a fixed-length opcode, instruction size, source, destination and
condition code architectural register names, instruction and data
virtual addresses and data written to special registers, such as
software-filled TLB entries."  (paper section 2)

The entry also carries a *size model* used by the host link-cost
accounting: the paper compresses opcodes to 11 bits and instructions to
an average of about four 32-bit words.
"""

from __future__ import annotations


from repro.isa.instructions import Instr


class TraceEntry:
    """One dynamic instruction as seen by the timing model."""

    __slots__ = (
        "in_no",  # dynamic instruction number (IN)
        "pc",  # virtual PC
        "ppc",  # physical PC (redundant info to simplify the TM)
        "instr",
        "next_pc",  # functional-path successor PC
        "iterations",  # REP iteration count actually executed
        "mem_vaddr",  # data virtual address or -1
        "mem_paddr",  # data physical address or -1
        "exception",  # cause code raised BY this instruction, or 0
        "handler_entry",  # True if this is the first instruction of a handler
        "tlb_vpn",  # TLBWR payload passed in the trace (or -1)
        "tlb_pte",
        "io_port",  # OUT port written by this instruction (or -1)
        "io_value",
        "wrong_path",  # produced while the FM was forced down a wrong path
    )

    def __init__(
        self,
        in_no: int,
        pc: int,
        ppc: int,
        instr: Instr,
        next_pc: int,
        iterations: int = 1,
        mem_vaddr: int = -1,
        mem_paddr: int = -1,
        exception: int = 0,
        handler_entry: bool = False,
        tlb_vpn: int = -1,
        tlb_pte: int = -1,
        io_port: int = -1,
        io_value: int = 0,
        wrong_path: bool = False,
    ):
        self.in_no = in_no
        self.pc = pc
        self.ppc = ppc
        self.instr = instr
        self.next_pc = next_pc
        self.iterations = iterations
        self.mem_vaddr = mem_vaddr
        self.mem_paddr = mem_paddr
        self.exception = exception
        self.handler_entry = handler_entry
        self.tlb_vpn = tlb_vpn
        self.tlb_pte = tlb_pte
        self.io_port = io_port
        self.io_value = io_value
        self.wrong_path = wrong_path

    @property
    def taken(self) -> bool:
        """For control instructions: did the functional path branch away
        from the sequential successor?"""
        return self.next_pc != (self.pc + self.instr.length) & 0xFFFFFFFF

    @property
    def is_control(self) -> bool:
        return self.instr.is_control

    @property
    def is_cond_branch(self) -> bool:
        return self.instr.spec.iclass == "branch"

    def trace_words(self, compression: str = "full") -> int:
        """32-bit words this entry occupies on the host link.

        ``full``: everything inline -- the paper's measured average of
        ~4 words/instruction.  ``bb``: translation-cache mirroring sends
        only a basic-block id + addresses for repeat blocks (~2 words).
        """
        words = 4
        if self.mem_vaddr >= 0:
            words += 1
        if self.tlb_vpn >= 0:
            words += 2
        if compression == "bb":
            words = 2 + (1 if self.mem_vaddr >= 0 else 0) + (
                2 if self.tlb_vpn >= 0 else 0
            )
        return words

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "TraceEntry(IN=%d pc=%#x %s -> %#x%s%s)" % (
            self.in_no,
            self.pc,
            self.instr.name,
            self.next_pc,
            " exc=%d" % self.exception if self.exception else "",
            " WP" if self.wrong_path else "",
        )


def format_trace(entries) -> str:
    """Human-readable multi-line rendering of a trace slice."""
    from repro.isa.disassembler import format_instr

    lines = []
    for entry in entries:
        lines.append(
            "IN%-6d %#010x  %-28s -> %#010x%s"
            % (
                entry.in_no,
                entry.pc,
                format_instr(entry.instr, pc=entry.pc),
                entry.next_pc,
                "  exc=%d" % entry.exception if entry.exception else "",
            )
        )
    return "\n".join(lines)
