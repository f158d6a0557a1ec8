"""Seeded, deterministic FastISA program generator.

A generated program is a list of *atoms*: small, self-contained
instruction groups (an ALU burst, a bounded loop, a string operation, a
timer-arming sequence, a user-mode excursion through the software TLB,
...).  Atoms are the unit the delta-debugging shrinker removes, so each
one must be independently droppable: no atom reads machine state that
only another atom establishes, and every loop an atom opens it also
closes.

Termination is guaranteed by construction:

* all loops are counted (``DEC``/``JNZ`` with a small immediate trip
  count), never condition-controlled on data;
* memory traffic stays inside fixed scratch windows, the stack inside a
  fixed stack window;
* ``DIV`` divisors are forced odd (``ORI r, 1``) so divide-by-zero
  cannot fault on the architectural path;
* ``HALT`` waits are emitted only after a timer-arming atom, so a wake
  interrupt is always pending, and the timer is never disarmed;
* the scaffold's exception vector terminates the run (power-off) on any
  cause the generator does not deliberately raise.

The interesting couplings come from the scaffold: when any atom needs
it, the program carries an exception/interrupt handler at
``VECTOR_BASE`` that services software-TLB refills, timer interrupts
(acknowledge + count) and user-mode ``SYSCALL`` returns -- so generated
programs exercise speculative execution across handler entries,
rollback over I/O, and TLB fills on both fetch and data paths.

Everything is derived from one ``random.Random(seed)``; the same seed
always produces byte-identical source.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.isa.opcodes import CLASS_ALU, by_class

# -- memory map (fits the default 1 MiB system) ---------------------------
CODE_BASE = 0x1000  # main program
IMAGE_BASE = 0x40  # == functional.model.VECTOR_BASE; handler lives here
USER_CODE = 0x5000  # user-mode code, identity-mapped on TLB miss
FIRE_COUNT = 0x8FF0  # timer-fire counter word
SCRATCH_BASE = 0x9000  # data scratch window (word ops)
SCRATCH_SIZE = 0x800
STACK_TOP = 0x9F00
USER_DATA = 0x20000  # user-mode data pages (identity-mapped)

PORT_CONSOLE = 0x10
PORT_TIMER_CTRL = 0x20
PORT_TIMER_INTERVAL = 0x21
PORT_POWER = 0x40
PORT_PIC_ACK = 0x50
PORT_PIC_ENABLE = 0x51

# Registers the atoms may freely clobber.  R6 is the scratch pointer,
# R7/SP the stack pointer, R0..R3 are pinned during string atoms only.
DATA_REGS = (1, 2, 3, 4, 5)

# ALU-class opcodes the generator knows how to emit operands for; the
# assertion below keeps the table honest against the ISA: adding an ALU
# opcode without teaching the fuzzer (or explicitly skipping it) fails
# at import.
_ALU_SKIP = {
    "MOV", "MOVI",  # emitted by the seeding logic, not as random ops
    "LEA",  # emitted by the mem atom (address shapes)
}
_ALU_REG_OPS = ("ADD", "SUB", "AND", "OR", "XOR", "CMP", "TEST", "ADC")
_ALU_UNARY_OPS = ("NOT", "NEG", "INC", "DEC")
_ALU_IMM_OPS = ("ADDI", "SUBI", "ANDI", "ORI", "XORI", "CMPI")
_ALU_SHIFT_OPS = ("SHL", "SHR", "SAR")
_KNOWN_ALU = (set(_ALU_REG_OPS) | set(_ALU_UNARY_OPS) | set(_ALU_IMM_OPS)
              | set(_ALU_SHIFT_OPS) | _ALU_SKIP)
assert {s.name for s in by_class(CLASS_ALU)} <= _KNOWN_ALU, (
    "ALU opcodes unknown to the fuzz generator: %s"
    % sorted({s.name for s in by_class(CLASS_ALU)} - _KNOWN_ALU)
)


@dataclass(frozen=True)
class Atom:
    """One self-contained instruction group.

    ``lines`` may contain the placeholder ``{L}``, expanded to a label
    prefix unique to the atom's position when the program is rendered
    (so shrinking can reorder/remove atoms without label collisions).
    """

    kind: str
    lines: Tuple[str, ...]
    needs_handler: bool = False
    needs_stack: bool = False
    needs_user: bool = False
    arms_timer: bool = False


@dataclass(frozen=True)
class GeneratorConfig:
    """Bounds for one generated program."""

    min_atoms: int = 2
    max_atoms: int = 10
    max_loop_trip: int = 8
    max_string_count: int = 12
    # Minimum timer interval, in device ticks (= executed instructions).
    # Low enough to interleave handlers with every atom kind, high
    # enough that the handler (~15 instructions) cannot livelock
    # forward progress.
    min_timer_interval: int = 60
    max_timer_interval: int = 400
    # Probability weights per atom kind.
    weights: Tuple[Tuple[str, int], ...] = (
        ("alu", 24),
        ("muldiv", 10),
        ("mem", 16),
        ("stack", 8),
        ("flow", 14),
        ("loop", 12),
        ("call", 6),
        ("string", 8),
        ("fp", 6),
        ("tlbwr", 4),
        ("timer", 10),
        ("halt_wait", 8),
        ("user", 8),
    )


@dataclass
class FuzzProgram:
    """A generated (or shrunk) program: atoms plus rendering."""

    seed: int
    atoms: List[Atom] = field(default_factory=list)

    @property
    def features(self) -> Tuple[bool, bool, bool, bool]:
        handler = any(a.needs_handler for a in self.atoms)
        stack = any(a.needs_stack for a in self.atoms)
        user = any(a.needs_user for a in self.atoms)
        timer = any(a.arms_timer for a in self.atoms)
        return handler, stack, user, timer

    @property
    def base(self) -> int:
        handler, _stack, _user, _timer = self.features
        return IMAGE_BASE if handler else CODE_BASE

    def source(self) -> str:
        """Render the full assembly source (scaffold + atoms)."""
        handler, stack, user, _timer = self.features
        lines: List[str] = ["; fastfuzz program seed=%d" % self.seed]
        if handler:
            lines += _HANDLER
        lines += [".org %#x" % CODE_BASE, "main:"]
        if stack or handler:
            # The vector saves registers on the stack, so any program
            # that can take an interrupt needs SP pointed somewhere real.
            lines.append("    MOVI SP, %#x" % STACK_TOP)
        if handler:
            # Clear the timer-fire counter the handler increments.
            lines += [
                "    MOVI R1, 0",
                "    MOVI R6, %#x" % FIRE_COUNT,
                "    ST [R6+0], R1",
            ]
        for index, atom in enumerate(self.atoms):
            prefix = "a%d" % index
            lines.append("; atom %d: %s" % (index, atom.kind))
            for line in atom.lines:
                lines.append("    " + line.replace("{L}", prefix))
        lines += [
            "exit:",
            "    MOVI R1, 0",
            "    OUT %#x, R1" % PORT_POWER,
            "    HALT",
        ]
        if user:
            lines += _USER_CODE
        return "\n".join(lines) + "\n"

    def replace(self, atoms: List[Atom]) -> "FuzzProgram":
        return FuzzProgram(seed=self.seed, atoms=list(atoms))


# -- scaffold -------------------------------------------------------------
#
# The exception/interrupt vector.  Saves the caller's flags and R1/R2 on
# the (kernel, physical) stack, dispatches on CAUSE, restores and IRETs.
# Unexpected causes power the system off: a generated program must never
# fault except where the generator means it to, so anything else ends
# the run deterministically instead of wedging.
_HANDLER = [
    ".org %#x" % IMAGE_BASE,
    "vector:",
    "    PUSH R1",
    "    MOVRS R1, FLAGS",
    "    PUSH R1",
    "    PUSH R2",
    "    MOVRS R1, CAUSE",
    "    ANDI R1, 0xFF",
    "    CMPI R1, 1",  # CAUSE_TLB_MISS
    "    JZ vec_tlb",
    "    CMPI R1, 3",  # CAUSE_SYSCALL
    "    JZ vec_sys",
    "    CMPI R1, 4",  # CAUSE_TIMER_IRQ
    "    JZ vec_timer",
    "    CMPI R1, 5",  # CAUSE_DEVICE_IRQ
    "    JZ vec_timer",
    "    JMP vec_fatal",
    "vec_tlb:",  # software-TLB refill: identity map, valid+writable
    "    MOVRS R1, BADVADDR",
    "    SHR R1, 12",
    "    MOV R2, R1",
    "    SHL R2, 12",
    "    ORI R2, 3",
    "    TLBWR R1, R2",
    "    JMP vec_out",
    "vec_timer:",  # acknowledge line 0, count the fire
    "    MOVI R1, 1",
    "    OUT %#x, R1" % PORT_PIC_ACK,
    "    MOVI R1, %#x" % FIRE_COUNT,
    "    LD R2, [R1+0]",
    "    INC R2",
    "    ST [R1+0], R2",
    "    JMP vec_out",
    "vec_sys:",  # return-to-kernel: continuation saved in SCRATCH1
    "    MOVRS R1, SCRATCH1",
    "    MOVSR EPC, R1",
    "    MOVRS R1, STATUS",
    "    ORI R1, 12",  # PREV_KERNEL | PREV_IE
    "    MOVSR STATUS, R1",
    "    JMP vec_out",
    "vec_fatal:",
    "    MOVI R1, 0",
    "    OUT %#x, R1" % PORT_POWER,
    "    HALT",
    "vec_out:",
    "    POP R2",
    "    POP R1",
    "    MOVSR FLAGS, R1",
    "    POP R1",
    "    IRET",
]

# User-mode excursion body.  Entered via IRET with R3 = iteration count,
# R4 = address stride; every fetch and data access goes through the
# software TLB (misses refilled by vec_tlb above).  SYSCALL returns to
# the kernel continuation stored in SCRATCH1.
_USER_CODE = [
    ".org %#x" % USER_CODE,
    "user_code:",
    "    MOVI R2, %#x" % USER_DATA,
    "user_loop:",
    "    ST [R2+0], R3",
    "    LD R1, [R2+4]",
    "    ADD R1, R3",
    "    ADD R2, R4",
    "    DEC R3",
    "    JNZ user_loop",
    "    SYSCALL",
]


# -- atom builders --------------------------------------------------------


def _scratch_addr(rng: random.Random) -> int:
    return SCRATCH_BASE + rng.randrange(0, SCRATCH_SIZE - 64, 4)


def _alu_lines(rng: random.Random, count: int,
               regs: Tuple[int, ...] = DATA_REGS) -> List[str]:
    lines = []
    for _ in range(count):
        shape = rng.randrange(4)
        reg = rng.choice(regs)
        if shape == 0:
            op = rng.choice(_ALU_REG_OPS)
            lines.append("%s R%d, R%d" % (op, reg, rng.choice(regs)))
        elif shape == 1:
            lines.append("%s R%d" % (rng.choice(_ALU_UNARY_OPS), reg))
        elif shape == 2:
            op = rng.choice(_ALU_IMM_OPS)
            lines.append("%s R%d, %d" % (op, reg, rng.randrange(1 << 16)))
        else:
            op = rng.choice(_ALU_SHIFT_OPS)
            lines.append("%s R%d, %d" % (op, reg, rng.randrange(1, 13)))
    return lines


def _atom_alu(rng: random.Random, cfg: GeneratorConfig) -> Atom:
    return Atom("alu", tuple(_alu_lines(rng, rng.randint(1, 4))))


def _atom_muldiv(rng: random.Random, cfg: GeneratorConfig) -> Atom:
    dst, src = rng.choice(DATA_REGS), rng.choice(DATA_REGS)
    lines = ["MOVI R%d, %d" % (src, rng.randrange(1, 1 << 12))]
    if rng.random() < 0.5:
        lines.append("MUL R%d, R%d" % (dst, src))
    else:
        lines.append("ORI R%d, 1" % src)  # divisor can never be zero
        lines.append("DIV R%d, R%d" % (dst, src))
    return Atom("muldiv", tuple(lines))


def _atom_mem(rng: random.Random, cfg: GeneratorConfig) -> Atom:
    addr = _scratch_addr(rng)
    reg = rng.choice(DATA_REGS)
    lines = ["MOVI R6, %#x" % addr]
    for _ in range(rng.randint(1, 3)):
        disp = rng.randrange(0, 32, 4)
        shape = rng.randrange(5)
        if shape == 0:
            lines.append("ST [R6+%d], R%d" % (disp, reg))
        elif shape == 1:
            lines.append("LD R%d, [R6+%d]" % (rng.choice(DATA_REGS), disp))
        elif shape == 2:
            lines.append("STB [R6+%d], R%d" % (disp, reg))
        elif shape == 3:
            lines.append("LDB R%d, [R6+%d]" % (rng.choice(DATA_REGS), disp))
        else:
            lines.append("LEA R%d, [R6+%d]" % (rng.choice(DATA_REGS), disp))
    return Atom("mem", tuple(lines))


def _atom_stack(rng: random.Random, cfg: GeneratorConfig) -> Atom:
    depth = rng.randint(1, 3)
    pushes = [rng.choice(DATA_REGS) for _ in range(depth)]
    pops = [rng.choice(DATA_REGS) for _ in range(depth)]
    lines = ["PUSH R%d" % r for r in pushes]
    lines += ["POP R%d" % r for r in pops]
    return Atom("stack", tuple(lines), needs_stack=True)


def _atom_flow(rng: random.Random, cfg: GeneratorConfig) -> Atom:
    reg = rng.choice(DATA_REGS)
    cc = rng.choice(("JZ", "JNZ", "JL", "JGE", "JG", "JLE", "JC", "JNC"))
    lines = [
        "CMPI R%d, %d" % (reg, rng.randrange(1 << 16)),
        "%s {L}_skip" % cc,
    ]
    lines += _alu_lines(rng, rng.randint(1, 2))
    lines.append("{L}_skip:")
    return Atom("flow", tuple(lines))


def _atom_loop(rng: random.Random, cfg: GeneratorConfig) -> Atom:
    trip = rng.randint(2, cfg.max_loop_trip)
    # R5 is the loop counter; the body must leave it alone.
    body_regs = tuple(r for r in DATA_REGS if r != 5)
    lines = ["MOVI R5, %d" % trip, "{L}_top:"]
    lines += _alu_lines(rng, rng.randint(1, 3), regs=body_regs)
    if rng.random() < 0.3:
        addr = _scratch_addr(rng)
        lines.append("MOVI R6, %#x" % addr)
        lines.append("ST [R6+0], R%d" % rng.choice(body_regs))
    lines += ["DEC R5", "JNZ {L}_top"]
    return Atom("loop", tuple(lines))


def _atom_call(rng: random.Random, cfg: GeneratorConfig) -> Atom:
    lines = ["CALL {L}_sub", "JMP {L}_done", "{L}_sub:"]
    lines += _alu_lines(rng, rng.randint(1, 2))
    lines += ["RET", "{L}_done:"]
    return Atom("call", tuple(lines), needs_stack=True)


def _atom_string(rng: random.Random, cfg: GeneratorConfig) -> Atom:
    count = rng.randint(1, cfg.max_string_count)
    src = _scratch_addr(rng)
    dst = _scratch_addr(rng)
    op = rng.choice(("MOVSB", "STOSB", "SCASB"))
    lines = [
        "MOVI R0, %#x" % src,
        "MOVI R1, %#x" % dst,
        "MOVI R2, %d" % count,
        "MOVI R3, %d" % rng.randrange(256),
        "REP %s" % op,
    ]
    return Atom("string", tuple(lines))


def _atom_fp(rng: random.Random, cfg: GeneratorConfig) -> Atom:
    f1, f2 = rng.randrange(4), rng.randrange(4)
    gpr = rng.choice(DATA_REGS)
    lines = [
        "MOVI R%d, %d" % (gpr, rng.randrange(1, 1 << 10)),
        "FITOF F%d, R%d" % (f1, gpr),
        "%s F%d, F%d" % (rng.choice(("FADD", "FSUB", "FMUL", "FMOV")), f2, f1),
    ]
    if rng.random() < 0.5:
        addr = _scratch_addr(rng)
        lines.append("MOVI R6, %#x" % addr)
        lines.append("FST [R6+0], F%d" % f2)
        lines.append("FLD F%d, [R6+0]" % f1)
    lines.append("FFTOI R%d, F%d" % (gpr, f2))
    return Atom("fp", tuple(lines))


def _atom_tlbwr(rng: random.Random, cfg: GeneratorConfig) -> Atom:
    # Kernel-mode software-TLB fill: exercises the tlb_vpn/tlb_pte trace
    # fields and checkpointed TLB state even without a user excursion.
    vpn = (USER_DATA >> 12) + rng.randrange(8)
    lines = [
        "MOVI R1, %d" % vpn,
        "MOVI R2, %#x" % ((vpn << 12) | 3),
        "TLBWR R1, R2",
    ]
    if rng.random() < 0.25:
        lines.append("TLBFLUSH")
    return Atom("tlbwr", tuple(lines))


def _atom_timer(rng: random.Random, cfg: GeneratorConfig) -> Atom:
    interval = rng.randint(cfg.min_timer_interval, cfg.max_timer_interval)
    lines = [
        "MOVI R1, %d" % interval,
        "OUT %#x, R1" % PORT_TIMER_INTERVAL,
        "MOVI R1, 1",
        "OUT %#x, R1" % PORT_PIC_ENABLE,
        "OUT %#x, R1" % PORT_TIMER_CTRL,
        "STI",
    ]
    return Atom("timer", tuple(lines), needs_handler=True, arms_timer=True)


def _atom_halt_wait(rng: random.Random, cfg: GeneratorConfig) -> Atom:
    # Only emitted after a timer atom: the next fire always wakes it.
    return Atom("halt_wait", ("HALT",), needs_handler=True)


def _atom_user(rng: random.Random, cfg: GeneratorConfig) -> Atom:
    iters = rng.randint(2, 6)
    stride = rng.choice((4, 8, 64, 4096, 4100))
    lines = [
        "MOVI R3, %d" % iters,
        "MOVI R4, %d" % stride,
        "MOVI R1, {L}_cont",
        "MOVSR SCRATCH1, R1",
        "MOVI R1, user_code",
        "MOVSR EPC, R1",
        "MOVRS R1, STATUS",
        "ANDI R1, 0xFFFFFFF3",  # clear PREV_IE | PREV_KERNEL
        "ORI R1, 4",  # PREV_IE: user mode runs with interrupts on
        "MOVSR STATUS, R1",
        "IRET",
        "{L}_cont:",
    ]
    return Atom("user", tuple(lines), needs_handler=True, needs_user=True)


_BUILDERS = {
    "alu": _atom_alu,
    "muldiv": _atom_muldiv,
    "mem": _atom_mem,
    "stack": _atom_stack,
    "flow": _atom_flow,
    "loop": _atom_loop,
    "call": _atom_call,
    "string": _atom_string,
    "fp": _atom_fp,
    "tlbwr": _atom_tlbwr,
    "timer": _atom_timer,
    "halt_wait": _atom_halt_wait,
    "user": _atom_user,
}


def generate_program(seed: int,
                     config: Optional[GeneratorConfig] = None) -> FuzzProgram:
    """Generate one terminating program, deterministically from *seed*."""
    cfg = config or GeneratorConfig()
    rng = random.Random(seed)
    n_atoms = rng.randint(cfg.min_atoms, cfg.max_atoms)
    kinds = [kind for kind, weight in cfg.weights for _ in range(weight)]
    atoms: List[Atom] = []
    timer_armed = False
    # Seed the data registers so every atom starts from defined values.
    seed_lines = tuple(
        "MOVI R%d, %d" % (reg, rng.randrange(1 << 16)) for reg in DATA_REGS
    )
    atoms.append(Atom("seed-regs", seed_lines))
    while len(atoms) < n_atoms + 1:
        kind = rng.choice(kinds)
        if kind == "halt_wait" and not timer_armed:
            continue  # a HALT with no wake source would wedge
        if kind == "timer" and timer_armed:
            continue  # one arming per program keeps intervals stable
        atom = _BUILDERS[kind](rng, cfg)
        atoms.append(atom)
        timer_armed = timer_armed or atom.arms_timer
    return FuzzProgram(seed=seed, atoms=atoms)
