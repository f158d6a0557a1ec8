"""FastBlock busy-path regressions: superblock invalidation edges, the
decode crack-memo's generational eviction and the FM's byte-keyed
decode memo.

Every superblock scenario here runs twice -- FM superblock capture/replay on and
off -- and asserts bit-identical ``TimingStats``: replay is an
implementation detail the timing results must never see, even across
the nasty edges (self-modifying stores into captured blocks, rollback
to a mid-block checkpoint, interrupts landing inside a replayed span).
"""

import dataclasses

import pytest

import repro.functional.model as model_mod
import repro.timing.pipeline.frontend as frontend_mod
from repro.baselines.lockstep import LockStepFeed
from repro.fast.trace_buffer import TraceBufferFeed
from repro.functional.model import FunctionalModel
from repro.isa.encoding import EncodingError, decode, encode, make
from repro.isa.opcodes import OPCODES_BY_VALUE, REP_PREFIX
from repro.isa.program import ProgramImage
from repro.system.bus import build_standard_system
from repro.timing.core import TimingConfig, TimingModel

POWER_OFF = """
    MOVI R4, 0
    OUT 0x40, R4
    HALT
"""


def run_sim(source, superblocks=True, engine="compiled", feed="tb",
            predictor="perfect", base=0x1000, max_cycles=400_000):
    memory, bus, *_ = build_standard_system(memory_size=1 << 20)
    fm = FunctionalModel(memory=memory, bus=bus)
    if not superblocks:
        fm.config.superblocks = False
        fm.blocks = None
        fm._sb_pages = {}
    fm.load(ProgramImage.from_assembly("t", source, base=base, entry="main"))
    feed_obj = (TraceBufferFeed if feed == "tb" else LockStepFeed)(fm)
    tm = TimingModel(feed_obj, microcode=fm.microcode,
                     config=TimingConfig(engine=engine, predictor=predictor))
    stats = tm.run(max_cycles=max_cycles)
    assert fm.bus.shutdown_requested, "program did not power off"
    return dataclasses.asdict(stats), tm, fm


# -- S4: invalidation edges -------------------------------------------------


# The first pass runs the loop 24 times (above the capture threshold of
# 16) so its block is cached, then STB rewrites the ADDI immediate byte
# *inside the captured block* and the loop runs again.  R1 ends at
# 24*1 + 24*9 = 240 only if the patched bytes are what executes.
SELF_MODIFY = """
main:
    MOVI R1, 0
    MOVI R7, 2
sm_pass:
    MOVI R5, 24
sm_loop:
sm_site:
    ADDI R1, 1
    DEC R5
    JNZ sm_loop
    MOVI R6, sm_site
    MOVI R2, 9
    STB [R6+2], R2
    DEC R7
    JNZ sm_pass
%(exit)s
""" % {"exit": POWER_OFF}


def test_self_modifying_store_invalidates_cached_block():
    on, _tm, fm = run_sim(SELF_MODIFY, superblocks=True)
    assert fm.state.regs[1] == 240
    assert fm.blocks.stats.hits > 0
    assert fm.blocks.stats.invalidations > 0
    off, _tm, fm_off = run_sim(SELF_MODIFY, superblocks=False)
    assert fm_off.state.regs[1] == 240
    assert on == off


# A data-dependent branch gshare keeps mispredicting: the trace-buffer
# feed speculates past it, the backend rolls the FM back, and with the
# default checkpoint interval (32) the rollback targets routinely land
# in the middle of the captured loop block.
ROLLBACK_MID_BLOCK = """
main:
    MOVI R1, 0
    MOVI R5, 200
rb_loop:
    MOV R2, R5
    ANDI R2, 3
    CMPI R2, 0
    JNZ rb_skip
    ADDI R1, 7
rb_skip:
    ADDI R1, 1
    DEC R5
    JNZ rb_loop
%(exit)s
""" % {"exit": POWER_OFF}


def test_rollback_to_mid_block_checkpoint():
    on, _tm, fm = run_sim(ROLLBACK_MID_BLOCK, superblocks=True,
                          predictor="gshare")
    assert fm.stats.rollbacks > 0
    assert fm.blocks.stats.hits > 0
    off, _tm, fm_off = run_sim(ROLLBACK_MID_BLOCK, superblocks=False,
                               predictor="gshare")
    assert fm_off.stats.rollbacks > 0
    assert on == off


# A timer firing every 80 executed instructions inside a 600-iteration
# hot loop: interrupts must be delivered at the same commit boundaries
# whether the loop is interpreted or replayed from the superblock cache
# (the replay horizon clips spans short of the next device event).
IRQ_IN_SPAN = """
.org 0x40
vector:
    PUSH R1
    MOVRS R1, FLAGS
    PUSH R1
    PUSH R2
    MOVI R1, 1
    OUT 0x50, R1
    MOVI R1, 0x8FF0
    LD R2, [R1+0]
    INC R2
    ST [R1+0], R2
    POP R2
    POP R1
    MOVSR FLAGS, R1
    POP R1
    IRET
.org 0x1000
main:
    MOVI SP, 0x9F00
    MOVI R1, 0
    MOVI R6, 0x8FF0
    ST [R6+0], R1
    MOVI R1, 80
    OUT 0x21, R1
    MOVI R1, 1
    OUT 0x51, R1
    OUT 0x20, R1
    STI
    MOVI R5, 600
il_loop:
    ADDI R1, 3
    XORI R1, 0x55
    DEC R5
    JNZ il_loop
%(exit)s
""" % {"exit": POWER_OFF}


def _fire_count(fm):
    return int.from_bytes(fm.memory.read_blob(0x8FF0, 4), "little")


def test_interrupt_inside_replayed_span():
    on, _tm, fm = run_sim(IRQ_IN_SPAN, superblocks=True, base=0x40)
    assert fm.blocks.stats.hits > 0
    assert fm.stats.interrupts > 0
    fires_on = _fire_count(fm)
    assert fires_on > 0
    off, _tm, fm_off = run_sim(IRQ_IN_SPAN, superblocks=False, base=0x40)
    assert _fire_count(fm_off) == fires_on
    assert on == off


# -- S1: crack-memo generational second-chance eviction ---------------------


# More distinct decode sites than the (shrunken) memo limit, revisited
# every iteration: the live generation must rotate, and hot entries must
# survive via second-chance promotion instead of being re-cracked.
MEMO_CHURN = """
main:
    MOVI R1, 0
    MOVI R2, 0
    MOVI R3, 0
    MOVI R5, 40
cm_loop:
    ADDI R1, 1
    ADDI R2, 2
    ADDI R3, 3
    XORI R1, 5
    XORI R2, 6
    XORI R3, 7
    ADD R1, R2
    SUB R2, R3
    INC R3
    NEG R1
    NOT R2
    SHL R3, 1
    SHR R3, 1
    DEC R5
    JNZ cm_loop
%(exit)s
""" % {"exit": POWER_OFF}


def test_crack_memo_generational_eviction(monkeypatch):
    baseline, _tm, _fm = run_sim(MEMO_CHURN)
    monkeypatch.setattr(frontend_mod, "CRACK_MEMO_LIMIT", 8)
    for engine in ("legacy", "compiled"):
        stats, tm, _fm = run_sim(MEMO_CHURN, engine=engine)
        fe = tm.frontend
        assert fe.counter("crack_memo_rotations") > 0
        assert fe.counter("crack_memo_promotions") > 0
        # The rotation bound holds: at most two generations alive.
        assert len(fe._crack_memo) <= 8
        assert len(fe._crack_memo_prev) <= 8
        # Eviction policy is invisible to the timing results.
        assert stats == baseline


# -- decode memo: exact bytes -> one shared Instr ---------------------------


def _bare_fm(memory_size=1 << 16):
    memory, bus, *_ = build_standard_system(memory_size=memory_size)
    return FunctionalModel(memory=memory, bus=bus)


def test_store_rewriting_instruction_decodes_new_bytes():
    fm = _bare_fm()
    fm.memory.load_blob(0x1000, encode(make("ADDI", dst=1, imm=1)))
    first = fm._decode_at(0x1000)
    assert fm._decode_at(0x1000) is first
    misses = fm.stats.decode_misses
    fm._phys_write8(0x1002, 9)  # the ADDI immediate's low byte
    patched = fm._decode_at(0x1000)
    assert patched == make("ADDI", dst=1, imm=9)
    assert fm.stats.decode_misses == misses + 1


def test_same_bytes_at_two_addresses_share_one_instr():
    fm = _bare_fm()
    code = encode(make("ADDI", dst=1, imm=1))
    fm.memory.load_blob(0x1000, code)
    fm.memory.load_blob(0x2000, code)  # another page, another cache
    rep = encode(make("MOVSB", rep=True))
    fm.memory.load_blob(0x3000, rep)
    fm.memory.load_blob(0x3100, rep)
    assert fm._decode_at(0x1000) is fm._decode_at(0x2000)
    assert fm._decode_at(0x3000) is fm._decode_at(0x3100)
    assert fm._decode_at(0x3000).rep
    assert fm.stats.decode_misses == 4


def test_invalid_and_truncated_bytes_still_fault():
    size = 1 << 16
    fm = _bare_fm(size)
    invalid = min(set(range(256)) - set(OPCODES_BY_VALUE))
    fm.memory.write8(0x1000, invalid)
    fm.memory.load_blob(size - 3, encode(make("ADDI", dst=1, imm=1))[:3])
    fm.memory.write8(size - 8, REP_PREFIX)
    fm.memory.write8(size - 7, invalid)
    mem = fm.memory.view()
    for ppc in (0x1000, size - 3, size - 8):
        with pytest.raises(EncodingError) as expected:
            decode(mem, ppc)
        with pytest.raises(EncodingError) as raised:
            fm._decode_at(ppc)
        assert str(raised.value) == str(expected.value)
    fm.memory.write8(size - 1, REP_PREFIX)  # prefix with no opcode
    with pytest.raises(EncodingError, match="REP prefix with no opcode"):
        fm._decode_at(size - 1)
    assert fm._decode_memo == {}


def test_decode_memo_stays_within_bound(monkeypatch):
    monkeypatch.setattr(model_mod, "_DECODE_MEMO_LIMIT", 4)
    fm = _bare_fm()
    for imm in range(20):
        ppc = 0x1000 + 8 * imm
        fm.memory.load_blob(ppc, encode(make("ADDI", dst=1, imm=imm)))
        assert fm._decode_at(ppc) == make("ADDI", dst=1, imm=imm)
        assert len(fm._decode_memo) <= 4
