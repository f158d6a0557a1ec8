"""FastBlock busy-path regressions: superblock invalidation edges, the
decode crack-memo's generational eviction and the FM's byte-keyed
decode memo.

Every superblock scenario here runs twice -- FM superblock capture/replay on and
off -- and asserts bit-identical ``TimingStats`` (on mcf and a boot
slice, every other stat too but the decode hit/miss counts): replay is an
implementation detail the timing results must never see, even across
the nasty edges (self-modifying stores into captured blocks, rollback
to a mid-block checkpoint, interrupts landing inside a replayed span).
"""

import dataclasses

import pytest

import repro.functional.model as model_mod
import repro.timing.pipeline.frontend as frontend_mod
from repro.baselines.lockstep import LockStepFeed
from repro.fast.simulator import FastSimulator
from repro.fast.trace_buffer import TraceBufferFeed
from repro.functional.blocks import WORDS_PER_PAGE, Superblock
from repro.functional.model import FunctionalConfig, FunctionalModel
from repro.isa.encoding import EncodingError, decode, encode, make
from repro.isa.opcodes import OPCODES_BY_VALUE, REP_PREFIX
from repro.isa.program import ProgramImage
from repro.system.bus import build_standard_system
from repro.system.mmu import PAGE_SHIFT, PAGE_SIZE
from repro.timing.core import TimingConfig, TimingModel
from repro.workloads import build, linux_boot_slice

POWER_OFF = """
    MOVI R4, 0
    OUT 0x40, R4
    HALT
"""


def run_sim(source, superblocks=True, engine="compiled", feed="tb",
            predictor="perfect", base=0x1000, max_cycles=400_000,
            prepare=None):
    memory, bus, *_ = build_standard_system(memory_size=1 << 20)
    fm = FunctionalModel(memory=memory, bus=bus)
    if not superblocks:
        fm.config.superblocks = False
        fm.blocks = None
        fm._sb_pages = {}
    fm.load(ProgramImage.from_assembly("t", source, base=base, entry="main"))
    if prepare is not None:
        prepare(fm)
    feed_obj = (TraceBufferFeed if feed == "tb" else LockStepFeed)(fm)
    tm = TimingModel(feed_obj, microcode=fm.microcode,
                     config=TimingConfig(engine=engine, predictor=predictor))
    stats = tm.run(max_cycles=max_cycles)
    assert fm.bus.shutdown_requested, "program did not power off"
    return dataclasses.asdict(stats), tm, fm


# -- whole workloads: every stat but the decode counts ----------------------


def _workload_stats(workload, superblocks, max_cycles):
    sim = FastSimulator.from_programs(
        workload.programs, kernel_config=workload.kernel_config,
        functional_config=FunctionalConfig(superblocks=superblocks))
    result = sim.run(max_cycles)
    blocks = sim.fm.blocks
    functional = dataclasses.asdict(result.functional)
    # Forward replay counts every replayed step as a decode hit, and
    # capture's own fetches count as lookups, so these two differ from
    # interpretation (mcf: 145,605/6,525 on, 145,436/6,582 off).  Every
    # other count must not.
    del functional["decode_hits"], functional["decode_misses"]
    stats = (dataclasses.asdict(result.timing), functional,
             dataclasses.asdict(result.protocol), result.console_text)
    return stats, blocks


# name -> (workload, max_cycles, exact TimingStats fields the run must
# reach, exact SuperblockStats fields of the superblocks-on run).  The
# boot slice runs to completion, so its totals are pinned.
WORKLOADS = {
    "mcf": (lambda: build("181.mcf", scale=1), 10_000, {}, {}),
    "boot": (lambda: linux_boot_slice(sleep_ticks=20), 1_000_000,
             {"cycles": 220_810, "idle_cycles": 198_306,
              "instructions": 33_777},
             {"hits": 6_938, "replayed_instructions": 29_462,
              "misses": 2_832, "captures": 26, "capture_failures": 13,
              "invalidations": 0}),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_stats_match_with_superblocks_off(name):
    workload, max_cycles, pinned, pinned_blocks = WORKLOADS[name]
    on, blocks = _workload_stats(workload(), True, max_cycles)
    off, _none = _workload_stats(workload(), False, max_cycles)
    assert on == off
    assert {k: on[0][k] for k in pinned} == pinned
    assert {k: getattr(blocks.stats, k) for k in pinned_blocks} == pinned_blocks


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


# A hot loop that stores to a data word on its own code page every
# iteration and, when a data-dependent branch (a bit of an xorshift
# sequence in R4) falls through, rewrites the ADDI immediate inside the
# loop.  Under gshare that branch keeps mispredicting, so rollbacks
# undo both kinds of store -- including, a few times, a code store
# that a block captured after it covers.  The same program is a
# fuzz-corpus entry (tests/corpus/), replayed through every oracle cell.
CODE_AND_DATA_STORES = """
main:
    MOVI R1, 0
    MOVI R4, 0x2545F491
    MOVI R5, 400
    MOVI R3, cd_site
    MOVI R6, cd_data
cd_loop:
    ST [R6+0], R1
    MOV R2, R4
    SHL R2, 13
    XOR R4, R2
    MOV R2, R4
    SHR R2, 17
    XOR R4, R2
    MOV R2, R4
    SHR R2, 7
    ANDI R2, 1
    JNZ cd_site
    STB [R3+2], R5
cd_site:
    ADDI R1, 1
    DEC R5
    JNZ cd_loop
%(exit)s
cd_data:
    .word 0
""" % {"exit": POWER_OFF}


class WordRecordCheck:
    """Wraps an FM's two code-store paths, ``_invalidate_code`` (a
    logged write) and ``_rewind`` (a rollback's undo log), and checks
    each against the unfiltered interval scan: the live blocks killed
    are exactly those in the written page's index whose instruction
    bytes overlap ``[addr, addr + 4)``."""

    def __init__(self, fm):
        self.fm = fm
        # path -> [stores into a code page's data words, into code words]
        self.seen = {"write": [0, 0], "undo": [0, 0]}
        invalidate, rewind = fm._invalidate_code, fm._rewind

        def checked_invalidate(paddr):
            self._check("write", [paddr], invalidate, paddr)

        def checked_rewind(ckpt, keep_undo):
            addrs = [addr for addr, _ in fm.ckpt.undo_entries_since(ckpt)]
            self._check("undo", addrs, rewind, ckpt, keep_undo)

        fm._invalidate_code = checked_invalidate
        fm._rewind = checked_rewind

    def _check(self, path, addrs, call, *args):
        blocks = self.fm.blocks
        live = [b for b in blocks._blocks.values() if isinstance(b, Superblock)]
        doomed = set()
        for addr in addrs:
            keys = blocks.page_index.get(addr >> PAGE_SHIFT)
            if not keys:
                continue
            hit = {id(b) for b in live if b.key in keys and any(
                lo < addr + 4 and addr < hi for lo, hi in b.intervals)}
            self.seen[path][bool(hit)] += 1
            doomed |= hit
        before = blocks.stats.invalidations
        call(*args)
        assert {id(b) for b in live if b.dead} == doomed
        assert blocks.stats.invalidations - before == len(doomed)


def recount_code_words(blocks):
    """The covered-word record rebuilt from scratch from the live blocks."""
    words = {}
    for block in blocks._blocks.values():
        if isinstance(block, Superblock):
            for lo, hi in block.intervals:
                for byte in range(lo, hi):
                    page = words.setdefault(byte >> PAGE_SHIFT,
                                            bytearray(WORDS_PER_PAGE))
                    page[(byte & (PAGE_SIZE - 1)) >> 2] = 1
    return words


def test_word_record_filters_data_stores_and_keeps_code_stores():
    checks = []
    on, _tm, fm = run_sim(CODE_AND_DATA_STORES, predictor="gshare",
                          prepare=lambda fm: checks.append(WordRecordCheck(fm)))
    (check,) = checks
    off, _tm, fm_off = run_sim(CODE_AND_DATA_STORES, superblocks=False,
                               predictor="gshare")
    assert fm.state.regs[1] == fm_off.state.regs[1]
    assert on == off
    assert fm.stats.rollbacks > 0 and fm.blocks.stats.hits > 0
    # Data-word and code-word stores reached both paths, and only the
    # code-word ones killed blocks (checked store by store above).
    assert min(check.seen["write"] + check.seen["undo"]) > 0, check.seen
    assert fm.blocks.stats.invalidations > 0
    assert fm.blocks.code_words == recount_code_words(fm.blocks)
    assert set(fm.blocks.code_words) == set(fm.blocks.page_index)


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
