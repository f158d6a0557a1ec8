"""The paper's worked pipeline examples (Figures 1 and 2), re-enacted.

Figure 1 walks eight instructions of a single-issue, three-FU target
through the trace buffer and pipeline: dependent loads wait, an
independent ALU op overtakes them (out-of-order completion), and the
ROB commits in order, deallocating TB entries.

Figure 2 walks a branch mis-speculation: the timing model detects the
divergence at fetch, the functional model is resteered down the wrong
path (``set_pc``), wrong-path instructions flow until resolution, and a
second ``set_pc`` restores the correct path.

Our pipeline is deeper than the figure's cartoon, so absolute cycle
numbers differ; every *ordering* relation in the figures is asserted.
"""

import pytest

from repro.fast.trace_buffer import TraceBufferFeed
from repro.functional.model import FunctionalModel
from repro.isa.program import ProgramImage
from repro.system.bus import build_standard_system
from repro.timing.core import TimingConfig, TimingModel
from repro.timing.pipeline.dynamic import U_DONE

# Figure 1's program, transcribed to FastISA (same dependency shape):
#   I1: R0 = MEM[R1]      load
#   I2: R0 = MEM[R0]      load, depends on I1
#   I3: R0 = R0 + R3      ALU, depends on I2
#   I4: R4 = R4 + R5      ALU, independent
#   I5: R1 = MEM[R0]      load, depends on I3
#   I6: R6 = R6 + R7      ALU, independent (R7=SP, value irrelevant)
FIGURE1 = """
    MOVI R1, ptr1
    MOVI R3, 4
    MOVI R2, 1
body:
    LD R0, [R1+0]         ; I1 (cold line: long-latency)
    LD R0, [R0+0]         ; I2 (dependent load)
    ADD R0, R3            ; I3 (dependent ALU)
    ADD R4, R5            ; I4 (independent ALU)
    LD R1, [R0+0]         ; I5 (dependent load)
    ADD R6, R2            ; I6 (independent ALU)
    HALT
; pointer chain on distinct, never-touched cache lines (loaded by the
; image loader, so the caches are cold exactly as Figure 1 needs)
.align 64
ptr1:
    .word ptr2
.align 64
ptr2:
    .word ptr3
.align 64
ptr3:
    .word 0, 0, 0, 0
"""


def run_figure(source, config=None, base=0x1000):
    memory, bus, *_ = build_standard_system(memory_size=1 << 20)
    fm = FunctionalModel(memory=memory, bus=bus)
    image = ProgramImage.from_assembly("fig", source, base=base)
    fm.load(image)
    tm = TimingModel(
        TraceBufferFeed(fm),
        microcode=fm.microcode,
        config=config or TimingConfig(predictor="gshare", issue_width=1),
    )
    committed = []
    tm.commit_listeners.append(lambda di, cycle: committed.append((di, cycle)))
    # Each instruction's latest µop writeback cycle.  The pipeline keeps
    # no per-instruction µop list, but a done µop stays in the ROB for at
    # least one cycle before it commits, so scanning after every tick
    # sees each one.
    done = {}
    while tm.cycle < 500_000:
        tm.tick()
        for uop in tm.backend.rob:
            if uop.state == U_DONE:
                di = uop.instr
                done[di] = max(done.get(di, -1), uop.done_cycle)
        # The speculative FM halts long before the TM finishes; stop
        # only when the trace buffer is drained and everything committed.
        if fm.state.halted and tm.drained and tm.feed.peek() is None:
            break
    return tm, fm, committed, image, done


class TestFigure1:
    @pytest.fixture(scope="class")
    def run(self):
        return run_figure(FIGURE1)

    def _body(self, run):
        tm, fm, committed, image, _d = run
        body_pc = image.symbol("body")
        return [c for c in committed if c[0].entry.pc >= body_pc]

    def test_commits_in_program_order(self, run):
        body = self._body(run)
        in_nos = [di.entry.in_no for di, _ in body]
        assert in_nos == sorted(in_nos)
        cycles = [cycle for _, cycle in body]
        assert cycles == sorted(cycles)

    def test_independent_alu_overtakes_dependent_load(self, run):
        """Figure 1, T=5: I4 'goes directly to the ALU since it has no
        dependencies' and completes before I2/I3 do."""
        body = self._body(run)
        by_name = {}
        for di, _cycle in body:
            by_name.setdefault(len(by_name) + 1, di)
        i2, i3, i4 = by_name[2], by_name[3], by_name[4]
        done = run[4]
        assert done[i4] < done[i2]
        assert done[i4] < done[i3]

    def test_dependent_load_waits_for_producer(self, run):
        """Figure 1, T=3: I2 waits in the reservation station, blocked
        by its dependency on I1."""
        body = self._body(run)
        i1 = body[0][0]
        i2 = body[1][0]
        done = run[4]
        assert done[i2] > done[i1]

    def test_chain_orders_i3_after_i2_i5_after_i3(self, run):
        body = self._body(run)
        done = lambda i: run[4][body[i][0]]
        assert done(2) > done(1)  # I3 after I2
        assert done(4) > done(2)  # I5 after I3

    def test_first_commit_deallocates_tb(self, run):
        """Figure 1, T=7: committing I1 advances the TB commit pointer
        (checkpoint resources released in the FM)."""
        tm, fm, committed, _i, _d = run
        assert fm.ckpt.stats.released >= 0  # commits flowed to the FM
        assert tm.feed.protocol.commit_messages == len(committed)

    def test_functional_result_correct(self, run):
        _tm, fm, _c, image, _d = run
        # R0 = MEM[MEM[ptr1]] + 4 = ptr3 + 4, and I5 loaded MEM[ptr3+4]=0.
        assert fm.state.regs[0] == image.symbol("ptr3") + 4
        assert fm.state.regs[1] == 0


# Figure 2's program: a taken branch whose first execution the cold
# predictor must get wrong (BTB miss -> fall-through prediction), with
# distinguishable wrong-path and right-path instructions.
FIGURE2 = """
    MOVI R0, 0
    MOVI R2, 0
    ADD R0, R2            ; I1 (sets Z: 0 + 0)
    JZ L1                 ; I2: taken, cold BTB -> mispredicted
    ADDI R0, 51           ; I3: wrong path (fall-through)
    ADDI R0, 52           ; I4*: more wrong path
    HALT
L1:
    MOVI R4, 99           ; the architected target path
    HALT
"""


class TestFigure2:
    @pytest.fixture(scope="class")
    def run(self):
        return run_figure(FIGURE2)

    def test_mispredict_detected_and_resolved(self, run):
        tm, fm, _c, _i, _d = run
        proto = tm.feed.protocol
        assert proto.mispredict_messages >= 1  # "execute I4* next"
        assert proto.resolve_messages >= 1  # branch resolution
        assert fm.stats.set_pc_calls >= 2

    def test_wrong_path_instructions_flowed(self, run):
        """T=1+m: the FM wrote mis-speculated instructions to the TB;
        the TM fetched them."""
        tm, fm, _c, _i, _d = run
        assert fm.stats.wrong_path > 0
        assert tm.frontend.counter("fetched_wrong_path") > 0

    def test_wrong_path_never_commits(self, run):
        _tm, fm, committed, image, _d = run
        target = image.symbol("L1")
        committed_pcs = [di.entry.pc for di, _ in committed]
        # The fall-through ADDIs (wrong path) never commit...
        fallthrough = [pc for pc in committed_pcs
                       if image.symbols["L1"] > pc >= image.entry and
                       di_name(committed, pc) == "ADDI"]
        assert not fallthrough
        # ...while the branch target does.
        assert target in committed_pcs

    def test_architectural_state_clean(self, run):
        """Rollback removed every wrong-path effect."""
        _tm, fm, _c, _i, _d = run
        assert fm.state.regs[0] == 0  # the wrong-path ADDIs undone
        assert fm.state.regs[4] == 99  # right path ran

    def test_pipeline_drained_through_rob(self, run):
        """Resolving flushes the pipeline through the ROB: drain cycles
        attributed to the mispredict appear."""
        tm, _fm, _c, _i, _d = run
        assert tm.frontend.counter("drain_cycles_mispredict") > 0

    def test_commit_pointer_advanced_to_end(self, run):
        tm, fm, committed, _i, _d = run
        assert committed[-1][0].entry.instr.name == "HALT"
        assert fm.in_count == committed[-1][0].entry.in_no


def di_name(committed, pc):
    for di, _ in committed:
        if di.entry.pc == pc:
            return di.entry.instr.name
    return None
