"""The compiled engine's stage generator (repro.timing.pipeline.fastpath):
it compiles the reference stage methods themselves, so an edit to a
method reaches both engines, a Connector call it cannot inline fails
the bind, declared-stable attributes really are bound once, tracebacks
point at the reference source, and the per-cycle state the stages keep
(dispatch's pop budget, the issue stage's ready list) matches the
reference on both engines."""

import ast
import importlib.util
import inspect
import textwrap
import traceback

import pytest

from repro.baselines.lockstep import LockStepFeed
from repro.fast.simulator import FastSimulator
from repro.fast.trace_buffer import TraceBufferFeed
from repro.functional.model import FunctionalModel
from repro.fuzz.generator import generate_program
from repro.fuzz.oracle import OracleCell, OracleConfig, run_cell
from repro.isa.program import ProgramImage
from repro.microcode.uop import uop_meta
from repro.system.bus import build_standard_system
from repro.timing.connector import Connector
from repro.timing.core import TimingConfig, TimingModel
from repro.timing.feed import InstructionFeed, NullFeed
from repro.timing.module import Module
from repro.timing.pipeline.backend import Backend
from repro.timing.pipeline.dynamic import U_DONE, U_SQUASHED
from repro.timing.pipeline.fastpath import StageBindError
from repro.timing.pipeline.frontend import Frontend
from repro.workloads import build
from tests.test_timing_pipeline import chain_program, run_timing

ENGINES = ("legacy", "compiled")


def _import_file(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_edited_stage_method_reaches_the_compiled_engine(tmp_path,
                                                         monkeypatch):
    # A source variant of Backend._commit that also counts its calls.
    source = textwrap.dedent(inspect.getsource(Backend._commit))
    head, body = source.split("\n", 1)
    variant = tmp_path / "commit_variant.py"
    variant.write_text(
        "from repro.timing.pipeline.backend import *  # noqa: F401,F403\n\n"
        + head + "\n    self.bump(\"commit_calls\")\n" + body
    )
    commit = _import_file(variant, "commit_variant")._commit
    monkeypatch.setattr(Backend, "_commit", commit)
    for engine in ENGINES:
        _stats, tm, _fm = run_timing(
            chain_program(20, dependent=True),
            TimingConfig(predictor="perfect", engine=engine),
        )
        # run_timing steps every cycle, so commit runs once per cycle.
        assert tm.backend.counter("commit_calls") == tm.cycle > 0, engine


def _flushing_decode(self, cycle):
    self.fetch_q.flush()


def test_connector_call_without_a_template_fails_the_bind(monkeypatch):
    monkeypatch.setattr(Frontend, "_decode", _flushing_decode)
    with pytest.raises(StageBindError) as info:
        TimingModel(NullFeed(), config=TimingConfig(engine="compiled"))
    message = str(info.value)
    assert "flush" in message
    line = _flushing_decode.__code__.co_firstlineno + 1
    assert "test_stage_generator.py:%d" % line in message
    # The legacy engine runs the methods as written: no bind, no error.
    TimingModel(NullFeed(), config=TimingConfig(engine="legacy"))


def _self_attributes_assigned(function: ast.FunctionDef):
    for node in ast.walk(function):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for sub in ast.walk(target):
                if (
                    isinstance(sub, ast.Attribute)
                    and isinstance(sub.ctx, ast.Store)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == "self"
                ):
                    yield sub.attr, node.lineno


def _stable_cases():
    for cls in (Frontend, Backend, Connector, Module):
        stable = {path.split(".")[0] for path in vars(cls)["STABLE_ATTRS"]}
        yield pytest.param(cls, stable, id=cls.__name__)
    # Fetch hoists the feed's entry deque when its stage is bound.
    for cls in (InstructionFeed, TraceBufferFeed, LockStepFeed):
        yield pytest.param(cls, {"entries"}, id=cls.__name__)


@pytest.mark.parametrize("cls, stable", list(_stable_cases()))
def test_declared_stable_attributes_are_bound_only_in_init(cls, stable):
    tree = ast.parse(textwrap.dedent(inspect.getsource(cls)))
    offenders = [
        (function.name, attr, line)
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        and function.name != "__init__"
        for attr, line in _self_attributes_assigned(function)
        if attr in stable
    ]
    assert offenders == []


class _DivergingFeed(LockStepFeed):
    """Reports the second instruction at a PC fetch does not expect."""

    def __init__(self, fm):
        super().__init__(fm)
        self.first_in = None

    def refill(self):
        super().refill()
        for entry in self.entries:
            if self.first_in is None:
                self.first_in = entry.in_no
            elif entry.in_no == self.first_in + 1 and not entry.wrong_path:
                entry.pc = 0x7770


def test_divergence_traceback_points_at_frontend_source():
    memory, bus, *_ = build_standard_system(memory_size=1 << 22)
    fm = FunctionalModel(memory=memory, bus=bus)
    fm.load(ProgramImage.from_assembly("t", chain_program(4, True),
                                       base=0x1000))
    tm = TimingModel(_DivergingFeed(fm), microcode=fm.microcode,
                     config=TimingConfig(engine="compiled"))
    with pytest.raises(AssertionError, match="feed/fetch divergence") as info:
        for _ in range(1000):
            tm.tick()
    innermost = traceback.extract_tb(info.value.__traceback__)[-1]
    assert innermost.filename.endswith("frontend.py")
    assert innermost.name == "_fetch"
    assert innermost.line.startswith("raise AssertionError")


# -- per-cycle state the stages leave behind ---------------------------


@pytest.mark.parametrize("engine", ENGINES)
def test_decode_queue_keeps_dispatch_pops(engine):
    # The engines clock the Connectors before the stages, so nothing
    # resets decode_q's budget after dispatch has drawn on it.
    memory, bus, *_ = build_standard_system(memory_size=1 << 22)
    fm = FunctionalModel(memory=memory, bus=bus)
    fm.load(ProgramImage.from_assembly("t", chain_program(40, False),
                                       base=0x1000))
    tm = TimingModel(LockStepFeed(fm), microcode=fm.microcode,
                     config=TimingConfig(predictor="perfect", engine=engine))
    decode_q = tm.frontend.decode_q
    busy = 0
    while not (fm.state.halted and tm.drained):
        pops = decode_q.counter("pops")
        tm.tick()
        popped = decode_q.counter("pops") - pops  # all by dispatch
        assert decode_q._popped_this_cycle == popped, tm.cycle
        busy += popped > 0
    assert busy > 0


class _ReadyOracle:
    """A cycle listener asserting that ``Backend.ready`` is the dep-ready
    filter of ``rs``, in order.  Dependencies come from a shadow rename
    map fed with every µop as it enters the ROB; a µop is dep-ready when
    each producer it read from is done or squashed."""

    def __init__(self, backend):
        self.backend = backend
        self.rename = {}  # register -> newest dispatched producer
        self.producers = {}  # seq of an rs µop -> its producers
        self.newest = 0
        self.cycles = 0
        self.waiting = 0  # µop-cycles spent in rs but not ready

    def __call__(self, cycle):
        backend = self.backend
        fresh = []
        for uop in reversed(backend.rob):
            if uop.seq <= self.newest:
                break
            fresh.append(uop)
        for uop in reversed(fresh):
            meta = uop_meta(uop.uop)
            self.producers[uop.seq] = [self.rename[reg] for reg in meta.sources
                                       if reg in self.rename]
            for reg in meta.destinations:
                self.rename[reg] = uop
            self.newest = uop.seq
        self.producers = {uop.seq: self.producers[uop.seq]
                          for uop in backend.rs}
        expected = [
            uop for uop in backend.rs
            if all(p.state in (U_DONE, U_SQUASHED)
                   for p in self.producers[uop.seq])
        ]
        assert [u.seq for u in backend.ready] == \
            [u.seq for u in expected], cycle
        self.cycles += 1
        self.waiting += len(backend.rs) - len(expected)


def _mcf_run(engine):
    workload = build("181.mcf", scale=1)
    FastSimulator.from_programs(
        workload.programs, kernel_config=workload.kernel_config,
        timing_config=TimingConfig(engine=engine),
    ).run()


def _fuzz_run(engine):
    # Seed 8 is a generated program whose consumers wait on loads.
    program = generate_program(8)
    result = run_cell(program.source(), program.base,
                      OracleCell(engine, "tb", "instr"), OracleConfig())
    assert result.status == "ok"


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("run", [_mcf_run, _fuzz_run],
                         ids=["181.mcf", "fuzz"])
def test_ready_list_is_the_dep_ready_filter_of_rs(engine, run,
                                                  monkeypatch):
    oracles = []
    init = TimingModel.__init__

    def armed_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        oracles.append(_ReadyOracle(self.backend))
        # Hintless: the oracle must see every cycle.
        self.add_cycle_listener(oracles[-1])  # fastlint: ignore[ST003]

    monkeypatch.setattr(TimingModel, "__init__", armed_init)
    run(engine)
    assert oracles and all(oracle.cycles > 0 for oracle in oracles)
    assert sum(oracle.waiting for oracle in oracles) > 0
