"""The compiled engine's stage generator (repro.timing.pipeline.fastpath):
it compiles the reference stage methods themselves, so an edit to a
method reaches both engines, a Connector call it cannot inline fails
the bind, declared-stable attributes really are bound once, tracebacks
point at the reference source, and the reservation-station quiescence
skip it inherits from the reference stays invisible in the results."""

import ast
import importlib.util
import inspect
import textwrap
import traceback
from dataclasses import asdict

import pytest

from repro.baselines.lockstep import LockStepFeed
from repro.fast.simulator import FastSimulator
from repro.functional.model import FunctionalModel
from repro.fuzz.generator import generate_program
from repro.fuzz.oracle import OracleCell, OracleConfig, run_cell
from repro.isa.program import ProgramImage
from repro.system.bus import build_standard_system
from repro.timing.connector import Connector
from repro.timing.core import TimingConfig, TimingModel
from repro.timing.feed import NullFeed
from repro.timing.module import Module
from repro.timing.pipeline.backend import Backend
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


@pytest.mark.parametrize("cls", [Frontend, Backend, Connector, Module])
def test_declared_stable_attributes_are_bound_only_in_init(cls):
    stable = {path.split(".")[0] for path in vars(cls)["STABLE_ATTRS"]}
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

    def peek(self):
        entry = super().peek()
        if entry is not None:
            if self.first_in is None:
                self.first_in = entry.in_no
            elif entry.in_no == self.first_in + 1 and not entry.wrong_path:
                entry.pc = 0x7770
        return entry


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


# -- the reservation-station quiescence skip ----------------------------


class _QuietPinnedOff:
    """``Backend._rs_quiet`` that always reads False: issue scans the
    reservation station every cycle."""

    def __get__(self, obj, owner=None):
        return False

    def __set__(self, obj, value):
        pass


class _QuietCounted:
    """``Backend._rs_quiet`` as usual, counting how often a barren scan
    raises it (so the comparison is known to exercise the skip)."""

    def __init__(self):
        self.raised = 0

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        return obj.__dict__.get("_rs_quiet_flag", False)

    def __set__(self, obj, value):
        self.raised += bool(value)
        obj.__dict__["_rs_quiet_flag"] = value


def _mcf_stats(engine):
    workload = build("181.mcf", scale=1)
    sim = FastSimulator.from_programs(
        workload.programs, kernel_config=workload.kernel_config,
        timing_config=TimingConfig(engine=engine),
    )
    return asdict(sim.run().timing)


def _fuzz_stats(engine):
    # Seed 8 is a generated program whose issue scans go barren.
    program = generate_program(8)
    result = run_cell(program.source(), program.base,
                      OracleCell(engine, "tb", "instr"), OracleConfig())
    assert result.status == "ok"
    return result.stats


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("run", [_mcf_stats, _fuzz_stats],
                         ids=["181.mcf", "fuzz"])
def test_rs_quiet_skip_changes_no_stat(engine, run, monkeypatch):
    counted = _QuietCounted()
    monkeypatch.setattr(Backend, "_rs_quiet", counted, raising=False)
    normal = run(engine)
    assert counted.raised > 0
    monkeypatch.setattr(Backend, "_rs_quiet", _QuietPinnedOff())
    assert run(engine) == normal
