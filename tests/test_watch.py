"""FastWatch tests: the invariant fabric, violation injection,
time-travel capsule capture (determinism across runs and engines), the
debug CLI and the IV lint family."""

import functools
import os

import pytest

from repro.analysis.watch_rules import lint_watch_source
from repro.experiments.harness import build_fast_simulator
from repro.observability import (
    FastScope,
    InvariantMonitor,
    capture_debug_capsule,
    find_first_violation,
    inject_violation,
)
from repro.observability.flight.capsule import (
    diff_capsules,
    find_capsules,
    list_capsules,
    load_capsule,
    verify_capsule,
)
from repro.timing.core import TimingConfig
from repro.timing.module import (
    InvariantRegistrationError,
    Module,
)
from repro.workloads import build as build_workload

# Small enough that a full run is a couple of seconds; long enough to
# exercise speculation, rollback and checkpoint release.
WORKLOAD = "164.gzip"
MAX_CYCLES = 2_000_000


@functools.lru_cache(maxsize=None)
def _workload():
    return build_workload(WORKLOAD, scale=1)


def _factory(engine):
    workload = _workload()

    def build():
        return build_fast_simulator(
            workload, timing_config=TimingConfig(engine=engine)
        )

    return build


# -- invariant registration primitives --------------------------------------


def test_invariant_registry_and_duplicate_rejection():
    module = Module("m")
    inv = module.new_invariant(
        "nonneg", check=lambda: True, desc="always"
    )
    assert module.invariant("nonneg") is inv
    assert "m/nonneg" in module.all_invariants()
    with pytest.raises(InvariantRegistrationError):
        module.new_invariant("nonneg", check=lambda: True)


def test_canonical_invariants_are_registered():
    sim = _factory("compiled")()
    paths = set(sim.tm.all_invariants())
    assert any(p.endswith("rob_occupancy_bound") for p in paths)
    assert any(p.endswith("rs_occupancy_bound") for p in paths)
    assert any(p.endswith("credit_conservation") for p in paths)
    feed_paths = set(sim.feed.all_invariants())
    assert any(p.endswith("tb_highwater") for p in feed_paths)
    assert any(p.endswith("fm_tm_lockstep") for p in feed_paths)
    assert any(p.endswith("ckpt_coverage") for p in feed_paths)


# -- the monitor: clean runs, edge triggering, idle hints --------------------


@pytest.mark.parametrize("engine", ["compiled", "legacy"])
def test_monitor_clean_on_healthy_run(engine):
    sim = _factory(engine)()
    monitor = InvariantMonitor(sim.tm, extra_roots=(sim.feed,))
    assert monitor.armed >= 6
    sim.run(max_cycles=MAX_CYCLES)
    assert not monitor.fired, monitor.report()


def test_fused_probe_matches_checks_on_real_run():
    # selfcheck=True cross-validates the fused expr-compiled probe
    # against the authoritative check closures on every executed cycle;
    # a full workload run exercises every canonical expr.
    sim = _factory("compiled")()
    monitor = InvariantMonitor(sim.tm, extra_roots=(sim.feed,),
                               selfcheck=True)
    sim.run(max_cycles=MAX_CYCLES)
    assert not monitor.fired, monitor.report()


def test_fused_probe_drift_detected():
    module = Module("m")
    module.new_invariant(  # fastlint: ignore[IV001]
        "drifted", check=lambda: True, expr="False"
    )

    class _FakeTM(Module):
        def __init__(self):
            super().__init__("tm")
            self.cycle_listeners = []
            self.add_child(module)

        def add_cycle_listener(self, listener, idle_hint=None):
            self.cycle_listeners.append(listener)  # fastlint: ignore[ST003]

    tm = _FakeTM()
    InvariantMonitor(tm, selfcheck=True)
    (listener,) = tm.cycle_listeners
    with pytest.raises(AssertionError, match="fused invariant probe"):
        listener(1)


def test_storm_limit_swaps_compiled_listener_in_place():
    # A storming invariant stops being recorded after 64 firings.  The
    # compiled listener is never regenerated or swapped: the subscribed
    # object stays put, and the dropped watch is skipped by the scan.
    sim = _factory("compiled")()
    tm = sim.tm
    flap = {"ok": True}
    module = Module("flappy")
    module.new_invariant(  # fastlint: ignore[IV001]
        "flap", check=lambda: flap["ok"]
    )
    monitor = InvariantMonitor(tm, extra_roots=(module,))
    armed_before = monitor.armed
    index = len(tm.cycle_listeners) - 1
    listener = tm.cycle_listeners[index]
    hint = tm._cycle_idle_hints[id(listener)]
    cycle = 0
    # Each flap down-and-up is one edge-triggered firing; keep flapping
    # past the limit.
    for _ in range(64 + 4):
        cycle += 1
        flap["ok"] = False
        tm.cycle_listeners[index](cycle)
        cycle += 1
        flap["ok"] = True
        tm.cycle_listeners[index](cycle)
    assert tm.cycle_listeners[index] is listener
    assert tm._cycle_idle_hints[id(listener)] is hint
    # 64 firings, one per falling edge, then silence.
    assert monitor.firings == 64
    assert [v.cycle for v in monitor.violations] == list(range(1, 128, 2))
    assert {v.invariant for v in monitor.violations} == {"flap"}
    assert monitor.armed == armed_before - 1
    assert not monitor._any_active


def test_monitor_does_not_perturb_stats():
    import dataclasses

    sim = _factory("compiled")()
    bare = sim.run(max_cycles=MAX_CYCLES)
    sim = _factory("compiled")()
    InvariantMonitor(sim.tm, extra_roots=(sim.feed,))
    watched = sim.run(max_cycles=MAX_CYCLES)
    assert dataclasses.asdict(bare) == dataclasses.asdict(watched)


def test_edge_triggered_firing():
    module = Module("m")
    state = {"bad": False}
    module.new_invariant(
        "flag", check=lambda: not state["bad"]
    )

    class _FakeTM(Module):
        def __init__(self):
            super().__init__("tm")
            self.cycle_listeners = []
            self.add_child(module)

        def add_cycle_listener(self, listener, idle_hint=None):
            self.cycle_listeners.append(listener)  # fastlint: ignore[ST003]

    tm = _FakeTM()
    monitor = InvariantMonitor(tm)
    (listener,) = tm.cycle_listeners
    listener(1)
    state["bad"] = True
    listener(2)
    listener(3)  # still failing: no new firing (edge, not level)
    state["bad"] = False
    listener(4)
    state["bad"] = True
    listener(5)  # re-armed: second edge fires again
    assert monitor.firings == 2
    assert [v.cycle for v in monitor.violations] == [2, 5]


# -- injected violations -----------------------------------------------------


@pytest.mark.parametrize("kind,invariant", [
    ("rob", "rob_occupancy_bound"),
    ("credit", "credit_conservation"),
    ("ckpt", "ckpt_coverage"),
])
def test_injected_violation_fires(kind, invariant):
    violation, monitor = find_first_violation(
        _factory("compiled"), inject=kind, max_cycles=MAX_CYCLES
    )
    assert violation is not None
    assert violation.invariant == invariant
    assert monitor.fired


def test_injection_is_observation_only():
    import dataclasses

    sim = _factory("compiled")()
    clean = sim.run(max_cycles=MAX_CYCLES)
    sim = _factory("compiled")()
    inject_violation(sim, "rob")
    injected = sim.run(max_cycles=MAX_CYCLES)
    assert dataclasses.asdict(clean) == dataclasses.asdict(injected)


def test_unknown_injection_rejected():
    sim = _factory("compiled")()
    with pytest.raises(ValueError):
        inject_violation(sim, "nonsense")


# -- capsule capture: windows, determinism, cross-engine ---------------------


@pytest.mark.parametrize("kind", ["rob", "credit", "ckpt"])
def test_injected_capture_window_contains_violation(tmp_path, kind):
    capsule = capture_debug_capsule(
        _factory("compiled"),
        workload=WORKLOAD,
        inject=kind,
        delta=8,
        profile=False,
        max_cycles=MAX_CYCLES,
        root=str(tmp_path),
    )
    assert capsule is not None
    cycle = capsule.violation_cycle
    assert cycle is not None
    assert capsule.contains_cycle(cycle)
    rows = capsule.rows()
    assert rows and any(row["cycle"] == cycle for row in rows)
    assert verify_capsule(capsule) == []


def test_capsule_byte_identical_across_runs_and_engines(tmp_path):
    def capture(engine, sub):
        return capture_debug_capsule(
            _factory(engine),
            workload=WORKLOAD,
            inject="rob",
            delta=8,
            profile=False,
            max_cycles=MAX_CYCLES,
            root=str(tmp_path / sub),
        )

    first = capture("compiled", "a")
    again = capture("compiled", "b")
    legacy = capture("legacy", "c")
    assert first.content_hash == again.content_hash
    assert first.content_hash == legacy.content_hash
    for name in ("capsule.json", "window.jsonl", "events.jsonl"):
        blob = (first.path + "/" + name, again.path + "/" + name,
                legacy.path + "/" + name)
        contents = [open(p, "rb").read() for p in blob]
        assert contents[0] == contents[1] == contents[2], name
    report = diff_capsules(first, legacy)
    assert report["identical"]
    assert report["first_divergence"] is None


def test_capture_without_violation_returns_none(tmp_path):
    capsule = capture_debug_capsule(
        _factory("compiled"),
        workload=WORKLOAD,
        profile=False,
        max_cycles=50_000,
        root=str(tmp_path),
    )
    assert capsule is None


def test_watchpoint_capture_and_find(tmp_path):
    capsule = capture_debug_capsule(
        _factory("compiled"),
        workload=WORKLOAD,
        center=200,
        delta=4,
        profile=False,
        root=str(tmp_path),
    )
    assert capsule.violation is None
    assert capsule.window["start"] == 196
    assert capsule.window["end"] == 204
    assert [c.capsule_id for c in
            find_capsules(str(tmp_path), containing_cycle=200)] \
        == [capsule.capsule_id]
    assert find_capsules(str(tmp_path), containing_cycle=500) == []
    assert load_capsule(capsule.capsule_id[:20],
                        str(tmp_path)).path == capsule.path


# -- the debug CLI -----------------------------------------------------------


def test_debug_cli_roundtrip(tmp_path, capsys):
    from repro.observability.flight.debug import debug_main

    root = str(tmp_path)
    args = ["--root", root, "capture", "--workload", WORKLOAD,
            "--inject", "rob", "--delta", "4", "--no-profile",
            "--max-cycles", str(MAX_CYCLES)]
    assert debug_main(args) == 0
    out = capsys.readouterr().out
    assert "capsule-rob_occupancy_bound-" in out

    assert debug_main(["list", "--root", root]) == 0
    listed = capsys.readouterr().out
    assert WORKLOAD in listed

    (capsule_id,) = list_capsules(root)
    assert debug_main(["show", capsule_id, "--root", root]) == 0
    shown = capsys.readouterr().out
    assert "<-- violation" in shown

    assert debug_main(["diff", capsule_id, capsule_id, "--root", root]) == 0
    diffed = capsys.readouterr().out
    assert "identical" in diffed


# -- FastScope integration ---------------------------------------------------


def test_fastscope_arms_invariants_by_default():
    sim = _factory("compiled")()
    scope = FastScope(sim)
    assert scope.monitor is not None
    sim.run(max_cycles=MAX_CYCLES)
    scope.finalize()
    report = scope.report()
    assert report["invariants"]["firings"] == 0
    assert report["invariants"]["armed"] >= 6

    sim = _factory("compiled")()
    scope = FastScope(sim, invariants=False)
    assert scope.monitor is None


# -- the IV lint family ------------------------------------------------------


def test_iv001_registration_outside_construction():
    report = lint_watch_source(
        "class M:\n"
        "    def tick(self, cycle):\n"
        "        self.new_invariant('late', check=lambda: True)\n"
    )
    assert [d.rule for d in report] == ["IV001"]


def test_iv002_impure_check_closure():
    report = lint_watch_source(
        "class M:\n"
        "    def __init__(self):\n"
        "        self.new_invariant('bad', check=self._chk)\n"
        "    def _chk(self):\n"
        "        self.count += 1\n"
        "        self.events.append(1)\n"
        "        return True\n"
    )
    rules = [d.rule for d in report]
    assert rules.count("IV002") == 2
    report = lint_watch_source(
        "class M:\n"
        "    def __init__(self):\n"
        "        self.new_invariant('ok', check=self._chk)\n"
        "    def _chk(self):\n"
        "        total = len(self.rob)\n"
        "        return total <= self.limit\n"
    )
    assert list(report) == []


def test_iv_rules_suppressible():
    report = lint_watch_source(
        "class M:\n"
        "    def tick(self, cycle):\n"
        "        self.new_invariant(  # fastlint: ignore[IV001]\n"
        "            'late', check=lambda: True)\n"
    )
    assert list(report) == []


# -- the capsule store -------------------------------------------------------


def _synthetic_capsule(root, label="store"):
    from repro.functional.replay import WindowCapture
    from repro.observability.flight.capsule import emit_capsule

    capture = WindowCapture(
        center=10, delta=2, start_cycle=8, end_cycle=12, engine="compiled",
        rows=[{"cycle": c, "pc": 0x1000 + 4 * c} for c in range(8, 13)],
        events=[{"cycle": 9, "kind": "fm_rollback", "seq": 0}],
        baseline={"timing_model/cycles": 8.0},
    )
    return emit_capsule(capture, label=label, workload=WORKLOAD,
                        reason="synthetic", root=str(root))


def test_capsule_verify_detects_tampered_payload(tmp_path):
    capsule = _synthetic_capsule(tmp_path)
    assert verify_capsule(capsule) == []
    with open(os.path.join(capsule.path, "window.jsonl"), "a") as fh:
        fh.write('{"cycle":13}\n')
    problems = verify_capsule(capsule)
    assert len(problems) == 1
    assert problems[0].startswith("hash mismatch on window.jsonl")


def test_capsule_verify_detects_missing_payload(tmp_path):
    capsule = _synthetic_capsule(tmp_path)
    os.remove(os.path.join(capsule.path, "events.jsonl"))
    assert "missing payload file events.jsonl" in verify_capsule(capsule)


def test_capsule_lookup_errors(tmp_path):
    from repro.observability.flight.artifact import ArtifactError

    first = _synthetic_capsule(tmp_path, label="one")
    second = _synthetic_capsule(tmp_path, label="two")
    assert list_capsules(str(tmp_path)) == sorted(
        [first.capsule_id, second.capsule_id]
    )
    with pytest.raises(ArtifactError, match="ambiguous capsule 'capsule-'"):
        load_capsule("capsule-", str(tmp_path))
    with pytest.raises(ArtifactError) as excinfo:
        load_capsule("capsule-nope", str(tmp_path))
    assert str(excinfo.value) == (
        "no capsule 'capsule-nope' under %s (try 'python -m repro debug "
        "list')" % tmp_path
    )
