"""FastPulse tests: deterministic footer byte-identity (same seed, both
engines), idle fast-forward survival, non-perturbation, the liveness
watchdog (and its stall -> capsule hook), sidecar readers (``repro top``,
OpenMetrics), FastFlight adoption, oracle wedge classification and a
genuinely-live second-process attach."""

import functools
import json
import os
import subprocess
import sys
import time

import pytest

from repro.analysis.stat_rules import lint_stat_source
from repro.experiments.harness import build_fast_simulator
from repro.observability.pulse import (
    FOOTER_KIND,
    HEADER_KIND,
    SAMPLE_KIND,
    STATUS_DONE,
    STATUS_LIVE,
    LivenessWatchdog,
    PulseEmitter,
    capture_stall_capsule,
    classify,
    load_sidecar,
    render_openmetrics,
    snapshot,
)
from repro.timing.core import TimingConfig
from repro.workloads import build as build_workload

# 164.gzip at scale 1 retires in ~45k busy cycles; a 5k-cycle cadence
# gives ~9 due samples per run while the whole suite stays fast.
WORKLOAD = "164.gzip"
MAX_CYCLES = 200_000
INTERVAL = 5_000

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@functools.lru_cache(maxsize=None)
def _workload():
    return build_workload(WORKLOAD, scale=1)


def _build(engine="compiled"):
    return build_fast_simulator(
        _workload(), timing_config=TimingConfig(engine=engine)
    )


def _armed_run(engine="compiled", path=None, **kwargs):
    sim = _build(engine)
    emitter = PulseEmitter(
        sim.tm,
        feed=sim.feed,
        path=path,
        workload=WORKLOAD,
        interval_cycles=INTERVAL,
        horizon=MAX_CYCLES,
        watchdog=LivenessWatchdog(),
        **kwargs,
    )
    result = sim.run(max_cycles=MAX_CYCLES)
    emitter.finalize()
    return result, emitter


# -- determinism -------------------------------------------------------------


def test_footer_det_byte_identical_same_seed():
    _, a = _armed_run()
    _, b = _armed_run()
    det_a, det_b = a.footer_det(), b.footer_det()
    assert det_a == det_b
    assert det_a["det_hash"] == det_b["det_hash"]
    assert det_a["samples"] > 0


def test_footer_det_byte_identical_across_engines():
    # Wake cycles replay the full per-cycle path on both engines, so
    # the sampled det stream is engine-independent by construction.
    _, compiled = _armed_run("compiled")
    _, legacy = _armed_run("legacy")
    assert compiled.footer_det() == legacy.footer_det()


def test_coalescing_does_not_perturb_det_hash(tmp_path):
    # A huge wall-clock cap coalesces every non-first write, but the
    # rolling hash covers due samples regardless of whether they land.
    _, free = _armed_run()
    _, capped = _armed_run(
        path=str(tmp_path / "capped.jsonl"), min_wall_s=3600.0
    )
    assert capped.footer_det() == free.footer_det()
    sidecar = load_sidecar(str(tmp_path / "capped.jsonl"))
    assert sidecar.samples < free.footer_det()["samples"]


def test_pulse_does_not_perturb_timing_stats():
    bare = _build().run(max_cycles=MAX_CYCLES)
    armed, _ = _armed_run()
    assert armed.timing == bare.timing


def test_idle_hint_preserves_fast_forward():
    # With the cadence hint the listener wakes only on busy cycles and
    # due samples; a plain hintless listener is called on every
    # executed cycle.  linux-boot idles through most of its cycles, so
    # the hinted emitter must see far fewer calls.
    from repro.workloads import linux_boot_slice

    calls = {"hinted": 0, "hintless": 0}

    class Counting(PulseEmitter):
        def _on_cycle(self, cycle):
            calls["hinted"] += 1
            super()._on_cycle(cycle)

    def count_hintless(cycle):
        calls["hintless"] += 1

    def boot():
        return build_fast_simulator(
            linux_boot_slice(sleep_ticks=20),
            timing_config=TimingConfig(engine="compiled"),
        )

    sim = boot()
    Counting(sim.tm, feed=sim.feed, interval_cycles=50_000)
    result = sim.run(max_cycles=2_000_000)
    assert result.timing.idle_cycles > 0
    sim = boot()
    sim.tm.add_cycle_listener(count_hintless)  # fastlint: ignore[ST003]
    assert sim.run(max_cycles=2_000_000).timing == result.timing
    # Hintless registration pins single-cycle stepping: one call per
    # executed cycle.  The cadence hint confines calls to busy cycles
    # plus a handful of wake cycles at sample boundaries.
    assert calls["hintless"] == result.timing.cycles
    busy = result.timing.cycles - result.timing.idle_cycles
    assert calls["hinted"] <= busy + 64


# -- the liveness watchdog ---------------------------------------------------


def _det(cycle, instructions, idle=0, last_commit=0):
    return {
        "cycle": cycle,
        "instructions": instructions,
        "idle_cycles": idle,
        "last_commit_cycle": last_commit,
    }


def test_watchdog_flags_no_progress_stall():
    dog = LivenessWatchdog(no_commit_cycles=100)
    assert dog.observe(_det(50, 10, last_commit=45)) is None
    assert dog.observe(_det(100, 10, last_commit=45)) is None  # <100 span
    stall = dog.observe(_det(150, 10, last_commit=45))
    assert stall == {
        "kind": "no_progress",
        "cycle": 150,
        "since_cycle": 50,
        "last_commit_cycle": 45,
    }
    assert dog.stalled and dog.stall_count == 1


def test_watchdog_edge_triggered_and_rearms():
    dog = LivenessWatchdog(no_commit_cycles=100)
    dog.observe(_det(50, 10))
    assert dog.observe(_det(150, 10)) is not None
    # Still stalled: no second record until progress resumes.
    assert dog.observe(_det(250, 10)) is None
    assert dog.observe(_det(300, 11)) is None  # progress clears the flag
    assert not dog.stalled
    assert dog.observe(_det(400, 11)) is not None  # a fresh stall fires
    assert dog.stall_count == 2


def test_idle_progress_is_progress():
    # A sleeping machine is alive: idle-cycle advance resets the mark.
    dog = LivenessWatchdog(no_commit_cycles=100)
    dog.observe(_det(50, 10, idle=0))
    assert dog.observe(_det(200, 10, idle=150)) is None
    assert not dog.stalled


def test_stall_triggers_capsule_capture(monkeypatch):
    import repro.observability.watch as watch

    seen = {}

    def fake_capture(factory, workload, **kwargs):
        seen.update(kwargs, workload=workload)
        return "capsule"

    monkeypatch.setattr(watch, "capture_debug_capsule", fake_capture)
    stall = {"kind": "no_progress", "cycle": 900, "since_cycle": 700,
             "last_commit_cycle": 650}
    out = capture_stall_capsule(lambda: None, "w", stall, delta=16)
    assert out == "capsule"
    assert seen["center"] == 700 and seen["delta"] == 16
    assert seen["workload"] == "w"


# -- sidecar readers ---------------------------------------------------------


def test_sidecar_stream_and_classify(tmp_path):
    path = str(tmp_path / "run.jsonl")
    _armed_run(path=path)
    records = [json.loads(line) for line in open(path)]
    assert records[0]["kind"] == HEADER_KIND
    assert [r["seq"] for r in records] == list(range(len(records)))
    kinds = {r["kind"] for r in records}
    assert SAMPLE_KIND in kinds and FOOTER_KIND in kinds
    for record in records:
        assert set(record) == {"kind", "seq", "det", "host"}

    sidecar = load_sidecar(path)
    assert sidecar.name == WORKLOAD
    assert classify(sidecar) == STATUS_DONE
    row = snapshot(sidecar)
    assert row["status"] == STATUS_DONE
    assert row["cycle"] > 0 and row["samples"] == sidecar.samples


def test_classify_live_and_no_heartbeat(tmp_path):
    path = str(tmp_path / "run.jsonl")
    _armed_run(path=path)
    # Drop the footer: the stream now looks in-flight.
    lines = open(path).read().splitlines(True)
    with open(path, "w") as fh:
        fh.writelines(lines[:-1])
    sidecar = load_sidecar(path)
    ts = sidecar.last["host"]["ts"]
    assert classify(sidecar, now=ts + 1.0) == STATUS_LIVE
    assert classify(sidecar, now=ts + 60.0) == "no-heartbeat"


def test_truncated_tail_is_tolerated(tmp_path):
    path = str(tmp_path / "run.jsonl")
    _armed_run(path=path)
    whole = load_sidecar(path).records
    with open(path, "a") as fh:
        fh.write('{"kind":"pulse","seq":99,"det"')  # torn mid-write
    assert load_sidecar(path).records == whole


def test_openmetrics_export(tmp_path):
    path = str(tmp_path / "run.jsonl")
    _armed_run(path=path)
    text = render_openmetrics([load_sidecar(path)])
    assert "# TYPE fast_pulse_cycles gauge" in text
    assert '_cycles{run="%s"}' % WORKLOAD in text
    assert "# TYPE fast_pulse_stalls counter" in text
    assert text.endswith("# EOF\n")


def test_top_once_json(tmp_path, capsys):
    from repro.observability.pulse_cli import top_main

    _armed_run(path=str(tmp_path / "run.jsonl"))
    assert top_main(["--once", "--json", str(tmp_path)]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 1
    assert rows[0]["run"] == WORKLOAD
    assert rows[0]["status"] == STATUS_DONE

    assert top_main(["--once", str(tmp_path)]) == 0
    table = capsys.readouterr().out
    assert "RUN" in table and WORKLOAD in table


# -- FastFlight adoption -----------------------------------------------------


def _emit(tmp_path, sub):
    from repro.observability.flight.artifact import emit_artifact

    sim = _build()
    emitter = PulseEmitter(
        sim.tm, feed=sim.feed, workload=WORKLOAD,
        interval_cycles=INTERVAL, horizon=MAX_CYCLES,
        watchdog=LivenessWatchdog(),
    )
    result = sim.run(max_cycles=MAX_CYCLES)
    return emit_artifact(
        experiment="pulse-test", workload=WORKLOAD, result=result,
        pulse=emitter, host={"cycles_per_sec": 1e5, "seconds": 1.0},
        root=str(tmp_path / sub),
    )


def test_artifact_adopts_sidecar(tmp_path):
    from repro.observability.flight.artifact import verify_artifact

    artifact = _emit(tmp_path, "runs")
    assert artifact.has_pulse()
    assert verify_artifact(artifact) == []
    # Unhashed payload, hashed footer.
    assert artifact.manifest["files"]["pulse.jsonl"] == ""
    footer = artifact.manifest["extra"]["pulse_footer"]
    summary = artifact.pulse_summary()
    assert summary["det"] == footer
    assert footer["det_hash"] and footer["samples"] > 0


def test_same_seed_artifacts_share_content_hash(tmp_path):
    a = _emit(tmp_path, "runs")
    b = _emit(tmp_path, "runs")
    assert a.content_hash == b.content_hash
    assert a.run_id != b.run_id  # side-by-side serials


def test_report_diff_gates_pulse_rate(tmp_path):
    from repro.observability.flight.regression import compare_runs

    a = _emit(tmp_path, "runs")
    b = _emit(tmp_path, "runs")
    # Wide band: two back-to-back runs on a busy CI host can differ by
    # tens of percent in wall rate; the det sections must still match
    # exactly.
    report = compare_runs(a, b, noise=0.9)
    assert not report.failed
    metrics = {m.metric for m in report.metrics}
    assert "pulse.cps" in metrics
    assert not [m for m in report.mismatches
                if m.name.startswith("pulse.")]


def test_report_diff_flags_det_footer_drift(tmp_path):
    from repro.observability.flight.regression import compare_runs

    a = _emit(tmp_path, "a")
    b = _emit(tmp_path, "b")
    # Corrupt the candidate's sidecar footer: the reader prefers the
    # file over the manifest copy, and the diff must flag the drift.
    side = os.path.join(b.path, "pulse.jsonl")
    lines = open(side).read().splitlines(True)
    footer = json.loads(lines[-1])
    footer["det"]["det_hash"] = "0" * 64
    lines[-1] = json.dumps(footer, sort_keys=True,
                           separators=(",", ":")) + "\n"
    with open(side, "w") as fh:
        fh.writelines(lines)
    report = compare_runs(a, b, noise=0.9)
    assert any(m.name == "pulse.det_hash" for m in report.mismatches)
    assert report.failed


def test_report_describe_has_telemetry_column(tmp_path):
    from repro.observability.flight.cli import _describe

    artifact = _emit(tmp_path, "runs")
    described = _describe(artifact)
    assert "pulse[" in described and "stalls=0" in described


# -- FastLint: the emitter's registration path ----------------------------


def test_st004_quiet_on_hinted_or_suppressed():
    # Constructing an emitter is never flagged: it always registers
    # with its cadence hint.  A hintless registration is ST003 unless
    # suppressed.
    report = lint_stat_source(
        "a = PulseEmitter(tm)\n"
        "tm.add_cycle_listener(self._on_cycle, idle_hint=self._idle_hint)\n"
        "tm.add_cycle_listener(self._on_cycle)"
        "  # fastlint: ignore[ST003]\n"
    )
    assert [d.rule for d in report.diagnostics] == []


# -- fuzz-oracle wedge classification ----------------------------------------


WEDGE_SRC = """
main:
    JMP main
"""


def test_wedged_cell_reports_liveness_detail():
    from repro.fuzz.oracle import OracleCell, OracleConfig, run_cell

    cfg = OracleConfig(max_cycles=200_000, pulse_interval_cycles=10_000,
                       stall_cycles=50_000)
    cells = (OracleCell("legacy", "lockstep", "instr"),
             OracleCell("compiled", "tb", "instr"))
    statuses = {run_cell(WEDGE_SRC, 0x1000, cell, cfg).status
                for cell in cells}
    # Identical detail across engines/feeds (deterministic diagnosis),
    # and richer than the bare status.
    assert len(statuses) == 1
    status = statuses.pop()
    assert status.startswith("wedged:live@")
    assert "last_commit=" in status


def test_wedge_family_matches_golden():
    from repro.fuzz.oracle import (
        OracleCell,
        OracleConfig,
        run_matrix,
    )

    cfg = OracleConfig(max_cycles=200_000, pulse_interval_cycles=10_000,
                       stall_cycles=50_000)
    # Same feed on both sides: a budget-cut wedge leaves feed-dependent
    # FM runahead (in_count), which is a pre-existing arch divergence
    # orthogonal to the status-family comparison under test.
    cells = (OracleCell("legacy", "lockstep", "instr"),
             OracleCell("compiled", "lockstep", "instr"))
    result = run_matrix(WEDGE_SRC, 0x1000, config=cfg, cells=cells)
    # Golden says bare "wedged"; cells say wedged:live@... -- the family
    # comparison keeps that from being a spurious divergence.
    assert result.golden_status == "wedged"
    assert result.ok, [str(d) for d in result.divergences]


def test_status_family():
    from repro.fuzz.oracle import _status_family

    assert _status_family("wedged:no-progress@5(last_commit=3)") == "wedged"
    assert _status_family("wedged") == "wedged"
    assert _status_family("error:TypeError") == "error:TypeError"
    assert _status_family("ok") == "ok"


# -- live attach from a second process ---------------------------------------


def test_top_attaches_to_inflight_run(tmp_path):
    """The acceptance-criterion test: a second process drives a long
    run with pulse armed; this process tails the sidecar mid-flight
    and `repro top --once --json` renders it live."""
    sidecar = str(tmp_path / "live.jsonl")
    env = dict(os.environ, PYTHONPATH="src")
    child = subprocess.Popen(
        [sys.executable, "-m", "repro", "pulse", "run",
         "--workload", WORKLOAD, "--scale", "8",
         "--max-cycles", "500000000",
         "--interval-cycles", "5000", "--sidecar", sidecar],
        cwd=REPO_ROOT, env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.time() + 120.0
        samples = 0
        while time.time() < deadline:
            if os.path.exists(sidecar):
                samples = load_sidecar(sidecar).samples
                if samples >= 2:
                    break
            assert child.poll() is None, "runner exited prematurely"
            time.sleep(0.2)
        assert samples >= 2, "no pulse samples within the deadline"

        out = subprocess.run(
            [sys.executable, "-m", "repro", "top", "--once", "--json",
             sidecar],
            cwd=REPO_ROOT, env=env, capture_output=True, text=True,
            timeout=60, check=True,
        )
        rows = json.loads(out.stdout)
        assert len(rows) == 1
        row = rows[0]
        assert row["status"] == STATUS_LIVE
        assert row["run"] == WORKLOAD
        assert row["cycle"] > 0 and row["cps"] > 0
    finally:
        child.terminate()
        child.wait(timeout=30)


# -- FastScope wiring ------------------------------------------------------


def test_fastscope_arms_pulse_when_given_a_path(tmp_path):
    from repro.observability import FastScope

    path = str(tmp_path / "scoped.jsonl")
    sim = _build()
    scope = FastScope(sim, pulse_path=path, pulse_interval=INTERVAL)
    sim.run(max_cycles=MAX_CYCLES)
    report = scope.report()
    assert report["pulse"]["det"]["samples"] > 0
    assert load_sidecar(path).footer is not None


def test_scope_emit_artifact_auto_adopts_pulse(tmp_path):
    from repro.observability.flight.artifact import emit_artifact
    from repro.observability import FastScope

    sim = _build()
    scope = FastScope(sim, pulse_path=str(tmp_path / "s.jsonl"),
                      pulse_interval=INTERVAL)
    result = sim.run(max_cycles=MAX_CYCLES)
    artifact = emit_artifact(
        experiment="scoped", workload=WORKLOAD, result=result,
        scope=scope, root=str(tmp_path / "runs"),
    )
    assert artifact.has_pulse()
    assert artifact.pulse_summary()["det"]["samples"] > 0
