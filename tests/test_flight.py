"""FastFlight tests: run-artifact round-trip, offline analytics,
regression-gate exit codes, trace-divergence bisection, ring-overflow
drop accounting, and the generated ``python -m repro`` usage dispatch."""

import dataclasses
import json
import os
import random

import pytest

from repro.__main__ import EXPERIMENTS, SUBCOMMANDS
from repro.__main__ import main as repro_main
from repro.__main__ import usage
from repro.experiments import harness
from repro.workloads import linux_boot_slice
from repro.experiments.harness import build_fast_simulator
from repro.observability import EventTracer, FastScope
from repro.observability.flight import (
    RunArtifact,
    bisect_divergence,
    compare_runs,
    emit_artifact,
    events_table,
    flame_stacks,
    list_artifacts,
    load_artifact,
    seam_attribution,
    window_timeline,
)
from repro.observability.flight.artifact import (
    ArtifactError,
    canonical_json,
    verify_artifact,
)
from repro.observability.flight.cli import report_main
from repro.observability.flight.columns import ColumnTable
from repro.timing.core import TimingConfig

MAX_CYCLES = 2_000_000


def scoped_boot(sleep_ticks=10, profile=False):
    sim = build_fast_simulator(
        linux_boot_slice(sleep_ticks=sleep_ticks),
        timing_config=TimingConfig(engine="compiled"),
    )
    scope = FastScope(sim, window_cycles=4096, profile=profile)
    result = sim.run(MAX_CYCLES)
    scope.finalize()
    return sim, scope, result


@pytest.fixture(scope="module")
def flight_store(tmp_path_factory):
    """One artifact store holding a same-seed pair plus a seed-perturbed
    run -- the fixture every persistent-artifact test shares."""
    root = str(tmp_path_factory.mktemp("runs"))
    _sim, scope, result = scoped_boot(sleep_ticks=10, profile=True)
    a = emit_artifact(
        experiment="boot", workload="linux-boot",
        config={"sleep_ticks": 10, "engine": "compiled"},
        result=result, scope=scope,
        host={"seconds": 2.0, "cycles_per_sec": 100_000.0},
        root=root,
    )
    # Same scope, second emission: a byte-identical same-seed sibling.
    a2 = emit_artifact(
        experiment="boot", workload="linux-boot",
        config={"sleep_ticks": 10, "engine": "compiled"},
        result=result, scope=scope,
        host={"seconds": 2.1, "cycles_per_sec": 98_000.0},
        root=root,
    )
    _sim_p, scope_p, result_p = scoped_boot(sleep_ticks=12)
    perturbed = emit_artifact(
        experiment="boot", workload="linux-boot",
        config={"sleep_ticks": 12, "engine": "compiled"},
        result=result_p, scope=scope_p,
        host={"seconds": 2.0, "cycles_per_sec": 100_000.0},
        root=root,
    )
    return {
        "root": root,
        "a": a,
        "a2": a2,
        "perturbed": perturbed,
        "result": result,
        "scope": scope,
    }


# -- columnar tables ---------------------------------------------------------


class TestColumnTable:
    def test_from_records_union_schema(self):
        t = ColumnTable.from_records(
            [{"x": 1, "y": "a"}, {"x": 2, "z": True}]
        )
        assert set(t.columns) == {"x", "y", "z"}
        assert len(t) == 2
        assert t.row(1)["y"] is None

    def test_where_sort_group(self):
        t = ColumnTable.from_records(
            [
                {"kind": "a", "n": 3},
                {"kind": "b", "n": 1},
                {"kind": "a", "n": 4},
            ]
        )
        assert len(t.where(kind="a")) == 2
        assert t.group_sum("kind", "n") == {"a": 7, "b": 1}
        ordered = t.sort_by("n", reverse=True).records()
        assert [r["n"] for r in ordered] == [4, 3, 1]


# -- ring-overflow drop accounting -------------------------------------------


class TestDropAccounting:
    def test_footer_counts_survive_overflow(self):
        tracer = EventTracer(capacity=4)
        for i in range(10):
            tracer.emit("tb_mispredict", bb=i)
        tracer.emit("tm_interrupt", vector=1)
        footer = tracer.footer()
        assert footer["kind"] == "trace_summary"
        assert footer["recorded"] == 11
        assert footer["retained"] == 4
        assert footer["dropped"] == 7
        # Per-kind totals are whole-run exact even though the ring only
        # retains the last four records.
        assert footer["kinds"] == {"tb_mispredict": 10, "tm_interrupt": 1}

    def test_jsonl_footer_is_opt_in(self):
        tracer = EventTracer(capacity=8)
        tracer.emit("fm_rollback", target_in=5, replayed=2)
        plain = tracer.to_jsonl()
        assert "trace_summary" not in plain
        with_footer = tracer.to_jsonl(footer=True)
        assert with_footer.startswith(plain.rstrip("\n"))
        last = json.loads(with_footer.strip().splitlines()[-1])
        assert last["kind"] == "trace_summary"
        assert last["dropped"] == 0

    def test_artifact_reports_drops(self, tmp_path):
        tracer = EventTracer(capacity=2)
        for i in range(5):
            tracer.emit("tb_resolve", bb=i)

        class MiniScope:
            def __init__(self, t):
                self.tracer = t
                self.profiler = None
                self.fabric = _FabricStub()

            def finalize(self):
                pass

        art = emit_artifact(
            experiment="drops", scope=MiniScope(tracer),
            root=str(tmp_path),
        )
        summary = art.trace_summary()
        assert summary is not None
        assert summary["dropped"] == 3
        assert summary["kinds"]["tb_resolve"] == 5
        # events() excludes the footer record.
        assert len(art.events()) == 2


class _FabricStub:
    def report(self):
        return {"windows": []}

    streamed_report = report


# -- artifact round-trip -----------------------------------------------------


class TestArtifactRoundTrip:
    def test_timing_round_trips_exactly(self, flight_store):
        loaded = load_artifact(
            flight_store["a"].run_id, root=flight_store["root"]
        )
        want = dataclasses.asdict(flight_store["result"].timing)
        assert loaded.timing() == want

    def test_manifest_identity(self, flight_store):
        a = flight_store["a"]
        assert a.experiment == "boot"
        assert a.workload == "linux-boot"
        assert a.config["sleep_ticks"] == 10
        assert a.host["cycles_per_sec"] == 100_000.0
        assert len(a.content_hash) == 64

    def test_payloads_present(self, flight_store):
        a = flight_store["a"]
        assert a.has_trace()
        assert a.events(), "boot slice should retain seam events"
        assert a.windows() is not None
        # Written window by window, it is still the canonical JSON of
        # the whole report, byte for byte.
        with open(os.path.join(a.path, "windows.json")) as fh:
            assert fh.read() == canonical_json(
                flight_store["scope"].fabric.report())
        assert a.profile() is not None
        summary = a.trace_summary()
        assert summary is not None
        assert summary["recorded"] >= summary["retained"]

    def test_integrity_clean_then_tampered(self, flight_store, tmp_path):
        a = load_artifact(flight_store["a"].run_id, root=flight_store["root"])
        assert verify_artifact(a) == []
        victim = _mini_artifact(tmp_path, "w", 1000, 100_000.0)
        stats_path = os.path.join(victim.path, "stats.json")
        body = json.load(open(stats_path))
        body["timing"]["cycles"] = body["timing"]["cycles"] + 1
        with open(stats_path, "w") as fh:
            fh.write(canonical_json(body))
        problems = verify_artifact(victim)
        assert any("stats.json" in p for p in problems)

    def test_same_seed_same_content_hash(self, flight_store):
        a, a2 = flight_store["a"], flight_store["a2"]
        assert a.run_id != a2.run_id
        assert a.content_hash == a2.content_hash

    def test_load_by_prefix_and_errors(self, flight_store):
        root = flight_store["root"]
        full = flight_store["perturbed"].run_id
        loaded = load_artifact(full[:-2], root=root)
        assert loaded.run_id == full
        with pytest.raises(ArtifactError):
            load_artifact("no-such-run", root=root)
        with pytest.raises(ArtifactError):
            # "boot-linux-boot" prefixes all three artifacts.
            load_artifact("boot-linux-boot", root=root)

    def test_list_artifacts(self, flight_store):
        ids = list_artifacts(flight_store["root"])
        assert flight_store["a"].run_id in ids
        assert flight_store["a2"].run_id in ids
        assert len(ids) >= 3


# -- offline analytics -------------------------------------------------------


class TestAnalytics:
    def test_seam_attribution_conserves_cycles(self, flight_store):
        a = flight_store["a"]
        rows = seam_attribution(a)
        by_cat = {r["category"]: r for r in rows}
        assert set(by_cat) == {
            "commit", "drain:mispredict", "drain:interrupt",
            "drain:exception", "drain:serialize", "idle:halt",
            "tb:starvation",
        }
        timing = a.timing()
        cycle_rows = [r["cycles"] for r in rows]
        assert sum(cycle_rows) == timing["cycles"]
        assert by_cat["idle:halt"]["cycles"] == timing["idle_cycles"]
        assert by_cat["commit"]["events"] == timing["instructions"]
        assert by_cat["drain:mispredict"]["cycles"] > 0

    def test_window_timeline(self, flight_store):
        table = window_timeline(flight_store["a"])
        assert len(table) > 0
        for record in table.records():
            assert record["busy_cycles"] + record["idle_cycles"] == \
                record["cycles"]
            assert record["ipc"] >= 0.0

    def test_events_table_modules(self, flight_store):
        table = events_table(flight_store["a"])
        assert {"seq", "cycle", "kind", "module"} <= set(table.columns)
        modules = {r["module"] for r in table.records()}
        assert "unknown" not in modules

    def test_flame_stacks_format(self, flight_store):
        stacks = flame_stacks(flight_store["a"])
        assert stacks, "profiled run should produce collapsed stacks"
        for line in stacks:
            frames, _, value = line.rpartition(" ")
            assert frames
            assert int(value) >= 0


# -- trace-divergence bisection ----------------------------------------------


def _synthetic_stream(n=500, seed=99):
    rng = random.Random(seed)
    events = []
    for seq in range(n):
        events.append({
            "seq": seq,
            "cycle": seq * 7 + rng.randrange(3),
            "kind": rng.choice(["tb_mispredict", "fm_rollback", "idle_span"]),
            "bb": rng.randrange(1000),
        })
    return events


class TestBisection:
    def test_identical_streams(self):
        a = _synthetic_stream()
        b = [dict(e) for e in a]
        assert bisect_divergence(a, b) is None

    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_seeded_mutation_found_exactly(self, seed):
        a = _synthetic_stream()
        b = [dict(e) for e in a]
        rng = random.Random(seed)
        index = rng.randrange(len(b))
        b[index]["bb"] = b[index]["bb"] + 1_000_000
        div = bisect_divergence(a, b)
        assert div is not None
        assert div.index == index
        assert div.fields == ["bb"]
        assert div.kind == a[index]["kind"]
        text = div.describe()
        assert str(a[index]["cycle"]) in text
        assert div.module in text

    def test_truncated_stream(self):
        a = _synthetic_stream()
        div = bisect_divergence(a, a[:123])
        assert div is not None
        assert div.index == 123
        assert div.missing_side == "b"
        assert "side b ends" in div.describe()

    def test_real_seed_perturbation_bisects(self, flight_store):
        """Acceptance criterion: a seed-perturbed pair names the first
        diverging event with its cycle and module."""
        report = compare_runs(flight_store["a"], flight_store["perturbed"])
        assert report.failed, "perturbed run must mismatch TimingStats"
        assert report.divergence is not None
        div = report.divergence
        assert div.module != ""
        assert div.cycle_a is not None or div.missing_side is not None
        described = div.describe()
        assert "record %d" % div.index in described


# -- regression engine -------------------------------------------------------


def _mini_artifact(tmp_path, name, cycles, cps, root=None):
    return emit_artifact(
        experiment="bench", workload=name,
        timing={"cycles": cycles, "instructions": cycles // 2},
        host={"seconds": 1.0, "cycles_per_sec": cps},
        root=root or str(tmp_path),
    )


class TestRegressionEngine:
    def test_same_seed_pair_diffs_clean(self, flight_store):
        report = compare_runs(flight_store["a"], flight_store["a2"])
        assert not report.failed
        assert report.mismatches == []
        assert report.divergence is None
        assert report.trace_records and report.trace_records > 0
        assert any("content hashes identical" in n for n in report.notes)

    def test_perf_regression_inside_and_outside_band(self, tmp_path):
        base = _mini_artifact(tmp_path, "w", 1000, 100_000.0)
        ok = _mini_artifact(tmp_path, "w", 1000, 97_000.0)
        bad = _mini_artifact(tmp_path, "w", 1000, 88_000.0)
        assert not compare_runs(base, ok, noise=0.05).failed
        report = compare_runs(base, bad, noise=0.05)
        assert report.perf_regressed and report.failed
        regressed = [m for m in report.metrics if m.regressed]
        assert regressed[0].metric == "cycles_per_sec"

    def test_timing_mismatch_fails_even_when_fast(self, tmp_path):
        base = _mini_artifact(tmp_path, "w", 1000, 100_000.0)
        cand = _mini_artifact(tmp_path, "w", 1001, 200_000.0)
        report = compare_runs(base, cand)
        assert not report.perf_regressed
        assert report.failed
        assert report.mismatches[0].name == "timing.cycles"


# -- report CLI exit codes ---------------------------------------------------


class TestReportCli:
    def test_clean_pair_exits_zero(self, flight_store, capsys):
        code = report_main([
            flight_store["a"].run_id, flight_store["a2"].run_id,
            "--root", flight_store["root"],
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "RESULT: OK" in out
        assert "seam-cost attribution" in out

    def test_regressed_pair_exits_one(self, tmp_path, capsys):
        base = _mini_artifact(tmp_path, "w", 1000, 100_000.0)
        bad = _mini_artifact(tmp_path, "w", 1000, 50_000.0)
        report_json = str(tmp_path / "report.json")
        code = report_main([base.run_id, bad.run_id,
                            "--root", str(tmp_path), "--json", report_json])
        out = capsys.readouterr().out
        assert code == 1
        assert "REGRESSED" in out
        assert "RESULT: REGRESSION" in out
        assert json.load(open(report_json))["failed"] is True

    def test_single_run_analysis(self, flight_store, tmp_path, capsys):
        flame = str(tmp_path / "flame.txt")
        code = report_main([
            flight_store["a"].run_id, "--root", flight_store["root"],
            "--flame", flame,
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "seam-cost attribution" in out
        assert "per-window timeline" in out
        assert os.path.exists(flame)

    def test_unknown_ref_exits_two(self, tmp_path, capsys):
        code = report_main(["nope", "--root", str(tmp_path)])
        capsys.readouterr()
        assert code == 2

    def test_no_args_usage_error(self, tmp_path, capsys):
        code = report_main(["--root", str(tmp_path)])
        capsys.readouterr()
        assert code == 2

    def test_list_mode(self, flight_store, capsys):
        code = report_main(["--list", "--root", flight_store["root"]])
        out = capsys.readouterr().out
        assert code == 0
        assert flight_store["a"].run_id in out


# -- python -m repro dispatch ------------------------------------------------


class TestDispatch:
    def test_usage_lists_every_registration(self):
        text = usage()
        for key in EXPERIMENTS:
            assert key in text
        for key in SUBCOMMANDS:
            assert key in text
        assert "all" in text

    def test_bare_invocation_prints_usage(self, capsys):
        assert repro_main(["repro"]) == 0
        out = capsys.readouterr().out
        assert "usage: python -m repro" in out
        assert "report" in out

    def test_unknown_command_exits_one(self, capsys):
        assert repro_main(["repro", "not-a-command"]) == 1
        out = capsys.readouterr().out
        assert "unknown command 'not-a-command'" in out
        assert "usage: python -m repro" in out

    def test_help_aliases(self, capsys):
        for alias in ("-h", "--help", "help"):
            assert repro_main(["repro", alias]) == 0
        capsys.readouterr()


# -- harness flight recording ------------------------------------------------


class TestHarnessFlight:
    def test_finish_experiment_emits_when_enabled(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.delenv("REPRO_FLIGHT", raising=False)
        monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path))
        harness.set_flight(True)
        try:
            harness._record_run("run-1", "w", 123)
            out = harness.finish_experiment("unittest", "hello table")
        finally:
            harness.set_flight(False)
        assert out == "hello table"
        ids = list_artifacts(str(tmp_path))
        assert len(ids) == 1
        art = load_artifact(ids[0], root=str(tmp_path))
        assert art.experiment == "unittest"
        assert art.output() == "hello table\n"
        assert art.manifest["extra"]["runs"][0]["run_id"] == "run-1"

    def test_disabled_by_default_and_env_override(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.delenv("REPRO_FLIGHT", raising=False)
        assert not harness.flight_enabled()
        out = harness.finish_experiment("unittest", "quiet")
        assert out == "quiet"
        assert list_artifacts(str(tmp_path)) == []
        # The env kill-switch wins over the programmatic enable.
        harness.set_flight(True)
        try:
            monkeypatch.setenv("REPRO_FLIGHT", "0")
            assert not harness.flight_enabled()
            monkeypatch.setenv("REPRO_FLIGHT", "1")
            assert harness.flight_enabled()
        finally:
            harness.set_flight(False)


# -- loaded artifact dataclass ----------------------------------------------


def test_run_artifact_without_optional_payloads(tmp_path):
    art = emit_artifact(experiment="minimal", root=str(tmp_path))
    assert isinstance(art, RunArtifact)
    assert art.timing() == {}
    assert art.windows() is None
    assert art.profile() is None
    assert art.output() is None
    assert art.events() == []
    assert art.trace_summary() is None
    assert not art.has_trace()
    assert verify_artifact(art) == []


# -- one store, two kinds ----------------------------------------------------


def _synthetic_capture():
    from repro.functional.replay import WindowCapture

    return WindowCapture(
        center=10, delta=2, start_cycle=8, end_cycle=12, engine="compiled",
        rows=[{"cycle": c, "pc": 0x1000 + 4 * c} for c in range(8, 13)],
        events=[{"cycle": 9, "kind": "fm_rollback", "seq": 0}],
        baseline={"timing_model/cycles": 8.0, "feed/fills": 2.0},
        profile={"engine_seconds": 0.5},
    )


def _emit_synthetic_capsule(root):
    from repro.observability.flight import emit_capsule

    return emit_capsule(
        _synthetic_capture(), label="golden", workload="synthetic",
        reason="golden capture",
        violation={"cycle": 10, "invariant": "golden"},
        source_run="golden-run", host={"seconds": 0.25}, root=root,
    )


def test_run_artifact_lookups_skip_capsules(tmp_path, capsys):
    root = str(tmp_path)
    capsule = _emit_synthetic_capsule(root)
    assert list_artifacts(root) == []
    with pytest.raises(ArtifactError, match="no artifact"):
        load_artifact(capsule.capsule_id, root=root)
    assert report_main([capsule.capsule_id, "--root", root]) == 2
    out = capsys.readouterr().out
    assert "try 'python -m repro report --list'" in out
    assert "INTEGRITY" not in out


# sha256 of every file two synthetic emissions of each kind write: the
# on-disk format (names, ids, manifest layout, payload encodings).
GOLDEN_STORE = {
    "capsule-golden-e3b6fc36771a/capsule.json":
        "b8e1ccd20303d467d3e873ef8f8d6cf89cfb2473e1f2548959ee847785ca1322",
    "capsule-golden-e3b6fc36771a/events.jsonl":
        "1a236645d5422b323694dafdd06e5f2e9e86adf1c6bfb6c57a39c75c5d1353e3",
    "capsule-golden-e3b6fc36771a/manifest.json":
        "9a516bcaee1a423cbb122826e78bb0c75b1ea2e928bb171625e06616f2ca7ee6",
    "capsule-golden-e3b6fc36771a/profile.json":
        "0fc080310dee19af9fd2731684354f2dd65aabdd90d8da8a6dbd60f2223bb3a4",
    "capsule-golden-e3b6fc36771a/window.jsonl":
        "49f13b879203d5ddfc2525064dc371c3d2bd802544b780bf51dd1006acddb0f1",
    "capsule-golden-e3b6fc36771a.2/capsule.json":
        "b8e1ccd20303d467d3e873ef8f8d6cf89cfb2473e1f2548959ee847785ca1322",
    "capsule-golden-e3b6fc36771a.2/events.jsonl":
        "1a236645d5422b323694dafdd06e5f2e9e86adf1c6bfb6c57a39c75c5d1353e3",
    "capsule-golden-e3b6fc36771a.2/manifest.json":
        "cf9954db8629fd0f5efd7ce2502d5001532c4df23fcb1a4f3f1e9f9757435f27",
    "capsule-golden-e3b6fc36771a.2/profile.json":
        "0fc080310dee19af9fd2731684354f2dd65aabdd90d8da8a6dbd60f2223bb3a4",
    "capsule-golden-e3b6fc36771a.2/window.jsonl":
        "49f13b879203d5ddfc2525064dc371c3d2bd802544b780bf51dd1006acddb0f1",
    "golden-synthetic-276d8076eceb/manifest.json":
        "bb3ac67a04d3e47f63943470961555ab593b80dd2d31cdd84a32cd6f9c034f47",
    "golden-synthetic-276d8076eceb/output.txt":
        "14ab4e46269680ecbb85e6b0d4759f06da736370ac744b41051f5dbf1b88262c",
    "golden-synthetic-276d8076eceb/stats.json":
        "cc05ba89c405cca7d401c3a87e5debf4a7431d1041312a0680caf4116fd68a00",
    "golden-synthetic-276d8076eceb.2/manifest.json":
        "100143d5de9a9550ef9c3c5922460bba0901ccaabfe837e3391969c3908582a9",
    "golden-synthetic-276d8076eceb.2/output.txt":
        "14ab4e46269680ecbb85e6b0d4759f06da736370ac744b41051f5dbf1b88262c",
    "golden-synthetic-276d8076eceb.2/stats.json":
        "cc05ba89c405cca7d401c3a87e5debf4a7431d1041312a0680caf4116fd68a00",
}


def test_store_on_disk_format_is_golden(tmp_path):
    import hashlib

    root = str(tmp_path)
    for _ in range(2):
        emit_artifact(
            experiment="golden", workload="synthetic",
            config={"engine": "compiled", "max_cycles": 1000},
            timing={"cycles": 1000, "instructions": 750},
            output="golden output", extra={"note": "fixed"},
            host={"seconds": 1.5, "cycles_per_sec": 666.0}, root=root,
        )
        _emit_synthetic_capsule(root)
    written = {}
    for run_dir in sorted(os.listdir(root)):
        for name in sorted(os.listdir(os.path.join(root, run_dir))):
            with open(os.path.join(root, run_dir, name), "rb") as fh:
                written["%s/%s" % (run_dir, name)] = hashlib.sha256(
                    fh.read()
                ).hexdigest()
    assert written == GOLDEN_STORE
