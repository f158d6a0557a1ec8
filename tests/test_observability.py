"""FastScope observability tests: fabric, tracer, triggers, profiler,
sampler idle/elision fix, and the determinism acceptance criteria."""

import json

import pytest

from repro.workloads import linux_boot_slice
from repro.experiments.harness import build_fast_simulator
from repro.fast import FastSimulator
from repro.kernel import UserProgram
from repro.observability import (
    CompiledTriggerQuery,
    EventTracer,
    FastScope,
    StatsFabric,
    TickProfiler,
    rob_occupancy,
    trace_buffer_occupancy,
)
from repro.timing.core import TimingConfig, build_default_core
from repro.timing.module import (
    Counter,
    Gauge,
    Histogram,
    Module,
    StatRegistrationError,
)
from repro.timing.stats import StatisticTraceSampler
from repro.timing.statnet import compare_modules, flat_fabric_cost

MAX_CYCLES = 2_000_000

PROGRAM = UserProgram("busy", """
main:
    MOVI R5, 40
loop:
    MOVI R6, 30
spin:
    DEC R6
    JNZ spin
    DEC R5
    JNZ loop
    MOVI R0, 0
    SYSCALL
""", entry="main")


def boot_sim(engine="compiled"):
    """The fixed-seed boot slice (sleeps, so idle fast-forward runs)."""
    return build_fast_simulator(
        linux_boot_slice(sleep_ticks=10),
        timing_config=TimingConfig(engine=engine),
    )


def scoped_boot(engine="compiled", **scope_kwargs):
    sim = boot_sim(engine)
    scope = FastScope(sim, **scope_kwargs)
    result = sim.run(MAX_CYCLES)
    scope.finalize()
    return sim, scope, result.timing


@pytest.fixture(scope="module")
def boot_run():
    return scoped_boot(window_cycles=4096)


# -- typed stats on Module ---------------------------------------------------


class TestTypedStats:
    def test_counter_gauge_histogram(self):
        m = Module("m")
        c = m.new_counter("events")
        g = m.new_gauge("level")
        h = m.new_histogram("sizes", bounds=(1, 4, 16))
        c.add()
        c.add(3)
        g.set(7.5)
        for v in (0, 2, 5, 100):
            h.observe(v)
        assert c.value() == 4
        assert g.value() == 7.5
        assert h.value() == 4  # histograms aggregate by count
        assert h.buckets == [1, 1, 1, 1]
        assert h.total == 107

    def test_probed_gauge(self):
        m = Module("m")
        backing = {"v": 3.0}
        g = m.new_gauge("probed", probe=lambda: backing["v"])
        assert g.value() == 3.0
        backing["v"] = 9.0
        assert g.value() == 9.0

    def test_duplicate_registration_rejected(self):
        m = Module("m")
        m.new_counter("x")
        with pytest.raises(StatRegistrationError):
            m.new_gauge("x")

    def test_unsorted_histogram_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=(4, 1))

    def test_all_stats_flattens_by_path(self):
        root = Module("root")
        child = root.add_child(Module("child"))
        root.new_counter("a")
        child.new_gauge("b")
        stats = root.all_stats()
        assert set(stats) == {"root/a", "root/child/b"}
        assert isinstance(stats["root/a"], Counter)
        assert isinstance(stats["root/child/b"], Gauge)


# -- the stats fabric --------------------------------------------------------


class TestStatsFabric:
    def test_windows_cover_the_run(self, boot_run):
        sim, scope, _ = boot_run
        windows = scope.fabric.windows
        assert windows, "no windows closed"
        assert windows[0].start_cycle == 0
        assert windows[-1].end_cycle == sim.tm.cycle
        for prev, cur in zip(windows, windows[1:]):
            assert cur.start_cycle == prev.end_cycle
        assert sum(w.cycles for w in windows) == sim.tm.cycle
        assert sum(w.idle_cycles for w in windows) == sim.tm.idle_cycles

    def test_idle_spans_marked_not_dropped(self, boot_run):
        sim, scope, _ = boot_run
        windows = scope.fabric.windows
        # The boot slice sleeps away most of its cycles; fast-forwarded
        # spans must show up as idle accounting and merged (elided)
        # windows rather than vanishing.
        assert sum(w.idle_cycles for w in windows) > 0
        merged = [w for w in windows if w.elided_windows]
        assert merged, "no boundary was crossed inside an idle span"
        for w in merged:
            assert w.cycles > scope.fabric.window_cycles

    def test_trailing_partial_window_flushed(self, boot_run):
        _, scope, _ = boot_run
        assert scope.fabric.windows[-1].partial

    def test_deltas_sum_to_totals(self, boot_run):
        sim, scope, _ = boot_run
        windows = scope.fabric.windows
        key = "timing_model/backend/branches"
        total = sum(w.deltas.get(key, 0) for w in windows)
        assert total == sim.tm.backend.counter("branches") > 0

    def test_aggregate_tree_hop_by_hop(self):
        root = Module("root")
        a = root.add_child(Module("a"))
        b = root.add_child(Module("b"))
        leaf = a.add_child(Module("leaf"))
        a.bump("hits", 3)
        leaf.bump("hits", 2)
        b.new_counter("hits").add(5)
        fabric = StatsFabric(build_default_core(1), extra_roots=(root,))
        agg = fabric.aggregate_tree()
        assert agg["root/a"]["hits"] == 5  # own 3 + leaf 2
        assert agg["root/b"]["hits"] == 5
        assert agg["root"]["hits"] == 10

    def test_window_validation(self):
        with pytest.raises(ValueError):
            StatsFabric(build_default_core(1), window_cycles=0)


# -- event tracer ------------------------------------------------------------


class TestEventTracer:
    def test_ring_drops_oldest(self):
        tracer = EventTracer(capacity=4)
        for i in range(10):
            tracer.emit("e", i=i)
        assert len(tracer) == 4
        assert tracer.dropped == 6
        assert tracer.seq == 10
        assert [e.fields["i"] for e in tracer] == [6, 7, 8, 9]

    def test_jsonl_is_sorted_and_compact(self):
        tracer = EventTracer(capacity=8)
        tracer.emit("z", b=1, a=2)
        assert tracer.to_jsonl() == '{"a":2,"b":1,"cycle":0,"kind":"z","seq":0}\n'

    def test_seam_events_recorded(self, boot_run):
        _, scope, _ = boot_run
        kinds = scope.tracer.kind_counts
        for kind in (
            "fm_checkpoint",
            "fm_rollback",
            "tb_highwater",
            "tb_mispredict",
            "tb_resolve",
            "idle_span",
        ):
            assert kinds.get(kind, 0) > 0, kind

    def test_events_ordered(self, boot_run):
        _, scope, _ = boot_run
        events = scope.tracer.events
        assert all(a.seq < b.seq for a, b in zip(events, events[1:]))
        assert all(a.cycle <= b.cycle for a, b in zip(events, events[1:]))


# -- determinism acceptance criteria -----------------------------------------


class TestDeterminism:
    def test_timing_stats_bit_identical_with_observability(self):
        bare = boot_sim().run(MAX_CYCLES).timing
        _, _, scoped = scoped_boot()
        assert bare == scoped

    def test_legacy_engine_matches_under_scope(self):
        _, _, compiled = scoped_boot("compiled")
        _, _, legacy = scoped_boot("legacy")
        assert compiled == legacy

    def test_seam_event_stream_engine_independent(self):
        # Only the compiled engine batches idle spans, so only it emits
        # idle_span events, which shift every later seq number.  Every
        # other seam event must match the legacy engine's stream.
        def seam_events(engine):
            _, scope, _ = scoped_boot(engine)
            assert scope.tracer.dropped == 0
            records = [json.loads(line)
                       for line in scope.tracer.to_jsonl().splitlines()]
            kept = [r for r in records if r["kind"] != "idle_span"]
            for record in kept:
                del record["seq"]
            return kept, len(records) - len(kept)

        compiled, compiled_spans = seam_events("compiled")
        legacy, legacy_spans = seam_events("legacy")
        assert compiled_spans > 0 and legacy_spans == 0
        assert compiled
        assert compiled == legacy

    def test_trace_byte_identical_across_runs(self):
        _, scope1, _ = scoped_boot()
        _, scope2, _ = scoped_boot()
        text = scope1.tracer.to_jsonl()
        assert text
        assert text == scope2.tracer.to_jsonl()


# -- trigger queries ---------------------------------------------------------


class TestTriggers:
    def test_trigger_declares_idle_hint(self):
        sim = boot_sim()
        CompiledTriggerQuery.below(
            sim.tm, "tb_low", trace_buffer_occupancy(sim.feed), 4
        )
        # The hint table is keyed by id() of the registered listener
        # object (a fresh bound method per attribute access, so look at
        # what was actually appended).
        listener = sim.tm.cycle_listeners[-1]
        assert id(listener) in sim.tm._cycle_idle_hints

    def test_trigger_agrees_across_engines(self):
        results = {}
        for engine in ("compiled", "legacy"):
            sim = boot_sim(engine)
            query = CompiledTriggerQuery.below(
                sim.tm, "rob_low", rob_occupancy(sim.tm), 1
            )
            sim.run(MAX_CYCLES)
            results[engine] = (query.fire_count, query.first_fired)
        assert results["compiled"] == results["legacy"]
        assert results["compiled"][0] > 0

    def test_trigger_does_not_pin_fast_forward(self):
        bare = boot_sim().run(MAX_CYCLES).timing
        sim = boot_sim()
        calls = {"n": 0}

        def probe():
            calls["n"] += 1
            return 1.0

        CompiledTriggerQuery(sim.tm, "probe", probe, lambda v: False)
        result = sim.run(MAX_CYCLES)
        # The unbounded hint keeps idle fast-forward on: the probe runs
        # only on executed cycles, far fewer than the idle-heavy total.
        assert calls["n"] < sim.tm.cycle // 2
        assert result.timing == bare

    def test_single_step_trigger_sees_every_cycle(self):
        sim = boot_sim()
        calls = {"n": 0}

        def probe():
            calls["n"] += 1
            return 1.0

        CompiledTriggerQuery(
            sim.tm, "probe", probe, lambda v: False, single_step=True
        )
        sim.run(MAX_CYCLES)
        assert calls["n"] == sim.tm.cycle

    def test_inlined_probe_matches_generic_callable(self):
        # The canonical probes carry an inline_expr the compiled
        # listener splices in; stripping it forces the generic
        # probe-call path.  Both must record the identical firing
        # count and kept firings on the same fixed-seed run.
        histories = {}
        for variant in ("inlined", "generic"):
            sim = boot_sim()
            probe = trace_buffer_occupancy(sim.feed)
            if variant == "generic":
                del probe.inline_expr
                del probe.inline_ns
            query = CompiledTriggerQuery.below(sim.tm, "tb_low", probe, 4)
            sim.run(MAX_CYCLES)
            histories[variant] = (
                query.fire_count,
                [(f.cycle, f.value) for f in query.firings],
            )
        assert histories["inlined"] == histories["generic"]
        assert histories["inlined"][1]

    def test_inlined_probe_keeps_float_contract_for_conditions(self):
        # An arbitrary condition composed with a canonical probe still
        # receives a float, as the probe lambda would have returned.
        sim = boot_sim()
        seen = []

        def condition(value):
            seen.append(value)
            return False

        CompiledTriggerQuery(
            sim.tm, "typed", trace_buffer_occupancy(sim.feed), condition
        )
        sim.run(200_000)
        assert seen
        assert all(isinstance(v, float) for v in seen)

    def test_firing_values_are_floats(self):
        sim = boot_sim()
        query = CompiledTriggerQuery.below(
            sim.tm, "tb_low", trace_buffer_occupancy(sim.feed), 4
        )
        sim.run(MAX_CYCLES)
        assert query.firings
        assert all(isinstance(f.value, float) for f in query.firings)


# -- tick profiler -----------------------------------------------------------


class TestProfiler:
    def test_profile_attributes_time(self):
        sim = FastSimulator.from_programs([PROGRAM])
        profiler = TickProfiler(sim.tm).install()
        timing = sim.run(200_000).timing
        report = profiler.report()
        assert report["engine_seconds"] > 0
        paths = [row["path"] for row in report["modules"]]
        assert "timing_model/frontend" in paths
        assert "timing_model/backend" in paths
        executed = {row["calls"] for row in report["modules"]}
        assert len(executed) == 1  # every step runs once per executed cycle
        calls = executed.pop()
        assert sim.tm.cycle - sim.tm.idle_cycles <= calls <= sim.tm.cycle
        stages = {row["stage"]: row for row in report["stages"]}
        assert set(stages) == {
            "frontend.decode", "frontend.fetch", "backend.writeback",
            "backend.commit", "backend.issue", "backend.dispatch",
        }
        # The stage brackets wrap the closures the compiled engine runs,
        # so every stage is timed, nested inside its module's bracket.
        assert all(row["calls"] > 0 for row in stages.values())
        modules = {row["path"]: row for row in report["modules"]}
        backend_stage_s = sum(
            row["seconds"] for label, row in stages.items()
            if label.startswith("backend.")
        )
        assert backend_stage_s <= modules["timing_model/backend"]["seconds"]
        # Functional-side busy path is attributed too: the span fill
        # plus FastBlock capture/replay.
        fm_rows = {row["label"]: row for row in report["functional"]}
        assert set(fm_rows) == {"feed.fill", "blocks.capture",
                                "blocks.replay"}
        assert fm_rows["feed.fill"]["calls"] > 0
        # Profiling is read-only: same result as a bare run.
        bare = FastSimulator.from_programs([PROGRAM]).run(200_000).timing
        assert timing == bare

    def test_single_tick_runs_instrumented_steps(self):
        # replay_window steps the compiled engine with tm.tick() under an
        # installed profiler: tick must run the schedule's current
        # (instrumented) steps, so the stage rows fill.
        sim = FastSimulator.from_programs([PROGRAM])
        profiler = TickProfiler(sim.tm).install()
        for _ in range(500):
            sim.tm.tick()
        report = profiler.report()
        modules = {row["path"]: row["calls"] for row in report["modules"]}
        assert modules["timing_model/backend"] == 500
        stages = {row["stage"]: row["calls"] for row in report["stages"]}
        assert len(stages) == 6
        assert all(calls > 0 for calls in stages.values())

    def test_uninstall_restores(self):
        sim = FastSimulator.from_programs([PROGRAM])
        profiler = TickProfiler(sim.tm).install()
        profiler.uninstall()
        assert sim.tm._schedule._steps == profiler._orig_steps
        assert "_commit" not in vars(sim.tm.backend)

    def test_requires_compiled_engine(self):
        sim = FastSimulator.from_programs(
            [PROGRAM], timing_config=TimingConfig(engine="legacy")
        )
        with pytest.raises(RuntimeError):
            TickProfiler(sim.tm)


# -- StatisticTraceSampler under the compiled engine (satellite fix) ---------


class TestSamplerElision:
    def test_trailing_window_flushed_with_idle_accounting(self):
        sim = boot_sim()
        sampler = StatisticTraceSampler(sim.tm, interval=200)
        sim.run(MAX_CYCLES)
        before = len(sampler.samples)
        sampler.finalize()
        assert len(sampler.samples) == before + 1
        tail = sampler.samples[-1]
        assert tail.elided
        assert tail.cycle == sim.tm.cycle
        # finalize is idempotent.
        sampler.finalize()
        assert len(sampler.samples) == before + 1

    def test_idle_cycles_attributed_to_windows(self):
        sim = boot_sim()
        sampler = StatisticTraceSampler(sim.tm, interval=200)
        sim.run(MAX_CYCLES)
        sampler.finalize()
        # The boot slice is idle-dominated; the fast-forwarded spans
        # must land in some window's idle_cycles instead of silently
        # diluting its rates.
        assert sum(s.idle_cycles for s in sampler.samples) == sim.tm.idle_cycles

    def test_samples_identical_across_engines(self):
        samples = {}
        for engine in ("compiled", "legacy"):
            sim = boot_sim(engine)
            sampler = StatisticTraceSampler(sim.tm, interval=200)
            sim.run(MAX_CYCLES)
            sampler.finalize()
            samples[engine] = sampler.samples
        assert samples["compiled"] == samples["legacy"]

    def test_rates_use_busy_cycles(self):
        sim = boot_sim()
        sampler = StatisticTraceSampler(sim.tm, interval=200)
        sim.run(MAX_CYCLES)
        sampler.finalize()
        for s in sampler.samples:
            assert 0.0 <= s.pipe_drain_fraction <= 1.0
            assert s.idle_cycles >= 0


# -- statnet priced from registered stats (satellite) ------------------------


class TestStatnetWiring:
    def test_typed_stats_are_priced(self):
        m = Module("m")
        m.bump("adhoc")
        base = flat_fabric_cost(m).counters
        m.new_counter("typed")
        m.new_gauge("level")
        assert flat_fabric_cost(m).counters == base + 2

    def test_compare_modules_spans_roots(self, boot_run):
        sim, scope, _ = boot_run
        flat, tree = scope.fabric.statnet_reports()
        solo_flat, _ = compare_modules([sim.tm])
        assert flat.counters > solo_flat.counters  # feed stats included
        assert flat.scheme == "flat" and tree.scheme == "tree"
        assert flat.counters == tree.counters
        assert flat.aggregator_luts == 0 and tree.aggregator_luts > 0

    def test_fabric_counts_registered_streams(self, boot_run):
        _, scope, _ = boot_run
        assert scope.fabric.registered_streams() >= 3


# -- report plumbing and the CLI ---------------------------------------------


class TestScopeReport:
    def test_report_shape(self, boot_run):
        _, scope, _ = boot_run
        report = scope.report()
        assert set(report) >= {"fabric", "statnet", "trace", "triggers"}
        assert report["fabric"]["registered_streams"] > 0
        assert report["fabric"]["windows"]
        assert report["statnet"]["tree"]["counters"] == (
            report["statnet"]["flat"]["counters"]
        )

    def test_write_trace(self, tmp_path, boot_run):
        _, scope, _ = boot_run
        out = tmp_path / "trace.jsonl"
        count = scope.write_trace(str(out))
        assert count == len(scope.tracer.events)
        assert len(out.read_text().splitlines()) == count


class TestObservabilityCli:
    def test_stats_main(self, tmp_path, capsys):
        from repro.observability.cli import stats_main

        out = tmp_path / "stats.json"
        code = stats_main(
            ["--max-cycles", "300000", "--boot-sleep-ticks", "5",
             "--out", str(out)]
        )
        assert code == 0
        assert out.exists()
        text = capsys.readouterr().out
        assert "fabric:" in text

    def test_trace_main(self, tmp_path, capsys):
        from repro.observability.cli import trace_main

        out = tmp_path / "trace.jsonl"
        code = trace_main(
            ["--max-cycles", "300000", "--boot-sleep-ticks", "5",
             "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines
        capsys.readouterr()
