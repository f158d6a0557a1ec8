"""FastBench's own tests: ``python -m pytest fastbench/tests -q``.

The process tests run a shortened boot slice (a few kernel ticks, about
a second per process) instead of the benchmark's 600-tick one.
"""

import hashlib
import os
import statistics
import subprocess
import sys

import pytest

from fastbench import hostspeed, run
from fastbench.quartiles import summarize
from fastbench.workloads import build_inputs

SHORT_TICKS = 2


def test_summarize_matches_statistics_module():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
    s = summarize(values)
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    assert s == {"n": 7, "min": 1.0, "q1": q1, "median": 4.0, "q3": q3,
                 "max": 9.0}


def test_summarize_single_value_and_empty():
    assert summarize([2.5]) == {"n": 1, "min": 2.5, "q1": 2.5,
                                "median": 2.5, "q3": 2.5, "max": 2.5}
    with pytest.raises(ValueError):
        summarize([])


def _launch(tmp_path, name, armed, traced):
    return run.launch("boot", armed, traced, str(tmp_path / name),
                      timeout=120, boot_ticks=SHORT_TICKS)


def test_digest_mismatch_is_a_failure_not_a_crash(tmp_path):
    record = _launch(tmp_path, "bare", armed=False, traced=False)
    assert "error" not in record
    assert "error" not in run.judge(record, record["digest"])
    judged = run.judge(record, "0" * 64)
    assert judged["error"].startswith("digest mismatch")
    # A failed record drops out of every end-to-end sample.
    assert all(v == [] for v in run.samples([judged]).values())
    assert run.end_to_end([judged]) == {}


def test_end_to_end_takes_medians_on_the_nominal_host():
    def record(setup, run_, host_run):
        return {"digest": "d", "setup_s": 9.0, "run_s": host_run,
                "wall_s": 9.0, "cycles": 100, "instructions": 50,
                "peak_rss_mb": 40.0,
                "nominal": {"startup": 0.1, "setup": setup, "run": run_,
                            "artifact": 0.1}}

    good = [record(0.2, 1.0, 3.0), record(0.4, 2.0, 3.0),
            record(0.3, 4.0, 3.0)]
    bad = run.judge(record(0.1, 0.1, 0.1), "x")
    metrics = run.end_to_end(good + [bad])
    assert metrics["wall_s"] == pytest.approx(2.6)
    assert metrics["setup_s"] == pytest.approx(0.3)
    assert metrics["sim_cycles_per_s"] == pytest.approx(50.0)
    assert metrics["sim_kips"] == pytest.approx(0.025)
    assert run.nominal_run_s(good) == pytest.approx(2.0)
    host = run.samples(good, host=True)
    assert host["sim_cycles_per_s"] == [pytest.approx(100 / 3.0)] * 3


def test_clock_restates_segments_on_the_nominal_host(monkeypatch):
    # perf_counter readings: each lap reads "now", then "after the
    # kernel"; the kernel's own time belongs to no segment.
    readings = iter([1.0, 1.5, 3.0, 3.25])
    monkeypatch.setattr(hostspeed.time, "perf_counter",
                        lambda: next(readings))
    refs = iter([2 * hostspeed.REFERENCE_S, 0.5 * hostspeed.REFERENCE_S])
    monkeypatch.setattr(hostspeed, "reference_s", lambda reps: next(refs))
    clock = hostspeed.Clock(0.0)
    clock.lap("setup")  # 1.0 host seconds, the kernel twice as slow
    clock.lap("run")  # 1.5 host seconds, the kernel twice as fast
    assert clock.host == {"setup": 1.0, "run": 1.5}
    e = hostspeed.ELASTICITY
    assert clock.nominal == pytest.approx({"setup": 1.0 / 2 ** e,
                                           "run": 1.5 * 2 ** e})


def test_traced_split_adds_up_and_tracing_is_read_only(tmp_path):
    bare = _launch(tmp_path, "bare", armed=False, traced=False)
    armed = _launch(tmp_path, "armed", armed=True, traced=False)
    traced = _launch(tmp_path, "traced", armed=True, traced=True)
    for record in (bare, armed, traced):
        assert "error" not in record, record
    assert traced["digest"] == armed["digest"] == bare["digest"]

    attributed = traced["startup_s"] + sum(
        span["self_s"] for span in traced["spans"].values()
    )
    remainder = traced["wall_s"] - attributed
    assert 0 <= remainder < 0.05 * traced["wall_s"]
    # Outermost spans nest no further: self times of the run's spans
    # add up to the total time of ``run``.
    inside = [n for n in traced["spans"]
              if not n.startswith(("setup.", "flight."))]
    assert sum(traced["spans"][n]["self_s"] for n in inside) == (
        pytest.approx(traced["spans"]["run"]["total_s"], rel=1e-9))

    metrics = run.per_layer(traced, [armed], [armed], [bare])
    assert set(metrics) == {name for name, _u, _m in run.PER_LAYER}
    assert metrics["unattributed_s"] == pytest.approx(remainder)
    assert metrics["obs.trace_events"] > 0
    assert metrics["engine.idle_spans"] > 0


def _image_sha(inputs):
    from repro.kernel.image import build_os_image

    workload = build_inputs(inputs, SHORT_TICKS)
    image, _cfg = build_os_image(workload.programs,
                                 config=workload.kernel_config)
    h = hashlib.sha256(str(image.entry).encode())
    for segment in image.segments:
        h.update(str(segment.base).encode())
        h.update(bytes(segment.data))
    return h.hexdigest()


@pytest.mark.parametrize("inputs", ["mcf", "boot"])
def test_workload_builders_are_byte_deterministic(inputs):
    first = _image_sha(inputs)
    assert _image_sha(inputs) == first
    # A fresh interpreter with another hash seed builds the same bytes.
    env = dict(os.environ, PYTHONHASHSEED="12345",
               PYTHONPATH=os.pathsep.join([run.SRC, run.ROOT]))
    code = ("import sys; sys.path.insert(0, %r); "
            "from test_fastbench import _image_sha; "
            "print(_image_sha(%r))" % (os.path.dirname(__file__), inputs))
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=run.ROOT,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == first
