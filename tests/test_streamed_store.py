"""The armed observer stack's memory: seam events stored as compact
records, and store entries streamed to disk in chunks.

The armed runs are the benchmark's armed workloads (181.mcf, and a
shorter Linux-2.4 boot slice) with the full observer stack: fabric,
tracer, invariants, a file-backed pulse sidecar and the two canonical
trigger queries.  Their artifacts must match, byte for byte and in
content hash, what joining each file's whole text and then writing it
produces."""

import dataclasses
import hashlib
import json
import os
import tracemalloc

import pytest

from repro.workloads import linux_boot_slice
from repro.fast.simulator import FastSimulator
from repro.observability import EventTracer, FastScope
from repro.observability.events import JSONL_CHUNK_RECORDS
from repro.observability.flight.artifact import (
    CHUNK_CHARS,
    RUN_KIND,
    canonical_json,
    emit_artifact,
    footer_record,
    json_chunks,
    verify_artifact,
)
from repro.observability.triggers import rob_occupancy, trace_buffer_occupancy
from repro.workloads import build

MAX_CYCLES = 20_000_000


def _dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _armed_run(inputs, pulse_path):
    if inputs == "mcf":
        workload = build("181.mcf", scale=1)
    else:
        workload = linux_boot_slice(sleep_ticks=20)
    sim = FastSimulator.from_programs(
        workload.programs, kernel_config=workload.kernel_config)
    scope = FastScope(sim, pulse_path=pulse_path)
    scope.watch_below("tb_low", trace_buffer_occupancy(sim.feed), 4)
    scope.watch_below("rob_empty", rob_occupancy(sim.tm), 1)
    return scope, sim.run(MAX_CYCLES)


@pytest.fixture(scope="module", params=["mcf", "boot"])
def armed(request, tmp_path_factory):
    """One armed run and its artifact, written under tracemalloc."""
    out = tmp_path_factory.mktemp(request.param)
    pulse_path = str(out / "pulse.jsonl")
    scope, result = _armed_run(request.param, pulse_path)
    tracemalloc.start()
    try:
        artifact = emit_artifact(
            experiment="armed", workload=request.param,
            config={"inputs": request.param}, result=result, scope=scope,
            root=str(out / "runs"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return request.param, scope, result, pulse_path, artifact, peak


def _joined_files(scope, result, pulse_path):
    """Each payload file's whole text, built the join-then-write way."""
    stats = {
        "timing": dataclasses.asdict(result.timing),
        "functional": dataclasses.asdict(result.functional),
        "protocol": dataclasses.asdict(result.protocol),
        "microcode_coverage": result.microcode_coverage,
        "uops_per_instruction": result.uops_per_instruction,
    }
    lines = [
        _dumps(dict({"seq": e.seq, "cycle": e.cycle, "kind": e.kind},
                    **e.fields))
        for e in scope.tracer.events
    ]
    lines.append(_dumps(scope.tracer.footer()))
    with open(pulse_path) as fh:
        pulse = fh.read()
    return {
        "stats.json": _dumps(stats) + "\n",
        "windows.json": _dumps(scope.fabric.report()) + "\n",
        "trace.jsonl": "\n".join(lines) + "\n",
        "pulse.jsonl": pulse,
    }


def test_artifact_matches_join_then_write(armed):
    _inputs, scope, result, pulse_path, artifact, _peak = armed
    texts = _joined_files(scope, result, pulse_path)
    assert sorted(os.listdir(artifact.path)) == sorted(
        list(texts) + ["manifest.json"])
    hashes = {}
    for name, text in texts.items():
        with open(os.path.join(artifact.path, name), "rb") as fh:
            assert fh.read() == text.encode("utf-8"), name
        if name in RUN_KIND.hashed_files:
            hashes[name] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert {name: h for name, h in artifact.manifest["files"].items() if h} \
        == hashes
    body = {key: artifact.manifest[key] for key in RUN_KIND.identity}
    body["files"] = dict(sorted(hashes.items()))
    content_hash = hashlib.sha256(
        canonical_json(body).encode("utf-8")).hexdigest()
    assert artifact.content_hash == content_hash
    assert artifact.run_id.endswith(content_hash[:12])
    footer = json.loads(texts["pulse.jsonl"].splitlines()[-1])
    assert artifact.manifest["extra"]["pulse_footer"] == footer["det"]
    assert artifact.trace_summary() == scope.tracer.footer()
    assert verify_artifact(artifact) == []
    # The staging directory was renamed, not left behind.
    assert os.listdir(os.path.dirname(artifact.path)) == [artifact.run_id]


def test_emit_artifact_peak_heap(armed):
    _inputs, _scope, _result, _pulse, artifact, peak = armed
    assert peak < 500_000, peak
    # Streamed, the write holds one chunk of each file at a time: less
    # than the trace file alone (about 0.9 MB of JSONL on mcf).
    trace = os.path.getsize(os.path.join(artifact.path, "trace.jsonl"))
    assert trace > peak


def test_three_int_field_event_heap_cost():
    cycle = [1 << 20]

    def clock():
        return cycle[0]

    tracer = EventTracer(capacity=20_000, cycle_source=clock)
    tracer.emit("tb_interrupt", after_in=1, line=2, replayed=3)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(10_000):
            cycle[0] += 7
            tracer.emit("tb_interrupt", after_in=100_000 + i,
                        line=5_000 + i, replayed=300 + i)
        per_event = (tracemalloc.get_traced_memory()[0] - before) / 10_000
    finally:
        tracemalloc.stop()
    assert per_event <= 240, per_event
    last = tracer.events[-1]
    assert (last.seq, last.cycle, last.kind) == (10_000, (1 << 20) + 70_000,
                                                 "tb_interrupt")
    assert last.fields == {"after_in": 109_999, "line": 14_999,
                           "replayed": 10_299}


def test_jsonl_chunks_join_to_the_whole_text():
    tracer = EventTracer(capacity=JSONL_CHUNK_RECORDS * 2)
    for i in range(JSONL_CHUNK_RECORDS * 2 + 5):
        tracer.emit("tb_resolve" if i % 2 else "fm_rollback", bb=i, z=-i)
    chunks = list(tracer.iter_jsonl(footer=True))
    assert len(chunks) == 3
    records = [dict({"seq": e.seq, "cycle": e.cycle, "kind": e.kind},
                    **e.fields) for e in tracer.events]
    assert records[0]["seq"] == 5  # the ring dropped the five oldest
    whole = "\n".join(_dumps(r) for r in records + [tracer.footer()]) + "\n"
    assert "".join(chunks) == whole == tracer.to_jsonl(footer=True)
    assert EventTracer().to_jsonl(footer=False) == ""


def test_json_chunks_join_to_canonical_json():
    report = {"windows": [{"deltas": {"c%d" % j: j * i for j in range(40)},
                           "cycles": i} for i in range(400)],
              "totals": {"b": 1.5, "a": [1, 2], "none": None},
              "histogram": {10: 1, 3: 2}}  # int keys sort as ints
    chunks = list(json_chunks(report))
    assert len(chunks) > 2
    assert max(len(chunk) for chunk in chunks) < 2 * CHUNK_CHARS
    assert "".join(chunks) == canonical_json(report)


@pytest.mark.parametrize("text, want", [
    ('{"kind":"a"}\n{"kind":"f","n":1}\n', {"kind": "f", "n": 1}),
    ('{"kind":"f","n":2}\n\n  \n', {"kind": "f", "n": 2}),
    ('{"kind":"f"}\n{"kind":"a"}\n', None),
    ('{"kind":"f"}\n{"kind":"f","n":', None),
    ("", None),
])
def test_footer_record_across_chunk_splits(text, want):
    for size in (1, 2, 3, 7, len(text) or 1):
        chunks = [text[i:i + size] for i in range(0, len(text), size)]
        assert footer_record(chunks, "f") == want, size
