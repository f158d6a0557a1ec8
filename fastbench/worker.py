"""One benchmark run: a fresh process from interpreter start to artifact.

    python -m fastbench.worker --inputs mcf|boot [--armed] [--trace]
        --launch T --out DIR [--boot-ticks N]

``--launch`` is the runner's ``time.perf_counter()`` just before it
started this process.  ``perf_counter`` reads the system-wide monotonic
clock on Linux, so times since launch are comparable across the two
processes.  The run builds the workload, assembles the OS image,
constructs the simulator, optionally arms the full observer stack, runs
to shutdown and writes a FastFlight artifact (and the FastPulse
sidecar, when armed) under ``--out``.  ``sim.run`` goes in slices of
about 20 ms (``SLICE_BUSY_CYCLES``; it resumes where the last slice
stopped), and the reference kernel of :mod:`fastbench.hostspeed` is
timed after start-up, set-up, every slice and the artifact.  It
prints one JSON line with its timings on the host and on the nominal
host, counters and the output digest.

With ``--trace`` the layer entry points are wrapped before the
simulator is built (:mod:`fastbench.spans`) and the JSON line carries
the span table and the counters the per-layer metrics need.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys


def _parse(argv):
    parser = argparse.ArgumentParser(prog="python -m fastbench.worker")
    parser.add_argument("--inputs", choices=("mcf", "boot"), required=True)
    parser.add_argument("--armed", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--launch", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--boot-ticks", type=int, default=None)
    return parser.parse_args(argv)


def _arm(sim, pulse_path):
    """The armed stack that ``bench --instrumented`` gates: FastScope
    fabric and tracer, FastWatch invariants, a FastPulse sidecar and
    the two canonical trigger queries."""
    from repro.observability import FastScope
    from repro.observability.triggers import (
        rob_occupancy,
        trace_buffer_occupancy,
    )

    scope = FastScope(sim, pulse_path=pulse_path)
    scope.watch_below("tb_low", trace_buffer_occupancy(sim.feed), 4)
    scope.watch_below("rob_empty", rob_occupancy(sim.tm), 1)
    return scope


# Busy (not fast-forwarded) target cycles per slice of ``sim.run``:
# about 20 ms of host time.  Slices end at cycles the run itself
# decides, so every process of a workload slices alike.
SLICE_BUSY_CYCLES = 500


def _run_sliced(sim, clock, max_cycles: int):
    """``sim.run`` to shutdown in slices of about ``SLICE_BUSY_CYCLES``
    busy cycles, each ended by a *clock* lap; the last slice's result."""
    limit, step, busy_before = 0, 64, 0
    while True:
        limit = min(limit + step, max_cycles)
        result = sim.run(limit)
        clock.lap("run", reps=1)
        if limit == max_cycles or (sim.feed.finished and sim.tm.drained):
            return result
        busy = result.timing.cycles - result.timing.idle_cycles
        step = max(1, min(4 * step, step * SLICE_BUSY_CYCLES
                          // max(1, busy - busy_before)))
        busy_before = busy


def _tree_bytes(path: str) -> int:
    total = 0
    for dirpath, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(dirpath, name))
    return total


def main(argv=None) -> int:
    args = _parse(argv)
    # Every import happens here, so it counts as start-up, not set-up.
    import repro.observability  # noqa: F401
    import repro.workloads  # noqa: F401
    from repro.fast.simulator import FastSimulator
    from repro.observability.flight.artifact import emit_artifact

    from fastbench.hostspeed import Clock
    from fastbench.workloads import (
        BOOT_TICKS,
        MAX_CYCLES,
        build_inputs,
        digest,
    )

    clock = Clock(args.launch)
    clock.lap("startup")
    spans = None
    if args.trace:
        from fastbench import spans as span_mod

        spans = span_mod.Spans()
        span_mod.install(spans)

    def timed(name, fn):
        return spans.wrap(name, fn) if spans is not None else fn

    ticks = args.boot_ticks if args.boot_ticks is not None else BOOT_TICKS
    workload = timed("setup.workload", build_inputs)(args.inputs, ticks)
    sim = FastSimulator.from_programs(
        workload.programs, kernel_config=workload.kernel_config
    )
    scope = None
    if args.armed:
        scope = timed("setup.arm", _arm)(
            sim, os.path.join(args.out, "pulse.jsonl")
        )
    clock.lap("setup")
    result = _run_sliced(sim, clock, MAX_CYCLES)
    run_s = clock.host["run"]
    cycles = result.timing.cycles
    artifact = timed("flight.artifact", emit_artifact)(
        experiment="fastbench",
        workload="%s%s" % (args.inputs, "-armed" if args.armed else ""),
        config={"inputs": args.inputs, "armed": args.armed,
                "boot_ticks": ticks, "max_cycles": MAX_CYCLES},
        result=result,
        scope=scope,
        host={"seconds": run_s, "cycles_per_sec": cycles / run_s},
        root=os.path.join(args.out, "runs"),
    )
    clock.lap("artifact")
    record = {
        "digest": digest(result),
        # Host seconds, net of the reference kernel runs.
        "startup_s": clock.host["startup"],
        "setup_s": clock.host["setup"],
        "run_s": run_s,
        "wall_s": sum(clock.host.values()),
        # The same segments on the nominal host (fastbench.hostspeed).
        "nominal": clock.nominal,
        "cycles": cycles,
        "idle_cycles": result.timing.idle_cycles,
        "instructions": result.timing.instructions,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if spans is not None:
        record["spans"] = spans.to_dict()
        record["counters"] = _counters(sim, result, scope, artifact.path)
    print(json.dumps(record))
    return 0


def _counters(sim, result, scope, artifact_dir: str) -> dict:
    """Target-side and layer-side counts for the per-layer metrics."""
    timing, proto = result.timing, result.protocol
    blocks = sim.fm.blocks.stats
    counters = {
        "sb_hits": blocks.hits,
        "sb_misses": blocks.misses,
        "sb_replayed": blocks.replayed_instructions,
        "fm_traced": result.functional.traced,
        "rollback_replays": proto.rollback_replays,
        "round_trips": proto.round_trips,
        "entries_streamed": proto.entries_streamed,
        "protocol_idle_ticks": proto.idle_ticks,
        "branches": timing.branches,
        "mispredicts": timing.mispredicts,
        "dcache_accesses": timing.dcache_accesses,
        "dcache_hits": timing.dcache_hits,
        "trace_events": 0,
        "trace_dropped": 0,
        "pulse_samples": 0,
        "artifact_bytes": _tree_bytes(artifact_dir),
    }
    if scope is not None:
        counters["trace_events"] = scope.tracer.seq
        counters["trace_dropped"] = scope.tracer.dropped
        counters["pulse_samples"] = scope.pulse.summary()["det"]["samples"]
    return counters


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
