"""Hot-path benchmark: the fast busy path vs the pre-FastBlock baseline.

``python -m repro bench`` times the FAST-coupled simulator wall-clock
on a linux-boot slice plus SPECINT-like and fuzz-derived busy kernels
and writes ``BENCH_hotpath.json``: per-workload cycles/sec for each
configuration, the speedup, a stats-equivalence bit, and geometric
means overall and per workload class.

The two rows per workload are the *before* and *after* of the busy
path work:

* ``legacy``: the legacy tick engine with the FM superblock cache
  disabled -- the interpreter the fast path replaced;
* ``compiled``: the compiled tick engine with superblock capture and
  replay on -- the full busy-path stack (generated stage closures,
  span-batched commit, flat TM tables, FM superblocks).

Both produce bit-identical ``TimingStats`` (the ``cycles_match`` bit).

Workloads fall into two classes:

* **idle-heavy** (``linux-boot``, ``perlbmk-sleep``): HALT-heavy by
  construction -- the phenomena idle fast-forward targets (section
  3.4's timing-model-starving sleeps; boot-phase idling).
* **busy** (``164.gzip``, ``181.mcf``, ``fuzz-alu``, ``fuzz-chase``):
  never idle; they pin the per-cycle busy path.  The ``fuzz-*`` pair
  is generated from the FastFuzz atom machinery with fixed seeds: a
  tight seeded ALU/mem kernel and a pointer-chase over a seeded
  permutation ring.

This file reads the host clock on purpose -- it *measures* the
simulator instead of simulating -- so the DT002 wall-clock rule is
suppressed line by line.
"""

from __future__ import annotations

import argparse
import json
import time
from typing import Dict, List, Optional, Tuple

import os

from repro.experiments.harness import (
    build_fast_simulator,
    flight_enabled,
    flight_root,
    pulse_dir,
)
from repro.fuzz.generator import alu_burst
from repro.kernel.image import UserProgram
from repro.kernel.sources import linux24_config
from repro.timing.core import TimingConfig
from repro.workloads import build as build_workload, linux_boot_slice
from repro.workloads.generator import (
    EXIT_SNIPPET,
    Workload,
    data_bytes,
    data_words,
    seeded,
)

BENCH_PATH = "BENCH_hotpath.json"
OVERHEAD_PATH = "BENCH_observability.json"
MAX_CYCLES = 8_000_000

# Workloads whose wall time the idle fast-forward should dominate; the
# acceptance bar is >= 2.4x on these, >= 1.3x on the busy class.
IDLE_HEAVY = ("linux-boot", "perlbmk-sleep")

_PERLBMK_SLEEP = """
main:
    MOVI R7, %(iterations)d
pbs_outer:
    ; interpreter-style hash loop (the busy phase of 253.perlbmk)
    MOVI R4, text
    MOVI R5, %(n)d
    MOVI R6, 5381
pbs_hash:
    LDB R1, [R4+0]
    MOV R2, R6
    SHL R2, 5
    ADD R6, R2
    ADD R6, R1
    XORI R6, 0x1505
    INC R4
    DEC R5
    JNZ pbs_hash
    MOVI R0, 2            ; SYS_SLEEP: the HALT behaviour of Figure 4,
    MOVI R1, %(sleep)d    ; long enough to dominate the busy phase
    SYSCALL
    DEC R7
    JNZ pbs_outer
%(exit)s
.align 4
%(data)s
"""


def _perlbmk_sleep(iterations: int, sleep_ticks: int) -> Workload:
    rng = seeded(2530)
    text = bytes(rng.choice(b"abcdefeegh e\n") for _ in range(256))
    source = _PERLBMK_SLEEP % {
        "iterations": iterations,
        "n": len(text),
        "sleep": sleep_ticks,
        "exit": EXIT_SNIPPET,
        "data": data_bytes("text", text),
    }
    return Workload(
        name="perlbmk-sleep",
        programs=[UserProgram("perlbmk-sleep", source, entry="main")],
        kernel_config=linux24_config(),
        description="perlbmk-like hash loop sleeping %d kernel ticks per "
        "iteration x%d" % (sleep_ticks, iterations),
        paper_row="253.perlbmk",
    )


_FUZZ_ALU = """
main:
    MOVI R7, %(outer)d
fa_outer:
    MOVI R6, buf
    MOVI R5, %(inner)d
fa_inner:
    %(burst)s
    ST [R6+0], R1
    LD R2, [R6+4]
    ADDI R6, 8
    DEC R5
    JNZ fa_inner
    DEC R7
    JNZ fa_outer
%(exit)s
.align 4
%(data)s
"""

_FUZZ_CHASE = """
main:
    MOVI R7, %(outer)d
pc_outer:
    MOVI R4, %(steps)d
    MOVI R5, 0
pc_step:
    MOVI R3, ring
    ADD R3, R5
    LD R5, [R3+0]
    DEC R4
    JNZ pc_step
    DEC R7
    JNZ pc_outer
%(exit)s
.align 4
%(ring)s
"""


def _fuzz_alu(outer: int, inner: int, seed: int = 7001) -> Workload:
    """Tight seeded ALU/mem kernel: a FastFuzz ALU burst (registers
    R1..R4; R5-R7 are the loop/pointer registers) inside a counted
    store/load loop -- one hot basic block, superblock catnip."""
    burst = alu_burst(seeded(seed), 10, regs=(1, 2, 3, 4))
    source = _FUZZ_ALU % {
        "outer": outer,
        "inner": inner,
        "burst": "\n    ".join(burst),
        "exit": EXIT_SNIPPET,
        "data": data_bytes("buf", bytes(inner * 8 + 8)),
    }
    return Workload(
        name="fuzz-alu",
        programs=[UserProgram("fuzz-alu", source, entry="main")],
        kernel_config=linux24_config(),
        description="seeded FastFuzz ALU burst x%d in a %d-deep "
        "store/load loop (seed %d)" % (inner, outer, seed),
    )


def _fuzz_chase(outer: int, steps: int, words: int = 512,
                seed: int = 7002) -> Workload:
    """Pointer-chase over a seeded permutation ring: every load's
    address depends on the previous load's value, so the backend
    serializes on the L1 -- the anti-ILP busy workload."""
    rng = seeded(seed)
    order = list(range(1, words))
    rng.shuffle(order)
    cycle = [0] + order
    next_of = [0] * words
    for k, node in enumerate(cycle):
        next_of[node] = cycle[(k + 1) % words] * 4
    source = _FUZZ_CHASE % {
        "outer": outer,
        "steps": steps,
        "exit": EXIT_SNIPPET,
        "ring": data_words("ring", next_of),
    }
    return Workload(
        name="fuzz-chase",
        programs=[UserProgram("fuzz-chase", source, entry="main")],
        kernel_config=linux24_config(),
        description="pointer-chase over a %d-word seeded permutation "
        "ring, %d steps x%d (seed %d)" % (words, steps, outer, seed),
    )


def bench_workloads(smoke: bool) -> List[Workload]:
    """The bench set: one boot slice, one sleeper, four busy kernels."""
    if smoke:
        return [
            linux_boot_slice(sleep_ticks=20),
            _perlbmk_sleep(iterations=2, sleep_ticks=10),
            build_workload("164.gzip", scale=1),
            build_workload("181.mcf", scale=1),
            _fuzz_alu(outer=12, inner=48),
            _fuzz_chase(outer=6, steps=384),
        ]
    return [
        linux_boot_slice(sleep_ticks=60),
        _perlbmk_sleep(iterations=4, sleep_ticks=20),
        build_workload("164.gzip", scale=1),
        build_workload("181.mcf", scale=1),
        _fuzz_alu(outer=40, inner=48),
        _fuzz_chase(outer=20, steps=384),
    ]


def _time_run(
    workload: Workload,
    engine: str,
    instrument: bool = False,
    superblocks: bool = True,
) -> Tuple[object, float]:
    sim = build_fast_simulator(
        workload, timing_config=TimingConfig(engine=engine)
    )
    if not superblocks:
        # The pre-FastBlock baseline: interpret every instruction.
        # Post-construction disable so both rows share one build path.
        fm = sim.fm
        fm.config.superblocks = False
        fm.blocks = None
        fm._sb_pages = {}
    scope = None
    if instrument:
        # Full FastScope at default sampling: fabric + tracer + the two
        # canonical trigger queries + the FastPulse telemetry plane (no
        # profiler -- that one is opt-in and deliberately outside the
        # overhead bar).  The pulse sidecar write is part of the gated
        # cost: the 1.10x bar covers the whole armed stack.
        from repro.observability import FastScope
        from repro.observability.triggers import (
            rob_occupancy,
            trace_buffer_occupancy,
        )

        scope = FastScope(
            sim,
            pulse_path=os.path.join(
                pulse_dir(), "bench-%s.jsonl" % workload.name
            ),
        )
        scope.watch_below("tb_low", trace_buffer_occupancy(sim.feed), 4)
        scope.watch_below("rob_empty", rob_occupancy(sim.tm), 1)
    t0 = time.perf_counter()  # fastlint: ignore[DT002]
    result = sim.run(MAX_CYCLES)
    dt = time.perf_counter() - t0  # fastlint: ignore[DT002]
    if scope is not None and scope.pulse is not None:
        # Outside the timed region: one footer write, so the sidecar
        # reads as finished to `repro top`/`pulse export`.
        scope.pulse.finalize()
    return result.timing, dt


def _emit_bench_artifact(
    bench: str,
    workload: Workload,
    timing,
    seconds: float,
    smoke: bool,
    reps: int,
    mode: str,
    host_extra: Optional[Dict] = None,
) -> None:
    """Persist one timed bench run as a FastFlight artifact so the
    regression gate can ``repro report --against BENCH_*.json`` it."""
    if not flight_enabled():
        return
    from repro.observability.flight.artifact import emit_artifact

    host = {
        "mode": mode,
        "seconds": round(seconds, 4),
        "cycles_per_sec": round(timing.cycles / seconds, 1)
        if seconds > 0 else 0.0,
    }
    host.update(host_extra or {})
    emit_artifact(
        experiment=bench,
        workload=workload.name,
        config={
            "smoke": smoke,
            "reps": reps,
            "max_cycles": MAX_CYCLES,
            "mode": mode,
        },
        timing=timing,
        host=host,
        root=flight_root(),
    )


def _geomean(values: List[float]) -> float:
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values)) if values else 1.0


def run_bench(smoke: bool = False, reps: Optional[int] = None) -> Dict:
    """Time every bench workload: pre-FastBlock legacy baseline vs the
    full compiled busy-path stack."""
    if reps is None:
        reps = 1 if smoke else 2
    workloads = bench_workloads(smoke)
    rows: Dict[str, Dict] = {}
    busy: List[float] = []
    idle: List[float] = []
    for workload in workloads:
        stats: Dict[str, object] = {}
        best: Dict[str, float] = {}
        for _rep in range(reps):
            for engine in ("legacy", "compiled"):
                # The baseline row is the engine the compiled stack
                # replaced: legacy ticks, no superblock replay.
                timing, dt = _time_run(
                    workload, engine, superblocks=(engine != "legacy")
                )
                stats[engine] = timing
                best[engine] = min(best.get(engine, dt), dt)
        speedup = best["legacy"] / best["compiled"]
        idle_heavy = workload.name in IDLE_HEAVY
        (idle if idle_heavy else busy).append(speedup)
        cycles = stats["compiled"].cycles
        _emit_bench_artifact(
            "bench", workload, stats["compiled"], best["compiled"],
            smoke, reps, mode="compiled",
            host_extra={"speedup": round(speedup, 3)},
        )
        rows[workload.name] = {
            "cycles": cycles,
            "idle_cycles": stats["compiled"].idle_cycles,
            "idle_heavy": idle_heavy,
            "cycles_match": stats["legacy"] == stats["compiled"],
            "legacy": {
                "seconds": round(best["legacy"], 4),
                "cycles_per_sec": round(cycles / best["legacy"], 1),
            },
            "compiled": {
                "seconds": round(best["compiled"], 4),
                "cycles_per_sec": round(cycles / best["compiled"], 1),
            },
            "speedup": round(speedup, 3),
        }
    return {
        "bench": "hotpath",
        "smoke": smoke,
        "reps": reps,
        "max_cycles": MAX_CYCLES,
        "workloads": rows,
        "geomean_speedup": round(_geomean(busy + idle), 3),
        "geomean_busy": round(_geomean(busy), 3),
        "geomean_idle_heavy": round(_geomean(idle), 3),
    }


def run_overhead_bench(smoke: bool = False, reps: Optional[int] = None) -> Dict:
    """Time every bench workload on the compiled engine, bare vs under
    full FastScope instrumentation (the observability overhead bar)."""
    if reps is None:
        # Best-of-2 even in smoke mode: the overhead bar is a *ratio*
        # gate, and a single sample per mode lets one scheduler blip
        # flip it.  This matches the committed BENCH_observability.json
        # baseline and the regression-gate CI job (--reps 2).
        reps = 2
    workloads = bench_workloads(smoke)
    rows: Dict[str, Dict] = {}
    overheads: List[float] = []
    for workload in workloads:
        stats: Dict[str, object] = {}
        best: Dict[str, float] = {}
        for _rep in range(reps):
            for mode, instrument in (("bare", False), ("scoped", True)):
                timing, dt = _time_run(
                    workload, "compiled", instrument=instrument
                )
                stats[mode] = timing
                best[mode] = min(best.get(mode, dt), dt)
        overhead = best["scoped"] / best["bare"]
        overheads.append(overhead)
        cycles = stats["bare"].cycles
        _emit_bench_artifact(
            "bench-overhead", workload, stats["bare"], best["bare"],
            smoke, reps, mode="bare",
            host_extra={
                "scoped_seconds": round(best["scoped"], 4),
                "overhead": round(overhead, 3),
            },
        )
        rows[workload.name] = {
            "cycles": cycles,
            "idle_cycles": stats["bare"].idle_cycles,
            "stats_match": stats["bare"] == stats["scoped"],
            "bare": {
                "seconds": round(best["bare"], 4),
                "cycles_per_sec": round(cycles / best["bare"], 1),
            },
            "scoped": {
                "seconds": round(best["scoped"], 4),
                "cycles_per_sec": round(cycles / best["scoped"], 1),
            },
            "overhead": round(overhead, 3),
        }
    geomean = 1.0
    for o in overheads:
        geomean *= o
    geomean **= 1.0 / len(overheads)
    return {
        "bench": "observability-overhead",
        "smoke": smoke,
        "reps": reps,
        "max_cycles": MAX_CYCLES,
        "workloads": rows,
        "geomean_overhead": round(geomean, 3),
    }


def render_overhead(report: Dict) -> str:
    lines = [
        "observability overhead (FastScope-instrumented vs bare, "
        "compiled engine)",
        "%-16s %10s %10s %9s %9s %9s %6s"
        % ("workload", "cycles", "idle", "bare", "scoped", "overhead",
           "match"),
    ]
    for name, row in report["workloads"].items():
        lines.append(
            "%-16s %10d %10d %8.2fs %8.2fs %8.2fx %6s"
            % (
                name,
                row["cycles"],
                row["idle_cycles"],
                row["bare"]["seconds"],
                row["scoped"]["seconds"],
                row["overhead"],
                "ok" if row["stats_match"] else "FAIL",
            )
        )
    lines.append("geomean overhead: %.2fx" % report["geomean_overhead"])
    return "\n".join(lines)


def render(report: Dict) -> str:
    lines = [
        "hot-path bench (compiled+FastBlock vs pre-FastBlock legacy)",
        "%-16s %5s %10s %10s %9s %9s %8s %6s"
        % ("workload", "class", "cycles", "idle", "legacy", "compiled",
           "speedup", "match"),
    ]
    for name, row in report["workloads"].items():
        lines.append(
            "%-16s %5s %10d %10d %8.2fs %8.2fs %7.2fx %6s"
            % (
                name,
                "idle" if row["idle_heavy"] else "busy",
                row["cycles"],
                row["idle_cycles"],
                row["legacy"]["seconds"],
                row["compiled"]["seconds"],
                row["speedup"],
                "ok" if row["cycles_match"] else "FAIL",
            )
        )
    lines.append(
        "geomean speedup: %.2fx overall, %.2fx busy, %.2fx idle-heavy"
        % (
            report["geomean_speedup"],
            report["geomean_busy"],
            report["geomean_idle_heavy"],
        )
    )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description="time the compiled tick engine against the legacy "
        "engine and write %s" % BENCH_PATH,
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced sleep spans and a single rep (CI smoke test)",
    )
    parser.add_argument("--out", default=None, help="output JSON path")
    parser.add_argument(
        "--reps",
        type=int,
        default=None,
        metavar="N",
        help="repetitions per workload, best-of-N (default: 1 with "
        "--smoke, 2 otherwise)",
    )
    parser.add_argument(
        "--artifacts",
        action="store_true",
        help="persist each timed run as a FastFlight artifact under "
        "results/runs/ (for 'repro report --against')",
    )
    parser.add_argument(
        "--fail-below",
        type=str,
        default=None,
        metavar="SPEC",
        help="exit 1 if a geomean speedup is below its bar; SPEC is a "
        "comma list of X (overall), busy:X or idle:X "
        "(e.g. 'busy:1.15,idle:2.0')",
    )
    parser.add_argument(
        "--instrumented",
        action="store_true",
        help="measure FastScope observability overhead instead of the "
        "engine speedup (writes %s)" % OVERHEAD_PATH,
    )
    parser.add_argument(
        "--fail-overhead-above",
        type=float,
        default=None,
        metavar="X",
        help="with --instrumented: exit 1 if the geomean "
        "instrumented/bare ratio exceeds X",
    )
    args = parser.parse_args(argv)
    if args.artifacts:
        from repro.experiments.harness import set_flight

        set_flight(True)
    if args.instrumented:
        return _overhead_main(args)
    out = args.out or BENCH_PATH
    report = run_bench(smoke=args.smoke, reps=args.reps)
    with open(out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(render(report))
    print("wrote %s" % out)
    failed = not all(
        row["cycles_match"] for row in report["workloads"].values()
    )
    if failed:
        print("FAIL: engines disagree on TimingStats")
        return 1
    for label, key, bar in _parse_fail_below(args.fail_below):
        if report[key] < bar:
            print(
                "FAIL: %s geomean speedup %.2fx below threshold %.2fx"
                % (label, report[key], bar)
            )
            return 1
    return 0


_GEOMEAN_KEYS = {
    "overall": "geomean_speedup",
    "busy": "geomean_busy",
    "idle": "geomean_idle_heavy",
}


def _parse_fail_below(spec: Optional[str]) -> List[Tuple[str, str, float]]:
    """``--fail-below`` spec -> [(label, report key, bar)].

    Each comma-separated part is ``X`` (overall geomean) or
    ``busy:X`` / ``idle:X`` (per-class geomeans).
    """
    out: List[Tuple[str, str, float]] = []
    if not spec:
        return out
    for part in spec.split(","):
        part = part.strip()
        label, _, number = part.rpartition(":")
        label = label.strip() or "overall"
        if label not in _GEOMEAN_KEYS:
            raise SystemExit(
                "--fail-below: unknown class %r (expected one of %s)"
                % (label, ", ".join(sorted(_GEOMEAN_KEYS)))
            )
        out.append((label, _GEOMEAN_KEYS[label], float(number)))
    return out


def _overhead_main(args) -> int:
    out = args.out or OVERHEAD_PATH
    report = run_overhead_bench(smoke=args.smoke, reps=args.reps)
    with open(out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(render_overhead(report))
    print("wrote %s" % out)
    if not all(
        row["stats_match"] for row in report["workloads"].values()
    ):
        print("FAIL: TimingStats differ with observability enabled")
        return 1
    if args.fail_overhead_above is not None and (
        report["geomean_overhead"] > args.fail_overhead_above
    ):
        print(
            "FAIL: geomean overhead %.2fx above threshold %.2fx"
            % (report["geomean_overhead"], args.fail_overhead_above)
        )
        return 1
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main(sys.argv[1:]))
