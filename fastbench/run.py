"""FastBench runner: run one workload and print every metric.

    python3 fastbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The runner starts fresh worker
processes (``python -m fastbench.worker``) one at a time, each from
interpreter start to its FastFlight artifact, until ``--seconds`` have
passed (a closed loop with one client).  Artifacts and pulse sidecars go
to a temporary directory inside the checkout, removed at exit.

``--trace 0`` reports the end-to-end metrics: the median over the
processes of the run, timed on the nominal host of
:mod:`fastbench.hostspeed`, with min, quartiles and max beside it and
the median raw host figure after them.
``--trace 1`` runs one traced process, whose layer entry points are
timed, then alternates untraced processes of the workload and of its
counterpart (the same inputs with the observer stack flipped) for the
rest of the time; it reports the per-layer metrics, the closure of the
traced split against its wall time, and the section 3.1 model check.

Every process's output digest must equal the one recorded in
``fastbench/digests.json``; a mismatch, an error, a deadlock or a
timeout counts as a failed run.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

The workloads are fixed programs whose outputs the digest pins, so
``--seed`` selects nothing: it is echoed in the report, and any seed
gives the same inputs.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if not __package__:  # run as a script: make the package importable
    sys.path.insert(0, ROOT)

from fastbench.quartiles import summarize  # noqa: E402
from fastbench.workloads import WORKLOADS  # noqa: E402

DIGESTS = os.path.join(ROOT, "fastbench", "digests.json")

# The whole invocation must end within 180 s: no process starts after
# LAUNCH_CUTOFF_S, and none may outlive HARD_LIMIT_S.
LAUNCH_CUTOFF_S = 120.0
HARD_LIMIT_S = 170.0

# A traced split is flagged as distorted when tracing slows sim.run by
# more than this factor.
TRACE_INFLATION_BOUND = 2.0

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("sim_cycles_per_s", "1/s"),
    ("sim_kips", "kinst/s"),
    ("peak_rss_mb", "MB"),
)

# (name, unit, the end-to-end metric it should move, and where)
PER_LAYER = (
    ("setup.workload_s", "s", "setup_s, wall_s: every workload"),
    ("setup.image_s", "s", "setup_s, wall_s: every workload"),
    ("setup.system_s", "s", "setup_s, wall_s: every workload"),
    ("setup.tm_build_s", "s", "setup_s, wall_s: every workload"),
    ("setup.arm_s", "s", "setup_s, wall_s: armed workloads"),
    ("fm.fill_self_s", "s", "sim_cycles_per_s: mcf-busy"),
    ("fm.sb_replay_s", "s", "sim_cycles_per_s: mcf-busy"),
    ("fm.sb_hit_ratio", "ratio", "sim_cycles_per_s: mcf-busy"),
    ("fm.replayed_frac", "ratio", "sim_cycles_per_s: mcf-busy"),
    ("fm.rollback_s", "s", "sim_cycles_per_s: mcf-busy"),
    ("fm.rollback_calls", "count", "sim_cycles_per_s: mcf-busy"),
    ("fm.rollback_replayed", "count", "sim_cycles_per_s: mcf-busy"),
    ("feed.self_s", "s", "sim_cycles_per_s: mcf-busy"),
    ("feed.wrong_path_s", "s", "sim_cycles_per_s: mcf-busy"),
    ("feed.round_trips", "count", "sim_cycles_per_s: mcf-busy"),
    ("feed.F", "1/cycle", "sim_cycles_per_s: mcf-busy"),
    ("feed.useful_frac", "ratio", "sim_cycles_per_s: mcf-busy"),
    ("tm.frontend_self_s", "s", "sim_cycles_per_s: mcf-busy"),
    ("tm.backend_self_s", "s", "sim_cycles_per_s: mcf-busy"),
    ("tm.connectors_s", "s", "sim_cycles_per_s: mcf-busy"),
    ("tm.cache_s", "s", "sim_cycles_per_s: mcf-busy"),
    ("tm.cache_accesses", "count", "sim_cycles_per_s: mcf-busy"),
    ("tm.l1d_miss_rate", "ratio", "sim_cycles_per_s: mcf-busy"),
    ("tm.bpred_s", "s", "sim_cycles_per_s: mcf-busy"),
    ("tm.bp_accuracy", "ratio", "sim_cycles_per_s: mcf-busy"),
    ("tm.busy_cycles", "count", "sim_cycles_per_s: mcf-busy"),
    ("tm.us_per_busy_cycle", "us", "sim_cycles_per_s: mcf-busy"),
    ("engine.residual_s", "s", "sim_cycles_per_s: boot-idle-armed"),
    ("engine.idle_s", "s", "sim_cycles_per_s: boot-idle-armed"),
    ("engine.idle_spans", "count", "sim_cycles_per_s: boot-idle-armed"),
    ("engine.ff_frac", "ratio", "sim_cycles_per_s: boot-idle-armed"),
    ("obs.overhead_x", "ratio", "sim_cycles_per_s: armed workloads"),
    ("obs.listener_s", "s", "sim_cycles_per_s: armed workloads"),
    ("obs.trace_events", "count", "sim_cycles_per_s: armed workloads"),
    ("obs.trace_dropped", "count", "sim_cycles_per_s: armed workloads"),
    ("obs.pulse_samples", "count", "sim_cycles_per_s: armed workloads"),
    ("flight.artifact_s", "s", "wall_s: armed workloads"),
    ("flight.artifact_bytes", "bytes", "wall_s: armed workloads"),
    ("proc.startup_s", "s", "wall_s: every workload"),
    ("trace.inflation_x", "ratio", "none: tracing cost"),
    ("trace.wall_s", "s", "none: traced run"),
    ("unattributed_s", "s", "none: split remainder"),
    ("model.t_fm_us", "us", "section 3.1 fit"),
    ("model.t_tm_us", "us", "section 3.1 fit"),
    ("model.l_rt_us", "us", "section 3.1 fit"),
    ("model.serial_cps", "1/s", "section 3.1 fit"),
    ("model.parallel_cps", "1/s", "section 3.1 fit"),
    ("model.gap", "ratio", "section 3.1 fit"),
)

# Span names whose self time falls on each side of the section 3.1
# partition (see model_check).
FM_SIDE = ("fm.fill", "fm.sb_replay", "feed", "engine.idle_tick",
           "engine.ff", "engine.horizon")
ROUND_TRIP = ("feed.wrong_path", "fm.rollback")
TM_SIDE = ("tm.frontend", "tm.backend", "tm.connectors", "tm.cache",
           "tm.bpred")
TM_REST = ("run", "obs")


# -- one process ------------------------------------------------------------


def launch(inputs: str, armed: bool, traced: bool, out_dir: str,
           timeout: float, boot_ticks: Optional[int] = None) -> Dict:
    """Run one worker process to completion and return its record.

    A record with an ``error`` key is a failed run; the process is
    always waited for (and killed first on timeout).
    """
    os.makedirs(out_dir)
    cmd = [sys.executable, "-m", "fastbench.worker", "--inputs", inputs,
           "--out", out_dir]
    if armed:
        cmd.append("--armed")
    if traced:
        cmd.append("--trace")
    if boot_ticks is not None:
        cmd += ["--boot-ticks", str(boot_ticks)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, ROOT])
    base = {"inputs": inputs, "armed": armed, "traced": traced}
    launched = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd + ["--launch", repr(launched)], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return dict(base, error="timeout after %.0f s" % timeout)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return dict(base, error="exit %d: %s" % (proc.returncode, tail[0]))
    try:
        record = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return dict(base, error="unreadable worker output")
    return dict(base, **record)


def judge(record: Dict, expected: str) -> Dict:
    """*record* with an ``error`` if its digest is not *expected*."""
    if "error" not in record and record["digest"] != expected:
        record = dict(record, error="digest mismatch: %s != %s"
                      % (record["digest"][:16], expected[:16]))
    return record


# -- metrics ----------------------------------------------------------------


def samples(records: List[Dict], host: bool = False
            ) -> Dict[str, List[float]]:
    """Per-process values of every end-to-end metric (good runs only):
    times on the nominal host (:mod:`fastbench.hostspeed`), or with
    *host* the raw host seconds."""
    good = [r for r in records if "error" not in r]

    def seconds(r, segment):
        return r[segment + "_s"] if host else r["nominal"][segment]

    return {
        "wall_s": [r["wall_s"] if host else sum(r["nominal"].values())
                   for r in good],
        "setup_s": [seconds(r, "setup") for r in good],
        "sim_cycles_per_s": [r["cycles"] / seconds(r, "run") for r in good],
        "sim_kips": [r["instructions"] / seconds(r, "run") / 1000.0
                     for r in good],
        "peak_rss_mb": [r["peak_rss_mb"] for r in good],
    }


def end_to_end(records: List[Dict]) -> Dict[str, float]:
    """Every end-to-end metric: the median over the good *records* of
    each process's value on the nominal host ({} if none is good)."""
    values = samples(records)
    if not values["wall_s"]:
        return {}
    return {name: statistics.median(v) for name, v in values.items()}


def nominal_run_s(records: List[Dict]) -> float:
    """Median ``sim.run`` seconds of *records* on the nominal host."""
    return statistics.median(r["nominal"]["run"] for r in records)


def model_check(spans: Dict, counters: Dict, cycles: int,
                deinflate: float, measured_cps: float) -> Dict[str, float]:
    """Fit the section 3.1 model to the traced split.

    Side A (the FM) is FM execution, superblock replay, the feed and
    idle device time; side B (the TM) is the timing-model steps, cache
    and predictor, plus the engine loop and observers, which a
    partitioned host would run beside the TM.  Round trips are the
    wrong-path and rollback work, L_rt seconds each, on F of the
    cycles.  Traced seconds are scaled by *deinflate* (untraced
    ``sim.run`` seconds on the nominal host ÷ traced host seconds)
    before the fit, so the model speaks of the nominal host.
    """
    from repro.analytical.model import PartitionedSimulatorModel

    def seconds(names):
        return deinflate * sum(
            spans.get(n, {}).get("self_s", 0.0) for n in names
        )

    trips = counters["round_trips"]
    t_fm = seconds(FM_SIDE) / cycles
    t_tm = seconds(TM_SIDE) / cycles
    t_rest = seconds(TM_REST) / cycles
    f = trips / cycles
    l_rt = seconds(ROUND_TRIP) / trips if trips else 0.0
    serial = 1.0 / (t_fm + t_tm + t_rest + f * l_rt)
    parallel = PartitionedSimulatorModel(
        t_a=t_fm, t_b=t_tm + t_rest, f=f, l_rt=l_rt
    ).cycles_per_second()
    return {
        "model.t_fm_us": 1e6 * t_fm,
        "model.t_tm_us": 1e6 * (t_tm + t_rest),
        "model.l_rt_us": 1e6 * l_rt,
        "model.serial_cps": serial,
        "model.parallel_cps": parallel,
        "model.gap": measured_cps / parallel,
    }


def per_layer(traced: Dict, own: List[Dict], armed: List[Dict],
              bare: List[Dict]) -> Dict[str, float]:
    """Every per-layer metric from the traced record and the untraced
    records of the workload (*own*) and of both arming variants."""
    spans, k = traced["spans"], traced["counters"]

    def self_s(*names):
        return sum(spans.get(n, {}).get("self_s", 0.0) for n in names)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    cycles = traced["cycles"]
    busy = cycles - traced["idle_cycles"]
    run_u = nominal_run_s(own)
    tm_s = self_s(*TM_SIDE)
    sb_lookups = k["sb_hits"] + k["sb_misses"]
    metrics = {
        "setup.workload_s": self_s("setup.workload"),
        "setup.image_s": self_s("setup.image"),
        "setup.system_s": self_s("setup.system"),
        "setup.tm_build_s": self_s("setup.tm_build"),
        "setup.arm_s": self_s("setup.arm"),
        "fm.fill_self_s": self_s("fm.fill"),
        "fm.sb_replay_s": self_s("fm.sb_replay"),
        "fm.sb_hit_ratio": k["sb_hits"] / sb_lookups if sb_lookups else 0.0,
        "fm.replayed_frac": k["sb_replayed"] / k["fm_traced"],
        "fm.rollback_s": self_s("fm.rollback"),
        "fm.rollback_calls": calls("fm.rollback"),
        "fm.rollback_replayed": k["rollback_replays"],
        "feed.self_s": self_s("feed"),
        "feed.wrong_path_s": self_s("feed.wrong_path"),
        "feed.round_trips": k["round_trips"],
        "feed.F": k["round_trips"] / cycles,
        "feed.useful_frac": traced["instructions"] / k["entries_streamed"],
        "tm.frontend_self_s": self_s("tm.frontend"),
        "tm.backend_self_s": self_s("tm.backend"),
        "tm.connectors_s": self_s("tm.connectors"),
        "tm.cache_s": self_s("tm.cache"),
        "tm.cache_accesses": calls("tm.cache"),
        "tm.l1d_miss_rate": 1.0 - k["dcache_hits"] / k["dcache_accesses"],
        "tm.bpred_s": self_s("tm.bpred"),
        "tm.bp_accuracy": 1.0 - k["mispredicts"] / k["branches"],
        "tm.busy_cycles": busy,
        "tm.us_per_busy_cycle": 1e6 * tm_s / busy,
        "engine.residual_s": self_s("run"),
        "engine.idle_s": self_s("engine.idle_tick", "engine.ff",
                                "engine.horizon"),
        "engine.idle_spans": calls("engine.ff"),
        "engine.ff_frac": (k["protocol_idle_ticks"]
                           - calls("engine.idle_tick")) / cycles,
        "obs.overhead_x": nominal_run_s(armed) / nominal_run_s(bare),
        "obs.listener_s": self_s("obs"),
        "obs.trace_events": k["trace_events"],
        "obs.trace_dropped": k["trace_dropped"],
        "obs.pulse_samples": k["pulse_samples"],
        "flight.artifact_s": self_s("flight.artifact"),
        "flight.artifact_bytes": k["artifact_bytes"],
        "proc.startup_s": traced["startup_s"],
        "trace.inflation_x": traced["nominal"]["run"] / run_u,
        "trace.wall_s": traced["wall_s"],
        "unattributed_s": traced["wall_s"] - traced["startup_s"]
        - sum(s["self_s"] for s in spans.values()),
    }
    measured_cps = cycles / run_u
    metrics.update(model_check(spans, k, cycles, run_u / traced["run_s"],
                               measured_cps))
    return metrics


# -- the report -------------------------------------------------------------


def _fmt(value: float) -> str:
    return "%.6g" % value


def print_end_to_end(records: List[Dict]) -> None:
    nominal, host = samples(records), samples(records, host=True)
    print("%-18s %-8s %12s %12s %12s %12s %12s %4s | %12s" % (
        "metric", "unit", "median", "min", "q1", "q3", "max", "n",
        "host median"))
    for name, unit in END_TO_END:
        s = summarize(nominal[name])
        print("%-18s %-8s %12s %12s %12s %12s %12s %4d | %12s" % (
            name, unit, _fmt(s["median"]), _fmt(s["min"]), _fmt(s["q1"]),
            _fmt(s["q3"]), _fmt(s["max"]), s["n"],
            _fmt(statistics.median(host[name]))))


def print_per_layer(metrics: Dict[str, float], traced: Dict,
                    measured_cps: float) -> None:
    wall = traced["wall_s"]
    print("%-22s %-8s %14s %8s  %s" % (
        "per-layer metric", "unit", "value", "of wall", "moves"))
    for name, unit, moves in PER_LAYER:
        value = metrics[name]
        share = ("%7.1f%%" % (100.0 * value / wall)
                 if unit == "s" and name != "trace.wall_s" else "")
        print("%-22s %-8s %14s %8s  %s" % (name, unit, _fmt(value), share,
                                           moves))
    accounted = wall - metrics["unattributed_s"]
    print("split: %.4f s of the traced run's %.4f s wall attributed; "
          "unattributed_s %.4f s (%.2f%%)" % (
              accounted, wall, metrics["unattributed_s"],
              100.0 * metrics["unattributed_s"] / wall))
    if metrics["trace.inflation_x"] > TRACE_INFLATION_BOUND:
        print("split DISTORTED: trace.inflation_x %.2f exceeds %.2f" % (
            metrics["trace.inflation_x"], TRACE_INFLATION_BOUND))
    print("section 3.1 model: serial %s cycles/s, parallel min(C_A, C_B) "
          "%s cycles/s, measured sim_cycles_per_s %s; gap (measured / "
          "parallel) %.3f" % (
              _fmt(metrics["model.serial_cps"]),
              _fmt(metrics["model.parallel_cps"]), _fmt(measured_cps),
              metrics["model.gap"]))
    print("obs.overhead_x (armed / bare sim.run, same inputs): %.3f" %
          metrics["obs.overhead_x"])


# -- runner -----------------------------------------------------------------


def measure(workload: str, seconds: float, trace: bool, tmp: str,
            expected: Dict[str, str], started: float) -> List[Dict]:
    """The closed loop: start processes one after another for
    *seconds*; return their judged records.  A round (one process, or
    with *trace* one of each arming) is not started when the mean round
    so far says it would end after *seconds*, so the run does not
    overrun; at least one round always runs."""
    spec = WORKLOADS[workload]
    records: List[Dict] = []

    def one(armed: bool, traced: bool = False) -> Dict:
        timeout = max(10.0, HARD_LIMIT_S - (time.perf_counter() - started))
        record = launch(spec.inputs, armed, traced,
                        os.path.join(tmp, "run%03d" % len(records)), timeout)
        return judge(record, expected[spec.inputs])

    loop_start = time.perf_counter()
    if trace:
        records.append(one(spec.armed, traced=True))
    rounds_start = time.perf_counter()
    rounds = 0
    while True:
        records.append(one(spec.armed))
        if trace:
            records.append(one(not spec.armed))
        rounds += 1
        now = time.perf_counter()
        next_end = now + (now - rounds_start) / rounds
        if next_end - loop_start > seconds or now - started >= LAUNCH_CUTOFF_S:
            return records


def main(argv: Optional[List[str]] = None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(prog="python3 fastbench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("fastbench: no simulator sources under %s" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)  # the model check imports the simulator
    with open(DIGESTS) as fh:
        expected = json.load(fh)["digests"]
    # The build: byte-compile the sources once, as an installed package
    # would be, so no measured process pays the compile.
    if not compileall.compile_dir(SRC, quiet=1):
        print("fastbench: the simulator sources do not compile",
              file=sys.stderr)
        return 2
    compileall.compile_dir(os.path.join(ROOT, "fastbench"), quiet=1)

    tmp = tempfile.mkdtemp(prefix=".fastbench-", dir=ROOT)
    try:
        records = measure(args.workload, args.seconds, bool(args.trace),
                          tmp, expected, started)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    spec = WORKLOADS[args.workload]
    failed = [r for r in records if "error" in r]
    print("FastBench %s: inputs %s, %s, seed %d, %.0f s, trace %d" % (
        args.workload, spec.inputs,
        "armed" if spec.armed else "bare", args.seed, args.seconds,
        args.trace))
    print("processes: %d attempted, %d failed, fail_frac %.4f" % (
        len(records), len(failed), len(failed) / len(records)))
    for record in failed:
        print("  FAILED (%s%s): %s" % (
            "armed" if record["armed"] else "bare",
            ", traced" if record["traced"] else "", record["error"]))

    own = [r for r in records if r["armed"] == spec.armed
           and not r["traced"] and "error" not in r]
    metrics: Dict[str, Dict] = {}
    if own and not args.trace:
        values = end_to_end(own)
        print_end_to_end(own)
        for name, unit in END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}
    traced = [r for r in records if r["traced"] and "error" not in r]
    other = [r for r in records if r["armed"] != spec.armed
             and "error" not in r]
    if args.trace and own and traced and other:
        armed = own if spec.armed else other
        bare = other if spec.armed else own
        values = per_layer(traced[0], own, armed, bare)
        measured = traced[0]["cycles"] / nominal_run_s(own)
        print_per_layer(values, traced[0], measured)
        for name, unit, _moves in PER_LAYER:
            metrics[name] = {"value": values[name], "unit": unit}
    correct = not failed and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": len(records),
                      "failed": len(failed), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
