"""FastPulse: the live telemetry plane over a running simulation.

Everything FastScope, FastFlight and FastWatch report is post-hoc --
nothing is visible until ``run()`` returns.  FastPulse closes that gap
the way co-emulation control planes do (ZynqParrot's host-visible
status registers, CHESSY-style heartbeats): a :class:`PulseEmitter`
subscribes to the timing model's cycle-listener seam *with an idle
hint*, so arming it preserves the compiled engine's idle fast-forward,
and every ``interval_cycles`` target cycles it snapshots progress into
an append-only ``pulse.jsonl`` sidecar that out-of-process readers
(``python -m repro top``, the OpenMetrics exporter) tail while the run
is still in flight.

Record stream
-------------

Every record is one line of sorted-key compact JSON with a monotonic
``seq`` number and a strict two-section split:

* ``det`` -- target-deterministic fields (cycle, committed
  instructions/uops, IPC, trace-buffer/ROB occupancy, invariant
  firings, watchdog stall state, progress vs. the configured horizon).
  Sampling cadence is pure cycle arithmetic, so the ``det`` sections of
  due samples -- and the footer's ``det`` section -- are byte-identical
  across same-seed runs and across both tick engines.
* ``host`` -- volatile host-timing fields (heartbeat timestamp, wall
  seconds, sim-cycles/sec, ETA).  Never enters any hash.

Four record kinds::

    pulse_header   written atomically at arm time (seq 0): schema,
                   workload, cadence, horizon, watchdog config
    pulse          one per due sample (det["sample"] counts them);
                   ``pulse_hb`` is the same shape emitted off-cadence
                   purely to keep the heartbeat fresh for readers
                   (det["sample"] is null; excluded from the det hash)
    pulse_stall    the liveness watchdog's edge-triggered no-progress
                   flag (deterministic: derived from det fields only)
    pulse_footer   final summary; ``det.det_hash`` is a rolling SHA-256
                   over every due sample's and stall's det section

Wall-clock capping: ``min_wall_s`` coalesces due-sample *writes* that
land closer together than the cap (the skipped count rides along in
``host.coalesced``), but the deterministic rolling hash is updated at
every due sample regardless, so coalescing never perturbs the footer.

The liveness watchdog
---------------------

:class:`LivenessWatchdog` watches the det stream for *no-progress*
stalls: no committed instruction and no idle-cycle progress across
``no_commit_cycles`` target cycles (the in-model watchdog in
``TimingConfig.watchdog_cycles`` raises; this one classifies and keeps
going -- the fuzz oracle uses it to say *where* a wedged cell stopped).
No-heartbeat detection is the host-side dual: readers compare the last
record's ``host.ts`` against the clock (:func:`classify`).  A stall can
trigger FastWatch time travel via :func:`capture_stall_capsule`.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

PULSE_SCHEMA = 1
PULSE_NAME = "pulse.jsonl"
DEFAULT_PULSE_DIR = os.path.join("results", "pulse")
DEFAULT_INTERVAL_CYCLES = 50_000
DEFAULT_STALL_CYCLES = 250_000
HEARTBEAT_S = 1.0  # off-cadence heartbeat period for live readers
DEFAULT_HEARTBEAT_TIMEOUT = 5.0

HEADER_KIND = "pulse_header"
SAMPLE_KIND = "pulse"
HEARTBEAT_KIND = "pulse_hb"
STALL_KIND = "pulse_stall"
FOOTER_KIND = "pulse_footer"


def _det_line(det: Dict[str, Any]) -> bytes:
    return json.dumps(det, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )


class LivenessWatchdog:
    """Deterministic no-progress stall classification over det samples.

    Progress means either committed instructions or idle cycles
    advanced since the previous due sample (a sleeping machine is
    alive; a machine that neither commits nor idles is wedged).  The
    flag is edge-triggered: one stall record per stall, re-armed the
    moment progress resumes.
    """

    def __init__(
        self,
        no_commit_cycles: int = DEFAULT_STALL_CYCLES,
        on_stall: Optional[Callable[[Dict[str, Any]], None]] = None,
    ):
        self.no_commit_cycles = int(no_commit_cycles)
        self.on_stall = on_stall
        self.stall_count = 0
        self.stalled = False
        self.last_stall: Optional[Dict[str, Any]] = None
        self._progress_mark: Optional[tuple] = None
        self._progress_cycle = 0

    def observe(self, det: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """Feed one due sample's det section; returns the stall det
        record on the stall's leading edge, else ``None``."""
        cycle = int(det["cycle"])
        mark = (det["instructions"], det["idle_cycles"])
        if self._progress_mark is None or mark != self._progress_mark:
            self._progress_mark = mark
            self._progress_cycle = cycle
            self.stalled = False
            return None
        if (
            not self.stalled
            and cycle - self._progress_cycle >= self.no_commit_cycles
        ):
            self.stalled = True
            self.stall_count += 1
            stall = {
                "kind": "no_progress",
                "cycle": cycle,
                "since_cycle": self._progress_cycle,
                "last_commit_cycle": det["last_commit_cycle"],
            }
            self.last_stall = stall
            if self.on_stall is not None:
                self.on_stall(stall)
            return stall
        return None


class PulseEmitter:
    """Sample live progress from the cycle-listener seam.

    Arm *before* ``run()``.  With *path* the sidecar is written (and
    flushed) live; without, records accumulate in memory (the fuzz
    oracle's mode).  The listener registers with an idle hint derived
    from the cadence: idle spans batch up to the next due sample.
    """

    def __init__(
        self,
        tm,
        feed=None,
        path: Optional[str] = None,
        workload: Optional[str] = None,
        interval_cycles: int = DEFAULT_INTERVAL_CYCLES,
        horizon: Optional[int] = None,
        min_wall_s: float = 0.0,
        monitor=None,
        watchdog: Optional[LivenessWatchdog] = None,
    ):
        if interval_cycles < 1:
            raise ValueError("interval_cycles must be >= 1")
        self.tm = tm
        self.feed = feed
        self.path = path
        self.workload = workload
        self.interval_cycles = int(interval_cycles)
        self.horizon = horizon
        self.min_wall_s = float(min_wall_s)
        self.monitor = monitor
        self.watchdog = watchdog
        self._seq = 0
        self._samples = 0
        self._written = 0
        self._coalesced = 0
        self._coalesced_total = 0
        self._peak_tb = 0
        self._peak_rob = 0
        self._next_due = self.interval_cycles
        self._hb_check_cycles = max(1024, self.interval_cycles // 8)
        self._next_hb_check = self._hb_check_cycles
        self._hash = hashlib.sha256()
        self._finalized = False
        self._lines: List[str] = []  # in-memory mode only
        self._fh = None
        # Host timing state (volatile; never hashed).
        self._t0 = time.perf_counter()  # fastlint: ignore[DT002]
        self._last_write_t = 0.0  # perf_counter offset of last write
        self._rate_mark = (0, self._t0)  # (cycle, perf_counter)
        if path is not None:
            parent = os.path.dirname(path)
            if parent:
                os.makedirs(parent, exist_ok=True)
            self._fh = open(path, "w")
        self._write_header()
        tm.add_cycle_listener(self._on_cycle, idle_hint=self._idle_hint)

    # -- the listener seam ----------------------------------------------

    def _idle_hint(self, cycle: int) -> int:
        # Cycles strictly inside (cycle, next_due) are no-ops for the
        # deterministic plane; heartbeat checks in between are forfeited
        # (idle spans complete in negligible host time, so no reader
        # ever sees a stale heartbeat because of fast-forward).
        return max(0, self._next_due - cycle - 1)

    def _on_cycle(self, cycle: int) -> None:
        if cycle < self._next_due:
            if cycle >= self._next_hb_check:
                self._heartbeat_check(cycle)
            return
        self._sample(cycle)

    # -- sampling --------------------------------------------------------

    def _det_snapshot(self, cycle: int) -> Dict[str, Any]:
        tm = self.tm
        be = tm.backend
        instructions = be.committed_instructions
        det: Dict[str, Any] = {
            "cycle": cycle,
            "instructions": instructions,
            "uops": be.committed_uops,
            "idle_cycles": tm.idle_cycles,
            "last_commit_cycle": be.last_commit_cycle,
            "ipc": round(instructions / cycle, 6) if cycle else 0.0,
            "rob_occupancy": len(be.rob),
            "invariants": (
                self.monitor.firings if self.monitor is not None else 0
            ),
        }
        occupancy = getattr(self.feed, "occupancy", None)
        det["tb_occupancy"] = int(occupancy) if occupancy is not None else None
        if self.horizon:
            det["progress"] = round(min(1.0, cycle / self.horizon), 6)
        return det

    def _host_snapshot(self, cycle: int) -> Dict[str, Any]:
        now_pc = time.perf_counter()  # fastlint: ignore[DT002]
        mark_cycle, mark_pc = self._rate_mark
        dt = now_pc - mark_pc
        cps = (cycle - mark_cycle) / dt if dt > 0 else 0.0
        self._rate_mark = (cycle, now_pc)
        host: Dict[str, Any] = {
            "ts": round(time.time(), 3),  # fastlint: ignore[DT002]
            "wall_s": round(now_pc - self._t0, 3),
            "cps": round(cps, 1),
            "coalesced": self._coalesced,
        }
        if self.horizon and cps > 0:
            host["eta_s"] = round(max(0, self.horizon - cycle) / cps, 1)
        return host

    def _sample(self, cycle: int) -> None:
        det = self._det_snapshot(cycle)
        det["sample"] = self._samples
        self._samples += 1
        self._next_due = cycle + self.interval_cycles
        self._next_hb_check = cycle + self._hb_check_cycles
        stall = None
        if self.watchdog is not None:
            stall = self.watchdog.observe(det)
            det["stalls"] = self.watchdog.stall_count
            det["stalled"] = self.watchdog.stalled
        else:
            det["stalls"] = 0
            det["stalled"] = False
        # The rolling deterministic hash covers every *due* sample and
        # every stall edge, written or coalesced -- the byte-identity
        # contract the footer pins.
        self._hash.update(_det_line(det))
        self._hash.update(b"\n")
        if stall is not None:
            self._hash.update(_det_line(stall))
            self._hash.update(b"\n")
        tb = det["tb_occupancy"]
        if tb is not None and tb > self._peak_tb:
            self._peak_tb = tb
        if det["rob_occupancy"] > self._peak_rob:
            self._peak_rob = det["rob_occupancy"]
        if stall is not None:
            ts = round(time.time(), 3)  # fastlint: ignore[DT002]
            self._write_record(STALL_KIND, stall, {"ts": ts})
        now_pc = time.perf_counter()  # fastlint: ignore[DT002]
        if (
            self.min_wall_s > 0
            and stall is None
            and now_pc - self._last_write_t < self.min_wall_s
        ):
            self._coalesced += 1
            self._coalesced_total += 1
            return
        host = self._host_snapshot(cycle)
        self._coalesced = 0
        self._write_record(SAMPLE_KIND, det, host)

    def _heartbeat_check(self, cycle: int) -> None:
        self._next_hb_check = cycle + self._hb_check_cycles
        if self._fh is None:
            return
        now_pc = time.perf_counter()  # fastlint: ignore[DT002]
        if now_pc - self._last_write_t < HEARTBEAT_S:
            return
        # Off-cadence heartbeat: same shape as a pulse record but
        # outside the deterministic stream (sample=null, never hashed).
        det = self._det_snapshot(cycle)
        det["sample"] = None
        det["stalls"] = (
            self.watchdog.stall_count if self.watchdog is not None else 0
        )
        det["stalled"] = (
            self.watchdog.stalled if self.watchdog is not None else False
        )
        self._write_record(HEARTBEAT_KIND, det, self._host_snapshot(cycle))

    # -- record plumbing -------------------------------------------------

    def _write_header(self) -> None:
        det = {
            "schema": PULSE_SCHEMA,
            "workload": self.workload,
            "interval_cycles": self.interval_cycles,
            "horizon": self.horizon,
            "engine": getattr(self.tm.config, "engine", None),
            "watchdog_cycles": (
                self.watchdog.no_commit_cycles
                if self.watchdog is not None
                else None
            ),
        }
        host = {
            "ts": round(time.time(), 3),  # fastlint: ignore[DT002]
            "pid": os.getpid(),
            "min_wall_s": self.min_wall_s,
            "heartbeat_s": HEARTBEAT_S,
        }
        self._write_record(HEADER_KIND, det, host)

    def _write_record(
        self, kind: str, det: Dict[str, Any], host: Dict[str, Any]
    ) -> None:
        record = {"kind": kind, "seq": self._seq, "det": det, "host": host}
        self._seq += 1
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        if self._fh is not None:
            # One write + flush per record: the line (header included)
            # lands atomically for line-oriented tailers.
            self._fh.write(line + "\n")
            self._fh.flush()
        else:
            self._lines.append(line + "\n")
        self._written += 1
        self._last_write_t = time.perf_counter()  # fastlint: ignore[DT002]

    # -- finalization ----------------------------------------------------

    def footer_det(self) -> Dict[str, Any]:
        """The deterministic footer section (current state; stable only
        after :meth:`finalize`)."""
        det = self._det_snapshot(self.tm.cycle)
        det.update(
            {
                "samples": self._samples,
                "stalls": (
                    self.watchdog.stall_count
                    if self.watchdog is not None
                    else 0
                ),
                "peak_tb": self._peak_tb,
                "peak_rob": self._peak_rob,
                "interval_cycles": self.interval_cycles,
                "horizon": self.horizon,
                "det_hash": self._hash.hexdigest(),
            }
        )
        finished = getattr(self.feed, "finished", None)
        if finished is not None:
            det["finished"] = bool(finished)
        return det

    def finalize(self) -> Dict[str, Any]:
        """Write the footer (idempotent) and return its record."""
        if self._finalized:
            return self._footer_record
        self._finalized = True
        det = self.footer_det()
        now_pc = time.perf_counter()  # fastlint: ignore[DT002]
        wall = now_pc - self._t0
        host = {
            "ts": round(time.time(), 3),  # fastlint: ignore[DT002]
            "wall_s": round(wall, 3),
            "cps": round(det["cycle"] / wall, 1) if wall > 0 else 0.0,
            "written": self._written,
            "coalesced": self._coalesced_total,
        }
        self._footer_record = {
            "kind": FOOTER_KIND,
            "seq": self._seq,
            "det": det,
            "host": host,
        }
        self._write_record(FOOTER_KIND, det, host)
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        return self._footer_record

    def summary(self) -> Dict[str, Any]:
        """The footer record (finalizing if needed) -- FastScope's
        ``report()`` embeds this."""
        return self.finalize()

    def sidecar_lines(self) -> Iterator[str]:
        """The full JSONL stream, line by line (file-backed or
        in-memory)."""
        if self.path is None:
            yield from self._lines
            return
        with open(self.path) as fh:
            yield from fh


# -- stall -> FastWatch time travel -----------------------------------------


def capture_stall_capsule(
    factory: Callable[[], object],
    workload: str,
    stall: Dict[str, Any],
    delta: int = 64,
    **kwargs,
):
    """Capture a FastWatch debug capsule around a watchdog stall.

    The re-executed window is centered on the stall's last-progress
    cycle (``since_cycle``): the cycles *entering* the stall are the
    interesting ones, not the arbitrary point where the threshold
    tripped.  Thin wrapper over
    :func:`repro.observability.watch.capture_debug_capsule`.
    """
    from repro.observability.watch import capture_debug_capsule

    return capture_debug_capsule(
        factory,
        workload,
        center=int(stall["since_cycle"]),
        delta=delta,
        **kwargs,
    )


# -- sidecar reading ---------------------------------------------------------


@dataclass
class PulseSidecar:
    """One parsed ``pulse.jsonl`` stream (tolerant of in-flight tails)."""

    path: str
    header: Optional[Dict[str, Any]] = None
    last: Optional[Dict[str, Any]] = None  # last pulse/pulse_hb record
    footer: Optional[Dict[str, Any]] = None
    stalls: List[Dict[str, Any]] = field(default_factory=list)
    samples: int = 0
    records: int = 0

    @property
    def name(self) -> str:
        if self.header is not None:
            workload = self.header.get("det", {}).get("workload")
            if workload:
                return str(workload)
        base = os.path.basename(self.path)
        return base[: -len(".jsonl")] if base.endswith(".jsonl") else base


def iter_records(path: str):
    """Yield parsed records; a truncated (mid-write) final line is
    skipped, never raised -- live tails end mid-record routinely."""
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except ValueError:
                return


def load_sidecar(path: str) -> PulseSidecar:
    sidecar = PulseSidecar(path=path)
    for record in iter_records(path):
        sidecar.records += 1
        kind = record.get("kind")
        if kind == HEADER_KIND:
            sidecar.header = record
        elif kind in (SAMPLE_KIND, HEARTBEAT_KIND):
            sidecar.last = record
            if kind == SAMPLE_KIND:
                sidecar.samples += 1
        elif kind == STALL_KIND:
            sidecar.stalls.append(record)
        elif kind == FOOTER_KIND:
            sidecar.footer = record
    return sidecar


def find_sidecars(paths: List[str]) -> List[str]:
    """Expand files/directories into sorted ``*.jsonl`` sidecar paths
    (a directory contributes every pulse stream directly under it)."""
    out: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for name in sorted(os.listdir(path)):
                if name.endswith(".jsonl"):
                    out.append(os.path.join(path, name))
        elif os.path.exists(path):
            out.append(path)
    return out


STATUS_DONE = "done"
STATUS_LIVE = "live"
STATUS_ARMED = "armed"
STATUS_STALLED = "stalled"
STATUS_NO_HEARTBEAT = "no-heartbeat"


def classify(
    sidecar: PulseSidecar,
    now: Optional[float] = None,
    heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
) -> str:
    """Liveness verdict for one sidecar.

    ``done`` (footer present) > ``stalled`` (watchdog flag set on the
    last sample) > ``no-heartbeat`` (last record's host timestamp is
    older than *heartbeat_timeout* -- the emitting process is wedged or
    gone) > ``live``; ``armed`` means only the header has landed.
    """
    if sidecar.footer is not None:
        return STATUS_DONE
    if sidecar.last is None:
        record = sidecar.header
        if record is None:
            return STATUS_ARMED
    else:
        record = sidecar.last
        if record.get("det", {}).get("stalled"):
            return STATUS_STALLED
    if now is None:
        now = time.time()  # fastlint: ignore[DT002]
    ts = record.get("host", {}).get("ts")
    if ts is not None and now - float(ts) > heartbeat_timeout:
        return STATUS_NO_HEARTBEAT
    return STATUS_LIVE if sidecar.last is not None else STATUS_ARMED


def snapshot(
    sidecar: PulseSidecar,
    now: Optional[float] = None,
    heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
) -> Dict[str, Any]:
    """One flattened status row (``repro top``'s unit of display)."""
    if now is None:
        now = time.time()  # fastlint: ignore[DT002]
    record = sidecar.footer or sidecar.last or sidecar.header or {}
    det = dict(record.get("det", {}))
    host = dict(record.get("host", {}))
    ts = host.get("ts")
    return {
        "run": sidecar.name,
        "path": sidecar.path,
        "status": classify(sidecar, now=now,
                           heartbeat_timeout=heartbeat_timeout),
        "cycle": det.get("cycle", 0),
        "instructions": det.get("instructions", 0),
        "ipc": det.get("ipc", 0.0),
        "cps": host.get("cps", 0.0),
        "tb_occupancy": det.get("tb_occupancy"),
        "rob_occupancy": det.get("rob_occupancy", 0),
        "invariants": det.get("invariants", 0),
        "stalls": det.get("stalls", len(sidecar.stalls)),
        "progress": det.get("progress"),
        "eta_s": host.get("eta_s"),
        "age_s": round(now - float(ts), 1) if ts is not None else None,
        "samples": sidecar.samples,
    }


# -- OpenMetrics export ------------------------------------------------------

# (metric suffix, type, help text, row key)
_OPENMETRICS: List[tuple] = [
    ("cycles", "gauge", "Target cycles simulated", "cycle"),
    ("instructions", "gauge", "Committed instructions", "instructions"),
    ("ipc", "gauge", "Committed instructions per cycle", "ipc"),
    ("sim_cycles_per_second", "gauge",
     "Host-side simulation rate (sim-cycles/sec)", "cps"),
    ("tb_occupancy", "gauge",
     "Uncommitted trace-buffer entries at last sample", "tb_occupancy"),
    ("rob_occupancy", "gauge", "ROB entries at last sample",
     "rob_occupancy"),
    ("invariant_firings", "counter", "FastWatch invariant firings",
     "invariants"),
    ("stalls", "counter", "Liveness-watchdog no-progress stalls",
     "stalls"),
    ("progress_ratio", "gauge", "Fraction of the configured horizon",
     "progress"),
    ("up", "gauge", "1 while the run is live or freshly finished", None),
]

_UP_STATUSES = (STATUS_LIVE, STATUS_DONE, STATUS_ARMED)


def render_openmetrics(
    sidecars: List[PulseSidecar], now: Optional[float] = None
) -> str:
    """The sidecar fleet as OpenMetrics text (scrape-style export)."""
    if now is None:
        now = time.time()  # fastlint: ignore[DT002]
    rows = [snapshot(s, now=now) for s in sidecars]
    lines: List[str] = []
    for suffix, mtype, help_text, key in _OPENMETRICS:
        metric = "fast_pulse_" + suffix
        lines.append("# TYPE %s %s" % (metric, mtype))
        lines.append("# HELP %s %s" % (metric, help_text))
        for row in rows:
            if key is None:
                value: Any = 1 if row["status"] in _UP_STATUSES else 0
            else:
                value = row.get(key)
            if value is None:
                continue
            lines.append(
                '%s{run="%s"} %s' % (metric, row["run"], value)
            )
    lines.append("# EOF")
    return "\n".join(lines) + "\n"
