"""Cross-run regression diagnosis over run artifacts.

Three questions, in escalating severity:

1. **Did performance regress?**  Host metrics (cycles/sec) are compared
   baseline-vs-candidate inside a noise band -- host wall time is the
   one legitimately nondeterministic quantity, so it gets a tolerance.
2. **Did the target diverge?**  ``TimingStats`` are target-deterministic
   by the repo's core invariant, so *any* field mismatch between runs of
   the same configuration is a correctness regression, not noise.
3. **Where did it diverge?**  When two supposedly deterministic runs
   disagree and both carry seam traces, the event streams are bisected
   (binary search over prefix hashes) to the *first* diverging event,
   named with its cycle, originating module and payload diff -- the
   debugging entry point, instead of two multi-megabyte JSONL files.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.observability.flight.analytics import (
    module_for_kind,
    seam_attribution,
)
from repro.observability.flight.artifact import RunArtifact

DEFAULT_NOISE = 0.05

# Host metrics gated by the noise band: (manifest key, higher_is_better).
HOST_METRICS: Tuple[Tuple[str, bool], ...] = (
    ("cycles_per_sec", True),
    ("seconds", False),
)


# -- event-stream bisection -------------------------------------------------


@dataclass
class Divergence:
    """The first point at which two event streams disagree."""

    index: int
    kind: str
    module: str
    cycle_a: Optional[int]
    cycle_b: Optional[int]
    fields: List[str]
    a: Optional[Dict[str, Any]]
    b: Optional[Dict[str, Any]]
    missing_side: Optional[str] = None  # "a" or "b" ran out of events

    def describe(self) -> str:
        if self.missing_side is not None:
            other = "a" if self.missing_side == "b" else "b"
            present = self.a if self.missing_side == "b" else self.b
            return (
                "streams identical through record %d, then side %s ends; "
                "side %s continues with %s@cycle=%s (%s)"
                % (
                    self.index,
                    self.missing_side,
                    other,
                    self.kind,
                    (present or {}).get("cycle"),
                    self.module,
                )
            )
        parts = []
        for name in self.fields:
            parts.append(
                "%s: %r -> %r"
                % (name, (self.a or {}).get(name), (self.b or {}).get(name))
            )
        return (
            "first divergence at record %d (module %s, kind %s, "
            "cycle %s vs %s): %s"
            % (
                self.index,
                self.module,
                self.kind,
                self.cycle_a,
                self.cycle_b,
                "; ".join(parts) or "records differ",
            )
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "kind": self.kind,
            "module": self.module,
            "cycle_a": self.cycle_a,
            "cycle_b": self.cycle_b,
            "fields": list(self.fields),
            "a": self.a,
            "b": self.b,
            "missing_side": self.missing_side,
        }


def _canonical_records(events: List[Dict[str, Any]]) -> List[str]:
    return [
        json.dumps(event, sort_keys=True, separators=(",", ":"))
        for event in events
    ]


def _prefix_hashes(records: List[str]) -> List[bytes]:
    """``hashes[i]`` = digest of records[:i]; O(n) precompute enabling
    O(log n) prefix-equality probes during the bisection."""
    digests = [b""]
    rolling = hashlib.sha256()
    for record in records:
        rolling.update(record.encode("utf-8"))
        rolling.update(b"\n")
        digests.append(rolling.digest())
    return digests


def _divergence_at(index: int, a: List[Dict[str, Any]],
                   b: List[Dict[str, Any]]) -> Divergence:
    rec_a = a[index] if index < len(a) else None
    rec_b = b[index] if index < len(b) else None
    if rec_a is None or rec_b is None:
        present = rec_b if rec_a is None else rec_a
        kind = str((present or {}).get("kind", ""))
        return Divergence(
            index=index,
            kind=kind,
            module=module_for_kind(kind),
            cycle_a=(rec_a or {}).get("cycle"),
            cycle_b=(rec_b or {}).get("cycle"),
            fields=[],
            a=rec_a,
            b=rec_b,
            missing_side="a" if rec_a is None else "b",
        )
    names = sorted(set(rec_a) | set(rec_b))
    fields = [
        name for name in names if rec_a.get(name) != rec_b.get(name)
    ]
    kind = str(rec_a.get("kind", rec_b.get("kind", "")))
    return Divergence(
        index=index,
        kind=kind,
        module=module_for_kind(kind),
        cycle_a=rec_a.get("cycle"),
        cycle_b=rec_b.get("cycle"),
        fields=fields,
        a=rec_a,
        b=rec_b,
    )


def bisect_divergence(
    events_a: List[Dict[str, Any]], events_b: List[Dict[str, Any]]
) -> Optional[Divergence]:
    """Binary-search two event streams for their first diverging record.

    Prefix hashes are computed once per stream (O(n)), then the longest
    common prefix is found with O(log n) equality probes -- the stream
    analogue of bisecting commits.  Returns ``None`` when the streams
    are identical, a :class:`Divergence` naming the cycle, module and
    payload delta otherwise.
    """
    rec_a = _canonical_records(events_a)
    rec_b = _canonical_records(events_b)
    common = min(len(rec_a), len(rec_b))
    hash_a = _prefix_hashes(rec_a)
    hash_b = _prefix_hashes(rec_b)
    if hash_a[common] == hash_b[common]:
        if len(rec_a) == len(rec_b):
            return None
        return _divergence_at(common, events_a, events_b)
    lo, hi = 0, common  # invariant: prefix[:lo] equal, prefix[:hi] not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if hash_a[mid] == hash_b[mid]:
            lo = mid
        else:
            hi = mid
    return _divergence_at(lo, events_a, events_b)


# -- cross-run comparison ---------------------------------------------------


@dataclass
class MetricDelta:
    metric: str
    baseline: float
    candidate: float
    ratio: float
    regressed: bool

    def to_dict(self) -> Dict[str, Any]:
        return {
            "metric": self.metric,
            "baseline": self.baseline,
            "candidate": self.candidate,
            "ratio": round(self.ratio, 4),
            "regressed": self.regressed,
        }


@dataclass
class StatMismatch:
    name: str
    baseline: Any
    candidate: Any

    def to_dict(self) -> Dict[str, Any]:
        return {
            "stat": self.name,
            "baseline": self.baseline,
            "candidate": self.candidate,
        }


@dataclass
class RegressionReport:
    baseline_id: str
    candidate_id: str
    noise: float
    metrics: List[MetricDelta] = field(default_factory=list)
    mismatches: List[StatMismatch] = field(default_factory=list)
    divergence: Optional[Divergence] = None
    trace_records: Optional[int] = None  # compared records when clean
    notes: List[str] = field(default_factory=list)

    @property
    def perf_regressed(self) -> bool:
        return any(m.regressed for m in self.metrics)

    @property
    def failed(self) -> bool:
        return self.perf_regressed or bool(self.mismatches)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "baseline": self.baseline_id,
            "candidate": self.candidate_id,
            "noise": self.noise,
            "metrics": [m.to_dict() for m in self.metrics],
            "stat_mismatches": [m.to_dict() for m in self.mismatches],
            "divergence": self.divergence.to_dict()
            if self.divergence is not None
            else None,
            "trace_records": self.trace_records,
            "notes": list(self.notes),
            "failed": self.failed,
        }


def _metric_delta(metric: str, baseline: float, candidate: float,
                  higher_is_better: bool, noise: float) -> MetricDelta:
    ratio = candidate / baseline if baseline else 0.0
    if higher_is_better:
        regressed = bool(baseline) and ratio < (1.0 - noise)
    else:
        regressed = bool(baseline) and ratio > (1.0 + noise)
    return MetricDelta(
        metric=metric,
        baseline=baseline,
        candidate=candidate,
        ratio=ratio,
        regressed=regressed,
    )


def _compare_timing(base: Dict[str, Any], cand: Dict[str, Any],
                    prefix: str = "timing.") -> List[StatMismatch]:
    out = []
    for name in sorted(set(base) | set(cand)):
        if base.get(name) != cand.get(name):
            out.append(
                StatMismatch(prefix + name, base.get(name), cand.get(name))
            )
    return out


def _compare_pulse(baseline: RunArtifact, candidate: RunArtifact,
                   report: "RegressionReport", noise: float) -> None:
    """When both artifacts adopted a FastPulse sidecar, gate the final
    telemetry rate inside the host-metric noise band and exact-compare
    the deterministic footer (only when the cadences match -- a
    different sampling interval legitimately changes the det stream)."""
    pulse_a = baseline.pulse_summary()
    pulse_b = candidate.pulse_summary()
    if pulse_a is None or pulse_b is None:
        return
    det_a = pulse_a.get("det", {})
    det_b = pulse_b.get("det", {})
    cps_a = pulse_a.get("host", {}).get("cps")
    cps_b = pulse_b.get("host", {}).get("cps")
    if cps_a and cps_b:
        report.metrics.append(
            _metric_delta("pulse.cps", float(cps_a), float(cps_b),
                          True, noise)
        )
    same_cadence = (
        det_a.get("interval_cycles") == det_b.get("interval_cycles")
        and det_a.get("horizon") == det_b.get("horizon")
    )
    if not same_cadence:
        report.notes.append(
            "pulse cadences differ; deterministic telemetry not compared"
        )
        return
    for field in ("samples", "stalls", "det_hash"):
        if det_a.get(field) != det_b.get(field):
            report.mismatches.append(
                StatMismatch("pulse." + field,
                             det_a.get(field), det_b.get(field))
            )


def compare_runs(
    baseline: RunArtifact,
    candidate: RunArtifact,
    noise: float = DEFAULT_NOISE,
) -> RegressionReport:
    """Diff two run artifacts: host metrics inside the noise band,
    TimingStats exactly, event streams bisected on mismatch."""
    report = RegressionReport(
        baseline_id=baseline.run_id,
        candidate_id=candidate.run_id,
        noise=noise,
    )
    if baseline.workload != candidate.workload:
        report.notes.append(
            "comparing different workloads (%s vs %s): stat mismatches "
            "are expected" % (baseline.workload, candidate.workload)
        )
    host_a, host_b = baseline.host, candidate.host
    for metric, higher_is_better in HOST_METRICS:
        if metric in host_a and metric in host_b:
            report.metrics.append(
                _metric_delta(
                    metric,
                    float(host_a[metric]),
                    float(host_b[metric]),
                    higher_is_better,
                    noise,
                )
            )
    if not report.metrics:
        report.notes.append("no shared host metrics; perf gate skipped")

    report.mismatches = _compare_timing(baseline.timing(), candidate.timing())
    _compare_pulse(baseline, candidate, report, noise)
    if baseline.content_hash and candidate.content_hash:
        if baseline.content_hash == candidate.content_hash:
            report.notes.append(
                "content hashes identical (%s)" % baseline.content_hash[:12]
            )

    if baseline.has_trace() and candidate.has_trace():
        events_a = baseline.events()
        events_b = candidate.events()
        report.divergence = bisect_divergence(events_a, events_b)
        if report.divergence is None:
            report.trace_records = len(events_a)
    elif report.mismatches:
        report.notes.append(
            "no seam traces on both sides; cannot bisect the divergence"
        )
    return report


def render_report(report: RegressionReport,
                  attribution: Optional[RunArtifact] = None) -> str:
    """Human-readable regression report (the CLI's main output)."""
    lines = [
        "FastFlight regression report: %s (baseline) vs %s (candidate)"
        % (report.baseline_id, report.candidate_id),
        "noise band: +/-%.0f%% on host metrics; target stats exact"
        % (100 * report.noise),
        "",
    ]
    if report.metrics:
        lines.append(
            "%-24s %14s %14s %8s  %s"
            % ("host metric", "baseline", "candidate", "ratio", "verdict")
        )
        for m in report.metrics:
            lines.append(
                "%-24s %14.1f %14.1f %7.3fx  %s"
                % (
                    m.metric,
                    m.baseline,
                    m.candidate,
                    m.ratio,
                    "REGRESSED" if m.regressed else "ok",
                )
            )
    if report.mismatches:
        lines.append("")
        lines.append("TimingStats mismatches (%d):" % len(report.mismatches))
        for mm in report.mismatches:
            lines.append(
                "  %-28s baseline=%r candidate=%r"
                % (mm.name, mm.baseline, mm.candidate)
            )
    else:
        lines.append("")
        lines.append("TimingStats: identical")
    if report.divergence is not None:
        lines.append("")
        lines.append("event-stream bisection: " + report.divergence.describe())
    elif report.trace_records is not None:
        lines.append("")
        lines.append(
            "event streams identical (%d records compared)"
            % report.trace_records
        )
    if attribution is not None:
        from repro.observability.flight.analytics import render_attribution

        lines.append("")
        lines.append(
            render_attribution(
                seam_attribution(attribution),
                title="seam-cost attribution (candidate %s)"
                % attribution.run_id,
            )
        )
    for note in report.notes:
        lines.append("")
        lines.append("note: " + note)
    lines.append("")
    lines.append("RESULT: %s" % ("REGRESSION" if report.failed else "OK"))
    return "\n".join(lines)
