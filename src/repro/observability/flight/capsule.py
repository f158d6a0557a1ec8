"""Debug capsules: content-addressed time-travel captures.

A capsule is a new FastFlight artifact kind: the maximum-detail record
of one re-executed window ``[C-delta, C+delta]`` around a cycle of
interest -- an invariant violation, an armed watchpoint, or the first-
diverging event of a regression bisection.  It is the second entry
kind of the run-artifact store under ``results/runs/<id>/``, which
writes, hashes, names, resolves, lists and verifies both
(:mod:`repro.observability.flight.artifact`)::

    manifest.json   identity, file hashes, volatile host section
                    (engine, wall seconds) kept outside the hash
    capsule.json    window summary, violation record, baseline stats
    window.jsonl    one per-tick capture row per line
    events.jsonl    the window's seam events (unbounded tracer)
    profile.json    TickProfiler rows        (compiled engine only)

Content addressing follows the run-artifact contract: the hash covers
the *target-deterministic* payload (capsule.json, window.jsonl,
events.jsonl) plus the identity fields.  The identity deliberately
excludes the tick engine and the profile -- both engines visit
bit-identical per-cycle state, so a same-seed capture under ``legacy``
and ``compiled`` produces byte-identical hashed payloads and therefore
the same content hash.  That property is pinned by tests and is what
makes a capsule a trustworthy record rather than a screenshot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional

from repro.observability.events import jsonl_chunks
from repro.observability.flight.artifact import (
    DEFAULT_ROOT,
    PROFILE_NAME,
    StoreEntry,
    StoreKind,
    _slug,
    entry_manifest,
    json_chunks,
    list_entries,
    load_entry,
    verify_entry,
    write_entry,
)

CAPSULE_SCHEMA_VERSION = 1
CAPSULE_KIND = "capsule"
CAPSULE_PREFIX = "capsule"

CAPSULE_NAME = "capsule.json"
WINDOW_NAME = "window.jsonl"
EVENTS_NAME = "events.jsonl"

# Payload files whose bytes enter the content hash.  profile.json is
# host wall-time and engine-specific; it rides along unhashed.
CAPSULE_HASHED_FILES = (CAPSULE_NAME, WINDOW_NAME, EVENTS_NAME)

CAPSULE_STORE = StoreKind(
    kind=CAPSULE_KIND,
    identity=("schema", "kind", "label", "workload", "window", "violation"),
    hashed_files=CAPSULE_HASHED_FILES,
    noun="capsule",
    list_hint="python -m repro debug list",
)


@dataclass
class CapsuleArtifact(StoreEntry):
    """One loaded capsule directory."""

    @property
    def capsule_id(self) -> str:
        return self.run_id

    @property
    def label(self) -> str:
        return str(self.manifest.get("label", ""))

    @property
    def reason(self) -> str:
        return str(self.manifest.get("reason", ""))

    @property
    def window(self) -> Dict[str, Any]:
        return dict(self.manifest.get("window", {}))

    @property
    def violation(self) -> Optional[Dict[str, Any]]:
        return self.manifest.get("violation")

    @property
    def violation_cycle(self) -> Optional[int]:
        violation = self.violation
        return None if violation is None else violation.get("cycle")

    @property
    def source_run(self) -> Optional[str]:
        return self.manifest.get("source_run")

    def contains_cycle(self, cycle: int) -> bool:
        window = self.window
        start, end = window.get("start"), window.get("end")
        if start is None or end is None:
            return False
        return start <= cycle <= end

    def payload(self) -> Dict[str, Any]:
        return self._read_json(CAPSULE_NAME) or {}

    def rows(self) -> List[Dict[str, Any]]:
        """The per-tick capture rows, in cycle order."""
        return self._records(WINDOW_NAME)

    def events(self) -> List[Dict[str, Any]]:
        return self._records(EVENTS_NAME)


def emit_capsule(
    capture,
    label: str,
    workload: Optional[str] = None,
    reason: str = "",
    violation: Optional[Dict[str, Any]] = None,
    source_run: Optional[str] = None,
    host: Optional[Dict[str, Any]] = None,
    root: str = DEFAULT_ROOT,
) -> CapsuleArtifact:
    """Write one debug capsule from a
    :class:`~repro.functional.replay.WindowCapture` and return it
    loaded.

    *violation* is the triggering :class:`Violation` as a dict (or None
    for watchpoint/explicit-cycle captures); *source_run* optionally
    links the run artifact whose cycle numbering the window used.
    """
    window = capture.summary()
    payload: Dict[str, Any] = {
        "schema": CAPSULE_SCHEMA_VERSION,
        "kind": CAPSULE_KIND,
        "label": label,
        "workload": workload,
        "reason": reason,
        "violation": violation,
        "window": window,
        "baseline": dict(sorted(capture.baseline.items())),
    }
    files: Dict[str, Iterable[str]] = {
        CAPSULE_NAME: json_chunks(payload),
        WINDOW_NAME: jsonl_chunks(capture.rows),
        EVENTS_NAME: jsonl_chunks(capture.events),
    }
    if capture.profile is not None:
        files[PROFILE_NAME] = json_chunks(capture.profile)

    identity: Dict[str, Any] = {
        "schema": CAPSULE_SCHEMA_VERSION,
        "kind": CAPSULE_KIND,
        "label": label,
        "workload": workload,
        "window": window,
        "violation": violation,
    }
    path, manifest = write_entry(
        CAPSULE_STORE,
        "%s-%s" % (CAPSULE_PREFIX, _slug(label)),
        identity,
        files,
        root,
        reason=reason,
        source_run=source_run,
        host=dict(host or {}, engine=capture.engine),
    )
    return CapsuleArtifact(path=path, manifest=manifest)


def is_capsule_dir(path: str) -> bool:
    return entry_manifest(CAPSULE_STORE, path) is not None


def list_capsules(root: str = DEFAULT_ROOT) -> List[str]:
    """Capsule ids under *root*, sorted."""
    return list_entries(CAPSULE_STORE, root)


def load_capsule(ref: str, root: str = DEFAULT_ROOT) -> CapsuleArtifact:
    """Load a capsule by directory path, id, or unique id prefix."""
    path, manifest = load_entry(CAPSULE_STORE, ref, root)
    return CapsuleArtifact(path=path, manifest=manifest)


def find_capsules(
    root: str = DEFAULT_ROOT,
    workload: Optional[str] = None,
    containing_cycle: Optional[int] = None,
    source_run: Optional[str] = None,
) -> List[CapsuleArtifact]:
    """Capsules matching every given filter (None filters match all)."""
    out = []
    for capsule_id in list_capsules(root):
        capsule = load_capsule(capsule_id, root)
        if workload is not None and capsule.workload != workload:
            continue
        if containing_cycle is not None and not capsule.contains_cycle(
            containing_cycle
        ):
            continue
        if source_run is not None and capsule.source_run != source_run:
            continue
        out.append(capsule)
    return out


def verify_capsule(capsule: CapsuleArtifact) -> List[str]:
    """Re-hash payload files against the manifest; returns problems
    (empty == intact)."""
    return verify_entry(CAPSULE_STORE, capsule)


# -- capsule diffing -------------------------------------------------------

# Scalar per-tick row fields compared cycle-by-cycle, in report order.
ROW_FIELDS = (
    "pc", "in_count", "halted", "flags", "regs", "fregs_digest",
    "srs_digest", "rob", "rs", "lsq", "tb", "buffered", "committed",
    "checkpoints", "stats",
)


def diff_capsules(
    a: CapsuleArtifact,
    b: CapsuleArtifact,
    max_diffs: int = 64,
) -> Dict[str, Any]:
    """Cycle-by-cycle field diff of two capsules.

    Rows are aligned by target cycle; the first differing (cycle,
    field) pair is the first divergence.  Two capsules of the same
    same-seed run diff clean by construction -- anything else is the
    exact point two 'identical' histories stopped agreeing.
    """
    rows_a = {row["cycle"]: row for row in a.rows()}
    rows_b = {row["cycle"]: row for row in b.rows()}
    shared = sorted(set(rows_a) & set(rows_b))
    only_a = sorted(set(rows_a) - set(rows_b))
    only_b = sorted(set(rows_b) - set(rows_a))

    diffs: List[Dict[str, Any]] = []
    truncated = False
    for cycle in shared:
        row_a, row_b = rows_a[cycle], rows_b[cycle]
        for fld in ROW_FIELDS:
            va, vb = row_a.get(fld), row_b.get(fld)
            if va != vb:
                if len(diffs) < max_diffs:
                    diffs.append(
                        {"cycle": cycle, "field": fld, "a": va, "b": vb}
                    )
                else:
                    truncated = True
    first = diffs[0] if diffs else None
    identical = (
        not diffs and not only_a and not only_b
        and a.content_hash == b.content_hash
    )
    return {
        "identical": identical,
        "content_hash_match": a.content_hash == b.content_hash,
        "first_divergence": first,
        "diffs": diffs,
        "diffs_truncated": truncated,
        "cycles_only_a": only_a,
        "cycles_only_b": only_b,
    }
