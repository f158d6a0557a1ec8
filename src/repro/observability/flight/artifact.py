"""RunArtifact: the persistent, content-addressed record of one run.

Every run worth analyzing later -- a ``run_fast_workload`` call, a
fig/table experiment, a FastBench process -- writes one
directory under ``results/runs/<id>/``::

    manifest.json   identity (experiment, workload, config), file hashes,
                    and the *volatile* host section (wall seconds,
                    cycles/sec) kept outside the content hash
    stats.json      final TimingStats / FunctionalStats / ProtocolStats
    windows.json    StatsFabric window series        (scoped runs only)
    trace.jsonl     seam event ring + summary footer (scoped runs only)
    profile.json    TickProfiler samples             (profiled runs only)
    pulse.jsonl     FastPulse live-telemetry sidecar (pulse-armed runs)
    output.txt      rendered experiment text         (experiments only)

Content addressing is the determinism contract made durable: the id is
a hash over the *target-deterministic* payload (stats, windows, trace,
output) plus the identity fields, so two same-seed runs produce
artifacts with the same content hash, and a hash mismatch between two
"identical" runs is itself a regression signal.  Host wall-time lives
only in the manifest's ``host`` section and never enters the hash.

``pulse.jsonl`` interleaves heartbeat timestamps with deterministic
progress samples, so -- like ``profile.json`` -- its bytes stay outside
the content hash; the *deterministic footer* of the stream (sample
count, rolling det hash, stall count) is folded into the hashed
identity as ``extra["pulse_footer"]`` instead, making live-telemetry
divergence between two same-seed runs a content-hash mismatch.

This module owns the store once: payload and manifest writing, the
content hash, ``<prefix>-<hash12>[.N]`` ids, lookup, listing and
re-hash verification, parameterised by a :class:`StoreKind`.  Debug
capsules (:mod:`repro.observability.flight.capsule`) are the second
kind in the same store; their manifests say ``"kind": "capsule"`` and
run-artifact lookups skip them.

Nothing here reads a clock: artifacts carry no timestamps (content
addressing makes them unnecessary, and the determinism lint would
rightly object).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import shutil
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.observability.events import jsonl_chunks

SCHEMA_VERSION = 1
DEFAULT_ROOT = os.path.join("results", "runs")

MANIFEST_NAME = "manifest.json"
STATS_NAME = "stats.json"
WINDOWS_NAME = "windows.json"
TRACE_NAME = "trace.jsonl"
PROFILE_NAME = "profile.json"
PULSE_NAME = "pulse.jsonl"
OUTPUT_NAME = "output.txt"

# Payload files whose bytes enter the content hash.  profile.json and
# pulse.jsonl carry host-wall-time samples and are deliberately
# excluded, like the manifest's host section (pulse determinism enters
# the hash through extra["pulse_footer"] instead).
HASHED_FILES = (STATS_NAME, WINDOWS_NAME, TRACE_NAME, OUTPUT_NAME)

TRACE_FOOTER_KIND = "trace_summary"
PULSE_FOOTER_KIND = "pulse_footer"


# Characters per text chunk when a store file is streamed.
CHUNK_CHARS = 1 << 16

_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(obj: Any) -> str:
    """Sorted-key, compact, newline-terminated JSON -- the byte-stable
    encoding every hashed artifact file uses."""
    return _ENCODER.encode(obj) + "\n"


def json_chunks(obj: Any) -> Iterator[str]:
    """:func:`canonical_json` of *obj* as text chunks of about
    :data:`CHUNK_CHARS` characters, encoded incrementally."""
    pending: List[str] = []
    size = 0
    for piece in _ENCODER.iterencode(obj):
        pending.append(piece)
        size += len(piece)
        if size >= CHUNK_CHARS:
            yield "".join(pending)
            pending, size = [], 0
    pending.append("\n")
    yield "".join(pending)


def file_chunks(path: str) -> Iterator[str]:
    """The text of *path* in chunks of at most :data:`CHUNK_CHARS`."""
    with open(path) as fh:
        yield from iter(lambda: fh.read(CHUNK_CHARS), "")


def footer_record(chunks: Iterable[str],
                  kind: str) -> Optional[Dict[str, Any]]:
    """The last record of a JSONL stream given as text *chunks* when it
    is a *kind* record (the stream's footer); None for no records, an
    unparsable last line (a stream cut off mid-write) or another kind.
    Only the last line is kept in memory."""
    tail = ""
    for chunk in chunks:
        text = tail + chunk
        tail = text[text.rstrip().rfind("\n") + 1:]
    if not tail.strip():
        return None
    try:
        record = json.loads(tail)
    except ValueError:
        return None
    return record if record.get("kind") == kind else None


def _plain(obj: Any) -> Any:
    """Dataclasses (TimingStats & friends) to plain dicts, recursively."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return dataclasses.asdict(obj)
    return obj


def _slug(text: str) -> str:
    out = []
    for ch in text:
        out.append(ch if (ch.isalnum() or ch in "._-") else "-")
    return "".join(out) or "run"


class ArtifactError(ValueError):
    """A malformed, missing or ambiguous artifact reference."""


# -- the store -------------------------------------------------------------


@dataclass(frozen=True)
class StoreKind:
    """What one kind of store entry hashes and how lookups name it.

    *kind* is the manifest's ``kind`` field (None: absent, as in run
    artifacts); the content hash covers the *identity* manifest keys
    plus the hashes of the *hashed_files* present; *noun* and
    *list_hint* fill the lookup error texts."""

    kind: Optional[str]
    identity: Tuple[str, ...]
    hashed_files: Tuple[str, ...]
    noun: str
    list_hint: str


RUN_KIND = StoreKind(
    kind=None,
    identity=("schema", "experiment", "workload", "config", "extra"),
    hashed_files=HASHED_FILES,
    noun="artifact",
    list_hint="python -m repro report --list",
)


def _sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _write_chunks(path: str, chunks: Iterable[str]) -> str:
    """Write *chunks* to *path* as UTF-8; returns the SHA-256 of the
    bytes, updated chunk by chunk."""
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for chunk in chunks:
            data = chunk.encode("utf-8")
            digest.update(data)
            fh.write(data)
    return digest.hexdigest()


def _content_hash(identity: Dict[str, Any],
                  file_hashes: Dict[str, str]) -> str:
    body = dict(identity)
    body["files"] = dict(sorted(file_hashes.items()))
    return _sha256_text(canonical_json(body))


def write_entry(
    store: StoreKind,
    prefix: str,
    identity: Dict[str, Any],
    files: Dict[str, Iterable[str]],
    root: str,
    **unhashed: Any,
) -> Tuple[str, Dict[str, Any]]:
    """Write *files* (name -> text chunks) and the manifest as a new
    entry ``<prefix>-<hash12>`` under *root*; returns ``(path,
    manifest)``.  *unhashed* manifest fields (the volatile ``host``
    section, capsule back-links) ride along outside the content hash.

    No file is held whole: each streams into a staging directory under
    *root* with its hash updated chunk by chunk, and the directory is
    renamed to its content-addressed id once the hash is known.  The
    manifest is written last, so a store reader never lists a
    half-written entry."""
    staging = os.path.join(root, ".staging-" + os.urandom(8).hex())
    os.makedirs(staging)
    try:
        file_hashes = {}
        for name, chunks in files.items():
            digest = _write_chunks(os.path.join(staging, name), chunks)
            if name in store.hashed_files:
                file_hashes[name] = digest
        content_hash = _content_hash(identity, file_hashes)
        base_id = "%s-%s" % (prefix, content_hash[:12])
        entry_id = base_id
        serial = 1
        while os.path.exists(os.path.join(root, entry_id)):
            # Same-content re-runs are kept side by side (the "two
            # same-seed artifacts diff clean" workflow needs both).
            serial += 1
            entry_id = "%s.%d" % (base_id, serial)
        path = os.path.join(root, entry_id)
        os.rename(staging, path)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise

    manifest: Dict[str, Any] = dict(identity, **unhashed)
    manifest["run_id"] = entry_id
    manifest["content_hash"] = content_hash
    manifest["files"] = {
        name: file_hashes.get(name, "") for name in sorted(files)
    }
    with open(os.path.join(path, MANIFEST_NAME), "w") as fh:
        fh.write(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return path, manifest


def entry_manifest(store: StoreKind, path: str) -> Optional[Dict[str, Any]]:
    """*path*'s manifest when it is an entry of *store*'s kind."""
    try:
        with open(os.path.join(path, MANIFEST_NAME)) as fh:
            manifest = json.load(fh)
    except (OSError, ValueError):
        return None
    return manifest if manifest.get("kind") == store.kind else None


def list_entries(store: StoreKind, root: str) -> List[str]:
    """Ids of *store*'s kind under *root*, sorted (ids are
    content-based, so name order is stable)."""
    if not os.path.isdir(root):
        return []
    return sorted(
        name
        for name in os.listdir(root)
        if entry_manifest(store, os.path.join(root, name)) is not None
    )


def load_entry(store: StoreKind, ref: str,
               root: str) -> Tuple[str, Dict[str, Any]]:
    """Resolve *ref* -- an entry directory, an id, or a unique id
    prefix -- to ``(path, manifest)``."""
    for path in (ref, os.path.join(root, ref)):
        manifest = entry_manifest(store, path)
        if manifest is not None:
            return path, manifest
    matches = [
        entry_id for entry_id in list_entries(store, root)
        if entry_id.startswith(ref)
    ]
    if len(matches) > 1:
        raise ArtifactError(
            "ambiguous %s %r: matches %s" % (store.noun, ref, matches)
        )
    if not matches:
        raise ArtifactError(
            "no %s %r under %s (try '%s')"
            % (store.noun, ref, root, store.list_hint)
        )
    path = os.path.join(root, matches[0])
    return path, entry_manifest(store, path) or {}


def verify_entry(store: StoreKind, entry: "StoreEntry") -> List[str]:
    """Re-hash the payload files against the manifest; returns a list of
    human-readable integrity problems (empty == intact)."""
    problems = []
    recorded = entry.manifest.get("files", {})
    for name, want in sorted(recorded.items()):
        path = os.path.join(entry.path, name)
        if not os.path.exists(path):
            problems.append("missing payload file %s" % name)
            continue
        if name not in store.hashed_files or not want:
            continue
        digest = hashlib.sha256()
        for chunk in file_chunks(path):
            digest.update(chunk.encode("utf-8"))
        got = digest.hexdigest()
        if got != want:
            problems.append(
                "hash mismatch on %s: manifest %s.., file %s.."
                % (name, want[:12], got[:12])
            )
    identity = {key: entry.manifest.get(key) for key in store.identity}
    hashes = {
        name: value
        for name, value in recorded.items()
        if name in store.hashed_files and value
    }
    if _content_hash(identity, hashes) != entry.content_hash:
        problems.append("content hash does not match manifest identity")
    return problems


@dataclass
class StoreEntry:
    """One loaded store directory: its path and parsed manifest."""

    path: str
    manifest: Dict[str, Any]

    @property
    def run_id(self) -> str:
        return str(self.manifest.get("run_id", os.path.basename(self.path)))

    @property
    def content_hash(self) -> str:
        return str(self.manifest.get("content_hash", ""))

    @property
    def workload(self) -> Optional[str]:
        return self.manifest.get("workload")

    @property
    def host(self) -> Dict[str, Any]:
        return dict(self.manifest.get("host", {}))

    def _file(self, name: str) -> Optional[str]:
        path = os.path.join(self.path, name)
        return path if os.path.exists(path) else None

    def _read(self, name: str) -> Optional[str]:
        path = self._file(name)
        if path is None:
            return None
        with open(path) as fh:
            return fh.read()

    def _chunks(self, name: str) -> Iterator[str]:
        path = self._file(name)
        return file_chunks(path) if path is not None else iter(())

    def _read_json(self, name: str) -> Optional[Dict[str, Any]]:
        text = self._read(name)
        return json.loads(text) if text else None

    def _records(self, name: str) -> List[Dict[str, Any]]:
        """The parsed records of a JSONL payload file."""
        text = self._read(name) or ""
        return [json.loads(line) for line in text.splitlines()
                if line.strip()]

    def profile(self) -> Optional[Dict[str, Any]]:
        return self._read_json(PROFILE_NAME)


# -- run artifacts ---------------------------------------------------------


@dataclass
class RunArtifact(StoreEntry):
    """One loaded ``results/runs/<id>/`` directory."""

    _stats: Optional[Dict[str, Any]] = field(default=None, repr=False)

    @property
    def experiment(self) -> str:
        return str(self.manifest.get("experiment", ""))

    @property
    def config(self) -> Dict[str, Any]:
        return dict(self.manifest.get("config", {}))

    def stats(self) -> Dict[str, Any]:
        if self._stats is None:
            self._stats = self._read_json(STATS_NAME) or {}
        return self._stats

    def timing(self) -> Dict[str, Any]:
        """The final TimingStats snapshot as a plain dict."""
        return dict(self.stats().get("timing", {}))

    def windows(self) -> Optional[Dict[str, Any]]:
        return self._read_json(WINDOWS_NAME)

    def output(self) -> Optional[str]:
        return self._read(OUTPUT_NAME)

    def events(self) -> List[Dict[str, Any]]:
        """Parsed seam-event records (the summary footer excluded)."""
        return [
            record for record in self._records(TRACE_NAME)
            if record.get("kind") != TRACE_FOOTER_KIND
        ]

    def trace_summary(self) -> Optional[Dict[str, Any]]:
        """The whole-run trace footer (recorded/dropped/per-kind totals),
        if the artifact carries a trace."""
        return footer_record(self._chunks(TRACE_NAME), TRACE_FOOTER_KIND)

    def has_trace(self) -> bool:
        return self._file(TRACE_NAME) is not None

    def has_pulse(self) -> bool:
        return self._file(PULSE_NAME) is not None

    def pulse_summary(self) -> Optional[Dict[str, Any]]:
        """The FastPulse footer record (``det`` + ``host`` sections)
        when the artifact adopted a live-telemetry sidecar; falls back
        to the hashed ``extra["pulse_footer"]`` identity copy."""
        record = footer_record(self._chunks(PULSE_NAME), PULSE_FOOTER_KIND)
        if record is not None:
            return record
        footer = self.manifest.get("extra", {}).get("pulse_footer")
        if footer:
            return {"kind": PULSE_FOOTER_KIND, "det": footer, "host": {}}
        return None


def _pulse_footer(chunks: Iterable[str]) -> Optional[Dict[str, Any]]:
    """The deterministic footer section of a pulse sidecar's text, or
    None when the stream never finalized (crash mid-run)."""
    record = footer_record(chunks, PULSE_FOOTER_KIND)
    det = record.get("det") if record is not None else None
    return det if isinstance(det, dict) else None


def emit_artifact(
    experiment: str,
    workload: Optional[str] = None,
    config: Optional[Dict[str, Any]] = None,
    result: Any = None,
    timing: Any = None,
    scope: Any = None,
    host: Optional[Dict[str, Any]] = None,
    output: Optional[str] = None,
    extra: Optional[Dict[str, Any]] = None,
    pulse: Any = None,
    root: str = DEFAULT_ROOT,
) -> RunArtifact:
    """Write one run artifact directory and return it loaded.

    *result* is a :class:`~repro.fast.simulator.SimulationResult` (or
    anything with ``timing``/``functional``/``protocol`` attributes);
    *timing* alone is accepted for stats-only artifacts.  *scope* is a
    :class:`~repro.observability.scope.FastScope`, contributing the
    window series, the seam trace (with summary footer) and, when the
    profiler ran, the tick profile.  *host* is the volatile section
    (wall seconds, cycles/sec) -- recorded, never hashed.

    *pulse* adopts a FastPulse sidecar: either a live
    :class:`~repro.observability.pulse.PulseEmitter` (finalized here) or
    a path to an existing ``pulse.jsonl``.  The sidecar bytes land
    unhashed (they interleave host timestamps); the deterministic footer
    is folded into ``extra["pulse_footer"]`` so it enters the content
    hash.
    """
    files: Dict[str, Iterable[str]] = {}  # name -> file text chunks
    stats: Dict[str, Any] = {}
    if result is not None:
        stats["timing"] = _plain(result.timing)
        stats["functional"] = _plain(result.functional)
        stats["protocol"] = _plain(result.protocol)
        stats["microcode_coverage"] = result.microcode_coverage
        stats["uops_per_instruction"] = result.uops_per_instruction
    elif timing is not None:
        stats["timing"] = _plain(timing)
    if stats:
        files[STATS_NAME] = json_chunks(stats)
    if scope is not None:
        scope.finalize()
        files[WINDOWS_NAME] = json_chunks(scope.fabric.streamed_report())
        files[TRACE_NAME] = scope.tracer.iter_jsonl(footer=True)
        if scope.profiler is not None:
            files[PROFILE_NAME] = json_chunks(scope.profiler.report())
    if output is not None:
        files[OUTPUT_NAME] = (
            output if output.endswith("\n") else output + "\n",)

    if pulse is None and scope is not None:
        pulse = getattr(scope, "pulse", None)
    pulse_footer: Optional[Dict[str, Any]] = None
    if pulse is not None:
        if isinstance(pulse, str):
            sidecar = functools.partial(file_chunks, pulse)
        else:
            pulse.finalize()
            sidecar = pulse.sidecar_lines
        files[PULSE_NAME] = sidecar()
        pulse_footer = _pulse_footer(sidecar())

    identity: Dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "experiment": experiment,
        "workload": workload,
        "config": _plain(config) or {},
        "extra": _plain(extra) or {},
    }
    if pulse_footer is not None:
        identity["extra"] = dict(identity["extra"])
        identity["extra"]["pulse_footer"] = pulse_footer
    prefix = _slug(experiment)
    if workload:
        prefix = "%s-%s" % (prefix, _slug(workload))
    path, manifest = write_entry(
        RUN_KIND, prefix, identity, files, root, host=dict(host or {})
    )
    return RunArtifact(path=path, manifest=manifest)


def list_artifacts(root: str = DEFAULT_ROOT) -> List[str]:
    """Run ids under *root*, sorted (debug capsules excluded)."""
    return list_entries(RUN_KIND, root)


def load_artifact(ref: str, root: str = DEFAULT_ROOT) -> RunArtifact:
    """Load an artifact by directory path, run id, or unique id prefix."""
    path, manifest = load_entry(RUN_KIND, ref, root)
    return RunArtifact(path=path, manifest=manifest)


def verify_artifact(artifact: RunArtifact) -> List[str]:
    """Re-hash the payload files against the manifest; returns a list of
    human-readable integrity problems (empty == intact)."""
    return verify_entry(RUN_KIND, artifact)
