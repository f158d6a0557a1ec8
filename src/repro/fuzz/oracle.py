"""The differential oracle: one program, nine simulators, one answer.

For each generated program the harness runs the full oracle matrix

    {compiled, legacy} engine x {lockstep, trace-buffer} feed
                              x {instruction, cycle} interrupt mode

plus a ninth cell -- the compiled/trace-buffer coupling with the FM's
FastBlock superblock cache forced *off* -- so superblock capture and
replay under speculation and rollback is differentially pinned against
the interpreted path, and asserts that within each interrupt mode all
coupled cells report bit-identical ``TimingStats``, console output and
final architectural state -- the FAST invariant (paper section 2/3):
speculation + rollback must be observationally equivalent to in-order
execution, and the compiled tick schedule must be cycle-for-cycle the
legacy dispatch.
Instruction-mode cells are additionally checked against a *golden* run
of the functional model alone (no timing model at all): coupling a
timing model must not change architecture.

The two interrupt modes are separate columns, not comparable to each
other: instruction-mode timers tick on committed instructions,
cycle-mode timers fire on target cycles, so they deliver interrupts at
different architectural points by design.

A cell that deadlocks, wedges or raises is itself a result (its status
string), so "one coupling finishes, the other deadlocks" shows up as an
ordinary divergence instead of crashing the fuzzer.

Wedge diagnosis rides on the FastPulse liveness watchdog: every cell
arms an in-memory :class:`~repro.observability.pulse.PulseEmitter` (no
sidecar file) with a :class:`~repro.observability.pulse.LivenessWatchdog`,
so a cell that runs out its cycle budget without shutting down reports
``wedged:no-progress@<since>(last_commit=<cycle>)`` -- the stall onset
and the last committed cycle -- instead of a bare ``wedged``.  The
detail is deterministic (pure cycle arithmetic), so matched couplings
still compare equal and a *differently*-wedged pair is a richer
divergence.  Against the golden run only the status *family* (the text
before ``:``) is compared: the FM alone has no cycles to diagnose with.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.baselines.lockstep import LockStepFeed
from repro.fast.interrupts import CycleInterruptCoordinator
from repro.fast.trace_buffer import TraceBufferFeed
from repro.functional.model import FunctionalModel
from repro.isa.program import ProgramImage
from repro.system.bus import build_standard_system
from repro.timing.core import DeadlockError, TimingConfig, TimingModel

# Memory windows digested into the architectural fingerprint.  They
# cover everything a generated program can store to (scratch window,
# timer-fire counter, user-mode data pages); digests keep the
# fingerprint small enough to diff and to embed in repro files.
_DIGEST_WINDOWS = (
    ("scratch", 0x8FF0, 0x9800),
    ("user", 0x20000, 0x2A000),
)


@dataclass(frozen=True)
class OracleCell:
    """One point of the oracle matrix."""

    engine: str  # "compiled" | "legacy"
    feed: str  # "lockstep" | "tb"
    irq: str  # "instr" | "cycle"
    blocks: str = "on"  # "on" | "off": FM superblock capture/replay

    @property
    def label(self) -> str:
        label = "%s/%s/%s" % (self.engine, self.feed, self.irq)
        if self.blocks != "on":
            return label + "/noblocks"
        return label


ORACLE_CELLS: Tuple[OracleCell, ...] = tuple(
    OracleCell(engine, feed, irq)
    for irq in ("instr", "cycle")
    for engine in ("legacy", "compiled")
    for feed in ("lockstep", "tb")
) + (
    # The ninth cell: the most speculative coupling, interpreted.  Any
    # FastBlock replay bug diverges it from the (superblocks-on)
    # reference without perturbing the eight canonical cells.
    OracleCell("compiled", "tb", "instr", blocks="off"),
)

# Per interrupt mode, the cell every other cell is diffed against.  The
# legacy engine driving the lock-step feed is the simplest simulator in
# the matrix -- the closest thing to ground truth.
_REFERENCE = {
    "instr": OracleCell("legacy", "lockstep", "instr"),
    "cycle": OracleCell("legacy", "lockstep", "cycle"),
}


@dataclass(frozen=True)
class OracleConfig:
    """Budgets and hooks for one matrix evaluation."""

    max_cycles: int = 3_000_000
    max_instructions: int = 500_000
    memory_size: int = 1 << 20
    predictor: str = "gshare"
    cycle_irq_interval: int = 900
    # Arm the FastWatch invariant fabric in every cell.  A firing is a
    # divergence in its own right: on a healthy simulator the canonical
    # invariants hold on every cycle of every cell, so the fuzzer also
    # pins the fabric's false-positive rate at zero.
    invariants: bool = False
    # Arm the FastPulse liveness watchdog in every cell (in-memory; no
    # sidecar file) so wedged cells report the stall onset and last
    # commit cycle instead of a bare status.
    pulse: bool = True
    pulse_interval_cycles: int = 25_000
    stall_cycles: int = 100_000
    # Test hook: called as ``mutator(fm, tm, cell)`` after each matrix
    # cell is wired but before it runs (never for the golden run), so
    # tests can inject a semantics bug into selected cells and check the
    # fuzzer catches it.
    mutator: Optional[
        Callable[[FunctionalModel, Optional[TimingModel], OracleCell], None]
    ] = None


@dataclass
class CellResult:
    """What one simulator reported for the program."""

    label: str
    status: str  # "ok" | "deadlock" | "wedged" | "error:<type>"
    stats: Dict[str, int] = field(default_factory=dict)
    arch: Dict[str, object] = field(default_factory=dict)
    # FastWatch firings observed while the cell ran (always 0 unless
    # OracleConfig.invariants armed the fabric).
    invariant_firings: int = 0

    def key(self) -> Tuple[str, tuple, tuple]:
        return (
            self.status,
            tuple(sorted(self.stats.items())),
            tuple(sorted((k, repr(v)) for k, v in self.arch.items())),
        )


@dataclass
class Divergence:
    """Two cells (or a cell and the golden run) disagree."""

    kind: str  # "stats" | "arch" | "status" | "golden" | "invariant"
    reference: str
    cell: str
    fields: Tuple[str, ...]
    detail: str

    def __str__(self) -> str:
        return "%s: %s vs %s on %s (%s)" % (
            self.kind, self.cell, self.reference,
            ", ".join(self.fields) or "-", self.detail,
        )


@dataclass
class MatrixResult:
    """Outcome of running one program across the whole matrix."""

    seed: int
    golden: Dict[str, object]
    golden_status: str
    cells: Dict[str, CellResult]
    divergences: List[Divergence]

    @property
    def ok(self) -> bool:
        return not self.divergences


def _arch_fingerprint(fm: FunctionalModel, console_text: str) -> Dict[str, object]:
    state = fm.state
    digests = {}
    for name, lo, hi in _DIGEST_WINDOWS:
        blob = fm.memory.read_blob(lo, hi - lo)
        digests["mem_" + name] = hashlib.sha256(blob).hexdigest()[:16]
    return {
        "regs": tuple(state.regs),
        "fregs": tuple(state.fregs),
        "flags": state.flags,
        "pc": state.pc,
        "srs": tuple(state.srs),
        "halted": state.halted,
        "shutdown": fm.bus.shutdown_requested,
        "shutdown_code": fm.bus.shutdown_code,
        "in_count": fm.in_count,
        "console": console_text,
        **digests,
    }


def _build(source: str, base: int, config: OracleConfig):
    memory, bus, _intctrl, _timer, console, _disk = build_standard_system(
        memory_size=config.memory_size
    )
    fm = FunctionalModel(memory=memory, bus=bus)
    fm.load(ProgramImage.from_assembly("fuzz", source, base=base,
                                       entry="main"))
    return fm, console


def run_golden(source: str, base: int,
               config: OracleConfig) -> Tuple[Dict[str, object], str]:
    """The functional model alone: architectural ground truth."""
    fm, console = _build(source, base, config)
    status = "ok"
    try:
        fm.run(max_instructions=config.max_instructions)
        if not fm.bus.shutdown_requested:
            status = "wedged"
    except Exception as exc:  # pragma: no cover - defensive
        status = "error:%s" % type(exc).__name__
    return _arch_fingerprint(fm, console.text()), status


def _wedge_status(tm: TimingModel, watchdog) -> str:
    """A wedged cell's status, diagnosed by the liveness watchdog.

    Deterministic by construction -- stall onset and last-commit cycle
    are target-cycle arithmetic -- so two identically-wedged couplings
    still compare equal, while cells wedged *differently* surface the
    difference in the divergence detail."""
    last_commit = tm.backend.last_commit_cycle
    if watchdog is not None and watchdog.last_stall is not None:
        stall = watchdog.last_stall
        return "wedged:no-progress@%d(last_commit=%d)" % (
            stall["since_cycle"], stall["last_commit_cycle"])
    if watchdog is not None:
        # Budget ran out while the program was still making progress:
        # wedged from the harness's point of view, live from the
        # watchdog's.  Still worth distinguishing from a true stall.
        return "wedged:live@%d(last_commit=%d)" % (tm.cycle, last_commit)
    return "wedged"


def run_cell(source: str, base: int, cell: OracleCell,
             config: OracleConfig) -> CellResult:
    """Run one simulator configuration over the program."""
    fm, console = _build(source, base, config)
    if cell.blocks != "on":
        fm.config.superblocks = False
        fm.blocks = None
        fm._sb_pages = {}
    feed_cls = LockStepFeed if cell.feed == "lockstep" else TraceBufferFeed
    feed = feed_cls(fm)
    timing_config = TimingConfig(engine=cell.engine,
                                 predictor=config.predictor)
    tm = TimingModel(feed, microcode=fm.microcode, config=timing_config)
    if cell.irq == "cycle":
        CycleInterruptCoordinator(tm, fm,
                                  interval_cycles=config.cycle_irq_interval)
    if config.mutator is not None:
        config.mutator(fm, tm, cell)
    monitor = None
    if config.invariants:
        from repro.observability.watch import InvariantMonitor

        # Lock-step feeds are not Modules; the monitor filters them out
        # and arms the TM-side invariants alone in those cells.
        monitor = InvariantMonitor(tm, extra_roots=(feed,))
    watchdog = None
    if config.pulse:
        from repro.observability.pulse import LivenessWatchdog, PulseEmitter

        watchdog = LivenessWatchdog(no_commit_cycles=config.stall_cycles)
        # In-memory emitter (path=None): the watchdog needs the sampled
        # det stream, not a sidecar file, and the cadence hint keeps
        # idle fast-forward in the compiled cells.
        PulseEmitter(
            tm,
            feed=feed,
            interval_cycles=config.pulse_interval_cycles,
            monitor=monitor,
            watchdog=watchdog,
        )
    status = "ok"
    stats_dict: Dict[str, int] = {}
    try:
        stats = tm.run(max_cycles=config.max_cycles)
        stats_dict = dataclasses.asdict(stats)
        if not fm.bus.shutdown_requested:
            status = _wedge_status(tm, watchdog)
    except DeadlockError:
        status = "deadlock"
    except Exception as exc:
        status = "error:%s" % type(exc).__name__
    return CellResult(
        label=cell.label,
        status=status,
        stats=stats_dict,
        arch=_arch_fingerprint(fm, console.text()),
        invariant_firings=monitor.firings if monitor is not None else 0,
    )


def _diff_dicts(a: Dict, b: Dict) -> Tuple[str, ...]:
    return tuple(sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k)))


def _status_family(status: str) -> str:
    """``wedged:no-progress@123(...)`` -> ``wedged``.  The golden run has
    no timing model, hence no watchdog detail to match against.  Only
    wedge detail is stripped; ``error:<type>`` stays exact."""
    if status.startswith("wedged"):
        return "wedged"
    return status


def _compare(reference: CellResult, cell: CellResult) -> List[Divergence]:
    out: List[Divergence] = []
    if reference.status != cell.status:
        out.append(Divergence(
            "status", reference.label, cell.label, (),
            "%s vs %s" % (cell.status, reference.status),
        ))
        return out  # stats/arch of a failed run are not meaningful
    fields = _diff_dicts(reference.stats, cell.stats)
    if fields:
        detail = "; ".join(
            "%s=%r vs %r" % (f, cell.stats.get(f), reference.stats.get(f))
            for f in fields[:4]
        )
        out.append(Divergence("stats", reference.label, cell.label,
                              fields, detail))
    fields = _diff_dicts(reference.arch, cell.arch)
    if fields:
        detail = "; ".join(
            "%s=%r vs %r" % (f, cell.arch.get(f), reference.arch.get(f))
            for f in fields[:4]
        )
        out.append(Divergence("arch", reference.label, cell.label,
                              fields, detail))
    return out


def run_matrix(source: str, base: int, seed: int = 0,
               config: Optional[OracleConfig] = None,
               cells: Tuple[OracleCell, ...] = ORACLE_CELLS) -> MatrixResult:
    """Run *source* across the oracle matrix and collect divergences."""
    cfg = config or OracleConfig()
    golden, golden_status = run_golden(source, base, cfg)
    results = {cell.label: run_cell(source, base, cell, cfg)
               for cell in cells}
    divergences: List[Divergence] = []
    for result in results.values():
        if result.invariant_firings:
            divergences.append(Divergence(
                "invariant", "fastwatch", result.label, (),
                "%d invariant firing(s)" % result.invariant_firings))
    for irq in ("instr", "cycle"):
        ref_label = _REFERENCE[irq].label
        reference = results.get(ref_label)
        if reference is None:
            continue
        for cell in cells:
            if cell.irq != irq or cell.label == ref_label:
                continue
            divergences.extend(_compare(reference, results[cell.label]))
        # Instruction-mode couplings must also reproduce the golden
        # (FM-alone) architecture: attaching a timing model cannot
        # change what the program computed.
        if irq == "instr" and reference.status == "ok" and golden_status == "ok":
            fields = _diff_dicts(golden, reference.arch)
            if fields:
                detail = "; ".join(
                    "%s=%r vs %r" % (f, reference.arch.get(f), golden.get(f))
                    for f in fields[:4]
                )
                divergences.append(Divergence(
                    "golden", "fm-alone", ref_label, fields, detail))
        elif irq == "instr" and (
            _status_family(reference.status) != _status_family(golden_status)
        ):
            divergences.append(Divergence(
                "golden", "fm-alone", ref_label, (),
                "%s vs %s" % (reference.status, golden_status)))
    return MatrixResult(
        seed=seed,
        golden=golden,
        golden_status=golden_status,
        cells=results,
        divergences=divergences,
    )
