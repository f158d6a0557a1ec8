"""The FM's round-trip fast path against the full replay it stands for.

A mispredict and its resolution roll back to the same branch from the
same checkpoint; the second rollback restores the state the first one's
replay reached (``FunctionalModel._restore_record``) instead of
re-executing.  Rollback replay and the forced wrong path run through
superblocks in their exact-accounting mode.  Both are host-only: every
modelled count and cache must come out exactly as a full, interpreted
replay leaves them.

Each scenario runs three times: as built; with every rollback replayed
in full (the record is never found valid); and, on top of that, with
the superblocks' exact mode turned off, so rollback replay and the
wrong-path fill step through the interpreter as before either existed.
After every rollback the FM, feed and TM state is fingerprinted, and
the fingerprint streams, the entries the TM consumed and the final
stats of the three runs must be identical.
"""

import collections
import dataclasses
import zlib

import pytest

from repro.fast.interrupts import CycleInterruptCoordinator
from repro.fast.simulator import FastSimulator
from repro.fast.trace_buffer import TraceBufferFeed
from repro.functional.blocks import SuperblockCache
from repro.functional.model import FunctionalModel
from repro.functional.trace import TraceEntry
from repro.fuzz.cli import SMOKE_GENERATOR
from repro.fuzz.generator import generate_program
from repro.isa.program import ProgramImage
from repro.system.bus import build_standard_system
from repro.system.memory import PhysicalMemory
from repro.system.mmu import PAGE_SHIFT
from repro.timing.core import TimingConfig, TimingModel
from repro.workloads import build, linux_boot_slice

VARIANTS = ("fast", "full", "interpreted")

# mcf is cut off after this many target cycles (about 500 rollbacks);
# the boot (down by cycle 221k) and the fuzz programs run to shutdown,
# or stop at their budget when a bad rollback derails them.
MCF_CYCLES = 10_000
# Smoke-preset seeds: the two with the most rollbacks (user mode, calls,
# a string op, the timer), one with a TLBWR atom, and the one whose
# cycle-mode interrupt delivery rolls the FM back.
FUZZ_SEEDS = (20070609, 20070620, 20070623, 20070624)


def _memory_hash(memory):
    """CRC of every page written since construction, with the page list.

    All runs of a scenario load the same image, so pages never written
    are equal by construction; hashing only the written ones keeps the
    per-rollback fingerprint cheap on a 16 MB machine."""
    pages = tuple(sorted(memory.written_pages))
    view = memory.view()
    crc = 0
    for page in pages:
        crc = zlib.crc32(view[page << PAGE_SHIFT:(page + 1) << PAGE_SHIFT],
                         crc)
    return pages, crc


def _fingerprint(fm, feed, tm):
    """Everything a rollback may touch, host caches included."""
    ckpt = fm.ckpt
    return (
        fm.in_count,
        fm.state.snapshot(),
        fm.tlb.snapshot(),
        fm.tlb_generation,
        fm._tlb_gen_next,
        fm.bus.snapshot(),
        _memory_hash(fm.memory),
        tuple(ckpt._undo),
        tuple((c.in_no, c.undo_base) for c in ckpt._checkpoints),
        tuple(sorted((page, tuple(sorted(cache)))
                     for page, cache in fm._decode_cache.items())),
        fm._at_boundary,
        fm._handler_pending,
        dataclasses.astuple(fm.stats),
        dataclasses.astuple(ckpt.stats),
        dataclasses.astuple(feed.protocol),
        dataclasses.astuple(tm.stats()),
    )


def _entry_row(entry):
    return tuple(getattr(entry, name) for name in TraceEntry.__slots__)


class _ConsumedDeque(collections.deque):
    """A feed's entry deque that lists the row of every entry taken off
    its front: fetch is the only caller of ``popleft``, so these are
    the entries the TM consumed, in fetch order."""

    def __init__(self, entries, consumed):
        super().__init__(entries)
        self.consumed = consumed

    def popleft(self):
        entry = super().popleft()
        self.consumed.append(_entry_row(entry))
        return entry


def _observe(monkeypatch, variant):
    """Patch the classes for *variant* and record every rollback's
    fingerprint and every consumed entry into the returned dict."""
    seen = {"rollbacks": [], "entries": [], "feed": None, "tm": None}
    if variant != "fast":
        monkeypatch.setattr(FunctionalModel, "_record_valid",
                            lambda self, record, target_in, ckpt: False)
    if variant == "interpreted":
        monkeypatch.setattr(SuperblockCache, "step_exact",
                            lambda self, sink, budget: 0)
    rollback_to = FunctionalModel.rollback_to

    def observed_rollback(fm, target_in):
        replayed = rollback_to(fm, target_in)
        seen["rollbacks"].append(
            (target_in, replayed, _fingerprint(fm, seen["feed"], seen["tm"])))
        return replayed

    init = TraceBufferFeed.__init__

    def observed_init(feed, *args, **kwargs):
        # Before the TM binds fetch, which hoists the deque's popleft.
        init(feed, *args, **kwargs)
        feed.entries = _ConsumedDeque(feed.entries, seen["entries"])

    monkeypatch.setattr(FunctionalModel, "rollback_to", observed_rollback)
    monkeypatch.setattr(TraceBufferFeed, "__init__", observed_init)
    monkeypatch.setattr(PhysicalMemory, "written_pages", None, raising=False)
    # Writes the undo log restores stay on pages these already listed.
    for name in ("write8", "write32", "load_blob"):
        monkeypatch.setattr(PhysicalMemory, name,
                            _tracking(getattr(PhysicalMemory, name)))
    return seen


def _tracking(write):
    """*write* (a PhysicalMemory store method) that also lists the
    pages it stores to in ``written_pages``."""
    def tracked(memory, addr, value):
        width = len(value) if isinstance(value, (bytes, bytearray)) else 4
        if memory.written_pages is None:
            memory.written_pages = set()
        memory.written_pages.update(
            range(addr >> PAGE_SHIFT, ((addr + width - 1) >> PAGE_SHIFT) + 1))
        return write(memory, addr, value)
    return tracked


def _run_workload(workload, max_cycles):
    sim = FastSimulator.from_programs(workload.programs,
                                      kernel_config=workload.kernel_config)
    return sim.fm, sim.feed, sim.tm, max_cycles


def _run_fuzz(seed):
    """A fuzz program under the trace-buffer feed with cycle-mode
    interrupts, so interrupt delivery rolls back too."""
    program = generate_program(seed, SMOKE_GENERATOR)
    memory, bus, _intctrl, _timer, _console, _disk = build_standard_system(
        memory_size=1 << 20)
    fm = FunctionalModel(memory=memory, bus=bus)
    fm.load(ProgramImage.from_assembly("fuzz", program.source(),
                                       base=program.base, entry="main"))
    feed = TraceBufferFeed(fm)
    tm = TimingModel(feed, microcode=fm.microcode, config=TimingConfig())
    CycleInterruptCoordinator(tm, fm, interval_cycles=900)
    return fm, feed, tm, 400_000


SCENARIOS = {
    "mcf": lambda: _run_workload(build("181.mcf", scale=1), MCF_CYCLES),
    "boot": lambda: _run_workload(linux_boot_slice(sleep_ticks=20),
                                  1_000_000),
}
for _seed in FUZZ_SEEDS:
    SCENARIOS["fuzz-%d" % _seed] = (lambda seed=_seed: _run_fuzz(seed))


def _run(monkeypatch, scenario, variant):
    with monkeypatch.context() as patch:
        seen = _observe(patch, variant)
        fm, feed, tm, max_cycles = SCENARIOS[scenario]()
        seen["feed"], seen["tm"] = feed, tm
        stats = tm.run(max_cycles=max_cycles)
        seen["final"] = (
            dataclasses.astuple(stats),
            dataclasses.astuple(fm.stats),
            dataclasses.astuple(feed.protocol),
            _fingerprint(fm, feed, tm),
        )
        del seen["feed"], seen["tm"]
    return seen


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_fast_path_matches_full_replay(monkeypatch, scenario):
    runs = {variant: _run(monkeypatch, scenario, variant)
            for variant in VARIANTS}
    fast = runs["fast"]
    assert fast["rollbacks"], "the scenario must roll back"
    assert fast["entries"], "the TM must consume entries"
    for variant in ("full", "interpreted"):
        other = runs[variant]
        assert len(other["rollbacks"]) == len(fast["rollbacks"])
        for index, (mine, theirs) in enumerate(
                zip(fast["rollbacks"], other["rollbacks"])):
            assert mine == theirs, (
                "%s: rollback %d (target %d) differs from the %s run"
                % (scenario, index, mine[0], variant))
        assert fast["entries"] == other["entries"]
        assert fast["final"] == other["final"]


def test_resolution_restores_instead_of_replaying():
    """On mcf most resolutions find the mispredict's record valid."""
    workload = build("181.mcf", scale=1)
    sim = FastSimulator.from_programs(workload.programs,
                                      kernel_config=workload.kernel_config)
    restored = []
    restore = sim.fm._restore_record

    def counted(record):
        restored.append(record.target)
        return restore(record)

    sim.fm._restore_record = counted
    result = sim.run(MCF_CYCLES)
    assert len(restored) > result.protocol.resolve_messages // 2
