"""Lock-step (timing-directed) functional/timing coupling.

This is the Asim / Timing-First structure the paper contrasts with
(section 5): "the functional model does not even fetch an instruction
until instructed by the timing model ... both components must run in
essentially lock-step order with each other and generally must
round-trip communicate every simulated cycle."

Concretely: the functional model executes exactly one instruction per
timing-model fetch request -- a round-trip per instruction -- instead
of streaming ahead through a trace buffer.  It is the cycle-accuracy
*reference* for the FAST coupling: both must produce identical cycle
counts, while their host-communication profiles differ enormously.

:class:`LockStepSimulator` runs this coupling once and prices the run
under the three host mappings Table 3 compares against FAST:

* **monolithic** -- sim-outorder-like: functionality and timing in one
  sequential software program, the FM interpreting every instruction
  on its deoptimized path;
* **software** -- Asim / Timing-First / M5: both halves on the CPU
  host, the FM on its traced path, no link cost but fully sequential;
* **FPGA split** -- the naive "put the timing model in the FPGA
  without speculation" mapping: every fetch is a blocking round trip,
  which is exactly the section 3.1 example showing why F ~= 1 caps
  performance around 2 MIPS no matter how fast each side is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.functional.model import FunctionalConfig, FunctionalModel
from repro.host.platforms import DRC_PLATFORM, Platform
from repro.kernel.image import UserProgram, build_os_image
from repro.kernel.sources import KernelConfig
from repro.system.bus import build_standard_system
from repro.timing.core import TimingConfig, TimingModel, TimingStats
from repro.timing.feed import InstructionFeed
from repro.timing.module import Module


@dataclass
class LockStepStats:
    fetch_round_trips: int = 0  # one FM<->TM round trip per instruction
    mispredict_messages: int = 0
    resolve_messages: int = 0
    rollback_replays: int = 0
    idle_ticks: int = 0


class LockStepFeed(InstructionFeed, Module):
    """Execute the functional model only when the timing model fetches."""

    def __init__(self, fm: FunctionalModel):
        InstructionFeed.__init__(self)
        Module.__init__(self, "lockstep_feed")
        self.fm = fm
        self.stats = LockStepStats()

    def refill(self) -> None:
        if self.fm.state.halted or self.fm.bus.shutdown_requested:
            # Only idle_tick may advance a halted FM (one device tick
            # per idle target cycle), matching the trace-buffer feed
            # exactly; see TraceBufferFeed._can_produce.
            return
        entry = self.fm.execute_next()
        if entry is not None:
            self.entries.append(entry)
            self.stats.fetch_round_trips += 1

    def force_wrong_path(self, branch_in_no: int, wrong_pc: int) -> None:
        self.entries.clear()
        replayed = self.fm.set_pc(branch_in_no + 1, wrong_pc)
        self.fm.enter_wrong_path()
        self.stats.mispredict_messages += 1
        self.stats.rollback_replays += replayed

    def resolve_wrong_path(self, branch_in_no: int, actual_pc: int) -> None:
        self.entries.clear()
        self.fm.exit_wrong_path()
        replayed = self.fm.set_pc(branch_in_no + 1, actual_pc)
        self.stats.resolve_messages += 1
        self.stats.rollback_replays += replayed

    def interrupt_delivery(self, after_in: int, line: int):
        self.entries.clear()
        taken, replayed = self.fm.deliver_interrupt(after_in, line)
        self.stats.rollback_replays += replayed
        return taken, replayed

    def commit(self, in_no: int, count: int = 1) -> None:
        self.fm.commit(in_no)

    def idle_tick(self) -> None:
        entry = self.fm.execute_next()
        self.stats.idle_ticks += 1
        if entry is not None:
            self.entries.append(entry)

    def idle_horizon(self) -> int:
        if self.entries:
            return 0
        return self.fm.idle_horizon()

    def idle_ticks(self, count: int) -> None:
        # Within the horizon each idle_tick is exactly one uneventful
        # halted step; batch them through the FM.
        self.fm.idle_steps(count)
        self.stats.idle_ticks += count

    @property
    def finished(self) -> bool:
        return self.fm.bus.shutdown_requested and not self.entries


@dataclass
class LockStepResult:
    timing: TimingStats
    lockstep: LockStepStats
    console_text: str
    host_seconds_monolithic: float  # deopt FM + TM, one CPU process
    host_seconds_software: float  # traced FM + TM, both on the CPU
    host_seconds_split: float  # TM in the FPGA, round trip per fetch

    @property
    def kips(self) -> float:
        """Monolithic host speed."""
        if self.host_seconds_monolithic <= 0:
            return 0.0
        return self.timing.instructions / self.host_seconds_monolithic / 1e3

    @property
    def mips(self) -> float:
        return self.kips / 1e3

    @property
    def mips_software(self) -> float:
        if self.host_seconds_software <= 0:
            return 0.0
        return self.timing.instructions / self.host_seconds_software / 1e6

    @property
    def mips_split(self) -> float:
        if self.host_seconds_split <= 0:
            return 0.0
        return self.timing.instructions / self.host_seconds_split / 1e6


class LockStepSimulator:
    """The lock-step coupling, priced under every host mapping."""

    def __init__(
        self,
        fm: FunctionalModel,
        timing_config: Optional[TimingConfig] = None,
        platform: Platform = DRC_PLATFORM,
    ):
        self.fm = fm
        self.platform = platform
        self.feed = LockStepFeed(fm)
        self.tm = TimingModel(
            self.feed, microcode=fm.microcode, config=timing_config
        )
        self._console = None

    @classmethod
    def from_programs(
        cls,
        programs: Sequence[UserProgram],
        kernel_config: Optional[KernelConfig] = None,
        timing_config: Optional[TimingConfig] = None,
        functional_config: Optional[FunctionalConfig] = None,
        platform: Platform = DRC_PLATFORM,
    ) -> "LockStepSimulator":
        memory, bus, _i, _t, console, _d = build_standard_system()
        image, _cfg = build_os_image(programs, config=kernel_config)
        fm = FunctionalModel(memory=memory, bus=bus, config=functional_config)
        fm.load(image)
        sim = cls(fm, timing_config=timing_config, platform=platform)
        sim._console = console
        return sim

    def run(self, max_cycles: int = 100_000_000) -> LockStepResult:
        timing = self.tm.run(max_cycles=max_cycles)
        cpu, fpga, link = (
            self.platform.cpu,
            self.platform.fpga,
            self.platform.link,
        )
        executed = self.fm.stats.executed
        tm_time = cpu.tm_seconds(timing.cycles)
        fm_time = cpu.fm_seconds(executed, mode="traced")
        # Split mapping: TM runs in the FPGA, but every fetched
        # instruction requires a blocking round trip before the
        # functional model may proceed (F ~ 1 in the section 3.1 model).
        round_trips = self.feed.stats.fetch_round_trips
        host_split = (
            fm_time
            + fpga.timing_model_seconds(timing.cycles)
            + round_trips * link.read_ns * 1e-9
        )
        return LockStepResult(
            timing=timing,
            lockstep=self.feed.stats,
            console_text=self._console.text() if self._console else "",
            host_seconds_monolithic=(
                cpu.fm_seconds(executed, mode="deopt") + tm_time
            ),
            host_seconds_software=fm_time + tm_time,
            host_seconds_split=host_split,
        )
