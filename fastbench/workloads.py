"""The benchmark's workloads and the digest that pins their outputs.

A workload is a pair of *inputs* (the simulated programs) and an
*arming* (whether the full observer stack rides along).  Two workloads
share the ``mcf`` inputs, so their difference is the observer cost.
The simulator package is imported only by the builders, so the runner
can read the workload table without loading it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from typing import Dict, NamedTuple

# Kernel ticks the boot slice's init sleeps: 600 ticks is 6.0M target
# cycles, more than 99% of them idle-fast-forwarded.
BOOT_TICKS = 600

# Cycle budget of one run; every workload shuts down well before it.
MAX_CYCLES = 20_000_000


class Spec(NamedTuple):
    inputs: str  # "mcf" or "boot"
    armed: bool  # full observer stack on


WORKLOADS: Dict[str, Spec] = {
    "mcf-busy": Spec("mcf", False),
    "mcf-armed": Spec("mcf", True),
    "boot-idle-armed": Spec("boot", True),
}

_SLEEPER_INIT = """
main:
    MOVI R0, 1
    MOVI R1, 98           ; 'b': boot reached userspace
    SYSCALL
    MOVI R0, 2            ; SYS_SLEEP: park the system in the kernel's
    MOVI R1, %(ticks)d    ; HALT idle loop for this many kernel ticks
    SYSCALL
    MOVI R0, 1
    MOVI R1, 10           ; newline
    SYSCALL
%(exit)s
"""


def boot_slice(ticks: int = BOOT_TICKS):
    """Linux-2.4 boot whose init prints, sleeps *ticks* kernel ticks
    and shuts the system down."""
    from repro.kernel.image import UserProgram
    from repro.kernel.sources import linux24_config
    from repro.workloads.generator import EXIT_SNIPPET, Workload

    source = _SLEEPER_INIT % {"ticks": ticks, "exit": EXIT_SNIPPET}
    return Workload(
        name="boot-idle",
        programs=[UserProgram("init", source, entry="main")],
        kernel_config=linux24_config(),
        description="Linux-2.4 boot slice; init sleeps %d kernel ticks"
        % ticks,
        paper_row="Linux-2.4",
    )


def build_inputs(inputs: str, boot_ticks: int = BOOT_TICKS):
    """The simulated programs of *inputs* ("mcf" or "boot")."""
    if inputs == "mcf":
        from repro.workloads import build

        return build("181.mcf", scale=1)
    if inputs == "boot":
        return boot_slice(boot_ticks)
    raise ValueError("unknown inputs %r" % inputs)


def digest(result) -> str:
    """SHA-256 over a run's TimingStats, FunctionalStats, ProtocolStats
    and console text: every target-visible output of the run."""
    doc = {
        "timing": asdict(result.timing),
        "functional": asdict(result.functional),
        "protocol": asdict(result.protocol),
        "console": result.console_text,
    }
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
