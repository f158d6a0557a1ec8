"""Operating-system boot workloads (Linux 2.4 / 2.6, Windows XP rows).

For these rows the *boot itself* is the benchmark: BIOS, kernel
decompression, device initialisation and the first user process, just
like the paper boots unmodified kernels.  The init process does a token
amount of user work and exits, shutting the system down.
"""

from __future__ import annotations

from repro.kernel.image import UserProgram
from repro.kernel.sources import (
    linux24_config,
    linux26_config,
    windowsxp_config,
)
from repro.workloads.generator import EXIT_SNIPPET, Workload, register

INIT_SOURCE = """
main:
    ; init: print a marker and start (then immediately stop) services
    MOVI R0, 1
    MOVI R1, 105          ; 'i'
    SYSCALL
    MOVI R5, 64
init_spin:
    DEC R5
    JNZ init_spin
    MOVI R0, 1
    MOVI R1, 10           ; newline
    SYSCALL
%s
""" % EXIT_SNIPPET


def _boot_workload(name: str, config_factory, row: str) -> Workload:
    return Workload(
        name=name,
        programs=[UserProgram("init", INIT_SOURCE, entry="main")],
        kernel_config=config_factory(),
        description="full-system boot of " + row,
        paper_row=row,
    )


@register("linux-2.4")
def linux24(scale: int = 1) -> Workload:
    return _boot_workload("linux-2.4", linux24_config, "Linux-2.4")


@register("linux-2.6")
def linux26(scale: int = 1) -> Workload:
    return _boot_workload("linux-2.6", linux26_config, "Linux-2.6")


@register("windows-xp")
def windowsxp(scale: int = 1) -> Workload:
    return _boot_workload("windows-xp", windowsxp_config, "Windows XP")


SLEEPER_INIT_SOURCE = """
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


def linux_boot_slice(sleep_ticks: int) -> Workload:
    """A Linux-2.4 boot whose init prints, sleeps *sleep_ticks* kernel
    ticks in the HALT idle loop and shuts the system down: the boot
    workload of the observability CLIs and the host-speed benchmark."""
    source = SLEEPER_INIT_SOURCE % {"ticks": sleep_ticks,
                                    "exit": EXIT_SNIPPET}
    return Workload(
        name="linux-boot",
        programs=[UserProgram("init", source, entry="main")],
        kernel_config=linux24_config(),
        description="Linux-2.4 boot slice; init sleeps %d kernel ticks"
        % sleep_ticks,
        paper_row="Linux-2.4",
    )
