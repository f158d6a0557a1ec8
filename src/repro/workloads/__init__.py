"""Synthetic workload suite modeling the paper's benchmarks."""

from repro.workloads.boot import linux_boot_slice
from repro.workloads.database import make_disk_image
from repro.workloads.generator import Workload, build, register, workload_names
from repro.workloads.suite import (
    QUICK_SUITE,
    SUITE_ORDER,
    full_suite,
    quick_suite,
)

__all__ = [
    "QUICK_SUITE",
    "SUITE_ORDER",
    "Workload",
    "build",
    "full_suite",
    "linux_boot_slice",
    "make_disk_image",
    "quick_suite",
    "register",
    "workload_names",
]
