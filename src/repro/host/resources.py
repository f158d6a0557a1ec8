"""FPGA resource estimation for the timing model (Table 2).

Walks the timing model's Module tree summing per-module estimates, then
reports the fraction of a target FPGA consumed.  The key *shape* of
Table 2 -- resource usage nearly flat across issue widths 1/2/4/8
(~32.8 % of user logic, 50-51.2 % of block RAMs on a Virtex4 LX200) --
falls out of the methodology itself: wider targets are modeled with
more host cycles per target cycle over the *same* hardware structures
(section 3.3 "a twenty-ported memory can be simulated by cycling a
dual-ported memory ten times"), so only the Connectors grow slightly.

The absolute scale factor is calibrated once against the paper's
reported 2-issue numbers and documented here; the width sweep is then a
genuine model output.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.host.fpga import VIRTEX4_LX200, FpgaHost
from repro.timing.module import Module

# Calibration: raw LUT-estimate units per Virtex4 slice, chosen so the
# default 2-issue Figure 3 target matches the paper's reported 32.76 %
# user logic.  BRAM estimates are structural (one per tag/predictor
# array of the corresponding size) plus the fixed infrastructure BRAMs
# (trace-buffer staging, statistics, microcode table).
LUTS_PER_SLICE = 1.05
INFRA_BRAMS = 158  # TB staging + microcode table + statistics fabric
INFRA_LUTS = 24000  # host interface, sequencing, statistics network


@dataclass
class ResourceReport:
    luts: int
    brams: int
    fpga: FpgaHost

    @property
    def slices_used(self) -> float:
        return self.luts / LUTS_PER_SLICE

    @property
    def user_logic_fraction(self) -> float:
        return self.slices_used / self.fpga.slices

    @property
    def bram_fraction(self) -> float:
        return self.brams / self.fpga.brams


def estimate_resources(
    root: Module, fpga: FpgaHost = VIRTEX4_LX200
) -> ResourceReport:
    """Estimate FPGA resources for the module tree rooted at *root*."""
    luts = INFRA_LUTS
    brams = INFRA_BRAMS
    for module in root.walk():
        est = module.resource_estimate()
        luts += est.get("luts", 0)
        brams += est.get("brams", 0)
    return ResourceReport(luts=luts, brams=brams, fpga=fpga)
