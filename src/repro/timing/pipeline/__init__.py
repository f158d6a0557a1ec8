"""Pipeline stages of the Figure 3 target."""

from repro.timing.pipeline.backend import Backend
from repro.timing.pipeline.dynamic import DynInstr, DynUop
from repro.timing.pipeline.frontend import Frontend

__all__ = ["Backend", "DynInstr", "DynUop", "Frontend"]
