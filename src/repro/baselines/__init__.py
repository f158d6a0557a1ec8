"""Baseline simulator architectures FAST is compared against."""

from repro.baselines.fastsim import (
    FastSimResult,
    MemoizationModel,
    price_fastsim,
)
from repro.baselines.fpga_cache import (
    HybridCacheResult,
    price_fpga_cache_hybrid,
)
from repro.baselines.lockstep import (
    LockStepFeed,
    LockStepResult,
    LockStepSimulator,
    LockStepStats,
)
from repro.baselines.survey import (
    TABLE3_SURVEY,
    SimulatorSurveyRow,
    survey_row,
)

__all__ = [
    "FastSimResult",
    "HybridCacheResult",
    "LockStepFeed",
    "LockStepResult",
    "LockStepSimulator",
    "LockStepStats",
    "MemoizationModel",
    "SimulatorSurveyRow",
    "TABLE3_SURVEY",
    "price_fastsim",
    "price_fpga_cache_hybrid",
    "survey_row",
]
