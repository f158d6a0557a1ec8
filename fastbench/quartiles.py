"""Median and quartiles of a sample, the way the run report gives them."""

from __future__ import annotations

import statistics
from typing import Dict, Sequence


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """``n``, ``min``, ``q1``, ``median``, ``q3`` and ``max`` of *values*.

    Quartiles are ``statistics.quantiles(values, n=4)`` (the exclusive
    method); a single value is its own quartiles.
    """
    if not values:
        raise ValueError("summarize() needs at least one value")
    ordered = sorted(values)
    if len(ordered) == 1:
        q1 = median = q3 = ordered[0]
    else:
        q1, median, q3 = statistics.quantiles(ordered, n=4)
    return {
        "n": len(ordered),
        "min": ordered[0],
        "q1": q1,
        "median": median,
        "q3": q3,
        "max": ordered[-1],
    }
