"""The estimators every reported number goes through.

**Changing an estimator re-baselines every number** (see README.md).
"""

from __future__ import annotations

import statistics
from typing import NamedTuple, Sequence

from .calib import CALIB_NOMINAL_S

__all__ = ["Sample", "normalised", "normalised_median", "tail", "spread",
           "disagreement"]


class Sample(NamedTuple):
    """One timed operation bracketed by two calibration readings."""

    seconds: float
    calib_before: float
    calib_after: float


def normalised(sample: Sample, nominal: float = CALIB_NOMINAL_S) -> float:
    """``t * C0 / mean(c_before, c_after)``: the time on a nominal host."""
    return sample.seconds * nominal / (
        0.5 * (sample.calib_before + sample.calib_after))


def normalised_median(samples: Sequence[Sample],
                      nominal: float = CALIB_NOMINAL_S) -> float:
    return statistics.median(normalised(s, nominal) for s in samples)


def tail(values: Sequence[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it.

    Returns ``(percentile, value)`` — the value is the largest sample
    that still has ten samples above it — or ``None`` when fewer than
    eleven samples exist and no percentile is supported.
    """
    below = len(values) - 10
    if below < 1:
        return None
    return 100.0 * below / len(values), sorted(values)[below - 1]


def spread(values: Sequence[float]) -> float:
    """Quartile distance over the median (the driver's steadiness test)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def disagreement(a: float, b: float, better: str = "lower") -> float:
    """By what share of ``a`` the value ``b`` is worse than ``a``."""
    return (b - a) / a if better == "lower" else (a - b) / a
