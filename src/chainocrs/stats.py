"""Small statistical helpers shared by the measurement and verify modules."""

from __future__ import annotations

import math
from statistics import NormalDist


def bonferroni_z(checks: int) -> float:
    """z so that `checks` simultaneous z-tests match one 3-sigma test.

    With checks == 1 this returns 3, up to float rounding.
    """
    if checks < 1:
        raise ValueError("need at least one check")
    p = 2.0 * (1.0 - NormalDist().cdf(3.0))
    return NormalDist().inv_cdf(1.0 - p / (2.0 * checks))


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score 99% interval; robust for small counts."""
    if trials < 0 or not 0 <= successes <= max(trials, 0):
        raise ValueError("invalid counts")
    if trials == 0:
        return (0.0, 1.0)
    z = NormalDist().inv_cdf(0.5 + 0.99 / 2.0)
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    return (max(0.0, center - half), min(1.0, center + half))


def binomial_stderr(p_hat: float, trials: int) -> float:
    """Plug-in standard error of a frequency estimate."""
    if trials <= 0:
        return 0.0
    return math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / trials)
