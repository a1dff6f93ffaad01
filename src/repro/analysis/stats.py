"""Small statistics helpers used across figures.

Kept deliberately thin: CDF sampling for the CDF figures (11, 17a),
quantile summaries standing in for the violin plots (10, 19), and the
Spearman rank correlation quoted in section 6 (F16/F17).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def cdf_points(values: list[float]) -> list[tuple[float, float]]:
    """(value, cumulative fraction) pairs of an empirical CDF."""
    if not values:
        return []
    ordered = np.sort(np.asarray(values, dtype=float))
    n = len(ordered)
    return [(float(value), (index + 1) / n) for index, value in enumerate(ordered)]


def quantiles(values: list[float],
              probabilities: tuple[float, ...] = (0.05, 0.25, 0.5, 0.75, 0.95),
              ) -> dict[float, float]:
    """Selected quantiles of a sample (empty dict for an empty sample)."""
    if not values:
        return {}
    array = np.asarray(values, dtype=float)
    return {p: float(np.quantile(array, p)) for p in probabilities}


@dataclass(frozen=True)
class ViolinSummary:
    """The numbers a violin plot communicates (Figures 10 and 19)."""

    count: int
    p5: float
    p25: float
    median: float
    p75: float
    p95: float

    @staticmethod
    def of(values: list[float]) -> "ViolinSummary":
        if not values:
            return ViolinSummary(0, 0.0, 0.0, 0.0, 0.0, 0.0)
        q = quantiles(values)
        return ViolinSummary(count=len(values), p5=q[0.05], p25=q[0.25],
                             median=q[0.5], p75=q[0.75], p95=q[0.95])


def violin_summary(values: list[float]) -> ViolinSummary:
    """Shorthand for :meth:`ViolinSummary.of`."""
    return ViolinSummary.of(values)


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of their positions."""
    order = np.argsort(values, kind="mergesort")
    ordered = values[order]
    first = np.concatenate(([True], ordered[1:] != ordered[:-1]))
    starts = np.flatnonzero(first)
    ends = np.append(starts[1:], values.size)
    ranks = np.empty(values.size)
    ranks[order] = ((starts + ends + 1) / 2.0)[np.cumsum(first) - 1]
    return ranks


def spearman(x: list[float], y: list[float]) -> float:
    """Spearman rank correlation coefficient: the Pearson correlation of
    the average ranks.  0 for samples under 3, NaN-bearing samples and
    constant samples, which have no rank correlation."""
    if len(x) != len(y):
        raise ValueError("x and y must have equal length")
    if len(x) < 3:
        return 0.0
    a = np.asarray(x, dtype=float)
    b = np.asarray(y, dtype=float)
    if np.isnan(a).any() or np.isnan(b).any():
        return 0.0
    rank_a, rank_b = _average_ranks(a), _average_ranks(b)
    if np.ptp(rank_a) == 0 or np.ptp(rank_b) == 0:
        return 0.0
    return float(np.corrcoef(rank_a, rank_b)[0, 1])


def fraction_within(errors: list[float], bound: float) -> float:
    """Share of absolute errors within a bound (Figure 22's ±25% check)."""
    if not errors:
        return 0.0
    return sum(1 for error in errors if abs(error) <= bound) / len(errors)
