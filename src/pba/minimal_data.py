"""Summary-statistic descriptions of an imprecisely known parameter.

A ``MinimalData`` holds whichever of {min, max, median, mean, std} are
available for a parameter.  The combination present selects which pair of
bounding CDFs can be constructed for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    InfeasibleMedianMean,
    InfeasibleVariance,
    ReversedBounds,
    StatisticOutOfRange,
)

# The five supported statistic combinations.
KIND_MINMAX = "minmax"
KIND_MEDIAN = "minmax-median"
KIND_MEAN = "minmax-mean"
KIND_MEAN_STD = "minmax-mean-std"
KIND_MEDIAN_MEAN = "minmax-median-mean"


@dataclass(frozen=True)
class MinimalData:
    """Available summary statistics for one bounded parameter.

    ``minimum`` and ``maximum`` are always required.  ``median``, ``mean``
    and ``std`` are optional, but ``std`` needs ``mean``, and the
    median+std combination is not supported (no closed-form bounds).
    """

    minimum: float
    maximum: float
    median: float | None = None
    mean: float | None = None
    std: float | None = None

    @property
    def kind(self) -> str:
        if self.std is not None:
            return KIND_MEAN_STD
        if self.median is not None and self.mean is not None:
            return KIND_MEDIAN_MEAN
        if self.mean is not None:
            return KIND_MEAN
        if self.median is not None:
            return KIND_MEDIAN
        return KIND_MINMAX


def min_max(a: float, b: float) -> MinimalData:
    return validate_minimal_data(MinimalData(a, b))


def min_max_median(a: float, b: float, m: float) -> MinimalData:
    return validate_minimal_data(MinimalData(a, b, median=m))


def min_max_mean(a: float, b: float, mu: float) -> MinimalData:
    return validate_minimal_data(MinimalData(a, b, mean=mu))


def min_max_mean_std(a: float, b: float, mu: float, sigma: float) -> MinimalData:
    return validate_minimal_data(MinimalData(a, b, mean=mu, std=sigma))


def min_max_median_mean(a: float, b: float, m: float, mu: float) -> MinimalData:
    return validate_minimal_data(MinimalData(a, b, median=m, mean=mu))


def validate_minimal_data(d: MinimalData) -> MinimalData:
    """Check feasibility of the statistics; return ``d`` unchanged if valid.

    Raises:
        ReversedBounds: min >= max (known constants belong in the fixed
            parameter set, not in a degenerate box).
        StatisticOutOfRange: median or mean outside [min, max], or a
            statistic is not a finite number.
        InfeasibleVariance: std**2 > (max - mean)(mean - min).
        InfeasibleMedianMean: mean outside [(min+median)/2, (median+max)/2].
    """
    a, b = d.minimum, d.maximum
    for name in ("minimum", "maximum", "median", "mean", "std"):
        v = getattr(d, name)
        if v is not None and not math.isfinite(v):
            raise StatisticOutOfRange(f"{name} must be finite, got {v}")
    if d.std is not None and d.mean is None:
        raise StatisticOutOfRange("std given without mean")
    if d.std is not None and d.median is not None:
        raise StatisticOutOfRange("median together with std is not supported")
    if not a < b:
        raise ReversedBounds(f"need min < max, got [{a}, {b}]")
    if d.median is not None and not (a <= d.median <= b):
        raise StatisticOutOfRange(f"median {d.median} outside [{a}, {b}]")
    if d.mean is not None and not (a <= d.mean <= b):
        raise StatisticOutOfRange(f"mean {d.mean} outside [{a}, {b}]")
    if d.std is not None:
        if d.std < 0:
            raise StatisticOutOfRange(f"std must be non-negative, got {d.std}")
        cap = (b - d.mean) * (d.mean - a)
        if d.std**2 > cap:
            raise InfeasibleVariance(
                f"std**2 = {d.std**2} exceeds (max-mean)(mean-min) = {cap}"
            )
    if d.median is not None and d.mean is not None:
        mu_min = 0.5 * (a + d.median)
        mu_max = 0.5 * (d.median + b)
        if not (mu_min <= d.mean <= mu_max):
            raise InfeasibleMedianMean(
                f"mean {d.mean} outside [{mu_min}, {mu_max}] implied by median {d.median}"
            )
    return d
