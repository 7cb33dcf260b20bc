"""Slicing of bounding-CDF pairs into focal elements and hyperrectangles.

The probability axis [0, 1] is cut into equal-mass slices; each slice maps
to a theta interval through the quasi-inverses of the two bounds (outer
convention, so the discretized envelope always encloses the analytic one).
Cartesian products of focal elements across parameters form hyperrectangles
whose masses multiply, mirroring random-set independence.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import ZeroSlices
from .interval import Interval
from .pbox import LOWER, UPPER, Intersection, PBox, quasi_inverse


@dataclass(frozen=True)
class FocalElement:
    """A theta interval carrying probability mass from one slice."""

    interval: Interval
    mass: float

    def __post_init__(self):
        if not 0.0 < self.mass <= 1.0:
            raise ValueError(f"focal mass must be in (0, 1], got {self.mass}")


@dataclass(frozen=True)
class DiscretizedPBox:
    """Ordered focal elements of one sliced p-box; masses sum to one."""

    elements: tuple[FocalElement, ...]

    def __post_init__(self):
        total = math.fsum(e.mass for e in self.elements)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"focal masses sum to {total}, expected 1")
        lefts = [e.interval.lo for e in self.elements]
        if lefts != sorted(lefts):
            raise ValueError("focal elements must be ordered by left endpoint")

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


def discretize_outer(p: PBox | Intersection, n: int) -> DiscretizedPBox:
    """Cut [0, 1] into ``n`` equal-mass slices and invert them outward.

    The j-th slice ((j-1)/n, j/n] maps to the interval from
    inf{theta : ubf(theta) > (j-1)/n}  (the support minimum for j = 1)
    to inf{theta : lbf(theta) >= j/n}.  The strict inverse on the left
    keeps plateau-style bounds (e.g. from a median) from collapsing every
    slice onto the full support while remaining an outer cover.
    """
    if n < 1:
        raise ZeroSlices(f"need at least one slice, got {n}")
    elements = []
    for j in range(1, n + 1):
        left = p.support.lo if j == 1 else quasi_inverse(p, UPPER, (j - 1) / n).hi
        right = max(quasi_inverse(p, LOWER, j / n).lo, left)
        elements.append(FocalElement(Interval(left, right), 1.0 / n))
    return DiscretizedPBox(tuple(elements))


@dataclass(frozen=True)
class Hyperrectangle:
    """Cartesian product of one focal interval per boxed parameter."""

    intervals: tuple[Interval, ...]
    mass: float
    multi_index: tuple[int, ...]


def focal_product(ds: Sequence[DiscretizedPBox]) -> Iterator[Hyperrectangle]:
    """Lazily yield every combination of focal elements across parameters.

    Masses multiply, so the yielded masses total one.  The stream is never
    materialized here; callers enforce any size cap.
    """
    if not ds:
        raise ValueError("need at least one discretized p-box")
    index_ranges = [range(len(d)) for d in ds]
    for multi_index in itertools.product(*index_ranges):
        mass = 1.0
        intervals = []
        for d, k in zip(ds, multi_index):
            elem = d.elements[k]
            mass *= elem.mass
            intervals.append(elem.interval)
        yield Hyperrectangle(tuple(intervals), mass, tuple(multi_index))
