"""Deterministic box-constrained global optimization.

A self-contained DIRECT-style optimizer: normalize the box to a unit cube,
evaluate centers, trisect potentially optimal rectangles along their longest
sides, and select candidates by the lower convex hull of (diameter, value)
pairs.  Derivative-free and fully deterministic, so repeated runs on the
same inputs give identical results.  Maximization runs on the negated
objective.  Vertex enumeration covers coordinate-monotone objectives
exactly, and is how propagation treats models declared monotone.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import DimensionTooLarge, NonFiniteObjective, SingularSystem
from .interval import Interval

MIN = "min"
MAX = "max"


@dataclass(frozen=True)
class OptimizerSettings:
    """Per-box evaluation budget and relative diameter tolerance."""

    budget: int = 2000
    tol: float = 1e-6

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError(f"budget must be at least 1, got {self.budget}")
        if not 0 < self.tol < 1:
            raise ValueError(f"tol must be in (0, 1), got {self.tol}")


@dataclass(frozen=True)
class SearchBox:
    """Bounds plus the settings of the search over them."""

    bounds: tuple[Interval, ...]
    settings: OptimizerSettings = OptimizerSettings()

    def __post_init__(self):
        if len(self.bounds) == 0:
            raise ValueError("search box needs at least one dimension")


@dataclass(frozen=True)
class OptResult:
    point: tuple[float, ...]
    value: float
    converged: bool
    evaluations: int


class _Rect:
    __slots__ = ("center", "f", "index", "levels", "key", "diameter")

    def __init__(self, center: tuple[float, ...], levels: tuple[int, ...], f: float, index: int):
        self.center = center
        self.f = f
        self.index = index  # creation order, the last tie-break
        self.set_levels(levels)

    def set_levels(self, levels: tuple[int, ...]) -> None:
        self.levels = levels
        self.key = tuple(sorted(levels))  # size class
        self.diameter = 0.5 * math.sqrt(sum(9.0 ** (-l) for l in levels))


def _representatives(classes: dict[tuple[int, ...], list]) -> list[_Rect]:
    """Lowest-f rect of each size class, the earliest created among equals.

    Each class is a heap of (f, index, rect).  A divided rect leaves its
    entry behind in the class it left; such entries are dropped here.
    """
    reps = []
    for key in list(classes):
        heap = classes[key]
        while heap and heap[0][2].key != key:
            heapq.heappop(heap)
        if heap:
            reps.append(heap[0][2])
        else:
            del classes[key]
    return reps


def _potentially_optimal(reps: list[_Rect]) -> list[_Rect]:
    """Size-class representatives on the lower-right convex hull of (diameter, value).

    Levels within a rect differ by at most one, so distinct size classes have
    diameters at least a factor 1 + 8/(9 dim) apart: no two representatives
    tie on diameter, and the sort fixes their order completely.
    """
    reps = sorted(reps, key=lambda r: r.diameter)
    points = [(r.diameter, r.f) for r in reps]
    f_min = min(f for _, f in points)
    out = []
    for rj, (dj, fj) in zip(reps, points):
        k_lo, k_hi = 0.0, math.inf
        for di, fi in points:
            if di > dj:
                slope = (fi - fj) / (di - dj)
                if slope < k_hi:
                    k_hi = slope
            elif di < dj:
                slope = (fj - fi) / (dj - di)
                if slope > k_lo:
                    k_lo = slope
            elif fi < fj:
                break  # an equally large rect with a lower value dominates
        else:
            if k_lo > k_hi:
                continue
            # With the most favorable slope the rect must still undercut f_min.
            if math.isinf(k_hi) or fj - k_hi * dj <= f_min + 1e-13 * max(1.0, abs(f_min)):
                out.append(rj)
    return out


def _direct_minimize(
    f: Callable[[tuple[float, ...]], float],
    dim: int,
    budget: int,
    tol: float,
    prefetch: Callable[[list[tuple[float, ...]]], None] | None = None,
) -> tuple[tuple[float, ...], float, bool, int]:
    """DIRECT on the unit cube: (best point, its value, converged, evaluations).

    Each round's trial points are known before any of them is evaluated;
    ``prefetch``, if given, receives them in evaluation order first.
    """
    evals = 0
    order = itertools.count()
    classes: dict[tuple[int, ...], list] = {}
    # Rects holding the lowest f, as a heap of (diameter, index, rect).  A
    # division always shrinks the diameter, so an entry whose diameter is no
    # longer its rect's is stale.
    f_low = math.inf
    lowest: list = []

    def evaluate(point: tuple[float, ...]) -> float:
        nonlocal evals
        evals += 1
        return f(point)

    def track(rect: _Rect) -> None:
        """File a new or just-divided rect under its size class and the best f."""
        nonlocal f_low, lowest
        heapq.heappush(classes.setdefault(rect.key, []), (rect.f, rect.index, rect))
        if rect.f < f_low:
            f_low, lowest = rect.f, []
        if rect.f == f_low:
            heapq.heappush(lowest, (rect.diameter, rect.index, rect))

    center = tuple(0.5 for _ in range(dim))
    root = _Rect(center, tuple(0 for _ in range(dim)), evaluate(center), next(order))
    track(root)
    d0 = root.diameter

    while True:
        # The best rect: lowest f, then smallest diameter, then earliest.
        while lowest[0][0] != lowest[0][2].diameter:
            heapq.heappop(lowest)
        best = lowest[0][2]
        if best.diameter < tol * d0:
            return best.center, best.f, True, evals
        if evals + 2 > budget:
            return best.center, best.f, False, evals

        # The round's trial points, fixed before any is evaluated: two per
        # longest side of each selected rect, while the budget lasts.
        trials = []
        planned = evals
        for rect in _potentially_optimal(_representatives(classes)):
            lmin = min(rect.levels)
            delta = 3.0 ** (-(lmin + 1))
            sides = []
            for i, level in enumerate(rect.levels):
                if level != lmin:
                    continue
                if planned + 2 > budget:
                    break
                planned += 2
                plus = list(rect.center)
                plus[i] += delta
                minus = list(rect.center)
                minus[i] -= delta
                sides.append((i, tuple(plus), tuple(minus)))
            if sides:
                trials.append((rect, sides))
        if not trials:
            return best.center, best.f, False, evals
        if prefetch is not None:
            prefetch([point for _, sides in trials for _, plus, minus in sides for point in (plus, minus)])

        for rect, sides in trials:
            sampled = []
            for i, plus, minus in sides:
                f_plus = evaluate(plus)
                f_minus = evaluate(minus)
                sampled.append((min(f_plus, f_minus), i, plus, f_plus, minus, f_minus))
            sampled.sort(key=lambda s: (s[0], s[1]))
            levels = list(rect.levels)
            for _, i, p_plus, f_plus, p_minus, f_minus in sampled:
                levels[i] += 1
                for point, value in ((p_plus, f_plus), (p_minus, f_minus)):
                    track(_Rect(point, tuple(levels), value, next(order)))
            rect.set_levels(tuple(levels))  # center keeps the shrunken rect
            track(rect)


def _finite_value(objective: Callable[[Sequence[float]], float], point: tuple[float, ...]) -> float:
    """``objective(point)`` as a float; a NaN or infinity raises ``NonFiniteObjective``."""
    value = float(objective(point))
    if not math.isfinite(value):
        raise NonFiniteObjective(f"objective returned {value}", point=point)
    return value


def optimize_box(
    objective: Callable[[Sequence[float]], float], box: SearchBox, sense: str = MIN
) -> OptResult:
    """Global minimum or maximum of ``objective`` over ``box``.

    Degenerate (zero-width) coordinates are pinned and excluded from the
    search.  The converged flag reports whether the best rectangle shrank
    below ``tol`` times the box diameter before the budget ran out; a spent
    budget is reported through the flag, not as an error.

    An ``objective.prefetch`` attribute, if there is one, is handed the
    points of each DIRECT round (in box coordinates) before they are
    evaluated one by one; it may only speed those calls up.
    """
    if sense not in (MIN, MAX):
        raise ValueError(f"sense must be {MIN!r} or {MAX!r}, got {sense!r}")
    sign = 1.0 if sense == MIN else -1.0
    lows = [iv.lo for iv in box.bounds]
    widths = [iv.width for iv in box.bounds]
    active = [i for i, w in enumerate(widths) if w > 0.0]

    def denormalize(unit_point: Sequence[float]) -> tuple[float, ...]:
        full = list(lows)
        for axis, u in zip(active, unit_point):
            full[axis] = lows[axis] + u * widths[axis]
        return tuple(full)

    def wrapped(unit_point: Sequence[float]) -> float:
        point = denormalize(unit_point)
        return sign * _finite_value(objective, point)

    if not active:
        point = tuple(lows)
        return OptResult(point, _finite_value(objective, point), True, 1)

    prefetch = getattr(objective, "prefetch", None)
    announce = None
    if prefetch is not None:

        def announce(unit_points: list[tuple[float, ...]]) -> None:
            prefetch([denormalize(u) for u in unit_points])

    unit_best, f_best, converged, evals = _direct_minimize(
        wrapped, len(active), box.settings.budget, box.settings.tol, announce
    )
    return OptResult(denormalize(unit_best), sign * f_best, converged, evals)


def vertex_extrema(
    objective: Callable[[Sequence[float]], float], box: SearchBox
) -> tuple[float, float]:
    """Extremes of ``objective`` over all box vertices.

    Exact for objectives monotone in every coordinate; 2**dim evaluations.
    A vertex where the objective raises ``SingularSystem`` with a direction
    counts as that signed infinity, the limit the outcome diverges to there;
    so either extreme may be infinite.  A NaN or infinite return value is
    still rejected.
    """
    dim = len(box.bounds)
    if 2**dim > box.settings.budget:
        raise DimensionTooLarge(f"2**{dim} vertex evaluations exceed budget {box.settings.budget}")
    lo = math.inf
    hi = -math.inf
    for corner in itertools.product(*((iv.lo, iv.hi) for iv in box.bounds)):
        try:
            value = _finite_value(objective, corner)
        except SingularSystem as exc:
            if not exc.direction:
                raise
            value = math.copysign(math.inf, exc.direction)
        lo = min(lo, value)
        hi = max(hi, value)
    return lo, hi
