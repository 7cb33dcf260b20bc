"""Deterministic box-constrained global optimization.

A self-contained DIRECT-style optimizer: normalize the box to a unit cube,
evaluate centers, trisect potentially optimal rectangles along their longest
sides, and select candidates by the lower convex hull of (diameter, value)
pairs.  Derivative-free and fully deterministic, so repeated runs on the
same inputs give identical results.  Maximization runs on the negated
objective.  A search evaluates nothing itself: it yields each round's
points, its first centre too, and is sent back their results.
Vertex enumeration, which covers coordinate-monotone objectives exactly and
is how propagation treats models declared monotone, is a search of one
round.  ``optimize_boxes`` steps many searches together and hands each
combined round to one ``evaluate``.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Generator, Iterable, Sequence

from .errors import DimensionTooLarge, NonFiniteObjective, SingularSystem
from .interval import Interval

MIN = "min"
MAX = "max"

WINDOW = 64  # box searches that ``optimize_boxes`` steps together

Point = tuple[float, ...]
# What a search is sent back for each point: its value, or what evaluating it raised.
Result = float | Exception
Search = Generator[list[Point], list[Result], object]


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
    __slots__ = ("center", "point", "f", "index", "levels", "key", "diameter")

    def __init__(self, center: tuple[float, ...], point: tuple[float, ...], shape: tuple, f: float, index: int):
        self.center = center  # in the unit cube
        self.point = point  # the same point in the box, as it was evaluated
        self.f = f
        self.index = index  # creation order, the last tie-break
        self.levels, self.key, self.diameter = shape


@functools.lru_cache(maxsize=None)
def _shape(levels: tuple[int, ...]) -> tuple:
    """(levels, size class, diameter) of a rect, one shared tuple per levels tuple.

    The diameter's squares are added left to right, so it does not depend on
    whether ``sum`` compensates its float additions (Python 3.12 does).
    """
    squares = 0.0
    for level in levels:
        squares += 9.0 ** (-level)
    return levels, tuple(sorted(levels)), 0.5 * math.sqrt(squares)


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
    tie on diameter, the sort fixes their order completely, and the only
    point of a rect's own diameter is the rect itself.
    """
    reps = sorted(reps, key=lambda r: r.diameter)
    points = [(r.diameter, r.f) for r in reps]
    f_min = min(f for _, f in points)
    # With the most favorable slope a rect must still undercut f_min by this much.
    bar = f_min + 1e-13 * max(1.0, abs(f_min))
    out = []
    for j, (dj, fj) in enumerate(points):
        # The largest slope from a smaller rect, at least 0, and the smallest
        # to a larger one.
        k_lo, k_hi = 0.0, math.inf
        for di, fi in points[:j]:
            slope = (fj - fi) / (dj - di)
            if slope > k_lo:
                k_lo = slope
        for di, fi in points[j + 1 :]:
            slope = (fi - fj) / (di - dj)
            if slope < k_hi:
                k_hi = slope
        if k_lo <= k_hi and (math.isinf(k_hi) or fj - k_hi * dj <= bar):
            out.append(reps[j])
    return out


def _finite(point: Point, result: Result) -> float:
    """A point's result as a float: an exception is raised, and a NaN or
    infinity raises ``NonFiniteObjective``."""
    if isinstance(result, Exception):
        raise result
    value = float(result)
    if not math.isfinite(value):
        raise NonFiniteObjective(f"objective returned {value}", point=point)
    return value


def _signed(points: list[Point], results: list[Result], sign: float) -> list[float]:
    """``sign`` times each point's result, read as ``_finite`` reads it; the
    first point in order whose result it rejects raises."""
    try:
        values = [sign * float(result) for result in results]
        if all(map(math.isfinite, values)):
            return values
    except Exception:  # an exception, or a result that is no number
        pass
    return [sign * _finite(point, result) for point, result in zip(points, results)]


def _direct_minimize(
    axes: Sequence[tuple[int, float, float]],
    base: Point,
    budget: int,
    tol: float,
    sign: float,
) -> Generator[list[Point], list[Result], tuple[Point, float, bool, int]]:
    """DIRECT on the unit cube, one round per step of the generator.

    Unit coordinate i is coordinate ``axis`` of the box point, at
    ``lo + u * width`` for ``axes[i] == (axis, lo, width)``; the other
    coordinates keep their values in ``base``.  A trial point is its rect's
    box point with one coordinate replaced, the same floats as mapping its
    whole centre.  Each step yields the box points of the next round, fixed
    before any of them is evaluated, and is sent back their results in that
    order; the first round is the centre alone.  It minimizes ``sign``
    times the values.  Returns (best box point, its signed value,
    converged, evaluations).  The size-class heaps are the only index of
    the rects: no two classes tie on diameter (see ``_potentially_optimal``),
    so the best rect, by f, then diameter, then creation, is a class
    representative.
    """
    order = itertools.count()
    classes: dict[tuple[int, ...], list] = {}
    center = (0.5,) * len(axes)
    point = list(base)
    for axis, lo, width in axes:
        point[axis] = lo + 0.5 * width
    point = tuple(point)
    (result,) = yield [point]
    root = _Rect(center, point, _shape((0,) * len(axes)), sign * _finite(point, result), next(order))
    evals = 1
    classes[root.key] = [(root.f, root.index, root)]
    d0 = root.diameter

    while True:
        reps = _representatives(classes)
        best = min(reps, key=lambda r: (r.f, r.diameter, r.index))
        if best.diameter < tol * d0:
            return best.point, best.f, True, evals

        # The round's trial points, fixed before any is evaluated: two per
        # longest side of each selected rect, while the budget lasts.
        trials = []
        points: list[Point] = []
        for rect in _potentially_optimal(reps):
            lmin = min(rect.levels)
            delta = 3.0 ** (-(lmin + 1))
            sides = []
            for i, level in enumerate(rect.levels):
                if level != lmin:
                    continue
                if evals + 2 > budget:
                    break
                evals += 2
                axis, lo, width = axes[i]
                c = rect.center[i]
                plus, minus = list(rect.point), list(rect.point)
                plus[axis] = lo + (c + delta) * width
                minus[axis] = lo + (c - delta) * width
                points += (tuple(plus), tuple(minus))
                sides.append(i)
            if sides:
                trials.append((rect, delta, sides))
        if not trials:
            return best.point, best.f, False, evals
        values = _signed(points, (yield points), sign)

        k = 0  # the index in ``points`` of the next side's plus point
        for rect, delta, sides in trials:
            sampled = []
            for i in sides:
                f_plus, f_minus = values[k], values[k + 1]
                sampled.append((f_minus if f_minus < f_plus else f_plus, i, k))  # min(f_plus, f_minus)
                k += 2
            sampled.sort()  # by value, then axis: the axes are distinct
            levels = list(rect.levels)
            for _, i, j in sampled:
                levels[i] += 1
                divided = _shape(tuple(levels))
                heap = classes.setdefault(divided[1], [])
                for m, offset in ((j, delta), (j + 1, -delta)):
                    center = list(rect.center)
                    center[i] += offset
                    child = _Rect(tuple(center), points[m], divided, values[m], next(order))
                    heapq.heappush(heap, (child.f, child.index, child))
            rect.levels, rect.key, rect.diameter = divided  # center keeps the shrunken rect
            heapq.heappush(classes.setdefault(rect.key, []), (rect.f, rect.index, rect))


def _search(box: SearchBox, sense: str) -> Generator[list[Point], list[Result], OptResult]:
    """One box search as a generator of DIRECT rounds (see ``_direct_minimize``);
    a box with no width is one round, its pinned point."""
    if sense not in (MIN, MAX):
        raise ValueError(f"sense must be {MIN!r} or {MAX!r}, got {sense!r}")
    sign = 1.0 if sense == MIN else -1.0
    lows = tuple(iv.lo for iv in box.bounds)
    axes = [(axis, iv.lo, iv.width) for axis, iv in enumerate(box.bounds) if iv.width > 0.0]
    if not axes:
        (result,) = yield [lows]
        return OptResult(lows, _finite(lows, result), True, 1)
    point, f_best, converged, evals = yield from _direct_minimize(
        axes, lows, box.settings.budget, box.settings.tol, sign
    )
    return OptResult(point, sign * f_best, converged, evals)


def _vertices(box: SearchBox) -> Generator[list[Point], list[Result], tuple[float, float]]:
    """The extremes over the box's vertices, as a search of one round (see ``vertex_extrema``)."""
    dim = len(box.bounds)
    if 2**dim > box.settings.budget:
        raise DimensionTooLarge(f"2**{dim} vertex evaluations exceed budget {box.settings.budget}")
    corners = list(itertools.product(*((iv.lo, iv.hi) for iv in box.bounds)))
    values = [_diverged(r) if isinstance(r, Exception) else _finite(c, r) for c, r in zip(corners, (yield corners))]
    return min(values), max(values)


def _diverged(exc: Exception) -> float:
    """The signed infinity of a ``SingularSystem`` with a direction, ``exc``
    or its cause; any other ``exc`` is raised."""
    cause = exc if isinstance(exc, SingularSystem) else exc.__cause__
    if isinstance(cause, SingularSystem) and cause.direction:
        return math.copysign(math.inf, cause.direction)
    raise exc


def _pointwise(rounds: list[tuple[Callable[[Point], float], list[Point]]]) -> list[list[Result]]:
    """The ``evaluate`` of searches whose handle is their objective: each
    point is one call, and what a call raises is its result."""
    results = []
    for objective, points in rounds:
        found = []
        for point in points:
            try:
                found.append(objective(point))
            except Exception as exc:  # the search raises it when it reads it
                found.append(exc)
        results.append(found)
    return results


def optimize_box(
    objective: Callable[[Sequence[float]], float], box: SearchBox, sense: str = MIN
) -> OptResult:
    """Global minimum or maximum of ``objective`` over ``box``, one search through ``optimize_boxes``.

    Degenerate (zero-width) coordinates are pinned and excluded from the
    search.  The converged flag reports whether the best rectangle shrank
    below ``tol`` times the box diameter before the budget ran out; a spent
    budget is reported through the flag, not as an error.
    """
    return optimize_boxes([(objective, _search(box, sense))], _pointwise)[0]


def vertex_extrema(
    objective: Callable[[Sequence[float]], float], box: SearchBox
) -> tuple[float, float]:
    """Extremes of ``objective`` over all box vertices, one search through ``optimize_boxes``.

    Exact for objectives monotone in every coordinate; 2**dim evaluations.
    A vertex where the objective raises ``SingularSystem`` with a direction,
    or an error that one caused, counts as that signed infinity, the limit
    the outcome diverges to there; so either extreme may be infinite.  A NaN
    or infinite return value is still rejected.
    """
    return optimize_boxes([(objective, _vertices(box))], _pointwise)[0]


def optimize_boxes(
    searches: Iterable[tuple[object, Search]],
    evaluate: Callable[[list[tuple[object, list[Point]]]], list[list[Result]]],
    width: int = WINDOW,
) -> list:
    """Each search's return value, with up to ``width`` searches stepped together.

    A search is a (handle, generator) pair: ``_search`` or ``_vertices``.
    Round by round, ``evaluate`` is handed the next round of every search in
    the window, as (handle, points) pairs in search order, and returns each
    point's result, which is sent back to its search.  A finished search
    makes room for the next, drawn from ``searches`` only then.

    Results equal those of the searches run one by one, and so does the
    error: when search k raises, the searches after it stop, those before
    it run on, and the error of the lowest-numbered failing search is
    raised once they are done.
    """
    pending = iter(searches)
    results: list = []
    window: list[tuple[int, object, Search, list[Point]]] = []  # (search number, handle, search, its next round)
    failed: tuple[int, Exception] | None = None

    def step(k: int, handle: object, search: Search, sent: list[Result] | None) -> None:
        nonlocal failed
        try:
            points = search.send(sent)
        except StopIteration as done:
            results[k] = done.value
        except Exception as exc:  # kept to raise once the earlier searches are done
            failed = (k, exc)
        else:
            window.append((k, handle, search, points))

    while True:
        while len(window) < width and failed is None:
            try:
                handle, search = next(pending)
            except StopIteration:
                break
            results.append(None)
            step(len(results) - 1, handle, search, None)
        if failed is not None:
            window = [entry for entry in window if entry[0] < failed[0]]
        if not window:
            break
        sent = evaluate([(handle, points) for _, handle, _, points in window])
        stepping, window = window, []
        for (k, handle, search, _), values in zip(stepping, sent):
            if failed is None or k < failed[0]:
                step(k, handle, search, values)
    if failed is not None:
        raise failed[1]
    return results
