"""Deterministic box-constrained global optimization.

A self-contained DIRECT-style optimizer: normalize the box to a unit cube,
evaluate centers, trisect potentially optimal rectangles along their longest
sides, and select candidates by the lower convex hull of (diameter, value)
pairs.  Derivative-free and fully deterministic, so repeated runs on the
same inputs give identical results.  Maximization runs on the negated
objective.  Vertex enumeration, which covers coordinate-monotone objectives
exactly and is how propagation treats models declared monotone, is a search
of one round.  A search evaluates nothing itself: ``optimize_boxes`` steps a
window of searches together and hands each combined round of points to one
``evaluate``.  The DIRECT searches of a window keep their rectangles as rows
of one set of arrays (``pba._direct``, loaded by the first DIRECT search).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .errors import DimensionTooLarge, NonFiniteObjective, SingularSystem
from .interval import Interval

MIN = "min"
MAX = "max"

WINDOW = 64  # box searches that ``optimize_boxes`` steps together

Point = tuple[float, ...]
# What a search is sent back for each point: its value, or what evaluating it raised.
Result = float | Exception


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


# A search: its box and MIN or MAX for DIRECT, or None for the box's vertices.
Search = tuple[SearchBox, "str | None"]


def _search(box: SearchBox, sense: str) -> Search:
    """A DIRECT search of ``box`` for its minimum or maximum (see ``pba._direct``);
    a box with no width is one round, its pinned point."""
    if sense not in (MIN, MAX):
        raise ValueError(f"sense must be {MIN!r} or {MAX!r}, got {sense!r}")
    return box, sense


def _vertices(box: SearchBox) -> Search:
    """The extremes over the box's vertices, as a search of one round (see ``vertex_extrema``)."""
    return box, None


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


def _diverged(exc: Exception) -> float:
    """The signed infinity of a ``SingularSystem`` with a direction, ``exc``
    or its cause; any other ``exc`` is raised."""
    cause = exc if isinstance(exc, SingularSystem) else exc.__cause__
    if isinstance(cause, SingularSystem) and cause.direction:
        return math.copysign(math.inf, cause.direction)
    raise exc


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


def optimize_boxes(
    searches: Iterable[tuple[object, Search]],
    evaluate: Callable[[list[tuple[object, list[Point]]]], list[list[Result]]],
    width: int = WINDOW,
) -> list:
    """Each search's result, with up to ``width`` searches stepped together.

    A search is a (handle, ``_search`` or ``_vertices``) pair.  Round by
    round, ``evaluate`` is handed the next round of every search in the
    window, as (handle, points) pairs in search order, and returns each
    point's result.  A vertex search, or a DIRECT search of a box with no
    width, is one round; the other DIRECT searches of the window are
    stepped by one ``Direct`` per shape of box.  A finished search makes
    room for the next, drawn from ``searches`` only then.

    Results equal those of the searches run one by one, and so does the
    error: when search k raises, the searches after it stop, those before
    it run on, and the error of the lowest-numbered failing search is
    raised once they are done.
    """
    if width < 1:
        raise ValueError(f"width must be at least 1, got {width}")
    pending = iter(searches)
    results: list = []
    # Search number: (handle, its next round, its sense, the ``Direct`` that steps it or None).
    window: dict[int, tuple[object, list[Point], str | None, object]] = {}
    directs: dict = {}  # a ``pba._direct.Direct`` per (dim, size) of the DIRECT boxes
    failed: tuple[int, Exception] | None = None
    while True:
        while len(window) < width and failed is None:
            try:
                handle, (box, sense) = next(pending)
            except StopIteration:
                break
            k = len(results)
            results.append(None)
            dim, direct = sum(iv.width > 0.0 for iv in box.bounds), None
            try:
                if sense is None:
                    size, budget = len(box.bounds), box.settings.budget
                    if 2**size > budget:
                        raise DimensionTooLarge(f"2**{size} vertex evaluations exceed budget {budget}")
                    points = list(itertools.product(*((iv.lo, iv.hi) for iv in box.bounds)))
                elif dim:
                    shape = (dim, len(box.bounds))
                    if shape not in directs:
                        from ._direct import Direct  # loaded by the first DIRECT search only

                        directs[shape] = Direct(dim)
                    direct = directs[shape]
                    points = direct.add(k, box, sense)
                else:
                    points = [tuple(iv.lo for iv in box.bounds)]
            except Exception as exc:  # kept to raise once the earlier searches are done
                failed = (k, exc)
            else:
                window[k] = (handle, points, sense, direct)
        if failed is not None:
            window = {k: entry for k, entry in window.items() if k < failed[0]}
        if not window:
            break
        sent = evaluate([(handle, points) for handle, points, _, _ in window.values()])
        values = {}
        for (k, (_, points, sense, direct)), got in zip(window.items(), sent):
            if failed is not None and k > failed[0]:
                break
            try:
                if direct is not None:
                    values[k] = _signed(points, got, 1.0 if sense == MIN else -1.0)
                elif sense is None:
                    found = [_diverged(r) if isinstance(r, Exception) else _finite(c, r) for c, r in zip(points, got)]
                    results[k] = min(found), max(found)
                else:
                    results[k] = OptResult(points[0], _finite(points[0], got[0]), True, 1)
            except Exception as exc:
                failed = (k, exc)
        rounds = {k: step for direct in directs.values() for k, step in direct.advance(values).items()}
        for k, step in rounds.items():
            if isinstance(step, OptResult):
                results[k] = step
        window = {k: (h, rounds[k], s, d) for k, (h, _, s, d) in window.items() if isinstance(rounds.get(k), list)}
    if failed is not None:
        raise failed[1]
    return results
