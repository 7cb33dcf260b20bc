"""DIRECT for every search of an ``optimize_boxes`` window, as arrays.

The rectangles of all the searches are rows of one set of numpy arrays, and
a round's bookkeeping (class representatives, convergence, the hull test,
trial points, and the children of the divided rects) is a few array passes
over the whole window: no object, heap or generator per rectangle.  Every
float is computed by the same operations, in the same order, as in a search
run alone, so a search's trajectory does not depend on the other searches
of its window.
"""

from __future__ import annotations

import collections
import itertools
import math

from ._lazy import np
from .optimize import MIN, OptResult, Point, SearchBox

# The arrays of a ``Direct``: a row per rect, and a row per search in search order.
_Rects = collections.namedtuple("_Rects", "search centre levels f")
_Searches = collections.namedtuple("_Searches", "sign budget evals end base axes lows widths")


class Direct:
    """DIRECT on the unit cube for the searches of a window whose boxes have
    ``dim`` coordinates with a width.

    Per search, in search order: its sign (-1 to maximize), budget,
    evaluations, ``end`` (``tol`` times the box's diameter) and the box's
    lower bounds ``base``; unit coordinate ``u`` is box coordinate
    ``axes[s, u]``, at ``lows[s, u] + c * widths[s, u]``.  Per rect, in
    order of creation: its search's slot, centre, levels (trisections per
    axis) and signed f.  A rect's box point, as evaluated, is its centre
    mapped so, and a trial point is its rect's centre with one coordinate
    moved, mapped the same way.

    Levels within a rect differ by at most one, so their sum names its size
    class, and a larger sum a diameter smaller by a factor at least
    1 + 8/(9 dim).  A diameter comes from the rect's own levels, their
    squares added left to right, so no compensated sum changes it; in three
    or more dimensions two rects of one class may differ in its last bit.

    Each round, per search: the lowest-f rect of each class, the earliest
    created among equals, represents it; the best rect, by f, then diameter,
    is a representative, and the search has converged once its diameter is
    below ``end``.  Otherwise each representative on the lower-right convex
    hull of (diameter, f) is trisected along its longest sides, two trial
    points per side in order of diameter, then axis, while the budget lasts;
    a search whose budget allows no side ends unconverged.  A rect's sides
    divide it in order of their lower value, then axis, creating its
    children in that order, plus before minus.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.numbers: list[int] = []  # search number per slot
        self.added: list[tuple] = []  # (number, centre point, ``_Searches`` row) since the last round
        self.searches: _Searches | None = None
        self.rects: _Rects | None = None
        self.points: list[Point] = []  # per rect
        self.round: tuple | None = None  # the sides of the round being evaluated, in point order
        self.ninths, self.thirds = np.zeros(0), np.zeros(0)  # 9**-level and 3**-level

    def add(self, number: int, box: SearchBox, sense: str) -> list[Point]:
        """Start search ``number`` over ``box``; returns its first round, the centre."""
        base = [float(iv.lo) for iv in box.bounds]
        axes = [axis for axis, iv in enumerate(box.bounds) if iv.width > 0.0]
        widths = [float(box.bounds[axis].width) for axis in axes]
        point = list(base)
        for axis, width in zip(axes, widths):
            point[axis] = base[axis] + 0.5 * width
        point = tuple(point)
        sign = 1.0 if sense == MIN else -1.0
        end = box.settings.tol * (0.5 * math.sqrt(self.dim))
        row = (sign, box.settings.budget, 1, end, base, axes, [base[axis] for axis in axes], widths)
        self.added.append((number, point, row))
        return [point]

    def advance(self, values: dict[int, list[float]]) -> dict[int, list[Point] | OptResult]:
        """Take the signed values of the round of each search in ``values``,
        drop every other search, and return each search's next round of
        points or its ``OptResult``."""
        if self.round is not None:
            group, rect, unit, centres, rounds = self.round
            # A search sent no values has stopped: its children are dropped with it below.
            f = np.array([v for k, points in rounds.items() for v in values.get(k) or [0.0] * len(points)])
            # ``group`` numbers the rects in order; each rect's sides divide it by
            # their lower value, then axis, and ``rank`` is a side's place there.
            order = np.lexsort((np.minimum(f[0::2], f[1::2]), group))
            rank = np.empty(len(rect), int)
            rank[order] = np.arange(len(rect)) - np.searchsorted(group, group[order])
            levels = np.empty((len(rect), self.dim), int)
            for r in range(self.dim):  # a divided rect keeps its centre, shrunk along its sides
                at = rank == r
                self.rects.levels[rect[at], unit[at]] += 1
                levels[at] = self.rects.levels[rect[at]]
            made = (2 * order[:, None] + np.arange(2)).ravel()  # the points of the children, in order
            search = self.rects.search[rect[order]].repeat(2)
            children = _Rects(search, centres[made], levels[order].repeat(2, axis=0), f[made])
            self.rects = _Rects(*map(np.concatenate, zip(self.rects, children)))
            points = [point for points in rounds.values() for point in points]
            self.points += [points[j] for j in made.tolist()]
        live = np.array([k in values for k in self.numbers], bool)
        if not live.all():  # drop the searches that have ended or stopped, with their rects
            keep, slot = live[self.rects.search], np.cumsum(live) - 1
            self.rects = _Rects(slot[self.rects.search[keep]], *(a[keep] for a in self.rects[1:]))
            self.points = list(itertools.compress(self.points, keep.tolist()))
            self.searches = _Searches(*(a[live] for a in self.searches))
            self.numbers = list(itertools.compress(self.numbers, live.tolist()))
        added = [entry for entry in self.added if entry[0] in values]
        self.added = []
        if added:  # the searches added since the last round, with their centres
            m = len(added)
            searches = _Searches(*map(np.array, zip(*(row for *_, row in added))))
            f = np.array([values[k][0] for k, *_ in added])
            slots = len(self.numbers) + np.arange(m)
            roots = _Rects(slots, np.full((m, self.dim), 0.5), np.zeros((m, self.dim), int), f)
            if self.rects is not None:
                searches = _Searches(*map(np.concatenate, zip(self.searches, searches)))
                roots = _Rects(*map(np.concatenate, zip(self.rects, roots)))
            self.searches, self.rects = searches, roots
            self.numbers += [k for k, *_ in added]
            self.points += [point for _, point, _ in added]
        return self._select()

    def _diameters(self, levels):
        """0.5 * sqrt of the sum of 9**-level over each row of ``levels``,
        added left to right from a table built in Python."""
        top = int(levels.max()) + 2  # ``_select`` reads 3**-(level + 1) too
        if top > len(self.thirds):
            self.ninths = np.array([9.0 ** (-level) for level in range(2 * top)])
            self.thirds = np.array([3.0 ** (-level) for level in range(2 * top)])
        squares = self.ninths[levels[:, 0]]
        for u in range(1, levels.shape[1]):
            squares = squares + self.ninths[levels[:, u]]
        return 0.5 * np.sqrt(squares)

    def _select(self) -> dict[int, list[Point] | OptResult]:
        """Each search's next round of points, or its ``OptResult`` if it has ended."""
        self.round = None
        count = len(self.numbers)
        if not count:
            return {}
        rects, searches = self.rects, self.searches
        # The representative of each (search, class): lowest f, then earliest created.
        sums = rects.levels[:, 0].copy()  # the size class; ``sum(axis=1)`` is slow on short rows
        for u in range(1, self.dim):
            sums += rects.levels[:, u]
        classes = int(sums.max()) + 1
        group = rects.search * classes + sums
        lowest = np.full(count * classes, np.inf)
        np.minimum.at(lowest, group, rects.f)
        tied = np.flatnonzero(rects.f == lowest[group])
        earliest = np.full(count * classes, len(rects.f))
        np.minimum.at(earliest, group[tied], tied)
        reps = tied[tied == earliest[group[tied]]]
        reps = reps[np.argsort(rects.search[reps] * classes - sums[reps])]  # by search, then diameter
        slot = rects.search[reps]
        col = np.arange(len(reps)) - np.searchsorted(slot, slot)
        # (search, representative) arrays, representatives by diameter, padded with infinities.
        shape = (count, int(col.max()) + 1)
        f, d, rows = np.full(shape, np.inf), np.full(shape, np.inf), np.zeros(shape, int)
        f[slot, col], d[slot, col], rows[slot, col] = rects.f[reps], self._diameters(rects.levels[reps]), reps
        f_min = f.min(axis=1)
        best = np.argmax(f == f_min[:, None], axis=1)  # the smallest diameter of the lowest f
        converged = d[np.arange(count), best] < searches.end
        # The lower-right hull: the largest slope from a smaller representative,
        # at least 0, must not exceed the smallest to a larger one, and with
        # that slope a representative must still undercut f_min by the bar.
        # A slope to the padding is NaN, which ``fmax`` and ``fmin`` skip.
        bar = f_min + 1e-13 * np.maximum(1.0, np.abs(f_min))
        larger = np.arange(shape[1])[:, None] < np.arange(shape[1])
        with np.errstate(invalid="ignore"):
            slope = (f[:, None, :] - f[:, :, None]) / (d[:, None, :] - d[:, :, None])  # [s, i, j]: from i up to j
            k_lo = np.maximum(np.fmax.reduce(np.where(larger, slope, -np.inf), axis=1), 0.0)
            k_hi = np.fmin.reduce(np.where(larger, slope, np.inf), axis=2)
            hull = (f < np.inf) & (k_lo <= k_hi) & (np.isinf(k_hi) | (f - k_hi * d <= bar[:, None]))
        hull[converged] = False
        # The round's sides, by search, diameter and axis, cut by each search's budget.
        divided = rows[hull]
        lmin = sums[divided] // self.dim
        group, unit = np.nonzero(rects.levels[divided] == lmin[:, None])
        rect = divided[group]
        slot = rects.search[rect]
        sides = np.bincount(slot, minlength=count)
        taken = np.minimum(sides, (searches.budget - searches.evals) // 2)
        kept = np.arange(len(rect)) - (np.cumsum(sides) - sides)[slot] < taken[slot]
        group, rect, unit, slot = group[kept], rect[kept], unit[kept], slot[kept]
        searches.evals[:] += 2 * taken
        # Two trial centres per side, plus then minus, and their box points.
        delta = np.outer(self.thirds[lmin[group] + 1], (1.0, -1.0)).ravel()
        centres = rects.centre[rect].repeat(2, axis=0)
        centres[np.arange(len(centres)), unit.repeat(2)] += delta
        twice = slot.repeat(2)
        trial = searches.base[twice]
        mapped = searches.lows[twice] + centres * searches.widths[twice]
        trial[np.arange(len(trial))[:, None], searches.axes[twice]] = mapped
        trial = list(zip(*trial.T.copy().tolist()))  # from a row per coordinate, the faster ``tolist``
        out, rounds, start = {}, {}, 0
        for s, (k, took) in enumerate(zip(self.numbers, taken.tolist())):
            if took:
                out[k] = rounds[k] = trial[start : start + 2 * took]
                start += 2 * took
            else:
                value = float(searches.sign[s] * f[s, best[s]])
                out[k] = OptResult(self.points[rows[s, best[s]]], value, bool(converged[s]), int(searches.evals[s]))
        self.round = (group, rect, unit, centres, rounds)
        return out
