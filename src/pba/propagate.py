"""Uncertainty propagation pipelines.

``propagate_mixed`` is the one propagation loop.  Parameters split into
p-boxes and precise CDFs; for each Monte Carlo draw of the precise block,
each sliced hyperrectangle of the p-boxes is minimized and maximized through
the model, and the per-box extrema accumulate into a pair of weighted step
functions averaged over the draws.  A model declared monotone
(``pba.models.monotone``) has its box extrema read off the box's vertices,
which may be infinite where the outcome diverges; any other model is searched
by DIRECT.  Its two special forms:

* ``propagate_pboxes``: no precise group, so one empty draw.
* ``psa_propagate``: the probabilistic-sensitivity-analysis baseline; no
  boxed group, so each draw is one model call (plain seeded
  inverse-transform sampling).

Cumulating per-box minima yields the stochastically smaller outcome
distribution, i.e. the pointwise larger step: minima feed the upper bound
and maxima the lower bound, which keeps lower <= upper everywhere.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

from . import _pcg
from ._lazy import np
from .distributions import DistributionSpec
from .errors import HyperrectangleCapExceeded, ModelEvaluationError, NonMonotoneModel
from .interval import Interval
from .minimal_data import MinimalData
from .optimize import MAX, MIN, WINDOW, OptimizerSettings, SearchBox, _search, _vertices, optimize_boxes
from .pbox import build_pbox
from .slicing import DiscretizedPBox, discretize_outer, focal_product

Model = Callable[[Mapping[str, float]], float]

DEFAULT_HYPERRECT_CAP = 10**6


@dataclass(frozen=True)
class ParameterSet:
    """Partition of model inputs into fixed, precise-CDF and boxed groups."""

    fixed: Mapping[str, float] = field(default_factory=dict)
    precise: Mapping[str, DistributionSpec] = field(default_factory=dict)
    boxed: Mapping[str, MinimalData] = field(default_factory=dict)

    def __post_init__(self):
        names = list(self.fixed) + list(self.precise) + list(self.boxed)
        if len(names) != len(set(names)):
            raise ValueError("parameter names must be disjoint across groups")

    @property
    def names(self) -> frozenset[str]:
        return frozenset(self.fixed) | frozenset(self.precise) | frozenset(self.boxed)


class EmpiricalPBox:
    """Weighted step functions bounding the outcome CDF.

    Built from (y_min, y_max, mass) triples, one per optimized
    hyperrectangle (or one degenerate triple per Monte Carlo draw).  The
    cumulative weights are normalized so both steps reach exactly one.  An
    extremum may be +-inf (an outcome unbounded on its box), never NaN;
    ``unbounded_boxes`` counts the triples with an infinite end.
    """

    def __init__(self, extrema, model_evaluations: int = 0, unconverged_boxes: int = 0):
        arr = np.asarray(list(extrema), dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 3 or arr.shape[0] == 0:
            raise ValueError("need a non-empty sequence of (y_min, y_max, mass) triples")
        if np.any(np.isnan(arr)):
            raise ValueError("found a NaN in a (y_min, y_max, mass) triple")
        y_min, y_max, mass = arr[:, 0], arr[:, 1], arr[:, 2]
        if np.any(y_min > y_max):
            raise ValueError("found a triple with y_min > y_max")
        if np.any(mass <= 0):
            raise ValueError("masses must be positive")
        total = math.fsum(mass)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"masses sum to {total}, expected 1 within 1e-9")
        self.extrema = tuple(map(tuple, arr))
        self.model_evaluations = model_evaluations
        self.unconverged_boxes = unconverged_boxes
        self.unbounded_boxes = int(np.count_nonzero(np.isinf(y_min) | np.isinf(y_max)))

        up_order = np.argsort(y_min, kind="stable")
        self._up_y = y_min[up_order]
        self._up_c = np.cumsum(mass[up_order])
        self._up_c /= self._up_c[-1]
        lo_order = np.argsort(y_max, kind="stable")
        self._lo_y = y_max[lo_order]
        self._lo_c = np.cumsum(mass[lo_order])
        self._lo_c /= self._lo_c[-1]

    @staticmethod
    def _step(jumps: np.ndarray, cum: np.ndarray, y):
        idx = np.searchsorted(jumps, np.asarray(y, dtype=float), side="right")
        padded = np.concatenate([[0.0], cum])
        out = padded[idx]
        return float(out) if np.isscalar(y) or np.asarray(y).ndim == 0 else out

    def lower(self, y):
        """Lower bounding step (cumulated per-box maxima)."""
        return self._step(self._lo_y, self._lo_c, y)

    def upper(self, y):
        """Upper bounding step (cumulated per-box minima)."""
        return self._step(self._up_y, self._up_c, y)

    def support(self) -> Interval:
        return Interval(float(self._up_y[0]), float(self._lo_y[-1]))

    def lower_steps(self) -> tuple[np.ndarray, np.ndarray]:
        return self._lo_y.copy(), self._lo_c.copy()

    def upper_steps(self) -> tuple[np.ndarray, np.ndarray]:
        return self._up_y.copy(), self._up_c.copy()

    @property
    def is_degenerate(self) -> bool:
        """True when both steps coincide (a plain empirical CDF)."""
        return (
            len(self._lo_y) == len(self._up_y)
            and bool(np.all(self._lo_y == self._up_y))
            and bool(np.all(self._lo_c == self._up_c))
        )


def _call_model(model: Model, args: Mapping[str, float]) -> float:
    try:
        return float(model(args))
    except Exception as exc:
        if isinstance(exc, ModelEvaluationError):
            raise
        raise ModelEvaluationError(f"model raised {exc!r}", params=args) from exc


def _optimize_rects(
    model: Model,
    fixed: Mapping[str, float],
    names: list[str],
    sliced: list[DiscretizedPBox],
    opt: OptimizerSettings,
):
    """(y_min, y_max, mass) per box, distinct model calls and unconverged searches.

    With no boxed names the only box is the point ``fixed``: one model call,
    returned as the degenerate triple (y, y, 1.0).  Otherwise every box is
    searched through one ``optimize_boxes`` call.  A model marked monotone
    takes each box's extrema from a vertex search, which may read an
    infinity where the outcome diverges; all of them share one cache, since
    neighbouring boxes share vertices: at most (2n)**d model calls, and
    nothing left unconverged.  Any other model gets a DIRECT MIN and MAX
    search per box, sharing the box's cache.  Equal focal intervals (a
    min/max-only p-box slices into n of them) give identical boxes; each
    distinct box is searched once, and every box still contributes its own
    triple and unconverged count.

    A cache maps a point to its value or the ``ModelEvaluationError`` it
    raised, and is the handle of its searches: ``evaluate`` builds each
    point new to a cache into a parameter mapping once, hands a model's
    ``prefetch`` those mappings as one batch per combined round, then calls
    the model once per point.  Without a ``prefetch`` there is nothing to
    batch, and the searches run one at a time, so that only one search's
    rectangles are held.
    """
    if not names:
        y = _call_model(model, fixed)
        return [(y, y, 1.0)], 1, 0
    rects = [(rect.intervals, rect.mass) for rect in focal_product(sliced)]
    boxes = [SearchBox(intervals, opt) for intervals in dict.fromkeys(intervals for intervals, _ in rects)]
    prefetch = getattr(model, "prefetch", None)
    monotone = getattr(model, "monotone", False)
    evals = 0

    def evaluate(rounds):
        nonlocal evals
        new = []
        for cache, points in rounds:
            for point in points:
                if point not in cache:
                    cache[point] = None  # set below, once per cache
                    args = dict(fixed)
                    args.update(zip(names, point))
                    new.append((cache, point, args))
        if new and prefetch is not None:
            prefetch([args for _, _, args in new])
        for cache, point, args in new:
            try:
                cache[point] = _call_model(model, args)
            except ModelEvaluationError as exc:
                cache[point] = exc
        evals += len(new)
        return [[cache[point] for point in points] for cache, points in rounds]

    shared: dict = {}  # the one cache of every vertex search

    def searches():
        # Made as the window reaches them, so only the boxes in the window hold a cache.
        for box in boxes:
            if monotone:
                yield shared, _vertices(box)
            else:
                cache: dict = {}
                yield cache, _search(box, MIN)
                yield cache, _search(box, MAX)

    results = optimize_boxes(searches(), evaluate, 1 if prefetch is None else WINDOW)
    if monotone:
        _check_monotone(shared, names, sliced)
        found = {box.bounds: (lo, hi, 0) for box, (lo, hi) in zip(boxes, results)}
    else:
        found = {
            box.bounds: (lo.value, hi.value, (not lo.converged) + (not hi.converged))
            for box, lo, hi in zip(boxes, results[::2], results[1::2])
        }
    triples = []
    bad = 0
    for intervals, mass in rects:
        lo, hi, unconverged = found[intervals]
        triples.append((lo, hi, mass))
        bad += unconverged
    return triples, evals, bad


def _check_monotone(cache: dict, names: list[str], sliced: list[DiscretizedPBox]) -> None:
    """Raise ``NonMonotoneModel`` if the values on the grid of slice ends
    both rise and fall between neighbours along one axis.

    Each grid point is a vertex of some box, so the vertex searches' cache
    holds them all, and the check costs no model call.  A difference with
    a vertex where the model diverged (an infinite end) says nothing.
    Passing is necessary for a monotone model, not sufficient: a model that
    turns between grid points passes.  Plain Python, so that a draw that
    has not yet loaded numpy does not load it here.
    """
    ends = [sorted({x for element in pbox for x in (element.interval.lo, element.interval.hi)}) for pbox in sliced]
    grid = list(itertools.product(*ends))
    values = [None if isinstance(cache[point], Exception) else cache[point] for point in grid]
    stride = len(grid)
    for name, along in zip(names, ends):
        stride //= len(along)  # grid[k + stride] is grid[k]'s next neighbour along ``name``
        span = stride * len(along)
        starts = [k for block in range(0, len(grid), span) for k in range(block, block + span - stride)]
        # Each step's direction: True if it rises, False if it falls, None if it says nothing.
        rises = [
            None if a is None or b is None or a == b else b > a
            for a, b in ((values[k], values[k + stride]) for k in starts)
        ]
        if True in rises and False in rises:
            rising, falling = (dict(zip(names, grid[starts[rises.index(kind)]])) for kind in (True, False))
            raise NonMonotoneModel(
                f"model declared monotone is not monotone in {name!r}: on the grid of slice ends it rises "
                f"from {rising} and falls from {falling}, each to the next grid point along {name!r}",
                axis=name,
                rising=rising,
                falling=falling,
            )


def propagate_pboxes(
    model: Model,
    params: ParameterSet,
    n: int = 50,
    opt: OptimizerSettings = OptimizerSettings(),
    max_hyperrectangles: int = DEFAULT_HYPERRECT_CAP,
) -> EmpiricalPBox:
    """Propagate pure p-box uncertainty: ``propagate_mixed`` with no precise group.

    Every boxed parameter is sliced into ``n`` equal-mass focal elements;
    each hyperrectangle in their Cartesian product is minimized and
    maximized over, with fixed parameters held at their values.
    """
    if params.precise:
        raise ValueError("propagate_pboxes needs an empty precise group; use propagate_mixed")
    if not params.boxed:
        raise ValueError("no boxed parameters to propagate")
    return propagate_mixed(model, params, n=n, opt=opt, max_hyperrectangles=max_hyperrectangles)


def _sample_streams(seed: int, count: int):
    """One generator stream per sample: the children of
    ``numpy.random.SeedSequence(seed).spawn(count)``, made lazily by
    ``pba._pcg`` with the same bits.  A bad seed raises here, as numpy's
    ``SeedSequence`` does."""
    return _pcg.streams(seed, count)


def _draw_precise(params: ParameterSet, stream) -> dict[str, float]:
    """One draw of the precise block: the uniforms of
    ``numpy.random.Generator(numpy.random.PCG64(child)).random(k)``, bit for
    bit, for the ``k`` precise names in sorted order, each through its ppf."""
    names = sorted(params.precise)
    uniforms = _pcg.random(stream, len(names))
    return {name: float(params.precise[name].ppf(u)) for name, u in zip(names, uniforms)}


def psa_propagate(model: Model, params: ParameterSet, N: int = 50, seed: int = 0) -> EmpiricalPBox:
    """Probabilistic sensitivity analysis: ``propagate_mixed`` with no boxed group.

    Returns an empirical CDF as a degenerate box (both steps coincide).
    Each sample index draws from its own seeded generator stream, so the
    result is a pure function of (inputs, seed) independent of evaluation
    order.
    """
    if params.boxed:
        raise ValueError("psa_propagate needs an empty boxed group")
    if not params.precise:
        raise ValueError("no precise parameters to sample")
    return propagate_mixed(model, params, N=N, seed=seed)


def propagate_mixed(
    model: Model,
    params: ParameterSet,
    n: int = 50,
    N: int = 50,
    seed: int = 0,
    opt: OptimizerSettings = OptimizerSettings(),
    max_hyperrectangles: int = DEFAULT_HYPERRECT_CAP,
) -> EmpiricalPBox:
    """Propagate mixed p-box and precise-CDF uncertainty.

    Draws ``N`` samples of the precise block by inverse transform, or one
    empty draw when that group is empty, runs the sliced boxes through the
    model for each draw, and weights each (y_min, y_max, mass) triple by
    ``mass / N``.  With no boxed group a draw is one model call; with
    neither group the result is the model's value at ``fixed``.
    ``max_hyperrectangles`` caps the box searches (boxes times draws); PSA
    samples are not capped.
    """
    if params.precise:
        if N < 1:
            raise ValueError(f"need N >= 1 samples, got {N}")
        draws = (_draw_precise(params, stream) for stream in _sample_streams(seed, N))
    else:
        N, draws = 1, [{}]
    names = sorted(params.boxed)
    # discretize_outer cuts each boxed p-box into exactly n focal elements, so
    # the cap is checked before any slicing; it refuses n < 1 itself.
    total = n ** len(names) * N
    if names and n >= 1 and total > max_hyperrectangles:
        raise HyperrectangleCapExceeded(
            f"{total} box searches exceed the cap of {max_hyperrectangles}; "
            "pass a larger max_hyperrectangles to allow them"
        )
    sliced = [discretize_outer(build_pbox(params.boxed[name]), n) for name in names]
    triples = []
    evals = 0
    bad = 0
    for draw in draws:
        fixed = dict(params.fixed)
        fixed.update(draw)
        found, draw_evals, draw_bad = _optimize_rects(model, fixed, names, sliced, opt)
        triples.extend((lo, hi, mass / N) for lo, hi, mass in found)
        evals += draw_evals
        bad += draw_bad
    return EmpiricalPBox(triples, model_evaluations=evals, unconverged_boxes=bad)
