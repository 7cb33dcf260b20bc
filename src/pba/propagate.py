"""Uncertainty propagation pipelines.

Three pipelines share one outcome representation:

* ``propagate_pboxes``: every uncertain parameter is a p-box; each sliced
  hyperrectangle is minimized and maximized through the model, and the
  per-box extrema accumulate into a pair of weighted step functions.
* ``propagate_mixed``: parameters split into p-boxes and precise CDFs; the
  pure pipeline runs once per Monte Carlo draw of the precise block and the
  step functions average with weight 1/N.
* ``psa_propagate``: the probabilistic-sensitivity-analysis baseline; all
  uncertain parameters precise, plain seeded inverse-transform sampling.

Cumulating per-box minima yields the stochastically smaller outcome
distribution, i.e. the pointwise larger step: minima feed the upper bound
and maxima the lower bound, which keeps lower <= upper everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .distributions import DistributionSpec
from .errors import HyperrectangleCapExceeded, ModelEvaluationError
from .interval import Interval
from .minimal_data import MinimalData
from .optimize import MAX, MIN, SearchBox, optimize_box
from .pbox import build_pbox
from .slicing import DiscretizedPBox, count_hyperrectangles, discretize_outer, focal_product

Model = Callable[[Mapping[str, float]], float]

DEFAULT_HYPERRECT_CAP = 10**6


@dataclass(frozen=True)
class OptimizerSettings:
    """Per-hyperrectangle optimization budget and tolerance."""

    budget: int = 2000
    tol: float = 1e-6


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
    cumulative weights are normalized so both steps reach exactly one.
    """

    def __init__(self, extrema, model_evaluations: int = 0, unconverged_boxes: int = 0):
        arr = np.asarray(list(extrema), dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 3 or arr.shape[0] == 0:
            raise ValueError("need a non-empty sequence of (y_min, y_max, mass) triples")
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


def _box_objective(model: Model, fixed: Mapping[str, float], names: list[str]):
    """The model over one box's parameters, and its cache of evaluated points.

    The MIN and MAX searches of a box both start from the same centres, so the
    cache, keyed on the parameter tuple, saves the second search every point
    the first one already evaluated.
    """
    cache: dict[tuple[float, ...], float] = {}

    def fn(vector) -> float:
        key = tuple(vector)
        if key not in cache:
            args = dict(fixed)
            for name, value in zip(names, key):
                args[name] = value
            cache[key] = _call_model(model, args)
        return cache[key]

    return fn, cache


def _optimize_rect(
    model: Model, fixed: Mapping[str, float], names: list[str], intervals, opt: OptimizerSettings
):
    """(y_min, y_max), distinct model calls and unconverged searches of one box."""
    objective, cache = _box_objective(model, fixed, names)
    box = SearchBox(intervals, budget=opt.budget, tol=opt.tol)
    lo = optimize_box(objective, box, MIN)
    hi = optimize_box(objective, box, MAX)
    bad = (0 if lo.converged else 1) + (0 if hi.converged else 1)
    return (lo.value, hi.value), len(cache), bad


def _optimize_rects(
    model: Model,
    fixed: Mapping[str, float],
    names: list[str],
    sliced: list[DiscretizedPBox],
    opt: OptimizerSettings,
):
    """(y_min, y_max, mass) per box, distinct model calls and unconverged searches.

    Equal focal intervals (a min/max-only p-box slices into n of them) give
    identical boxes; each distinct box is searched once, and every box still
    contributes its own triple and unconverged count.
    """
    searched: dict[tuple[Interval, ...], tuple] = {}
    triples = []
    evals = 0
    bad = 0
    for rect in focal_product(sliced):
        found = searched.get(rect.intervals)
        if found is None:
            found = searched[rect.intervals] = _optimize_rect(model, fixed, names, rect.intervals, opt)
            evals += found[1]
        (lo, hi), _, unconverged = found
        triples.append((lo, hi, rect.mass))
        bad += unconverged
    return triples, evals, bad


def _discretize_all(params: ParameterSet, n: int) -> tuple[list[str], list[DiscretizedPBox]]:
    names = sorted(params.boxed)
    sliced = [discretize_outer(build_pbox(params.boxed[name]), n) for name in names]
    return names, sliced


def propagate_pboxes(
    model: Model,
    params: ParameterSet,
    n: int = 50,
    opt: OptimizerSettings = OptimizerSettings(),
    max_hyperrectangles: int = DEFAULT_HYPERRECT_CAP,
    allow_large: bool = False,
) -> EmpiricalPBox:
    """Propagate pure p-box uncertainty through a black-box model.

    Every boxed parameter is sliced into ``n`` equal-mass focal elements;
    each hyperrectangle in their Cartesian product is minimized and
    maximized over, with fixed parameters held at their values.  Requires an
    empty precise group.
    """
    if params.precise:
        raise ValueError("propagate_pboxes needs an empty precise group; use propagate_mixed")
    if not params.boxed:
        raise ValueError("no boxed parameters to propagate")
    names, sliced = _discretize_all(params, n)
    total = count_hyperrectangles(sliced)
    if total > max_hyperrectangles and not allow_large:
        raise HyperrectangleCapExceeded(
            f"{total} hyperrectangles exceed the cap of {max_hyperrectangles}; "
            "pass allow_large=True to override"
        )
    triples, evals, bad = _optimize_rects(model, params.fixed, names, sliced, opt)
    return EmpiricalPBox(triples, model_evaluations=evals, unconverged_boxes=bad)


def _sample_streams(seed: int, count: int):
    return np.random.SeedSequence(seed).spawn(count)


def _draw_precise(params: ParameterSet, stream) -> dict[str, float]:
    rng = np.random.default_rng(stream)
    names = sorted(params.precise)
    uniforms = rng.random(len(names))
    return {name: float(params.precise[name].ppf(u)) for name, u in zip(names, uniforms)}


def psa_propagate(model: Model, params: ParameterSet, N: int = 50, seed: int = 0) -> EmpiricalPBox:
    """Probabilistic sensitivity analysis: seeded Monte Carlo, precise CDFs.

    Returns an empirical CDF as a degenerate box (both steps coincide).
    Each sample index draws from its own seeded generator stream, so the
    result is a pure function of (inputs, seed) independent of evaluation
    order.
    """
    if params.boxed:
        raise ValueError("psa_propagate needs an empty boxed group")
    if not params.precise:
        raise ValueError("no precise parameters to sample")
    if N < 1:
        raise ValueError(f"need N >= 1 samples, got {N}")
    triples = []
    for stream in _sample_streams(seed, N):
        args = dict(params.fixed)
        args.update(_draw_precise(params, stream))
        y = _call_model(model, args)
        triples.append((y, y, 1.0 / N))
    return EmpiricalPBox(triples, model_evaluations=N)


def propagate_mixed(
    model: Model,
    params: ParameterSet,
    n: int = 50,
    N: int = 50,
    seed: int = 0,
    opt: OptimizerSettings = OptimizerSettings(),
    max_hyperrectangles: int = DEFAULT_HYPERRECT_CAP,
    allow_large: bool = False,
) -> EmpiricalPBox:
    """Propagate mixed p-box and precise-CDF uncertainty.

    Draws ``N`` samples of the precise block by inverse transform, runs the
    pure p-box pipeline for each, and averages the per-sample step functions
    with weight 1/N.  Degenerates to ``propagate_pboxes`` when the precise
    group is empty and to ``psa_propagate`` when the boxed group is empty.
    """
    if not params.precise:
        return propagate_pboxes(model, params, n, opt, max_hyperrectangles, allow_large)
    if not params.boxed:
        return psa_propagate(model, params, N, seed)
    if N < 1:
        raise ValueError(f"need N >= 1 samples, got {N}")
    names, sliced = _discretize_all(params, n)
    total = count_hyperrectangles(sliced) * N
    if total > max_hyperrectangles and not allow_large:
        raise HyperrectangleCapExceeded(
            f"{total} optimizations exceed the cap of {max_hyperrectangles}; "
            "pass allow_large=True to override"
        )
    triples = []
    evals = 0
    bad = 0
    for stream in _sample_streams(seed, N):
        fixed = dict(params.fixed)
        fixed.update(_draw_precise(params, stream))
        draw, draw_evals, draw_bad = _optimize_rects(model, fixed, names, sliced, opt)
        triples.extend((lo, hi, mass / N) for lo, hi, mass in draw)
        evals += draw_evals
        bad += draw_bad
    return EmpiricalPBox(triples, model_evaluations=evals, unconverged_boxes=bad)
