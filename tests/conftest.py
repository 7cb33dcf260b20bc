"""Shared test helpers: random distributions consistent with given
statistics, and a cohort kernel cut into slices.

The enclosure tests need discrete distributions that provably satisfy a
MinimalData's constraints.  Each generator builds one by construction
(exact mean/median/std through mixing repair components), so any bound
violation observed in a test is a bound bug, not a generator bug.
"""

from __future__ import annotations

import numpy as np
import pytest

from pba.minimal_data import (
    KIND_MEAN,
    KIND_MEAN_STD,
    KIND_MEDIAN,
    KIND_MEDIAN_MEAN,
    KIND_MINMAX,
    MinimalData,
)


def _random_mean_dist(rng, lo, hi, mu, k=6):
    """Random discrete distribution on [lo, hi] with mean exactly mu."""
    if hi - lo < 1e-14 or abs(mu - lo) < 1e-14 and abs(hi - mu) < 1e-14:
        return np.array([mu]), np.array([1.0])
    if mu <= lo:
        return np.array([lo]), np.array([1.0])
    if mu >= hi:
        return np.array([hi]), np.array([1.0])
    xs = rng.uniform(lo, hi, size=k)
    ws = rng.dirichlet(np.ones(k))
    mean_s = float(xs @ ws)
    lam = 0.25
    while True:
        mean_2 = (mu - (1 - lam) * mean_s) / lam
        if lo <= mean_2 <= hi:
            break
        lam = min(1.0, lam * 1.7)
    q = (hi - mean_2) / (hi - lo)
    xs = np.concatenate([xs, [lo, hi]])
    ws = np.concatenate([(1 - lam) * ws, [lam * q, lam * (1 - q)]])
    return xs, ws


def _mean_var(xs, ws):
    m = float(xs @ ws)
    return m, float(((xs - m) ** 2) @ ws)


def random_consistent(d: MinimalData, rng: np.random.Generator):
    """A random discrete distribution (points, masses) consistent with d."""
    a, b = d.minimum, d.maximum
    kind = d.kind
    if kind == KIND_MINMAX:
        k = rng.integers(1, 8)
        xs = np.concatenate([[a, b][: rng.integers(0, 3)], rng.uniform(a, b, size=k)])
        return xs, rng.dirichlet(np.ones(len(xs)))
    if kind == KIND_MEDIAN:
        m = d.median
        p_below = rng.uniform(0.0, 0.5) if m > a else 0.0
        p_above = rng.uniform(0.0, 0.5) if m < b else 0.0
        xs = [np.array([m])]
        ws = [np.array([1.0 - p_below - p_above])]
        if p_below > 0:
            k = rng.integers(1, 5)
            pts = rng.uniform(a, m, size=k)
            xs.append(pts)
            ws.append(p_below * rng.dirichlet(np.ones(k)))
        if p_above > 0:
            k = rng.integers(1, 5)
            pts = rng.uniform(m, b, size=k)
            xs.append(pts)
            ws.append(p_above * rng.dirichlet(np.ones(k)))
        return np.concatenate(xs), np.concatenate(ws)
    if kind == KIND_MEAN:
        return _random_mean_dist(rng, a, b, d.mean)
    if kind == KIND_MEAN_STD:
        return _random_mean_std_dist(rng, d)
    if kind == KIND_MEDIAN_MEAN:
        m, mu = d.median, d.mean
        lo_b = max(a, 2 * mu - b)
        hi_b = min(m, 2 * mu - m)
        mean_below = rng.uniform(lo_b, hi_b) if hi_b > lo_b else lo_b
        mean_above = 2 * mu - mean_below
        xs_b, ws_b = _random_mean_dist(rng, a, m, mean_below)
        xs_a, ws_a = _random_mean_dist(rng, m, b, mean_above)
        return np.concatenate([xs_b, xs_a]), np.concatenate([0.5 * ws_b, 0.5 * ws_a])
    raise ValueError(kind)


def _random_mean_std_dist(rng, d: MinimalData):
    """Mix of mean-mu components whose variances combine to sigma^2 exactly."""
    a, b, mu, sigma = d.minimum, d.maximum, d.mean, d.std
    var = sigma**2
    spread_var = (b - mu) * (mu - a)
    if var == 0.0:
        return np.array([mu]), np.array([1.0])
    if abs(var - spread_var) < 1e-15 * spread_var:
        q = (b - mu) / (b - a)
        return np.array([a, b]), np.array([q, 1 - q])
    # Narrow two-point component around the mean with variance below target.
    v_c = var * rng.uniform(0.05, 0.5)
    s_min = v_c / (0.95 * (b - mu))
    s_max = 0.95 * (mu - a)
    s = rng.uniform(s_min, min(s_max, max(s_min, np.sqrt(v_c) * 2)))
    s = min(max(s, s_min), s_max)
    x0, x1 = mu - s, mu + v_c / s
    w0 = (x1 - mu) / (x1 - x0)
    center = (np.array([x0, x1]), np.array([w0, 1 - w0]))
    q = (b - mu) / (b - a)
    spread = (np.array([a, b]), np.array([q, 1 - q]))
    beta = rng.uniform(0.0, 0.4)
    while True:
        rand = _random_mean_dist(rng, a, b, mu)
        _, v_r = _mean_var(*rand)
        nu = (var - v_c - beta * (v_r - v_c)) / (spread_var - v_c)
        if 0.0 <= nu <= 1.0 - beta:
            break
        beta *= 0.5
        if beta < 1e-12:
            beta = 0.0
            nu = (var - v_c) / (spread_var - v_c)
            break
    w_center = 1.0 - beta - nu
    xs = np.concatenate([center[0], spread[0], rand[0]])
    ws = np.concatenate([w_center * center[1], nu * spread[1], beta * rand[1]])
    return xs, ws


def cdf_values(xs, ws, thetas):
    """F(theta) of the discrete distribution at each theta (vectorized)."""
    thetas = np.asarray(thetas)
    return (np.asarray(xs)[None, :] <= thetas[:, None]) @ np.asarray(ws)


def shifted_sup_distance(step_fn, analytic_fn, grid, h):
    """Sup distance allowing a horizontal quantization allowance of h."""
    grid = np.asarray(grid)
    step = np.array([step_fn(t) for t in grid])
    worst = 0.0
    candidates = [np.array([analytic_fn(t + s) for t in grid]) for s in (-h, 0.0, h)]
    diffs = np.min([np.abs(step - c) for c in candidates], axis=0)
    worst = float(diffs.max())
    return worst


def assert_within_envelope(step_fn, lo_fn, hi_fn, grid, h=0.0, slack=0.0):
    """Check lo(t - h) - slack <= step(t) <= hi(t + h) + slack on the grid."""
    for t in grid:
        v = step_fn(t)
        assert v >= lo_fn(t - h) - slack - 1e-12, (t, v, lo_fn(t - h))
        assert v <= hi_fn(t + h) + slack + 1e-12, (t, v, hi_fn(t + h))


@pytest.fixture
def rng():
    return np.random.default_rng(987654321)


@pytest.fixture
def totals_in_slices(monkeypatch):
    """``totals_in_slices(most)`` makes the cohort kernel take each stack's
    totals in slices of at most ``most`` matrices, until the test's
    ``monkeypatch`` is undone."""
    from pba import models

    totals = models._doubled_totals

    def cut(most: int) -> None:
        def sliced(spec, stack):
            parts = [totals(spec, stack[i : i + most]) for i in range(0, len(stack), most)]
            return tuple(np.concatenate(column) for column in zip(*parts))

        monkeypatch.setattr(models, "_doubled_totals", sliced)

    return cut
