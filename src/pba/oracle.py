"""Brute-force CDF bounds from grid-supported discrete distributions.

Independent cross-check of the closed-form bounds: enumerate every discrete
distribution supported on at most three points of a uniform grid over the
support that satisfies the available statistics, and report the attained
range of F(theta).  Extremal distributions for CDF bounds under at most two
moment-type constraints live on at most three points, so the restriction
costs only grid resolution.
"""

from __future__ import annotations

from ._lazy import np
from .interval import Interval
from .minimal_data import (
    KIND_MEAN,
    KIND_MEAN_STD,
    KIND_MEDIAN,
    KIND_MEDIAN_MEAN,
    KIND_MINMAX,
    MinimalData,
    validate_minimal_data,
)

_MASS_EPS = 1e-10

_cache: dict[tuple[MinimalData, int], tuple[np.ndarray, np.ndarray]] = {}


def _interval_from_linear(lo, hi, feas, coef, rhs):
    """Tighten p-intervals with constraints coef * p >= rhs (vectorized)."""
    pos = coef > 0
    neg = coef < 0
    zero = ~pos & ~neg
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = np.where(coef != 0, rhs / np.where(coef != 0, coef, 1.0), 0.0)
    lo = np.where(pos, np.maximum(lo, bound), lo)
    hi = np.where(neg, np.minimum(hi, bound), hi)
    feas = feas & ~(zero & (rhs > 0))
    return lo, hi, feas


def _point_masses(grid):
    supports = grid[:, None]
    masses = np.ones_like(supports)
    return supports, masses


def _median_pairs(grid, m):
    x, y = np.meshgrid(grid, grid, indexing="ij")
    keep = x < y
    x, y = x[keep], y[keep]
    u = (x <= m).astype(float)
    v = (y <= m).astype(float)
    s = (x >= m).astype(float)
    t = (y >= m).astype(float)
    lo = np.zeros_like(x)
    hi = np.ones_like(x)
    feas = np.ones(x.shape, dtype=bool)
    lo, hi, feas = _interval_from_linear(lo, hi, feas, u - v, 0.5 - v)
    lo, hi, feas = _interval_from_linear(lo, hi, feas, s - t, 0.5 - t)
    feas &= lo <= hi
    x, y, lo, hi = x[feas], y[feas], lo[feas], hi[feas]
    supports = np.concatenate([np.stack([x, y], 1), np.stack([x, y], 1)])
    masses = np.concatenate([np.stack([lo, 1 - lo], 1), np.stack([hi, 1 - hi], 1)])
    return supports, masses


def _mean_pairs(grid, mu):
    x, y = np.meshgrid(grid, grid, indexing="ij")
    keep = (x < y) & (x <= mu) & (mu <= y)
    x, y = x[keep], y[keep]
    p = (y - mu) / (y - x)
    return np.stack([x, y], 1), np.stack([p, 1 - p], 1)


def _triples(grid):
    n = len(grid)
    idx = np.arange(n)
    a = idx[:, None, None]
    b = idx[None, :, None]
    c = idx[None, None, :]
    mask = (a < b) & (b < c)
    i, j, k = np.nonzero(mask)
    return grid[i], grid[j], grid[k]


def _mean_std_triples(grid, mu, sigma):
    x, y, z = _triples(grid)
    s2 = sigma**2
    p = ((mu - y) * (mu - z) + s2) / ((x - y) * (x - z))
    q = ((mu - x) * (mu - z) + s2) / ((y - x) * (y - z))
    r = ((mu - x) * (mu - y) + s2) / ((z - x) * (z - y))
    keep = (
        (p >= -_MASS_EPS)
        & (q >= -_MASS_EPS)
        & (r >= -_MASS_EPS)
        & (p <= 1 + _MASS_EPS)
        & (q <= 1 + _MASS_EPS)
        & (r <= 1 + _MASS_EPS)
    )
    supports = np.stack([x[keep], y[keep], z[keep]], 1)
    masses = np.clip(np.stack([p[keep], q[keep], r[keep]], 1), 0.0, 1.0)
    return supports, masses


def _median_mean_triples(grid, m, mu):
    x, y, z = _triples(grid)
    # One-parameter mass family per support: r free, then
    # q = (mu - r z - (1 - r) x) / (y - x), p = 1 - r - q.
    dq_dr = (x - z) / (y - x)
    q0 = (mu - x) / (y - x)
    dp_dr = -1.0 - dq_dr
    p0 = 1.0 - q0
    lo = np.zeros_like(x)
    hi = np.ones_like(x)
    feas = np.ones(x.shape, dtype=bool)
    # p, q in [0, 1] as linear constraints on r.
    lo, hi, feas = _interval_from_linear(lo, hi, feas, dp_dr, -p0)
    lo, hi, feas = _interval_from_linear(lo, hi, feas, -dp_dr, p0 - 1.0)
    lo, hi, feas = _interval_from_linear(lo, hi, feas, dq_dr, -q0)
    lo, hi, feas = _interval_from_linear(lo, hi, feas, -dq_dr, q0 - 1.0)
    # Median: F(m) >= 1/2 and mass strictly below m at most 1/2.
    at = [(x <= m).astype(float), (y <= m).astype(float), (z <= m).astype(float)]
    below = [(x < m).astype(float), (y < m).astype(float), (z < m).astype(float)]
    coef_at = at[0] * dp_dr + at[1] * dq_dr + at[2]
    base_at = at[0] * p0 + at[1] * q0
    lo, hi, feas = _interval_from_linear(lo, hi, feas, coef_at, 0.5 - base_at)
    coef_bel = below[0] * dp_dr + below[1] * dq_dr + below[2]
    base_bel = below[0] * p0 + below[1] * q0
    lo, hi, feas = _interval_from_linear(lo, hi, feas, -coef_bel, base_bel - 0.5)
    feas &= lo <= hi + 1e-14
    x, y, z = x[feas], y[feas], z[feas]
    dq_dr, q0, dp_dr, p0 = dq_dr[feas], q0[feas], dp_dr[feas], p0[feas]
    out_s, out_m = [], []
    for r in (lo[feas], hi[feas]):
        q = q0 + dq_dr * r
        p = p0 + dp_dr * r
        out_s.append(np.stack([x, y, z], 1))
        out_m.append(np.clip(np.stack([p, q, r], 1), 0.0, 1.0))
    return np.concatenate(out_s), np.concatenate(out_m)


def _enumerate(d: MinimalData, gridsize: int):
    key = (d, gridsize)
    if key in _cache:
        return _cache[key]
    grid = np.linspace(d.minimum, d.maximum, gridsize)
    kind = d.kind
    if kind == KIND_MINMAX:
        out = _point_masses(grid)
    elif kind == KIND_MEDIAN:
        out = _median_pairs(grid, d.median)
    elif kind == KIND_MEAN:
        out = _mean_pairs(grid, d.mean)
    elif kind == KIND_MEAN_STD:
        out = _mean_std_triples(grid, d.mean, d.std)
    elif kind == KIND_MEDIAN_MEAN:
        out = _median_mean_triples(grid, d.median, d.mean)
    else:  # pragma: no cover
        raise ValueError(f"unknown kind {kind}")
    if out[0].shape[0] == 0:
        raise ValueError(
            f"grid of {gridsize} points admits no distribution matching {d}; "
            "use a finer grid"
        )
    _cache[key] = out
    return out


def oracle_cdf_bounds(d: MinimalData, theta: float, gridsize: int = 201) -> Interval:
    """Range of F(theta) over grid-supported distributions consistent with d.

    Enumerates one-, two- and three-point distributions on a uniform
    ``gridsize``-point grid, solving the moment equations for the masses
    exactly; the returned interval brackets the attainable CDF values up to
    grid resolution.
    """
    validate_minimal_data(d)
    if gridsize < 11:
        raise ValueError(f"gridsize must be at least 11, got {gridsize}")
    supports, masses = _enumerate(d, gridsize)
    f = (masses * (supports <= theta)).sum(axis=1)
    return Interval(float(f.min()), float(f.max()))
