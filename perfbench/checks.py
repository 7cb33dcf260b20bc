"""Checks of `pba` outputs against references computed apart from the program.

* ``four_state``: closed form of the four-state model, with the limit
  c6 -> 0 taken as +inf.  The model is monotone in every rate, so a box's
  exact extrema sit at its vertices.
* ``cea_inmb``: the demonstration cost-effectiveness model written out again
  from its definition (monthly cycles, ten years, 3.5% discounting).
* ``psa_moments``: Gauss-Legendre quadrature of the four-state outcome under
  independent gamma inputs.
* Curve files: bounds ordered, non-decreasing, running from 0 to 1.

Every check returns a list of ``(label, message)`` failures; empty means pass.
"""

from __future__ import annotations

import csv
import itertools
import math
from pathlib import Path

import numpy as np
from scipy import stats

REL_TOL = 1e-6


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------


def four_state(c: dict) -> float:
    """Expected time outside the absorbing state, starting in state 1.

    t3 = 1/c6, t2 = (1 + c4 t3)/(c4 + c5), T = (1 + c1 t2 + c2 t3)/(c1 + c2 + c3).
    States that cannot be reached do not contribute; a reachable state
    without exit makes T infinite.
    """
    c1, c2, c3, c4, c5, c6 = (c[k] for k in ("c1", "c2", "c3", "c4", "c5", "c6"))
    if c1 + c2 + c3 == 0:
        return math.inf
    reaches_2 = c1 > 0
    reaches_3 = c2 > 0 or (reaches_2 and c4 > 0)
    if (reaches_3 and c6 == 0) or (reaches_2 and c4 + c5 == 0):
        return math.inf
    t3 = 1.0 / c6 if reaches_3 else 0.0
    t2 = (1.0 + c4 * t3) / (c4 + c5) if reaches_2 else 0.0
    return (1.0 + c1 * t2 + c2 * t3) / (c1 + c2 + c3)


def vertex_range(fixed: dict, names, bounds) -> tuple[float, float]:
    """Exact (min, max) of the four-state outcome over a box."""
    values = [
        four_state({**fixed, **dict(zip(names, corner))})
        for corner in itertools.product(*(tuple(b) for b in bounds))
    ]
    return min(values), max(values)


def sliced_boxes(boxed: dict, n: int):
    """(bounds, mass) of every hyperrectangle, boxed names in sorted order.

    The slicing itself is the program's (``pba.slicing``); the benchmark
    checks what the model, optimizer and assembly make of it.
    """
    from pba.minimal_data import MinimalData
    from pba.pbox import build_pbox
    from pba.slicing import discretize_outer

    names = sorted(boxed)
    sliced = []
    for name in names:
        s = boxed[name]
        data = MinimalData(s["min"], s["max"], s.get("median"), s.get("mean"), s.get("std"))
        sliced.append([((e.interval.lo, e.interval.hi), e.mass) for e in discretize_outer(build_pbox(data), n)])
    boxes = []
    for combo in itertools.product(*sliced):
        mass = math.prod(m for _, m in combo)
        boxes.append(([b for b, _ in combo], mass))
    return names, boxes


def four_state_expectation(fixed: dict, boxed: dict, n: int) -> tuple[float, float]:
    """Exact interval of the expected outcome over the sliced boxes."""
    names, boxes = sliced_boxes(boxed, n)
    lo = hi = 0.0
    for bounds, mass in boxes:
        v_lo, v_hi = vertex_range(fixed, names, bounds)
        lo += mass * v_lo
        hi += mass * v_hi
    return lo, hi


def psa_moments(fixed: dict, gammas: dict, nodes: int = 64) -> tuple[float, float]:
    """Mean and variance of the four-state outcome under independent gammas.

    ``gammas`` maps a rate to (mean, std); quadrature runs over the
    probability scale with Gauss-Legendre nodes in each coordinate.
    """
    x, w = np.polynomial.legendre.leggauss(nodes)
    u, w = 0.5 * (x + 1.0), 0.5 * w
    names = sorted(gammas)
    axes = []
    for name in names:
        mu, sigma = gammas[name]
        axes.append(stats.gamma.ppf(u, a=(mu / sigma) ** 2, scale=sigma**2 / mu))
    mean = second = 0.0
    for idx in itertools.product(range(nodes), repeat=len(names)):
        weight = math.prod(w[i] for i in idx)
        y = four_state({**fixed, **{name: axes[k][i] for k, (name, i) in enumerate(zip(names, idx))}})
        mean += weight * y
        second += weight * y * y
    return mean, second - mean * mean


CEA_COSTS = np.array([300.0, 2_400.0, 24_000.0, 0.0])
CEA_UTILITIES = np.array([0.95, 0.75, 0.40, 0.0])
CEA_CYCLE_YEARS = 1.0 / 12.0
CEA_CYCLES = 120
CEA_DISCOUNT = 0.035
CEA_WTP = 30_000.0


def _cea_cost_qaly(p: dict, rr: float, device_cost: float) -> tuple[float, float]:
    # states: well, minor, serious, dead (absorbing)
    m = np.zeros((4, 4))
    m[0, 1] = p["p_minor"] * rr
    m[0, 2] = p["p_serious"] * rr
    m[0, 3] = p["p_die"]
    m[1, 0] = 0.15
    m[1, 2] = p["p_minor_serious"]
    m[1, 3] = p["p_die"]
    m[2, 1] = 0.05
    m[2, 3] = p["p_die_serious"]
    m[3, 3] = 1.0
    for i in range(3):
        m[i, i] = 1.0 - m[i].sum()
    occupancy = np.array([1.0, 0.0, 0.0, 0.0])
    cost = qaly = 0.0
    for t in range(CEA_CYCLES):
        d = (1.0 + CEA_DISCOUNT) ** (-t * CEA_CYCLE_YEARS)
        cost += d * CEA_CYCLE_YEARS * float(occupancy @ CEA_COSTS)
        qaly += d * CEA_CYCLE_YEARS * float(occupancy @ CEA_UTILITIES)
        occupancy = occupancy @ m
    return cost + device_cost, qaly


def cea_inmb(p: dict) -> float:
    """INMB of the device strategy (rate ratio ``rr``) over the comparator."""
    cost_a, qaly_a = _cea_cost_qaly(p, p["rr"], p["device_cost"])
    cost_b, qaly_b = _cea_cost_qaly(p, 1.0, 0.0)
    return CEA_WTP * (qaly_a - qaly_b) - (cost_a - cost_b)


def precise_draws(precise: dict, samples: int, seed: int) -> list[dict]:
    """The Monte Carlo draws of the precise block, one seeded stream each.

    Beta inputs are moment matched; names are drawn in sorted order, one
    uniform each, through the inverse CDF.
    """
    names = sorted(precise)
    draws = []
    for stream in np.random.SeedSequence(seed).spawn(samples):
        u = np.random.default_rng(stream).random(len(names))
        draw = {}
        for name, ui in zip(names, u):
            spec = precise[name]
            if spec["family"] != "beta":
                raise ValueError(f"reference draws cover beta inputs only, not {spec['family']!r}")
            mu, var = spec["mean"], spec["std"] ** 2
            nu = mu * (1.0 - mu) / var - 1.0
            draw[name] = float(stats.beta.ppf(ui, mu * nu, (1.0 - mu) * nu))
        draws.append(draw)
    return draws


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def read_curve(path: Path) -> np.ndarray:
    with open(path) as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["theta", "lbf", "ubf"]:
        raise ValueError(f"unexpected header {rows[0]}")
    return np.array([[float(x) for x in row] for row in rows[1:]])


def check_curve(path: Path) -> list:
    label = f"curve:{path.name}"
    try:
        c = read_curve(path)
    except (OSError, ValueError, IndexError) as exc:
        return [(label, f"unreadable: {exc}")]
    theta, lbf, ubf = c[:, 0], c[:, 1], c[:, 2]
    out = []
    if np.any(np.diff(theta) <= 0):
        out.append((label, "theta not increasing"))
    if np.any(lbf > ubf + 1e-12):
        out.append((label, "lbf above ubf"))
    if np.any(np.diff(lbf) < 0) or np.any(np.diff(ubf) < 0):
        out.append((label, "a bound decreases"))
    if ubf[0] != 0.0 or lbf[-1] != 1.0:
        out.append((label, f"bounds run from {ubf[0]} to {lbf[-1]}, not from 0 to 1"))
    return out


def check_close(label: str, value: float, reference: float, rel: float = REL_TOL) -> list:
    if abs(value - reference) <= rel * abs(reference):
        return []
    return [(label, f"{value!r} differs from reference {reference!r} by more than {rel} relative")]


def check_not_above(label: str, value: float, reference: float) -> list:
    if value <= reference + 1e-12 * abs(reference):
        return []
    return [(label, f"{value!r} exceeds exact bound {reference!r}")]


def check_four_state_interval(label: str, interval, fixed: dict, boxed: dict, n: int) -> list:
    """Lower end equals the vertex reference; upper end never exceeds it."""
    ref_lo, ref_hi = four_state_expectation(fixed, boxed, n)
    return check_close(f"{label}:lower", interval[0], ref_lo) + check_not_above(
        f"{label}:upper", interval[1], ref_hi
    )


def check_inside_envelope(envelope: Path, psa: Path, slack: float) -> list:
    """The PSA CDF lies within the envelope +- ``slack``.

    The envelope is known on its grid only, so a PSA point between grid
    points theta_k <= theta < theta_k+1 is held to lbf(theta_k) - slack and
    ubf(theta_k+1) + slack, which the bounds at theta imply.
    """
    env, cdf = read_curve(envelope), read_curve(psa)
    grid = env[:, 0]
    k = np.searchsorted(grid, cdf[:, 0], side="right") - 1
    lower = np.where(k >= 0, env[np.clip(k, 0, None), 1], 0.0)
    upper = np.where(k + 1 < len(grid), env[np.clip(k + 1, None, len(grid) - 1), 2], 1.0)
    f = cdf[:, 1]
    bad = int(np.sum((f < lower - slack) | (f > upper + slack)))
    return [("psa-in-envelope", f"{bad} PSA points outside the envelope +-{slack}")] if bad else []


def check_oracle(path: Path, stats_: dict, gridsize: int = 101, probes: int = 25) -> list:
    """Curve agrees with the brute-force oracle within one oracle grid step.

    The oracle step h = (max - min)/(gridsize - 1) is at most two curve rows,
    1.1 (max - min)/(rows - 1) each for 201 rows, so the bounds two rows either
    side bracket the bounds at theta -+ h.  The median+mean box is an
    intersection bound, so there the oracle range only has to lie inside it.
    """
    from pba.minimal_data import MinimalData
    from pba.oracle import oracle_cdf_bounds

    c = read_curve(path)
    d = MinimalData(stats_["min"], stats_["max"], stats_.get("median"), stats_.get("mean"), stats_.get("std"))
    if 2 * (c[1, 0] - c[0, 0]) < (d.maximum - d.minimum) / (gridsize - 1):
        return [("oracle", f"curve grid of {len(c)} rows is finer than the check allows")]
    inside = np.flatnonzero((c[:, 0] > d.minimum) & (c[:, 0] < d.maximum))
    inside = inside[(inside > 1) & (inside < len(c) - 2)]
    one_sided = d.median is not None and d.mean is not None
    out = []
    for k in inside[np.linspace(0, len(inside) - 1, probes).astype(int)]:
        iv = oracle_cdf_bounds(d, float(c[k, 0]), gridsize)
        lo_ok = c[k - 2, 1] - 1e-9 <= iv.lo and (one_sided or iv.lo <= c[k + 2, 1] + 1e-9)
        hi_ok = iv.hi <= c[k + 2, 2] + 1e-9 and (one_sided or c[k - 2, 2] - 1e-9 <= iv.hi)
        if not (lo_ok and hi_ok):
            out.append(("oracle", f"at theta={c[k, 0]!r}: oracle [{iv.lo}, {iv.hi}] vs curve"))
    return out
