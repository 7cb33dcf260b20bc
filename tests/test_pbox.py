import math

import numpy as np
import pytest

from conftest import cdf_values, random_consistent
from pba.minimal_data import (
    min_max,
    min_max_mean,
    min_max_mean_std,
    min_max_median,
    min_max_median_mean,
)
from pba.errors import InfeasibleVariance
from pba.pbox import (
    LOWER,
    UPPER,
    Constant,
    StdLowerMid,
    StdLowerRight,
    StdUpperLeft,
    StdUpperMid,
    build_pbox,
    intersect_pboxes,
    quasi_inverse,
)
from pba.slicing import discretize_outer

ALL_KINDS = [
    min_max(0.0, 1.0),
    min_max_median(0.0, 1.0, 0.4),
    min_max_mean(0.0, 1.0, 0.5),
    min_max_mean_std(0.0, 1.0, 0.4, 0.2),
    min_max_median_mean(0.0, 1.0, 0.2, 0.4),
]


def test_minmax_step_values():
    p = build_pbox(min_max(0, 1))
    assert p.upper(0.0) == 1.0
    assert p.lower(0.999) == 0.0
    assert p.lower(1.0) == 1.0


def test_median_plateaus():
    p = build_pbox(min_max_median(0, 1, 0.4))
    assert p.lower(0.5) == 0.5
    assert p.upper(0.2) == 0.5
    assert p.lower(0.39) == 0.0
    assert p.upper(0.4) == 1.0


def test_mean_closed_forms():
    p = build_pbox(min_max_mean(0, 1, 0.5))
    assert p.lower(0.75) == pytest.approx(1 / 3, abs=1e-15)
    assert p.upper(0.25) == pytest.approx(2 / 3, abs=1e-15)


def test_mean_std_breakpoints_and_segments():
    mu, sigma = 1.0, 0.0167
    p = build_pbox(min_max_mean_std(0, 10, mu, sigma))
    xi1 = mu - sigma**2 / (10 - mu)
    xi2 = mu + sigma**2 / (mu - 0)
    assert xi1 in p.breakpoints()
    assert xi2 in p.breakpoints()
    assert p.lower(xi1 - 1e-9) == 0.0
    # left branch of the upper bound
    theta = 0.5
    assert p.upper(theta) == pytest.approx(sigma**2 / ((mu - theta) ** 2 + sigma**2))
    # right branch of the lower bound
    theta = 2.0
    assert p.lower(theta) == pytest.approx((theta - mu) ** 2 / ((theta - mu) ** 2 + sigma**2))


def test_eval_bound_outside_support():
    p = build_pbox(min_max(0, 1))
    assert p.value(LOWER, 2.0) == 1.0
    assert p.value(UPPER, -0.001) == 0.0
    pm = build_pbox(min_max_mean(0, 1, 0.5))
    assert pm.value(LOWER, 0.75) == pytest.approx(1 / 3)


@pytest.mark.parametrize("d", ALL_KINDS, ids=lambda d: d.kind)
def test_bounds_are_cdf_shaped(d):
    p = build_pbox(d)
    grid = np.linspace(-0.2, 1.2, 571)
    lo = np.array([p.lower(t) for t in grid])
    up = np.array([p.upper(t) for t in grid])
    assert np.all(np.diff(lo) >= -1e-12)
    assert np.all(np.diff(up) >= -1e-12)
    assert np.all(lo <= up + 1e-12)
    assert lo[0] == 0.0 and up[0] == 0.0
    assert lo[-1] == 1.0 and up[-1] == 1.0
    assert p.lower(d.maximum) == 1.0


@pytest.mark.parametrize("d", ALL_KINDS, ids=lambda d: d.kind)
def test_enclosure_of_consistent_distributions(d, rng):
    """CDFs of 200 random consistent distributions stay inside the bounds."""
    p = build_pbox(d)
    grid = np.linspace(d.minimum, d.maximum, 1000)
    lo = np.array([p.lower(t) for t in grid])
    up = np.array([p.upper(t) for t in grid])
    for _ in range(200):
        xs, ws = random_consistent(d, rng)
        f = cdf_values(xs, ws, grid)
        assert np.all(f >= lo - 1e-9)
        assert np.all(f <= up + 1e-9)


def test_nesting_more_data_tighter():
    """More statistics shrink the box pointwise."""
    grid = np.linspace(-0.1, 1.1, 1000)
    p0 = build_pbox(min_max(0, 1))
    pm = build_pbox(min_max_median(0, 1, 0.4))
    pu = build_pbox(min_max_mean(0, 1, 0.4))
    ps = build_pbox(min_max_mean_std(0, 1, 0.4, 0.15))
    pmm = build_pbox(min_max_median_mean(0, 1, 0.35, 0.4))
    pairs = [(p0, pm), (p0, pu), (pu, ps)]
    pmm_wider = [build_pbox(min_max_median(0, 1, 0.35)), pu]
    pairs += [(wide, pmm) for wide in pmm_wider]
    for wide, tight in pairs:
        for t in grid:
            assert tight.lower(t) >= wide.lower(t) - 1e-12
            assert tight.upper(t) <= wide.upper(t) + 1e-12


def test_median_mean_matches_primitive_intersection():
    """The case-dispatched forms equal max/min of the primitive bounds."""
    grid = np.linspace(-0.1, 1.1, 641)
    for m in (0.0, 0.2, 0.5, 0.8, 1.0):
        mu_lo, mu_hi = 0.5 * m, 0.5 * (m + 1)
        for mu in {mu_lo, mu_hi, 0.5, m, 0.5 * (mu_lo + m), 0.5 * (m + mu_hi), 0.3, 0.6}:
            if not (mu_lo <= mu <= mu_hi) or mu in (0.0, 1.0):
                continue
            combined = build_pbox(min_max_median_mean(0, 1, m, mu))
            via_intersection = intersect_pboxes(
                [build_pbox(min_max_median(0, 1, m)), build_pbox(min_max_mean(0, 1, mu))]
            )
            for t in grid:
                assert combined.lower(t) == pytest.approx(via_intersection.lower(t), abs=1e-11)
                assert combined.upper(t) == pytest.approx(via_intersection.upper(t), abs=1e-11)


def test_median_mean_continuity_across_case_boundaries():
    """Sweeping the mean across case boundaries moves the bounds continuously.

    Jump locations are pinned at the median, so away from that theta the
    bounds at nearby means must be close in sup norm.
    """
    a, b, m = 0.0, 1.0, 0.3
    c = 0.5 * (a + b)
    mu_min, mu_max = 0.5 * (a + m), 0.5 * (m + b)
    eps = 1e-9
    grid = [t for t in np.linspace(a, b, 777) if abs(t - m) > 1e-3]
    for boundary in (c, mu_min + 1e-12, mu_max - 1e-12, m):
        mus = [mu for mu in (boundary - eps, boundary, boundary + eps) if mu_min <= mu <= mu_max]
        boxes = [build_pbox(min_max_median_mean(a, b, m, mu)) for mu in mus]
        for p, q in zip(boxes, boxes[1:]):
            sup = max(
                max(abs(p.lower(t) - q.lower(t)), abs(p.upper(t) - q.upper(t))) for t in grid
            )
            assert sup < 1e-6


def test_degenerate_statistics_give_step_boxes():
    for d in (min_max_mean(0, 1, 0.0), min_max_mean(0, 1, 1.0), min_max_mean_std(0, 1, 0.3, 0.0)):
        p = build_pbox(d)
        at = d.mean
        assert p.lower(at) == 1.0 and p.upper(at) == 1.0
        assert p.upper(at - 1e-12) == 0.0


def test_boundary_variance_two_point_box():
    mu = 0.25
    sigma = math.sqrt((1 - mu) * mu)
    p = build_pbox(min_max_mean_std(0, 1, mu, sigma))
    # Only the two-point {0, 1} distribution is consistent.
    for t in np.linspace(0.01, 0.99, 23):
        assert p.lower(t) == pytest.approx(0.75)
        assert p.upper(t) == pytest.approx(0.75)
    assert p.lower(1.0) == 1.0


def test_std_at_the_cap_within_rounding_is_two_point():
    """std = sqrt(cap) squares back to the cap only within rounding.

    Means on a 1% grid over four supports, std at the cap: every box that
    validates builds, is the two-point {min, max} box, and slices.
    """
    built = 0
    for a, b in ((0.0, 1.0), (0.0, 10.0), (-1.0, 1.0), (1.0, 2.0)):
        for k in range(1, 100):
            mu = a + (b - a) * k / 100
            try:
                d = min_max_mean_std(a, b, mu, math.sqrt((b - mu) * (mu - a)))
            except InfeasibleVariance:  # the root rounded up past the cap
                continue
            p = build_pbox(d)
            phi = (b - mu) / (b - a)
            assert p.lower(mu) == p.upper(mu) == phi
            assert len(discretize_outer(p, 10).elements) == 10
            built += 1
    assert built == 282


def test_std_below_the_cap_keeps_general_segments():
    rng = np.random.default_rng(31)
    for _ in range(200):
        a = rng.uniform(-5, 5)
        b = a + rng.uniform(0.1, 10)
        mu = rng.uniform(a, b)
        sigma = math.sqrt((b - mu) * (mu - a)) * rng.uniform(0.01, 0.999)
        p = build_pbox(min_max_mean_std(a, b, mu, sigma))
        xi1, xi2 = mu - sigma**2 / (b - mu), mu + sigma**2 / (mu - a)
        expected = {
            LOWER: [(-math.inf, xi1, Constant(0.0)), (xi1, xi2, StdLowerMid(a, b, mu, sigma)),
                    (xi2, b, StdLowerRight(mu, sigma)), (b, math.inf, Constant(1.0))],
            UPPER: [(-math.inf, a, Constant(0.0)), (a, xi1, StdUpperLeft(mu, sigma)),
                    (xi1, xi2, StdUpperMid(a, b, mu, sigma)), (xi2, math.inf, Constant(1.0))],
        }
        for side, segs in expected.items():
            got = [(s.start.hex(), s.end.hex(), s.expr) for s in p._segments(side)]
            assert got == [(s.hex(), e.hex(), x) for s, e, x in segs]


@pytest.mark.parametrize("seed", [5, 6])
def test_std_a_few_ulps_below_the_cap_builds_and_slices(seed):
    """std**2 = cap * (1 - k * eps): the kinks land within ulps of min and max.

    The middle pieces are evaluated through the slack below the cap and the
    kinks are kept strictly inside the support, so every such box builds,
    keeps ordered, non-decreasing bounds, slices and inverts.
    """
    rng = np.random.default_rng(seed)
    eps = np.finfo(float).eps
    for _ in range(500):
        a = rng.uniform(-5, 5)
        b = a + rng.uniform(0.1, 10)
        mu = rng.uniform(a, b)
        cap = (b - mu) * (mu - a)
        for k in (2, 3, 5, 10, 20, 50, 100, 1e3, 1e4, 1e6):
            p = build_pbox(min_max_mean_std(a, b, mu, math.sqrt(cap * (1 - k * eps))))
            assert len(discretize_outer(p, 10).elements) == 10
            grid = sorted({*np.linspace(a, b, 11).tolist(), *p.breakpoints()})
            lower = np.array([p.lower(t) for t in grid])
            upper = np.array([p.upper(t) for t in grid])
            assert np.all(lower <= upper)
            # Closed forms evaluated in floating point are monotone up to rounding.
            assert np.all(np.diff(lower) >= -1e-12) and np.all(np.diff(upper) >= -1e-12)
            for side in (LOWER, UPPER):
                for prob in (0.0, 0.25, 0.5, 0.75, 1.0):
                    quasi_inverse(p, side, prob)


def _bounds_on_grid(d):
    """Lower and upper bound of ``build_pbox(d)`` on 641 points around its support."""
    p = build_pbox(d)
    w = d.maximum - d.minimum
    grid = np.linspace(d.minimum - 0.1 * w, d.maximum + 0.1 * w, 641)
    return p, np.array([p.lower(t) for t in grid]), np.array([p.upper(t) for t in grid])


def test_median_mean_is_max_min_of_median_and_mean_boxes_at_boundaries():
    """Medians on a 1% grid with the mean at either feasible end or the midpoint.

    Every such box builds, slices, and equals the pointwise max (lower) and
    min (upper) of its median-only and mean-only boxes.
    """
    count = 0
    for a in (0.0, 0.1, 1.0, -1.0, 2.0):
        for b in (a + 1.0, a + 10.0):
            centred = _bounds_on_grid(min_max_mean(a, b, 0.5 * (a + b)))
            for k in range(1, 100):
                m = round(a + (b - a) * k / 100, 10)
                _, med_lo, med_up = _bounds_on_grid(min_max_median(a, b, m))
                for mu in sorted({0.5 * (a + m), 0.5 * (m + b), 0.5 * (a + b)}):
                    count += 1
                    p, lo, up = _bounds_on_grid(min_max_median_mean(a, b, m, mu))
                    for n in (2, 10, 50):
                        assert len(discretize_outer(p, n)) == n
                    _, mean_lo, mean_up = (
                        centred if mu == 0.5 * (a + b) else _bounds_on_grid(min_max_mean(a, b, mu))
                    )
                    assert np.array_equal(lo, np.maximum(med_lo, mean_lo)), (a, b, m, mu)
                    assert np.array_equal(up, np.minimum(med_up, mean_up)), (a, b, m, mu)
    assert count == 2970


@pytest.mark.parametrize(
    "stats, side, prob",
    [((0.0, 1.0, 0.2, 0.5), UPPER, 0.625), ((-1.0, 0.0, -0.08, -0.54), LOWER, 0.5)],
)
def test_quasi_inverse_ordered_where_inverse_rounds_past_segment(stats, side, prob):
    """An inverse that rounds past its segment's end still gives lo <= hi."""
    p = build_pbox(min_max_median_mean(*stats))
    iv = quasi_inverse(p, side, prob)
    assert iv.lo == iv.hi == stats[2]
