import math

import numpy as np
import pytest

from conftest import shifted_sup_distance
from pba.errors import ZeroSlices
from pba.minimal_data import (
    min_max,
    min_max_mean,
    min_max_mean_std,
    min_max_median,
    min_max_median_mean,
)
from pba.pbox import build_pbox
from pba.slicing import discretize_outer, focal_product

ALL_KINDS = [
    min_max(0.0, 1.0),
    min_max_median(0.0, 1.0, 0.4),
    min_max_mean(0.0, 1.0, 0.5),
    min_max_mean_std(0.0, 1.0, 0.4, 0.2),
    min_max_median_mean(0.0, 1.0, 0.2, 0.4),
]


def _step_pair(sliced):
    """Direct step functions of a sliced box (no optimizer involved)."""
    lefts = np.sort([e.interval.lo for e in sliced])
    rights = np.sort([e.interval.hi for e in sliced])
    n = len(lefts)

    def upper(y):
        return np.searchsorted(lefts, y, side="right") / n

    def lower(y):
        return np.searchsorted(rights, y, side="right") / n

    return lower, upper


def test_minmax_slices_are_full_support():
    sliced = discretize_outer(build_pbox(min_max(0, 1)), 4)
    assert len(sliced) == 4
    for e in sliced:
        assert (e.interval.lo, e.interval.hi, e.mass) == (0.0, 1.0, 0.25)


def test_median_slices_split_at_median():
    sliced = discretize_outer(build_pbox(min_max_median(0, 1, 0.4)), 2)
    (e1, e2) = sliced.elements
    assert (e1.interval.lo, e1.interval.hi, e1.mass) == (0.0, 0.4, 0.5)
    assert (e2.interval.lo, e2.interval.hi, e2.mass) == (0.4, 1.0, 0.5)


def test_zero_slices_rejected():
    with pytest.raises(ZeroSlices):
        discretize_outer(build_pbox(min_max(0, 1)), 0)


@pytest.mark.parametrize("d", ALL_KINDS, ids=lambda d: d.kind)
@pytest.mark.parametrize("n", [1, 2, 5, 10, 50])
def test_outer_soundness(d, n):
    """The sliced envelope encloses the analytic box pointwise."""
    p = build_pbox(d)
    lower, upper = _step_pair(discretize_outer(p, n))
    for t in np.linspace(d.minimum - 0.05, d.maximum + 0.05, 301):
        assert lower(t) <= p.lower(t) + 1e-12, (t, n)
        assert upper(t) >= p.upper(t) - 1e-12, (t, n)


@pytest.mark.parametrize("d", ALL_KINDS, ids=lambda d: d.kind)
def test_convergence_in_n(d):
    """Sup distance to the analytic envelope never grows as n doubles."""
    p = build_pbox(d)
    grid = np.linspace(d.minimum, d.maximum, 1001)
    h = (d.maximum - d.minimum) / 1000
    dists = {}
    for n in (5, 10, 20, 50):
        lower, upper = _step_pair(discretize_outer(p, n))
        dists[n] = max(
            shifted_sup_distance(lower, p.lower, grid, h),
            shifted_sup_distance(upper, p.upper, grid, h),
        )
        assert dists[n] <= 1.0 / n + 1e-9, (n, dists[n])
    assert dists[10] <= dists[5] + 1e-12
    assert dists[20] <= dists[10] + 1e-12
    assert dists[50] <= dists[20] + 1e-12


def test_slice_masses_and_order():
    for d in ALL_KINDS:
        sliced = discretize_outer(build_pbox(d), 7)
        assert math.fsum(e.mass for e in sliced) == pytest.approx(1.0, abs=1e-12)
        lefts = [e.interval.lo for e in sliced]
        assert lefts == sorted(lefts)


def test_focal_product_masses():
    a = discretize_outer(build_pbox(min_max(0, 1)), 2)
    b = discretize_outer(build_pbox(min_max_median(0, 1, 0.5)), 2)
    rects = list(focal_product([a, b]))
    assert len(rects) == 4
    assert all(r.mass == pytest.approx(0.25) for r in rects)
    assert math.fsum(r.mass for r in rects) == pytest.approx(1.0)
    assert sorted(r.multi_index for r in rects) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_focal_product_count_scales():
    sliced = [discretize_outer(build_pbox(min_max(0, 1)), 50) for _ in range(3)]
    assert [len(d) for d in sliced] == [50, 50, 50]  # propagate_mixed's cap counts n ** len(names)
    # streaming: taking a few items must not materialize the whole product
    stream = focal_product(sliced)
    first = next(stream)
    assert first.multi_index == (0, 0, 0)
