import numpy as np
import pytest

from pba.cli import export_curve
from pba.errors import EmptyBox, MismatchedSupports
from pba.minimal_data import (
    min_max,
    min_max_mean,
    min_max_mean_std,
    min_max_median,
    min_max_median_mean,
)
from pba.pbox import build_pbox, intersect_pboxes
from pba.slicing import discretize_outer

GRID = np.linspace(-0.2, 1.2, 401)


def test_idempotent():
    p = build_pbox(min_max_mean(0, 1, 0.5))
    q = intersect_pboxes([p, p])
    for t in GRID:
        assert q.lower(t) == pytest.approx(p.lower(t), abs=1e-14)
        assert q.upper(t) == pytest.approx(p.upper(t), abs=1e-14)


def test_mean_median_intersection_nested_in_both():
    pm = build_pbox(min_max_median(0, 1, 0.5))
    pu = build_pbox(min_max_mean(0, 1, 0.5))
    q = intersect_pboxes([pm, pu])
    for t in GRID:
        lo, up = q.lower(t), q.upper(t)
        assert lo == pytest.approx(max(pm.lower(t), pu.lower(t)), abs=1e-12)
        assert up == pytest.approx(min(pm.upper(t), pu.upper(t)), abs=1e-12)
        assert lo >= pm.lower(t) - 1e-12 and lo >= pu.lower(t) - 1e-12
        assert up <= pm.upper(t) + 1e-12 and up <= pu.upper(t) + 1e-12


def test_never_widens():
    boxes = [
        build_pbox(min_max(0, 1)),
        build_pbox(min_max_median(0, 1, 0.3)),
        build_pbox(min_max_mean(0, 1, 0.45)),
    ]
    q = intersect_pboxes(boxes)
    for t in GRID:
        for p in boxes:
            assert q.lower(t) >= p.lower(t) - 1e-12
            assert q.upper(t) <= p.upper(t) + 1e-12


def test_mismatched_supports():
    with pytest.raises(MismatchedSupports):
        intersect_pboxes([build_pbox(min_max(0, 1)), build_pbox(min_max(0, 2))])


def test_empty_box_detected():
    # Median at 0.9 forces half the mass above 0.9, impossible with mean 0.05.
    pm = build_pbox(min_max_median(0, 1, 0.9))
    pu = build_pbox(min_max_mean(0, 1, 0.05))
    with pytest.raises(EmptyBox):
        intersect_pboxes([pm, pu])


def test_random_pairs_match_pointwise_extremes(rng):
    """The intersection equals the direct pointwise max/min exactly.

    Random pairs across all constructor kinds exercise every crossing type,
    including the quadratic ones between standard-deviation branches.
    """

    def random_box(r):
        kind = r.integers(0, 5)
        if kind == 0:
            return build_pbox(min_max(0, 1))
        if kind == 1:
            return build_pbox(min_max_median(0, 1, r.uniform(0.05, 0.95)))
        if kind == 2:
            return build_pbox(min_max_mean(0, 1, r.uniform(0.1, 0.9)))
        if kind == 3:
            mu = r.uniform(0.2, 0.8)
            cap = ((1 - mu) * mu) ** 0.5
            return build_pbox(min_max_mean_std(0, 1, mu, r.uniform(0.1, 0.9) * cap))
        m = r.uniform(0.1, 0.9)
        mu = r.uniform(0.5 * m, 0.5 * (m + 1))
        if mu in (0.0, 1.0):
            mu = 0.5 * (m + mu)
        return build_pbox(min_max_median_mean(0, 1, m, mu))

    checked = 0
    while checked < 40:
        p1, p2 = random_box(rng), random_box(rng)
        try:
            q = intersect_pboxes([p1, p2])
        except EmptyBox:
            continue  # mutually inconsistent statistics; valid outcome
        checked += 1
        for t in GRID:
            want_lo = max(p1.lower(t), p2.lower(t))
            want_up = min(p1.upper(t), p2.upper(t))
            assert q.lower(t) == want_lo, t
            assert q.upper(t) == want_up, t


def test_result_is_valid_pbox():
    q = intersect_pboxes(
        [build_pbox(min_max_median(0, 1, 0.6)), build_pbox(min_max_mean(0, 1, 0.55))]
    )
    lo = np.array([q.lower(t) for t in GRID])
    up = np.array([q.upper(t) for t in GRID])
    assert np.all(np.diff(lo) >= -1e-12)
    assert np.all(np.diff(up) >= -1e-12)
    assert np.all(lo <= up + 1e-12)
    assert q.provenance == "intersection"


def test_crossing_near_end_of_plateau_is_cut():
    """Bounds are exact where curves cross just before a breakpoint.

    The mean's upper bound meets the median's 1/2 plateau in the last 1/17
    of it; a mean bound crosses a mean/std bound near theta = 0.6645.
    """
    m = -0.025912697457781686
    pairs = [
        (build_pbox(min_max_median(-1, 0, m)), build_pbox(min_max_mean(-1, 0, m)), -0.026),
        (
            build_pbox(min_max_mean(0, 1, 0.7481910230437291)),
            build_pbox(min_max_mean_std(0, 1, 0.6980530936632332, 0.09704398592264867)),
            0.6645,
        ),
    ]
    for p1, p2, near in pairs:
        q = intersect_pboxes([p1, p2])
        a, b = p1.support
        for t in np.linspace(a, b, 401).tolist() + [near]:
            assert q.lower(t) == max(p1.lower(t), p2.lower(t)), t
            assert q.upper(t) == min(p1.upper(t), p2.upper(t)), t


def test_intersection_slices_and_exports(tmp_path):
    """Slice ends are the exact quasi-inverses of the pointwise max/min."""
    p1 = build_pbox(min_max_mean(0, 1, 0.7481910230437291))
    p2 = build_pbox(min_max_mean_std(0, 1, 0.6980530936632332, 0.09704398592264867))
    q = intersect_pboxes([p1, p2])
    lower = lambda t: max(p1.lower(t), p2.lower(t))
    upper = lambda t: min(p1.upper(t), p2.upper(t))
    n, h, eps = 10, 1e-9, 1e-12  # eps: rounding of the closed-form inverses
    for j, elem in enumerate(discretize_outer(q, n), start=1):
        left, right = elem.interval
        # right = inf{theta : lower >= j/n}, left = sup{theta : upper <= (j-1)/n}
        assert lower(right) >= j / n - eps and (right == 0.0 or lower(right - h) < j / n), j
        if j > 1:
            assert upper(left - h) <= (j - 1) / n + eps, j
            assert left == 1.0 or upper(left + h) > (j - 1) / n, j
    rows = export_curve(q, 21, tmp_path / "curve.csv").read_text().splitlines()
    assert rows[0] == "theta,lbf,ubf" and len(rows) == 22
    for row in rows[1:]:
        theta, lo, up = map(float, row.split(","))
        assert (lo, up) == (lower(theta), upper(theta)), theta
