"""Acceptance suite: one test per exit criterion, one pass line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import time

import numpy as np
import pytest

from conftest import cdf_values, random_consistent, shifted_sup_distance
from pba.decision import (
    Dominance,
    Hurwicz,
    INDETERMINATE,
    Optimist,
    Pessimist,
    UtilityInterval,
    choose,
)
from pba.distributions import DistributionSpec
from pba.interval import Interval
from pba.minimal_data import (
    min_max,
    min_max_mean,
    min_max_mean_std,
    min_max_median,
    min_max_median_mean,
)
from pba.models import REGISTRY, cohort_trace, demo_cea_spec, discounted_outcomes, inmb
from pba.optimize import MAX, MIN, SearchBox, optimize_box, vertex_extrema
from pba.oracle import oracle_cdf_bounds
from pba.pbox import build_pbox
from pba.propagate import (
    OptimizerSettings,
    ParameterSet,
    propagate_mixed,
    propagate_pboxes,
    psa_propagate,
)
from pba.slicing import discretize_outer

SEED = 20260808

ALL_KINDS = {
    "minmax": min_max(0.0, 1.0),
    "median": min_max_median(0.0, 1.0, 0.4),
    "mean": min_max_mean(0.0, 1.0, 0.5),
    "mean-std": min_max_mean_std(0.0, 1.0, 0.4, 0.2),
    "median-mean": min_max_median_mean(0.0, 1.0, 0.2, 0.4),
}

CASE1_FIXED = {"c2": 0.01, "c3": 0.001, "c4": 0.1, "c5": 0.05}
CASE1_BOXES = {
    "c1": min_max_mean_std(0.0, 10.0, 0.05, 0.00033),
    "c6": min_max_mean_std(0.0, 10.0, 1.0, 0.0167),
}
LIFE_EXPECTANCY = REGISTRY["four_state_life_expectancy"].fn


def report(num: int, message: str):
    print(f"\nACCEPTANCE PASS [{num:02d}]: {message}")


def test_criterion_01_formula_enclosure_suite():
    """200 random consistent distributions per kind stay inside the bounds."""
    started = time.perf_counter()
    rng = np.random.default_rng(SEED)
    for name, d in ALL_KINDS.items():
        p = build_pbox(d)
        grid = np.linspace(d.minimum, d.maximum, 1000)
        lo = np.array([p.lower(t) for t in grid])
        up = np.array([p.upper(t) for t in grid])
        for _ in range(200):
            xs, ws = random_consistent(d, rng)
            f = cdf_values(xs, ws, grid)
            assert np.all(f >= lo - 1e-9), name
            assert np.all(f <= up + 1e-9), name
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(1, f"enclosure of 5x200 consistent CDFs at 1000 points ({elapsed:.1f}s)")


def test_criterion_02_oracle_agreement():
    """Closed-form bounds match the 2/3-point grid oracle within one step."""
    started = time.perf_counter()
    gridsize = 201
    two_sided = ["minmax", "median", "mean", "mean-std"]
    for name in two_sided:
        d = ALL_KINDS[name]
        p = build_pbox(d)
        h = (d.maximum - d.minimum) / (gridsize - 1)
        for theta in np.linspace(d.minimum + 0.013, d.maximum - 0.017, 25):
            iv = oracle_cdf_bounds(d, float(theta), gridsize)
            assert p.lower(theta - h) - 1e-9 <= iv.lo <= p.lower(theta + h) + 1e-9, name
            assert p.upper(theta - h) - 1e-9 <= iv.hi <= p.upper(theta + h) + 1e-9, name
    # The combined median+mean box is an intersection bound; the oracle range
    # must stay inside it (one-sided containment).
    d = ALL_KINDS["median-mean"]
    p = build_pbox(d)
    h = (d.maximum - d.minimum) / (gridsize - 1)
    for theta in np.linspace(d.minimum + 0.013, d.maximum - 0.017, 25):
        iv = oracle_cdf_bounds(d, float(theta), gridsize)
        assert iv.lo >= p.lower(theta - h) - 1e-9
        assert iv.hi <= p.upper(theta + h) + 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    report(2, f"oracle agreement at 25 probes per kind, grid {gridsize} ({elapsed:.1f}s)")


def test_criterion_03_nesting():
    """Adding median, mean, then std tightens the box pointwise."""
    grid = np.linspace(-0.1, 1.1, 1000)
    chains = [
        (build_pbox(min_max(0, 1)), build_pbox(min_max_median(0, 1, 0.4))),
        (build_pbox(min_max(0, 1)), build_pbox(min_max_mean(0, 1, 0.4))),
        (
            build_pbox(min_max_mean(0, 1, 0.4)),
            build_pbox(min_max_mean_std(0, 1, 0.4, 0.15)),
        ),
        (
            build_pbox(min_max_median(0, 1, 0.35)),
            build_pbox(min_max_median_mean(0, 1, 0.35, 0.4)),
        ),
        (
            build_pbox(min_max_mean(0, 1, 0.4)),
            build_pbox(min_max_median_mean(0, 1, 0.35, 0.4)),
        ),
    ]
    violations = 0
    for wide, tight in chains:
        for t in grid:
            if tight.lower(t) < wide.lower(t) - 1e-12 or tight.upper(t) > wide.upper(t) + 1e-12:
                violations += 1
    assert violations == 0
    report(3, "nesting with added statistics at 1000 points, zero violations")


def test_criterion_04_discretization_convergence():
    """Sliced envelopes approach the analytic ones as n grows."""
    for name, d in ALL_KINDS.items():
        p = build_pbox(d)
        grid = np.linspace(d.minimum, d.maximum, 1001)
        h = (d.maximum - d.minimum) / 1000
        dist = {}
        for n in (10, 50):
            sliced = discretize_outer(p, n)
            lefts = np.sort([e.interval.lo for e in sliced])
            rights = np.sort([e.interval.hi for e in sliced])
            upper = lambda y: np.searchsorted(lefts, y, side="right") / n
            lower = lambda y: np.searchsorted(rights, y, side="right") / n
            dist[n] = max(
                shifted_sup_distance(lower, p.lower, grid, h),
                shifted_sup_distance(upper, p.upper, grid, h),
            )
            assert dist[n] <= 1.0 / n + 1e-9, (name, n, dist[n])
        assert dist[50] <= dist[10] + 1e-12, name
    report(4, "sup-distance at n=50 <= n=10 and <= 1/n for all five kinds")


def test_criterion_05_case_study_enclosure():
    """Tight mean-std boxes on c1, c6; gamma-PSA CDF inside the envelope +- 2/50."""
    started = time.perf_counter()
    n = 50
    envelope = propagate_pboxes(
        LIFE_EXPECTANCY,
        ParameterSet(fixed=CASE1_FIXED, boxed=CASE1_BOXES),
        n=n,
        opt=OptimizerSettings(budget=600, tol=1e-6),
    )
    gammas = {k: DistributionSpec.from_moments("gamma", v) for k, v in CASE1_BOXES.items()}
    psa = psa_propagate(
        LIFE_EXPECTANCY, ParameterSet(fixed=CASE1_FIXED, precise=gammas), N=500, seed=SEED
    )
    ys = np.sort([t[0] for t in psa.extrema])
    ecdf = np.arange(1, len(ys) + 1) / len(ys)
    slack = 2.0 / n
    assert np.all(ecdf >= envelope.lower(ys) - slack)
    assert np.all(ecdf <= envelope.upper(ys) + slack)
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    report(5, f"case-study-1 PSA CDF inside envelope +-{slack} ({elapsed:.0f}s)")


def test_criterion_06_minmax_vs_uniform():
    """Uniform PSA is strictly inside the min/max-only envelope."""
    boxes = {"c1": min_max(0.0, 10.0), "c6": min_max(0.0, 10.0)}
    envelope = propagate_pboxes(
        LIFE_EXPECTANCY,
        ParameterSet(fixed=CASE1_FIXED, boxed=boxes),
        n=5,
        opt=OptimizerSettings(budget=600, tol=1e-6),
    )
    uniforms = {k: DistributionSpec.from_moments("uniform", v) for k, v in boxes.items()}
    psa = psa_propagate(
        LIFE_EXPECTANCY, ParameterSet(fixed=CASE1_FIXED, precise=uniforms), N=500, seed=SEED
    )
    ys = np.sort([t[0] for t in psa.extrema])
    ecdf = np.arange(1, len(ys) + 1) / len(ys)
    support = envelope.support()
    assert support.lo < ys[0] and ys[-1] < support.hi  # envelope at least as wide
    assert np.all(ecdf >= envelope.lower(ys) - 1e-12)
    assert np.all(ecdf <= envelope.upper(ys) + 1e-12)
    report(6, "uniform-PSA CDF strictly inside the min/max-only envelope")


def test_criterion_07_optimizer_soundness():
    """DIRECT matches the vertex oracle on the monotone model; quadratic hit."""
    rng = np.random.default_rng(SEED)
    objective = lambda v: LIFE_EXPECTANCY(
        dict(CASE1_FIXED, c1=v[0], c6=v[1])
    )
    for _ in range(20):
        c1_lo = rng.uniform(0.01, 4.0)
        c6_lo = rng.uniform(0.05, 4.0)
        box = SearchBox(
            (
                Interval(c1_lo, c1_lo + rng.uniform(0.01, 2.0)),
                Interval(c6_lo, c6_lo + rng.uniform(0.01, 2.0)),
            ),
            OptimizerSettings(budget=4000, tol=1e-8),
        )
        v_lo, v_hi = vertex_extrema(objective, box)
        d_lo = optimize_box(objective, box, MIN).value
        d_hi = optimize_box(objective, box, MAX).value
        assert abs(d_lo - v_lo) <= 1e-6 * abs(v_lo)
        assert abs(d_hi - v_hi) <= 1e-6 * abs(v_hi)
    quad = lambda v: (v[0] - 0.3) ** 2 + (v[1] - 0.7) ** 2
    result = optimize_box(quad, SearchBox((Interval(0, 1), Interval(0, 1)), OptimizerSettings(budget=2000)), MIN)
    assert result.value <= 1e-4 and result.evaluations <= 2000
    report(7, "vertex-oracle agreement <= 1e-6 on 20 boxes; quadratic <= 1e-4")


@pytest.mark.parametrize("n", [10, 50])
def test_criterion_08_identity_propagation(n):
    """Propagating one box through the identity reproduces its envelope."""
    d = min_max_mean_std(0.0, 1.0, 0.4, 0.2)
    out = propagate_pboxes(
        lambda p: p["x"],
        ParameterSet(boxed={"x": d}),
        n=n,
        opt=OptimizerSettings(budget=400, tol=1e-6),
    )
    box = build_pbox(d)
    grid = np.linspace(-0.05, 1.05, 401)
    h = 1e-4  # optimizer endpoint quantization allowance
    for t in grid:
        assert box.lower(t - h) - 1 / n - 1e-12 <= out.lower(t) <= box.lower(t + h) + 1 / n + 1e-12
        assert box.upper(t - h) - 1 / n - 1e-12 <= out.upper(t) <= box.upper(t + h) + 1 / n + 1e-12
    report(8, f"identity propagation within 1/{n} + quantization")


def test_criterion_09_decision_layer():
    """Hurwicz endpoints, dominance indeterminacy, affine invariance."""
    rng = np.random.default_rng(SEED)
    for _ in range(100):
        k = int(rng.integers(2, 6))
        intervals = []
        for i in range(k):
            lo, hi = np.sort(rng.uniform(-5, 5, size=2))
            intervals.append(UtilityInterval(f"a{i}", Interval(lo, hi)))
        assert choose(intervals, Hurwicz(1.0)) == choose(intervals, Pessimist())
        assert choose(intervals, Hurwicz(0.0)) == choose(intervals, Optimist())
        scale, shift = rng.uniform(0.1, 3.0), rng.uniform(-4, 4)
        mapped = [
            UtilityInterval(u.action, Interval(scale * u.lo + shift, scale * u.hi + shift))
            for u in intervals
        ]
        for rule in (Dominance(), Pessimist(), Optimist(), Hurwicz(0.25)):
            assert choose(intervals, rule) == choose(mapped, rule)
    for _ in range(200):
        lo_a = rng.uniform(-1, 1)
        a = UtilityInterval("a", Interval(lo_a, lo_a + rng.uniform(0, 1)))
        lo_b = rng.uniform(-1, 1)
        b = UtilityInterval("b", Interval(lo_b, lo_b + rng.uniform(0, 1)))
        result = choose([a, b], Dominance())
        disagree = (a.lo - b.lo) * (a.hi - b.hi) <= 0
        assert (result is INDETERMINATE) == disagree
    report(9, "Hurwicz(1)=Pessimist, Hurwicz(0)=Optimist, dominance, affine invariance")


def test_criterion_10_mixed_degeneracies():
    """Mixed pipeline degenerates exactly to its pure counterparts."""
    identity = lambda p: p["x"]
    boxed = ParameterSet(boxed={"x": min_max_mean(0, 1, 0.4)})
    opt = OptimizerSettings(budget=300, tol=1e-6)
    pure = propagate_pboxes(identity, boxed, n=10, opt=opt)
    mixed = propagate_mixed(identity, boxed, n=10, N=25, seed=SEED, opt=opt)
    assert mixed.extrema == pure.extrema  # bit-identical

    precise = ParameterSet(precise={"x": DistributionSpec.uniform(0, 1)})
    psa = psa_propagate(identity, precise, N=77, seed=SEED)
    mixed2 = propagate_mixed(identity, precise, n=10, N=77, seed=SEED)
    assert mixed2.extrema == psa.extrema
    assert mixed2.is_degenerate  # coinciding bounds

    both = ParameterSet(
        precise={"c": DistributionSpec.uniform(0, 1)}, boxed={"x": min_max(0, 1)}
    )
    out = propagate_mixed(lambda p: p["x"] + p["c"], both, n=4, N=9, seed=SEED, opt=opt)
    support = out.support()
    assert out.lower(support.lo - 1e-9) == 0.0 and out.upper(support.lo - 1e-9) == 0.0
    assert out.lower(support.hi) == 1.0 and out.upper(support.hi) == 1.0
    report(10, "mixed pipeline degeneracies exact; averaged bounds reach 0 and 1")


def test_criterion_11_demo_cea_suites():
    """Case study 2 substitute: demo spec at the stated threshold and rate."""
    spec = demo_cea_spec()
    assert spec.discount_rate_annual == 0.035
    params = {
        "p_minor": 0.02,
        "p_serious": 0.006,
        "p_die": 0.002,
        "p_minor_serious": 0.05,
        "p_die_serious": 0.03,
        "rr": 0.75,
        "device_cost": 1500.0,
    }
    trace = cohort_trace(spec, params)
    assert np.abs(trace.sum(axis=1) - 1.0).max() <= 1e-10  # mass conservation

    totals = []
    for rate in (0.0, 0.035, 0.1):
        varied = demo_cea_spec()
        varied = type(varied)(
            states=varied.states,
            absorbing=varied.absorbing,
            transition_builder=varied.transition_builder,
            costs=varied.costs,
            utilities=varied.utilities,
            cycle_length_years=varied.cycle_length_years,
            horizon_cycles=varied.horizon_cycles,
            discount_rate_annual=rate,
            initial=varied.initial,
        )
        totals.append(discounted_outcomes(cohort_trace(varied, params), varied))
    assert totals[0][0] >= totals[1][0] >= totals[2][0]  # discount monotone in cost
    assert totals[0][1] >= totals[1][1] >= totals[2][1]  # and in QALYs

    rng = np.random.default_rng(SEED)
    for _ in range(25):
        cost_a, qaly_a, cost_b, qaly_b = rng.uniform(0, 1e5, 4)
        forward = inmb(cost_a, qaly_a, cost_b, qaly_b, wtp=30_000.0)
        backward = inmb(cost_b, qaly_b, cost_a, qaly_a, wtp=30_000.0)
        assert forward == pytest.approx(-backward, abs=1e-9)
    report(11, "demo CEA: mass conservation, discount monotonicity, INMB antisymmetry")
