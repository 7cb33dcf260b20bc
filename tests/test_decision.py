import functools
import math
import operator
import warnings
from fractions import Fraction

import numpy as np
import pytest

from pba.decision import (
    INDETERMINATE,
    Dominance,
    Hurwicz,
    Optimist,
    Pessimist,
    UtilityInterval,
    choose,
    expected_interval,
)
from pba.errors import NonMonotoneUtility, TooFewActions
from pba.interval import Interval
from pba.propagate import EmpiricalPBox


def ui(action, lo, hi):
    return UtilityInterval(action, Interval(lo, hi))


def test_dominance_clear_winner():
    assert choose([ui("a", 1, 2), ui("b", 3, 4)], Dominance()) == {"b"}


def test_dominance_indeterminate_on_disagreement():
    assert choose([ui("a", 1, 4), ui("b", 2, 3)], Dominance()) is INDETERMINATE


def test_hurwicz_midpoint():
    assert choose([ui("a", 0, 10), ui("b", 4, 5)], Hurwicz(0.5)) == {"a"}


def test_pessimist_optimist():
    intervals = [ui("a", 1, 10), ui("b", 2, 3)]
    assert choose(intervals, Pessimist()) == {"b"}
    assert choose(intervals, Optimist()) == {"a"}


@pytest.mark.parametrize("first", ["a", "b"])
def test_ignored_infinite_end_keeps_score_finite(first):
    # alpha 1 ignores the upper end and alpha 0 the lower; 0 * inf would be NaN.
    for high, low, rule, named in [
        (ui("a", 20.0, math.inf), ui("b", 19.0, 30.0), Hurwicz(1.0), Pessimist()),
        (ui("a", -math.inf, 10.0), ui("b", 0.0, 9.0), Hurwicz(0.0), Optimist()),
    ]:
        intervals = [high, low] if first == "a" else [low, high]
        assert choose(intervals, rule) == choose(intervals, named) == {"a"}


@pytest.mark.parametrize("first", ["a", "b"])
def test_hurwicz_score_of_doubly_infinite_interval_rejected(first):
    # alpha * -inf + (1 - alpha) * inf has no value for 0 < alpha < 1.
    unbounded, bounded = ui("a", -math.inf, math.inf), ui("b", 0.0, 1.0)
    intervals = [unbounded, bounded] if first == "a" else [bounded, unbounded]
    with pytest.raises(ValueError, match="undefined"):
        choose(intervals, Hurwicz(0.5))
    assert choose(intervals, Pessimist()) == {"b"}
    assert choose(intervals, Optimist()) == {"a"}


def test_too_few_actions():
    with pytest.raises(TooFewActions):
        choose([ui("a", 0, 1)], Pessimist())


def test_hurwicz_alpha_validated():
    with pytest.raises(ValueError):
        Hurwicz(1.4)


def test_hurwicz_extremes_match_named_rules(rng):
    assert Pessimist() == Hurwicz(1.0)
    assert Optimist() == Hurwicz(0.0)
    for _ in range(100):
        k = rng.integers(2, 6)
        intervals = []
        for i in range(k):
            lo, hi = np.sort(rng.uniform(-5, 5, size=2))
            intervals.append(ui(f"a{i}", lo, hi))
        assert choose(intervals, Hurwicz(1.0)) == choose(intervals, Pessimist())
        assert choose(intervals, Hurwicz(0.0)) == choose(intervals, Optimist())


def test_affine_invariance(rng):
    rules = [Dominance(), Pessimist(), Optimist(), Hurwicz(0.3)]
    for _ in range(50):
        k = rng.integers(2, 6)
        intervals = []
        for i in range(k):
            lo, hi = np.sort(rng.uniform(-5, 5, size=2))
            intervals.append(ui(f"a{i}", lo, hi))
        scale = rng.uniform(0.1, 4.0)
        shift = rng.uniform(-10, 10)
        mapped = [ui(u.action, scale * u.lo + shift, scale * u.hi + shift) for u in intervals]
        for rule in rules:
            assert choose(intervals, rule) == choose(mapped, rule)


def test_strict_dominator_wins_every_rule(rng):
    intervals = [ui("best", 5.0, 9.0), ui("mid", 1.0, 4.0), ui("low", -2.0, 0.5)]
    for rule in (Dominance(), Pessimist(), Optimist(), Hurwicz(0.7)):
        assert choose(intervals, rule) == {"best"}


def test_dominance_two_action_semantics(rng):
    for _ in range(200):
        a = ui("a", lo := rng.uniform(-1, 1), lo + rng.uniform(0, 1))
        b = ui("b", lo := rng.uniform(-1, 1), lo + rng.uniform(0, 1))
        result = choose([a, b], Dominance())
        orderings_agree = (a.lo - b.lo) * (a.hi - b.hi) > 0
        if orderings_agree:
            expected = {"a"} if a.lo > b.lo else {"b"}
            assert result == expected
        else:
            assert result is INDETERMINATE


# ---------------------------------------------------------------------------
# Expected intervals
# ---------------------------------------------------------------------------


def test_degenerate_box_collapses_to_point():
    e = EmpiricalPBox([(2.5, 2.5, 1.0)])
    interval = expected_interval(e).interval
    assert interval.lo == interval.hi == 2.5


def test_minmax_style_box_spans_support():
    e = EmpiricalPBox([(0.0, 1.0, 1.0)])
    interval = expected_interval(e).interval
    assert interval.lo == 0.0 and interval.hi == 1.0


def test_expected_interval_orders_endpoints():
    e = EmpiricalPBox([(0.0, 0.5, 0.5), (0.25, 1.0, 0.5)])
    interval = expected_interval(e, utility=lambda y: 2 * y + 1).interval
    assert interval.lo == pytest.approx(2 * 0.125 + 1)
    assert interval.hi == pytest.approx(2 * 0.75 + 1)


def test_step_holding_both_infinities_has_no_expectation():
    e = EmpiricalPBox([(-math.inf, 0.0, 0.5), (math.inf, math.inf, 0.5)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="undefined: one bounding step holds both -inf and"):
            expected_interval(e)


def test_non_monotone_utility_rejected():
    e = EmpiricalPBox([(0.0, 0.5, 0.5), (0.25, 1.0, 0.5)])
    with pytest.raises(NonMonotoneUtility):
        expected_interval(e, utility=lambda y: -((y - 0.3) ** 2))


def _summed_exactly(products):
    """The correctly rounded sum of ``products``, added exactly as
    fractions; an infinite product decides the sum."""
    infinite = {p for p in products if math.isinf(p)}
    if infinite:
        (end,) = infinite
        return end
    return float(sum(map(Fraction, products)))


@pytest.mark.parametrize("utility", [None, lambda y: y**3], ids=["identity", "cube"])
def test_expected_interval_is_the_correctly_rounded_sum(utility, rng):
    """On random envelopes, each end of the expected interval is the sum of
    the rounded products mass x utility, rounded once; ends at -inf (a
    minimum) and +inf (a maximum) included.  A plain left-to-right sum of
    the same products differs from it on some of them."""
    apply = (lambda y: y) if utility is None else utility
    plain_differs = 0
    for trial in range(200):
        k = int(rng.integers(1, 60))
        centres = rng.normal(0.0, 1.0, k) * 10.0 ** rng.integers(-3, 5, k)
        widths = rng.exponential(1.0, k) * 10.0 ** rng.integers(-3, 3, k)
        weights = rng.exponential(1.0, k)
        triples = [
            [float(c), float(c + w), float(m)] for c, w, m in zip(centres, widths, weights / weights.sum())
        ]
        if trial % 4 in (1, 3):
            triples[0][0] = -math.inf
        if trial % 4 in (2, 3):
            triples[-1][1] = math.inf
        e = EmpiricalPBox(triples)
        ends = []
        for ys, cum in (e.upper_steps(), e.lower_steps()):
            # mass x utility per jump, each mass the rise of the cumulative step
            products = [(c - below) * apply(y) for below, c, y in zip([0.0, *cum], cum, ys)]
            ends.append(_summed_exactly(products))
            plain_differs += functools.reduce(operator.add, products, 0.0) != ends[-1]
        assert tuple(expected_interval(e, utility=utility).interval) == tuple(sorted(ends))
    assert plain_differs > 0


def test_utility_called_once_per_distinct_outcome():
    e = EmpiricalPBox([(0.0, 1.0, 0.25), (0.5, 1.0, 0.25), (0.0, 2.0, 0.5)])
    calls = []
    interval = expected_interval(e, utility=lambda y: calls.append(y) or 2.0 * y).interval
    assert sorted(calls) == [0.0, 0.5, 1.0, 2.0]
    assert tuple(interval) == (0.25, 3.0)


def test_nested_box_gives_nested_interval(rng):
    ys = rng.uniform(0, 1, size=40)
    wide = EmpiricalPBox([(y - 0.2, y + 0.2, 1 / 40) for y in ys])
    tight = EmpiricalPBox([(y - 0.05, y + 0.05, 1 / 40) for y in ys])
    wide_iv = expected_interval(wide).interval
    tight_iv = expected_interval(tight).interval
    assert wide_iv.lo <= tight_iv.lo <= tight_iv.hi <= wide_iv.hi


def test_psa_means_fall_inside_interval(rng):
    # Interval from per-box extrema must cover the mean of any selection.
    triples = []
    for _ in range(60):
        lo = rng.uniform(0, 1)
        triples.append((lo, lo + rng.uniform(0, 0.5), 1 / 60))
    e = EmpiricalPBox(triples)
    interval = expected_interval(e).interval
    for _ in range(20):
        selection = [rng.uniform(lo, hi) for lo, hi, _ in triples]
        assert interval.lo - 1e-12 <= np.mean(selection) <= interval.hi + 1e-12


def test_case_study_interval_contains_consistent_psa_means():
    """Twenty seeded PSA runs with statistic-matched gammas as the oracle.

    A coarser slicing gives a wider (still sound) outcome envelope, so the
    interval it implies must contain every run's sample mean.
    """
    from pba.distributions import DistributionSpec
    from pba.minimal_data import min_max_mean_std
    from pba.models import REGISTRY
    from pba.propagate import OptimizerSettings, ParameterSet, propagate_pboxes, psa_propagate

    model = REGISTRY["four_state_life_expectancy"].fn
    fixed = {"c2": 0.01, "c3": 0.001, "c4": 0.1, "c5": 0.05}
    boxes = {
        "c1": min_max_mean_std(0.0, 10.0, 0.05, 0.00033),
        "c6": min_max_mean_std(0.0, 10.0, 1.0, 0.0167),
    }
    envelope = propagate_pboxes(
        model,
        ParameterSet(fixed=fixed, boxed=boxes),
        n=10,
        opt=OptimizerSettings(budget=400, tol=1e-6),
    )
    interval = expected_interval(envelope).interval
    gammas = {k: DistributionSpec.from_moments("gamma", v) for k, v in boxes.items()}
    for seed in range(20):
        psa = psa_propagate(model, ParameterSet(fixed=fixed, precise=gammas), N=100, seed=seed)
        mean = np.mean([t[0] for t in psa.extrema])
        assert interval.lo <= mean <= interval.hi
