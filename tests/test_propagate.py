import functools
import math
from collections import Counter

import numpy as np
import pytest

import pba.propagate as propagate

from conftest import assert_within_envelope
from pba.decision import expected_interval
from pba.distributions import DistributionSpec
from pba.errors import HyperrectangleCapExceeded, ModelEvaluationError, NonMonotoneModel, SingularSystem
from pba.minimal_data import min_max, min_max_mean, min_max_mean_std, min_max_median
from pba.models import REGISTRY, monotone
from pba.pbox import build_pbox
from pba.propagate import (
    EmpiricalPBox,
    OptimizerSettings,
    ParameterSet,
    propagate_mixed,
    propagate_pboxes,
    psa_propagate,
)
from pba.optimize import (
    MAX,
    MIN,
    SearchBox,
    _pointwise,
    _search,
    _vertices,
    optimize_box,
    optimize_boxes,
    vertex_extrema,
)
from pba.slicing import discretize_outer, focal_product

FAST_OPT = OptimizerSettings(budget=300, tol=1e-6)

identity = lambda params: params["x"]


def test_constant_model_degenerate_steps():
    out = propagate_pboxes(lambda p: 7.25, ParameterSet(boxed={"x": min_max(0, 1)}), n=5)
    assert tuple(out.support()) == pytest.approx((7.25, 7.25))
    assert out.lower(7.24) == 0.0 and out.lower(7.25) == 1.0
    assert out.upper(7.24) == 0.0 and out.upper(7.25) == 1.0


@pytest.mark.parametrize("n", [10, 50])
def test_identity_reproduces_input_envelope(n):
    d = min_max_mean_std(0.0, 1.0, 0.4, 0.2)
    out = propagate_pboxes(identity, ParameterSet(boxed={"x": d}), n=n, opt=FAST_OPT)
    box = build_pbox(d)
    grid = np.linspace(-0.05, 1.05, 301)
    # horizontal quantization allowance: optimizer endpoints sit within
    # tol-scaled distance of the exact focal endpoints
    h = 1e-4
    assert_within_envelope(
        out.lower, lambda t: box.lower(t - h) - 1 / n, lambda t: box.lower(t + h) + 1 / n, grid
    )
    assert_within_envelope(
        out.upper, lambda t: box.upper(t - h) - 1 / n, lambda t: box.upper(t + h) + 1 / n, grid
    )


def test_masses_and_monotone_steps():
    params = ParameterSet(
        boxed={"x": min_max_mean(0, 1, 0.4), "y": min_max_median(0, 2, 0.8)}
    )
    out = propagate_pboxes(lambda p: p["x"] + p["y"], params, n=6, opt=FAST_OPT)
    total = math.fsum(t[2] for t in out.extrema)
    assert total == pytest.approx(1.0, abs=1e-9)
    ys = np.linspace(*out.support(), 200)
    lo = out.lower(ys)
    up = out.upper(ys)
    assert np.all(np.diff(lo) >= 0) and np.all(np.diff(up) >= 0)
    assert np.all(lo <= up + 1e-12)
    assert out.lower(out.support().hi) == 1.0
    assert out.upper(out.support().lo - 1e-9) == 0.0


def test_psa_seed_determinism():
    params = ParameterSet(precise={"x": DistributionSpec.uniform(2, 6)})
    a = psa_propagate(identity, params, N=128, seed=11)
    b = psa_propagate(identity, params, N=128, seed=11)
    c = psa_propagate(identity, params, N=128, seed=12)
    assert a.extrema == b.extrema
    assert a.extrema != c.extrema
    assert a.is_degenerate


def test_psa_uniform_clt():
    a, b, n = 2.0, 6.0, 400
    params = ParameterSet(precise={"x": DistributionSpec.uniform(a, b)})
    out = psa_propagate(identity, params, N=n, seed=5)
    mean = np.mean([t[0] for t in out.extrema])
    assert abs(mean - 4.0) <= 3 * (b - a) / math.sqrt(12 * n)


def test_psa_gamma_clt():
    mu, sigma, n = 1.0, 0.33, 500
    spec = DistributionSpec.from_moments(
        "gamma", min_max_mean_std(0.0, 10.0, mu, sigma)
    )
    out = psa_propagate(identity, ParameterSet(precise={"x": spec}), N=n, seed=5)
    mean = np.mean([t[0] for t in out.extrema])
    assert abs(mean - mu) <= 3 * sigma / math.sqrt(n)


def test_mixed_reduces_to_pure_when_no_precise():
    params = ParameterSet(boxed={"x": min_max_mean(0, 1, 0.4)})
    pure = propagate_pboxes(identity, params, n=8, opt=FAST_OPT)
    mixed = propagate_mixed(identity, params, n=8, N=37, seed=1, opt=FAST_OPT)
    assert mixed.extrema == pure.extrema


def test_mixed_reduces_to_psa_when_no_boxed():
    params = ParameterSet(precise={"x": DistributionSpec.uniform(0, 1)})
    psa = psa_propagate(identity, params, N=64, seed=9)
    mixed = propagate_mixed(identity, params, n=50, N=64, seed=9)
    assert mixed.extrema == psa.extrema
    assert mixed.is_degenerate


def test_mixed_bounds_reach_zero_and_one():
    params = ParameterSet(
        precise={"c": DistributionSpec.uniform(0, 1)},
        boxed={"x": min_max_mean(0, 1, 0.5)},
    )
    out = propagate_mixed(
        lambda p: p["x"] + p["c"], params, n=4, N=5, seed=3, opt=FAST_OPT
    )
    support = out.support()
    assert out.lower(support.hi) == 1.0
    assert out.upper(support.hi) == 1.0
    assert out.lower(support.lo - 1e-9) == 0.0


def test_mixed_envelope_encloses_double_loop_oracle(rng):
    """Linear model, one box plus one gamma, against brute-force sampling.

    The oracle samples the precise parameter from its CDF and the boxed one
    from a random selection inside its sliced envelope; the resulting
    outcome ECDF must fall inside the propagated envelope up to Monte Carlo
    noise.
    """
    d = min_max_mean(0.0, 2.0, 0.8)
    gamma = DistributionSpec.from_moments("gamma", min_max_mean_std(0.0, 10.0, 1.0, 0.4))
    model = lambda p: 2.0 * p["x"] + p["c"]
    params = ParameterSet(precise={"c": gamma}, boxed={"x": d})
    n, N = 10, 60
    out = propagate_mixed(model, params, n=n, N=N, seed=21, opt=FAST_OPT)

    sliced = discretize_outer(build_pbox(d), n)
    draws = 10_000
    u = rng.random(draws)
    slots = np.minimum((u * n).astype(int), n - 1)
    lows = np.array([e.interval.lo for e in sliced.elements])[slots]
    highs = np.array([e.interval.hi for e in sliced.elements])[slots]
    xs = rng.uniform(lows, highs)
    cs = gamma.ppf(rng.random(draws))
    ys = np.sort(2.0 * xs + cs)
    ecdf = np.arange(1, draws + 1) / draws
    slack = 2.0 / n + 0.03  # slicing error + sampling noise of both loops
    assert np.all(ecdf >= out.lower(ys) - slack)
    assert np.all(ecdf <= out.upper(ys) + slack)


@pytest.mark.parametrize(
    "d, table",
    [
        (min_max_median(0.0, 1.0, 0.4), ([0.0, 0.4, 1.0], [0.0, 0.5, 1.0])),
        (min_max_mean(0.0, 1.0, 0.5), ([0.0, 1.0], [0.0, 1.0])),
    ],
    ids=["median", "mean"],
)
def test_psa_enclosure_for_consistent_cdf(d, table):
    """A PSA run with any CDF consistent with the box stays in the envelope.

    Piecewise-linear CDFs hitting the stated statistics exactly serve as the
    consistent distributions (the second is plain uniform, mean one half).
    """
    n = 10
    out = propagate_pboxes(identity, ParameterSet(boxed={"x": d}), n=n, opt=FAST_OPT)
    spec = DistributionSpec.tabulated(*table)
    psa = psa_propagate(identity, ParameterSet(precise={"x": spec}), N=500, seed=13)
    ys = np.sort([t[0] for t in psa.extrema])
    ecdf = np.arange(1, 501) / 500
    slack = 2.0 / n
    assert np.all(ecdf >= out.lower(ys) - slack)
    assert np.all(ecdf <= out.upper(ys) + slack)


def test_unconverged_boxes_flagged_not_raised():
    params = ParameterSet(boxed={"x": min_max(0, 1), "y": min_max(0, 1)})
    out = propagate_pboxes(
        lambda p: (p["x"] - 0.37) ** 2 + p["y"],
        params,
        n=2,
        opt=OptimizerSettings(budget=15, tol=1e-12),
    )
    assert out.unconverged_boxes > 0
    assert len(out.extrema) == 4  # result still returned


def test_model_error_carries_parameters():
    def broken(params):
        raise RuntimeError("boom")

    with pytest.raises(ModelEvaluationError) as err:
        propagate_pboxes(broken, ParameterSet(boxed={"x": min_max(0, 1)}), n=2)
    assert "x" in err.value.params


def test_hyperrectangle_cap():
    params = ParameterSet(boxed={k: min_max(0, 1) for k in ("a", "b", "c")})
    model = lambda p: p["a"] + p["b"] + p["c"]
    with pytest.raises(HyperrectangleCapExceeded):
        propagate_pboxes(model, params, n=101, max_hyperrectangles=10**6)



def test_cap_counts_box_searches_not_samples():
    params = ParameterSet(
        precise={"c": DistributionSpec.uniform(0, 1)}, boxed={"x": min_max(0, 1)}
    )
    model = lambda p: p["x"] + p["c"]
    with pytest.raises(HyperrectangleCapExceeded, match="6 box searches"):
        propagate_mixed(model, params, n=2, N=3, opt=FAST_OPT, max_hyperrectangles=5)
    assert len(propagate_mixed(model, params, n=2, N=3, opt=FAST_OPT, max_hyperrectangles=6).extrema) == 6
    psa = ParameterSet(precise={"c": DistributionSpec.uniform(0, 1)})
    out = propagate_mixed(lambda p: p["c"], psa, N=5, max_hyperrectangles=1)
    assert out.model_evaluations == len(out.extrema) == 5


def test_cap_is_checked_before_any_slicing(monkeypatch):
    """An over-cap call raises before it slices a single p-box."""
    calls = []
    monkeypatch.setattr(propagate, "discretize_outer", lambda *args: calls.append(args))
    params = ParameterSet(boxed={k: min_max(0, 1) for k in ("a", "b")})
    with pytest.raises(HyperrectangleCapExceeded, match="10000000000 box searches"):
        propagate_mixed(lambda p: p["a"] + p["b"], params, n=10**5, max_hyperrectangles=10**6)
    assert calls == []


# 0, 1, one and two 32-bit words, three words, five words (past the 4-word pool),
# then 200 fixed seeds of 1 to 130 bits.
STREAM_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**128 + 3] + [
    int.from_bytes(np.random.default_rng(20261020 + i).bytes(17), "little") >> (6 + i % 130)
    for i in range(200)
]


def test_sample_streams_match_numpy_bit_for_bit():
    """Each draw's uniforms are ``default_rng(child).random(k)`` for the
    children of ``numpy.random.SeedSequence(seed).spawn(N)``."""
    mismatches = []
    for seed in STREAM_SEEDS:
        children = np.random.SeedSequence(seed).spawn(9)
        streams = list(propagate._sample_streams(seed, 9))
        for k in range(1, 5):
            unit = ParameterSet(precise={f"u{j}": DistributionSpec.uniform(0.0, 1.0) for j in range(k)})
            for index, (child, stream) in enumerate(zip(children, streams)):
                ours = list(propagate._draw_precise(unit, stream).values())
                if ours != np.random.default_rng(child).random(k).tolist():
                    mismatches.append((seed, index, k))
    assert len(streams) == 9
    assert mismatches == []


@pytest.mark.parametrize("seed, error", [(-1, ValueError), (1.5, TypeError)])
def test_bad_seed_raises_as_numpy_does(seed, error):
    with pytest.raises(error):
        np.random.SeedSequence(seed)
    params = ParameterSet(precise={"c": DistributionSpec.uniform(0, 1)})
    with pytest.raises(error):
        propagate_mixed(lambda p: p["c"], params, N=3, seed=seed)


def test_no_uncertain_parameters_is_one_model_call():
    calls = []

    def model(p):
        calls.append(dict(p))
        return 2.0 * p["x"]

    out = propagate_mixed(model, ParameterSet(fixed={"x": 1.5}), n=4, N=7, max_hyperrectangles=0)
    assert calls == [{"x": 1.5}]
    assert out.extrema == ((3.0, 3.0, 1.0),)
    assert (out.model_evaluations, out.unconverged_boxes) == (1, 0)
    assert out.is_degenerate

def test_min_and_max_searches_share_model_calls():
    params = ParameterSet(
        fixed={"z": 0.5}, boxed={"x": min_max_mean(0, 1, 0.4), "y": min_max(-1, 2)}
    )
    f = lambda x, y, z: math.sin(3 * x) * math.cos(2 * y) + z * x * y
    calls = []

    def model(p):
        calls.append((p["x"], p["y"]))
        return f(p["x"], p["y"], p["z"])

    out = propagate_pboxes(model, params, n=3, opt=FAST_OPT)

    # The same searches run apart, each box's MIN and MAX on their own.
    separate, distinct, evaluations = [], 0, 0
    sliced = [discretize_outer(build_pbox(params.boxed[k]), 3) for k in ("x", "y")]
    seen = set()
    for rect in focal_product(sliced):
        points = []
        objective = lambda v: points.append(tuple(v)) or f(v[0], v[1], 0.5)
        box = SearchBox(rect.intervals, FAST_OPT)
        lo = optimize_box(objective, box, MIN).value
        hi = optimize_box(objective, box, MAX).value
        separate.append((lo, hi, rect.mass))
        if rect.intervals not in seen:  # y's min/max slices repeat each box three times
            seen.add(rect.intervals)
            distinct += len(set(points))
        evaluations += len(points)
    # One model call per distinct point of each distinct box, and all of them counted.
    assert len(calls) == distinct < evaluations
    assert out.model_evaluations == len(calls)
    assert out.extrema == tuple(separate)


def test_identical_boxes_searched_once():
    """A min/max-only p-box slices into n equal intervals: one distinct box."""
    params = ParameterSet(
        fixed={"c2": 0.01, "c3": 0.001, "c4": 0.1, "c5": 0.05},
        boxed={"c1": min_max(0.0, 10.0), "c6": min_max(0.0, 10.0)},
    )
    opt = OptimizerSettings(budget=600, tol=1e-6)
    four_state = REGISTRY["four_state_life_expectancy"].fn
    calls = []

    def model(p):
        calls.append((p["c1"], p["c6"]))
        return four_state(p)

    out = propagate_pboxes(model, params, n=5, opt=opt)

    sliced = [discretize_outer(build_pbox(params.boxed[k]), 5) for k in ("c1", "c6")]
    rects = list(focal_product(sliced))
    assert len(rects) == 25 and len({r.intervals for r in rects}) == 1
    # Reference: every box searched on its own.
    separate, bad = [], 0
    for rect in rects:
        objective = lambda v: four_state({**params.fixed, "c1": v[0], "c6": v[1]})
        box = SearchBox(rect.intervals, opt)
        lo, hi = optimize_box(objective, box, MIN), optimize_box(objective, box, MAX)
        separate.append((lo.value, hi.value, rect.mass))
        bad += (not lo.converged) + (not hi.converged)
    assert out.extrema == tuple(separate)
    assert out.unconverged_boxes == bad
    # The model ran for one box only, once per distinct point.
    assert len(calls) == len(set(calls)) == out.model_evaluations
    one_box = propagate_pboxes(model, params, n=1, opt=opt)
    assert one_box.model_evaluations == out.model_evaluations
    assert one_box.extrema[0][:2] == out.extrema[0][:2]


def test_mixed_searches_identical_boxes_once_per_draw():
    params = ParameterSet(
        precise={"z": DistributionSpec.uniform(0.0, 1.0)}, boxed={"x": min_max(0.0, 1.0)}
    )
    calls = []

    def model(p):
        calls.append((p["x"], p["z"]))
        return (p["x"] - p["z"]) ** 2

    once = propagate_mixed(model, params, n=1, N=3, seed=4, opt=FAST_OPT)
    calls.clear()
    out = propagate_mixed(model, params, n=4, N=3, seed=4, opt=FAST_OPT)
    assert len(calls) == len(set(calls)) == out.model_evaluations == once.model_evaluations
    assert [t[:2] for t in out.extrema] == [t[:2] for t in once.extrema for _ in range(4)]


def test_triple_validation():
    with pytest.raises(ValueError):
        EmpiricalPBox([(1.0, 0.5, 1.0)])  # y_min > y_max
    with pytest.raises(ValueError):
        EmpiricalPBox([(0.0, 1.0, 0.4)])  # masses do not sum to 1
    with pytest.raises(ValueError):
        EmpiricalPBox([])
    with pytest.raises(ValueError, match="NaN"):
        EmpiricalPBox([(math.nan, 1.0, 0.5), (0.0, 2.0, 0.5)])


def test_parameter_set_disjoint_names():
    with pytest.raises(ValueError):
        ParameterSet(fixed={"x": 1.0}, boxed={"x": min_max(0, 1)})


def test_infinite_extrema_are_legal():
    out = EmpiricalPBox([(1.0, math.inf, 0.25), (2.0, 3.0, 0.75)])
    assert out.unbounded_boxes == 1
    assert tuple(out.support()) == (1.0, math.inf)
    assert out.lower(3.0) == 0.75 and out.lower(math.inf) == 1.0
    assert tuple(expected_interval(out).interval) == (1.75, math.inf)
    below = EmpiricalPBox([(-math.inf, 0.0, 0.5), (1.0, 2.0, 0.5)])
    assert below.unbounded_boxes == 1
    assert tuple(expected_interval(below).interval) == (-math.inf, 1.0)


CASE1_FIXED = {"c2": 0.01, "c3": 0.001, "c4": 0.1, "c5": 0.05}
CASE1_BOXES = {
    "c1": min_max_mean_std(0.0, 10.0, 0.05, 0.00033),
    "c6": min_max_mean_std(0.0, 10.0, 1.0, 0.0167),
}


@pytest.mark.parametrize("tol", [1e-4, 1e-6, 1e-8])
def test_case1_upper_expected_value_is_infinite(tol):
    """c6's first focal interval starts at 0, where the outcome diverges.

    The exact interval at n=10 is [20.887627720304142, +inf], whatever the
    tolerance, with the maximum unbounded on the 10 boxes at c6 = 0.
    """
    out = propagate_pboxes(
        REGISTRY["four_state_life_expectancy"].fn,
        ParameterSet(fixed=CASE1_FIXED, boxed=CASE1_BOXES),
        n=10,
        opt=OptimizerSettings(budget=600, tol=tol),
    )
    lo, hi = expected_interval(out).interval
    assert hi == math.inf
    assert lo == pytest.approx(20.887627720304142, rel=1e-12, abs=0)
    assert out.unbounded_boxes == 10
    assert out.unconverged_boxes == 0
    assert out.model_evaluations <= 20**2  # (2n)**d distinct vertices


def test_monotone_mark_survives_wraps_not_lambda():
    """A ``functools.wraps`` wrapper keeps the vertex path; a lambda gets DIRECT."""
    four_state = REGISTRY["four_state_life_expectancy"].fn
    params = ParameterSet(
        fixed=CASE1_FIXED,
        boxed={"c1": min_max_mean(0.0, 10.0, 0.05), "c6": min_max_mean(0.5, 2.0, 1.0)},
    )
    opt = OptimizerSettings(budget=200, tol=1e-6)
    calls = []

    @functools.wraps(four_state)
    def wrapped(p):
        calls.append((p["c1"], p["c6"]))
        return four_state(p)

    vertex = propagate_pboxes(wrapped, params, n=3, opt=opt)
    plain = propagate_pboxes(lambda p: four_state(p), params, n=3, opt=opt)

    sliced = [discretize_outer(build_pbox(params.boxed[k]), 3) for k in ("c1", "c6")]
    objective = lambda v: four_state({**CASE1_FIXED, "c1": v[0], "c6": v[1]})
    by_vertex, by_direct, bad = [], [], 0
    for rect in focal_product(sliced):
        box = SearchBox(rect.intervals, opt)
        by_vertex.append((*vertex_extrema(objective, box), rect.mass))
        lo, hi = optimize_box(objective, box, MIN), optimize_box(objective, box, MAX)
        by_direct.append((lo.value, hi.value, rect.mass))
        bad += (not lo.converged) + (not hi.converged)
    assert vertex.extrema == tuple(by_vertex)
    assert len(calls) == len(set(calls)) == vertex.model_evaluations <= 6**2
    assert vertex.unconverged_boxes == 0
    assert plain.extrema == tuple(by_direct)
    assert plain.unconverged_boxes == bad


def test_each_distinct_box_searched_with_the_run_settings(monkeypatch):
    """One ``SearchBox`` per distinct box, carrying the run's settings object
    whole, and vertex searches driven by the same ``optimize_boxes`` call."""
    seen = []

    def recording(search):
        def recorder(box, *rest):
            seen.append((box, *rest))
            return search(box, *rest)

        return recorder

    handed, widths = [], []

    def recording_boxes(searches, evaluate, width):
        searches = list(searches)
        handed.append(searches)
        widths.append(width)
        return optimize_boxes(searches, evaluate, width)

    monkeypatch.setattr(propagate, "optimize_boxes", recording_boxes)
    monkeypatch.setattr(propagate, "_search", recording(_search))
    monkeypatch.setattr(propagate, "_vertices", recording(_vertices))
    opt = OptimizerSettings(budget=200, tol=1e-6)
    params = ParameterSet(boxed={"x": min_max_mean(0.0, 1.0, 0.3), "y": min_max(0.0, 1.0)})
    sliced = [discretize_outer(build_pbox(params.boxed[k]), 3) for k in ("x", "y")]
    distinct = {rect.intervals for rect in focal_product(sliced)}
    assert len(distinct) < 9  # y's min/max slices repeat each box

    propagate_pboxes(lambda p: (p["x"] - 0.4) ** 2 + p["y"], params, n=3, opt=opt)
    (searches,) = handed
    lows, highs = seen[::2], seen[1::2]  # a MIN then a MAX search of each box
    assert [sense for _, sense in lows] == [MIN] * len(lows)
    assert [sense for _, sense in highs] == [MAX] * len(highs)
    caches = [id(cache) for cache, _ in searches]  # a search's handle is its cache
    assert caches[::2] == caches[1::2]
    assert [id(b) for b, _ in lows] == [id(b) for b, _ in highs]
    assert len(lows) == len(distinct) and {b.bounds for b, _ in lows} == distinct
    assert all(b.settings is opt for b, _ in seen)

    seen.clear()
    propagate_pboxes(monotone(lambda p: p["x"] + p["y"]), params, n=3, opt=opt)
    _, vertex_searches = handed
    boxes = [box for box, *_ in seen]
    assert len(boxes) == len(vertex_searches) == len(distinct) and {b.bounds for b in boxes} == distinct
    assert len({id(cache) for cache, _ in vertex_searches}) == 1  # one cache for the draw
    assert all(b.settings is opt for b in boxes)
    assert widths == [1, 1]  # no prefetch: one search at a time


def test_prefetch_gets_each_new_point_once_and_changes_nothing():
    """A model's ``prefetch`` is handed, as full parameter mappings, the
    points of each DIRECT round that its box has not evaluated yet; results
    and counts are those of the same model without it."""
    params = ParameterSet(fixed={"z": 0.5}, boxed={"x": min_max_mean(0, 1, 0.4), "y": min_max(-1, 2)})
    f = lambda p: math.sin(3 * p["x"]) * math.cos(2 * p["y"]) + p["z"] * p["x"] * p["y"]
    calls, announced = [], []

    def model(p):
        calls.append(tuple(sorted(p.items())))
        return f(p)

    model.prefetch = lambda points: announced.extend(tuple(sorted(p.items())) for p in points)
    out = propagate_pboxes(model, params, n=3, opt=FAST_OPT)
    plain = propagate_pboxes(f, params, n=3, opt=FAST_OPT)
    assert (out.extrema, out.model_evaluations) == (plain.extrema, plain.model_evaluations)

    # Every call was announced, and nothing else was.  Focal intervals
    # overlap, so a point may recur in another box.
    assert len(announced) == len(calls)
    assert not Counter(announced) - Counter(calls)


def test_model_error_is_the_box_by_box_one():
    """Two boxes fail, the first in a later round than the second.  Searched
    one by one (each box's MIN, then its MAX), the first box raises; stepped
    together, the second box fails first, and the first box's error, message
    and params, is still the one raised."""
    params = ParameterSet(fixed={"z": 0.5}, boxed={"x": min_max_mean(0.0, 1.0, 0.3)})
    sliced = [discretize_outer(build_pbox(params.boxed["x"]), 2)]
    boxes = list(dict.fromkeys(rect.intervals for rect in focal_product(sliced)))
    assert len(boxes) == 2
    f = lambda x: math.sin(7.0 * x)

    def rounds_of(intervals):
        found = []

        def evaluate(rounds):
            found.append(list(rounds[0][1]))
            return _pointwise(rounds)

        optimize_boxes([(lambda v: f(v[0]), _search(SearchBox(intervals, FAST_OPT), MIN))], evaluate)
        return found

    bad = {rounds_of(boxes[0])[5][0][0], rounds_of(boxes[1])[2][0][0]}
    failures = []

    def model(p):
        if p["x"] in bad:
            failures.append(p["x"])
            raise RuntimeError(f"no value at x={p['x']}")
        return f(p["x"])

    with pytest.raises(ModelEvaluationError) as one_by_one:  # no prefetch: one search at a time
        propagate_pboxes(lambda p: model(p), params, n=2, opt=FAST_OPT)
    model.prefetch = lambda points: None  # the searches are stepped together only for a prefetch
    failures.clear()
    with pytest.raises(ModelEvaluationError) as together:
        propagate_pboxes(model, params, n=2, opt=FAST_OPT)
    assert failures[0] != failures[-1] == one_by_one.value.params["x"]
    assert str(together.value) == str(one_by_one.value)
    assert together.value.params == one_by_one.value.params


@pytest.mark.parametrize("batched", [False, True], ids=["pointwise", "prefetch"])
@pytest.mark.parametrize("marked", [False, True], ids=["direct", "monotone"])
def test_signed_divergence_fails_a_search_and_bounds_a_vertex(marked, batched):
    """A model that diverges upwards near x = 0 (``SingularSystem`` with
    direction +1).  DIRECT reaches such a point and fails with
    ``ModelEvaluationError`` caused by it; marked monotone, the x = 0
    vertices make the upper end of every box +inf."""

    def model(p):
        if p["x"] < 0.1:
            raise SingularSystem("no absorption path", direction=+1)
        return p["x"] + p["y"]

    if batched:
        model.prefetch = lambda points: None
    params = ParameterSet(boxed={"x": min_max(0.0, 1.0), "y": min_max(0.0, 1.0)})
    if not marked:
        with pytest.raises(ModelEvaluationError) as failed:
            propagate_pboxes(model, params, n=2, opt=FAST_OPT)
        assert isinstance(failed.value.__cause__, SingularSystem) and failed.value.__cause__.direction == 1
        return
    out = propagate_pboxes(monotone(model), params, n=2, opt=FAST_OPT)
    assert out.extrema == ((1.0, math.inf, 0.25),) * 4
    assert out.unbounded_boxes == 4 and out.model_evaluations == 4


_CASE1 = ParameterSet(
    fixed={"c2": 0.01, "c3": 0.001, "c4": 0.1, "c5": 0.05},
    boxed={"c1": min_max_mean_std(0.0, 10.0, 0.05, 0.00033), "c6": min_max_mean_std(0.5, 2.0, 1.0, 0.0167)},
)


@pytest.mark.parametrize("n", [10, 50])
def test_monotone_declaration_holds_for_the_four_state_model(n):
    """The four-state model passes the check on its grid of slice ends, at
    no model call beyond the vertices: (2n)**2 of them."""
    out = propagate_pboxes(REGISTRY["four_state_life_expectancy"].fn, _CASE1, n=n)
    assert out.model_evaluations == (2 * n) ** 2


@pytest.mark.parametrize("n", [10, 50])
def test_false_monotone_declaration_is_caught_on_the_vertex_grid(n):
    """1e3 (c1 - 0.05)**2 + 1/c6 falls and then rises in c1: marked
    monotone, it fails with ``NonMonotoneModel`` naming c1 and a grid point
    of each direction, after the vertex calls alone."""
    calls = []

    @monotone
    def model(p):
        calls.append(p)
        return 1e3 * (p["c1"] - 0.05) ** 2 + 1.0 / p["c6"]

    with pytest.raises(NonMonotoneModel) as err:
        propagate_pboxes(model, _CASE1, n=n)
    assert len(calls) == (2 * n) ** 2
    assert err.value.axis == "c1" and "'c1'" in str(err.value)
    rising, falling = err.value.rising, err.value.falling
    assert set(rising) == set(falling) == {"c1", "c6"}
    assert falling["c1"] < 0.05 < rising["c1"]  # the minimum lies between them
    assert model(rising) < model({**rising, "c1": 10.0}) and model(falling) > model({**falling, "c1": 0.05})


def test_divergent_vertex_says_nothing_to_the_monotone_check():
    """A model that falls in x, and diverges downwards near x = 0
    (``SingularSystem`` with direction -1), passes: a difference with a
    divergent vertex is neither a rise nor a fall."""

    @monotone
    def model(p):
        if p["x"] < 0.1:
            raise SingularSystem("no absorption path", direction=-1)
        return -p["x"] - p["y"]

    params = ParameterSet(boxed={"x": min_max_mean(0.0, 1.0, 0.3), "y": min_max_mean(0.0, 1.0, 0.6)})
    out = propagate_pboxes(model, params, n=3, opt=FAST_OPT)
    assert out.unbounded_boxes > 0
