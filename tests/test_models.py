import dataclasses
import itertools
import math
import traceback

import numpy as np
import pytest

from pba.errors import RowSumViolation, SingularSystem
from pba.interval import Interval
from pba.models import (
    DEMO_TRANSITIONS,
    REGISTRY,
    WTP_PER_QALY,
    CohortCeaSpec,
    cea_model,
    FourStateRates,
    cohort_trace,
    compile_transitions,
    demo_cea_inmb,
    demo_cea_nmb,
    demo_cea_spec,
    discounted_outcomes,
    inmb,
    life_expectancy,
)
from pba.optimize import MAX, MIN, OptimizerSettings, SearchBox, optimize_box, vertex_extrema

BASE_RATES = dict(c2=0.01, c3=0.001, c4=0.1, c5=0.05)


def simulate_life_expectancy(rates: FourStateRates, n_paths: int, rng):
    """Event-driven Monte Carlo of the four-state chain (oracle)."""
    r = rates
    exit1 = r.c1 + r.c2 + r.c3
    total = rng.exponential(1.0 / exit1, n_paths)
    u = rng.random(n_paths)
    to_s2 = u < r.c1 / exit1
    to_s3 = (~to_s2) & (u < (r.c1 + r.c2) / exit1)
    idx_s2 = np.where(to_s2)[0]
    if idx_s2.size:
        exit2 = r.c4 + r.c5
        total[idx_s2] += rng.exponential(1.0 / exit2, idx_s2.size)
        go_s3 = rng.random(idx_s2.size) < r.c4 / exit2
        to_s3[idx_s2[go_s3]] = True
    idx_s3 = np.where(to_s3)[0]
    if idx_s3.size:
        total[idx_s3] += rng.exponential(1.0 / r.c6, idx_s3.size)
    return float(total.mean()), float(total.std(ddof=1) / math.sqrt(n_paths))


def test_single_exponential_exact():
    assert life_expectancy(FourStateRates(0, 0, 2.0, 0, 0, 0)) == pytest.approx(0.5)
    assert life_expectancy(FourStateRates(0, 0, 0.25, 0, 0, 0)) == pytest.approx(4.0)


def test_paper_fixed_values_vs_simulation(rng):
    rates = FourStateRates(c1=0.05, c6=1.0, **BASE_RATES)
    exact = life_expectancy(rates)
    mc, se = simulate_life_expectancy(rates, 10**6, rng)
    assert abs(exact - mc) <= 3 * se


def test_matches_simulation_on_random_rates(rng):
    for _ in range(10):
        rates = FourStateRates(*rng.uniform(0.02, 2.0, size=6))
        exact = life_expectancy(rates)
        mc, se = simulate_life_expectancy(rates, 10**6, rng)
        assert abs(exact - mc) <= 3 * se, rates


def test_monotone_in_death_rates():
    base = FourStateRates(c1=0.05, c6=1.0, **BASE_RATES)
    le = life_expectancy(base)
    assert life_expectancy(FourStateRates(c1=0.05, c6=2.0, **BASE_RATES)) < le
    faster = dict(BASE_RATES, c3=0.01)
    assert life_expectancy(FourStateRates(c1=0.05, c6=1.0, **faster)) < le
    worse = dict(BASE_RATES, c5=0.5)
    assert life_expectancy(FourStateRates(c1=0.05, c6=1.0, **worse)) < le


def test_singular_when_no_absorption():
    with pytest.raises(SingularSystem):
        life_expectancy(FourStateRates(0, 0, 0, 0, 0, 0))
    # S3 reachable but dead-ended
    with pytest.raises(SingularSystem):
        life_expectancy(FourStateRates(0.1, 0.1, 0.0, 0.1, 0.1, 0.0))
    # S2 reachable but dead-ended
    with pytest.raises(SingularSystem):
        life_expectancy(FourStateRates(0.1, 0.0, 0.1, 0.0, 0.0, 1.0))


def test_negative_rate_rejected():
    with pytest.raises(ValueError):
        FourStateRates(-0.1, 0, 0, 0, 0, 1)


# ---------------------------------------------------------------------------
# Cohort evaluator
# ---------------------------------------------------------------------------


def two_state_spec(stay: float, horizon: int = 10, discount: float = 0.0) -> CohortCeaSpec:
    def builder(params):
        return np.array([[stay, 1 - stay], [0.0, 1.0]])

    return CohortCeaSpec(
        states=("alive", "dead"),
        absorbing=(False, True),
        transition_builder=builder,
        costs=(100.0, 0.0),
        utilities=(1.0, 0.0),
        cycle_length_years=1.0,
        horizon_cycles=horizon,
        discount_rate_annual=discount,
        initial=(1.0, 0.0),
    )


def test_identity_matrix_keeps_initial():
    spec = two_state_spec(stay=1.0)

    trace = cohort_trace(spec, {})
    assert np.allclose(trace, np.tile([1.0, 0.0], (11, 1)))


def test_geometric_decay():
    spec = two_state_spec(stay=0.8, horizon=6)
    trace = cohort_trace(spec, {})
    for t in range(7):
        assert trace[t, 0] == pytest.approx(0.8**t)


def test_absorbing_occupancy_non_decreasing():
    spec = two_state_spec(stay=0.7, horizon=25)
    trace = cohort_trace(spec, {})
    assert np.all(np.diff(trace[:, 1]) >= -1e-15)
    assert np.allclose(trace.sum(axis=1), 1.0, atol=1e-12)


def test_row_sum_violation():
    spec = two_state_spec(stay=0.8)
    bad = CohortCeaSpec(
        states=spec.states,
        absorbing=spec.absorbing,
        transition_builder=lambda params: np.array([[0.8, 0.1], [0.0, 1.0]]),
        costs=spec.costs,
        utilities=spec.utilities,
        cycle_length_years=spec.cycle_length_years,
        horizon_cycles=spec.horizon_cycles,
        discount_rate_annual=spec.discount_rate_annual,
        initial=spec.initial,
    )
    with pytest.raises(RowSumViolation):
        cohort_trace(bad, {})


@pytest.mark.parametrize(
    "matrix, state, message",
    [
        ([[0.5, 0.5, 0.0], [0.5, 0.6, 0.0], [0.2, 0.0, 0.7]], 1, "row for state 'b' sums to"),
        ([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.2, 0.0, 0.7]], 2, "row for state 'c' sums to"),
        ([[0.5, 0.5, 0.0], [0.4, 0.5, 0.1], [0.2, 0.0, 0.8]], 2, "absorbing state 'c' row is not identity"),
        ([[1.1, 0.0, -0.1], [0.5, 0.6, 0.0], [0.0, 0.0, 1.0]], 0, "row for state 'a' sums to"),
    ],
)
def test_first_bad_row_is_reported(matrix, state, message):
    # Rows 1 and 2 bad; row 2 failing both checks; row 2 only not identity;
    # rows 0 (a negative entry) and 1 bad.  The first bad row is named, by
    # its sum check before its identity check.
    spec = CohortCeaSpec(
        states=("a", "b", "c"),
        absorbing=(False, False, True),
        transition_builder=lambda params: np.array(matrix),
        costs=(1.0, 1.0, 0.0),
        utilities=(1.0, 0.5, 0.0),
        cycle_length_years=1.0,
        horizon_cycles=3,
        discount_rate_annual=0.0,
        initial=(1.0, 0.0, 0.0),
    )
    with pytest.raises(RowSumViolation, match=message) as err:
        cohort_trace(spec, {})
    assert (err.value.cycle, err.value.state) == (0, state)


def test_absorbing_row_reported_before_a_later_bad_sum():
    # Row 0 (absorbing) is not identity and row 1 sums to 1.1: row 0 is named.
    spec = CohortCeaSpec(
        states=("dead", "b"),
        absorbing=(True, False),
        transition_builder=lambda params: np.array([[0.9, 0.1], [0.5, 0.6]]),
        costs=(0.0, 1.0),
        utilities=(0.0, 1.0),
        cycle_length_years=1.0,
        horizon_cycles=3,
        discount_rate_annual=0.0,
        initial=(0.0, 1.0),
    )
    with pytest.raises(RowSumViolation, match="absorbing state 'dead' row is not identity") as err:
        cohort_trace(spec, {})
    assert (err.value.cycle, err.value.state) == (0, 0)


def test_absorbing_row_must_be_identity():
    spec = two_state_spec(stay=0.8)
    bad = CohortCeaSpec(
        states=spec.states,
        absorbing=spec.absorbing,
        transition_builder=lambda params: np.array([[0.8, 0.2], [0.1, 0.9]]),
        costs=spec.costs,
        utilities=spec.utilities,
        cycle_length_years=spec.cycle_length_years,
        horizon_cycles=spec.horizon_cycles,
        discount_rate_annual=spec.discount_rate_annual,
        initial=spec.initial,
    )
    with pytest.raises(RowSumViolation):
        cohort_trace(bad, {})


def test_drift_caught_at_first_offending_cycle():
    # Each row sums to 1 + 5e-11: the matrix passes its own check, but the
    # occupancy mass drifts past the 1e-10 tolerance at cycle 2.
    spec = two_state_spec(stay=0.8)
    drifting = CohortCeaSpec(
        states=spec.states,
        absorbing=(False, False),
        transition_builder=lambda params: np.array([[0.5 + 5e-11, 0.5], [0.25, 0.75 + 5e-11]]),
        costs=spec.costs,
        utilities=spec.utilities,
        cycle_length_years=spec.cycle_length_years,
        horizon_cycles=spec.horizon_cycles,
        discount_rate_annual=spec.discount_rate_annual,
        initial=spec.initial,
    )
    with pytest.raises(RowSumViolation) as err:
        cohort_trace(drifting, {})
    assert err.value.cycle == 2


@pytest.mark.parametrize(
    "matrix, state",
    [
        ([[math.nan, 0.0, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]], 0),
        ([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.0, math.nan, 1.0]], 2),
        ([[1.0, 0.0, 0.0], [0.5, math.inf, 0.0], [0.0, 0.0, 1.0]], 1),
    ],
)
def test_non_finite_row_is_reported(matrix, state):
    # Every comparison with NaN is false, so a check written as "reject if
    # off by more than the tolerance" would let these rows through.
    spec = CohortCeaSpec(
        states=("a", "b", "c"),
        absorbing=(False, False, True),
        transition_builder=lambda params: np.array(matrix),
        costs=(1.0, 1.0, 0.0),
        utilities=(1.0, 0.5, 0.0),
        cycle_length_years=1.0,
        horizon_cycles=3,
        discount_rate_annual=0.0,
        initial=(1.0, 0.0, 0.0),
    )
    with pytest.raises(RowSumViolation, match="sums to (nan|inf)") as err:
        cohort_trace(spec, {})
    assert (err.value.cycle, err.value.state) == (0, state)


def test_nan_occupancy_caught_at_first_cycle():
    # A valid matrix and an initial distribution that sums to exactly 1, but
    # whose huge entries of both signs pile into states 0 and 1 and overflow
    # to +inf and -inf at cycle 1; their sum is NaN.  The spec rejects a
    # negative entry, so the mixed-sign distribution is set after it is built.
    big = 1e308
    spec = CohortCeaSpec(
        states=("a", "b", "c", "d", "e"),
        absorbing=(False,) * 5,
        transition_builder=lambda params: np.array(
            [[1.0, 0, 0, 0, 0], [0, 1.0, 0, 0, 0], [1.0, 0, 0, 0, 0], [0, 1.0, 0, 0, 0], [0, 0, 0, 0, 1.0]]
        ),
        costs=(1.0,) * 5,
        utilities=(0.5,) * 5,
        cycle_length_years=1.0,
        horizon_cycles=4,
        discount_rate_annual=0.0,
        initial=(0.0, 0.0, 0.0, 0.0, 1.0),
    )
    object.__setattr__(spec, "initial", (big, -big, big, -big, 1.0))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RowSumViolation, match="occupancy at cycle 1 sums to nan") as err:
            cohort_trace(spec, {})
    assert (err.value.cycle, err.value.state) == (1, None)


def test_nan_initial_distribution_rejected():
    spec = two_state_spec(stay=0.8)
    with pytest.raises(ValueError, match="initial distribution"):
        dataclasses.replace(spec, initial=(math.nan, 1.0))


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("cycle_length_years", math.nan, "cycle length"),
        ("cycle_length_years", math.inf, "cycle length"),
        ("cycle_length_years", 0.0, "cycle length"),
        ("discount_rate_annual", math.nan, "discount rate"),
        ("discount_rate_annual", -1.0, "discount rate"),
        ("discount_rate_annual", math.inf, "discount rate"),
        ("costs", (math.nan, 0.0), "costs"),
        ("costs", (100.0, math.inf), "costs"),
        ("horizon_cycles", math.nan, "horizon"),
        ("initial", (1.5, -0.5), "non-negative"),
    ],
)
def test_spec_rejects_bad_field(field, value, message):
    spec = two_state_spec(stay=0.8)
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(spec, **{field: value})


def _sequential_outcomes(spec, matrix):
    """Reference: one vector-matrix product per cycle, discounted at cycle starts."""
    trace = [np.asarray(spec.initial, dtype=float)]
    for _ in range(spec.horizon_cycles):
        trace.append(trace[-1] @ matrix)
    cost = qaly = 0.0
    for t in range(spec.horizon_cycles):
        weight = (1.0 + spec.discount_rate_annual) ** (-t * spec.cycle_length_years)
        weight *= spec.cycle_length_years
        cost += weight * float(trace[t] @ np.asarray(spec.costs))
        qaly += weight * float(trace[t] @ np.asarray(spec.utilities))
    return np.array(trace), cost, qaly


@pytest.mark.parametrize("discount", [0.0, 0.035])
@pytest.mark.parametrize("states", [2, 3, 4, 5])
def test_trace_matches_sequential_recurrence(states, discount):
    # Every horizon from 1 to 130 covers each power of two up to 128 and
    # both its neighbours, where the doubling rounds start and stop.
    rng = np.random.default_rng(1000 * states + int(discount * 1000))
    for horizon in range(1, 131):
        matrix = rng.dirichlet(np.ones(states), size=states)
        initial = rng.dirichlet(np.ones(states))
        spec = CohortCeaSpec(
            states=tuple(f"s{i}" for i in range(states)),
            absorbing=(False,) * states,
            transition_builder=lambda params, m=matrix: m,
            costs=tuple(rng.uniform(10.0, 1000.0, states)),
            utilities=tuple(rng.uniform(0.1, 1.0, states)),
            cycle_length_years=1.0 / 12.0,
            horizon_cycles=horizon,
            discount_rate_annual=discount,
            initial=tuple(initial / math.fsum(initial)),
        )
        trace = cohort_trace(spec, {})
        ref_trace, ref_cost, ref_qaly = _sequential_outcomes(spec, matrix)
        np.testing.assert_allclose(trace, ref_trace, rtol=0, atol=1e-13)
        cost, qaly = discounted_outcomes(trace, spec)
        assert cost == pytest.approx(ref_cost, rel=1e-12, abs=0)
        assert qaly == pytest.approx(ref_qaly, rel=1e-12, abs=0)


def test_zero_discount_plain_sums():
    spec = two_state_spec(stay=1.0, horizon=5)
    trace = cohort_trace(spec, {})
    cost, qaly = discounted_outcomes(trace, spec)
    assert cost == pytest.approx(500.0)
    assert qaly == pytest.approx(5.0)


def test_cycle_start_discounting():
    # Constant reward of 1/year over two one-year cycles at 3.5%.
    spec = two_state_spec(stay=1.0, horizon=2, discount=0.035)
    trace = cohort_trace(spec, {})
    _, qaly = discounted_outcomes(trace, spec)
    assert qaly == pytest.approx(1.0 + 1.0 / 1.035)


def test_discount_monotone():
    values = []
    for rate in (0.0, 0.015, 0.035, 0.08):
        spec = two_state_spec(stay=0.9, horizon=30, discount=rate)
        trace = cohort_trace(spec, {})
        cost, qaly = discounted_outcomes(trace, spec)
        values.append((cost, qaly))
    assert all(a[0] >= b[0] and a[1] >= b[1] for a, b in zip(values, values[1:]))


def test_stacked_discounting_matches_one_dot_per_trace():
    # The totals of a stack are bit for bit the per-trace ``discount @ c``.
    from pba.models import _totals

    spec = demo_cea_spec()
    rng = np.random.default_rng(17)
    for size in (1, 2, 7, 64, 256, 300):
        traces = rng.random((size, spec.horizon_cycles + 1, len(spec.states))) * 10.0 ** rng.integers(-8, 7)
        occupancy = traces[:, : spec.horizon_cycles]
        costs = occupancy @ spec._costs * spec.cycle_length_years
        qalys = occupancy @ spec._utilities * spec.cycle_length_years
        expected = [(float(spec._discount @ c), float(spec._discount @ q)) for c, q in zip(costs, qalys)]
        costs, qalys = _totals(spec, traces)
        assert list(zip(costs.tolist(), qalys.tolist())) == expected


def test_zero_utilities_zero_qaly():
    spec = two_state_spec(stay=0.9)
    spec = CohortCeaSpec(
        states=spec.states,
        absorbing=spec.absorbing,
        transition_builder=spec.transition_builder,
        costs=spec.costs,
        utilities=(0.0, 0.0),
        cycle_length_years=spec.cycle_length_years,
        horizon_cycles=spec.horizon_cycles,
        discount_rate_annual=spec.discount_rate_annual,
        initial=spec.initial,
    )
    _, qaly = discounted_outcomes(cohort_trace(spec, {}), spec)
    assert qaly == 0.0


# ---------------------------------------------------------------------------
# INMB
# ---------------------------------------------------------------------------


def test_inmb_arithmetic():
    assert inmb(10_000, 1.0, 0, 0, wtp=30_000) == pytest.approx(20_000)
    assert inmb(500, 2.0, 500, 2.0) == 0.0
    assert inmb(1_000, 1.0, 0, 0, wtp=0.0) == pytest.approx(-1_000)


def test_inmb_antisymmetric():
    a = (12_000.0, 3.2)
    b = (9_000.0, 2.9)
    assert inmb(*a, *b) == pytest.approx(-inmb(*b, *a))


def test_inmb_negative_wtp_rejected():
    with pytest.raises(ValueError):
        inmb(0, 0, 0, 0, wtp=-1)


# ---------------------------------------------------------------------------
# Demo CEA model and transition builder
# ---------------------------------------------------------------------------

DEMO_PARAMS = {
    "p_minor": 0.02,
    "p_serious": 0.006,
    "p_die": 0.002,
    "p_minor_serious": 0.05,
    "p_die_serious": 0.03,
    "rr": 0.75,
    "device_cost": 1500.0,
}


def test_demo_spec_uses_stated_constants():
    spec = demo_cea_spec()
    assert spec.discount_rate_annual == 0.035
    assert spec.horizon_cycles == 120
    trace = cohort_trace(spec, DEMO_PARAMS)
    assert np.allclose(trace.sum(axis=1), 1.0, atol=1e-12)


def test_demo_inmb_is_nmb_difference():
    treated = demo_cea_nmb(DEMO_PARAMS)
    untreated = demo_cea_nmb({**DEMO_PARAMS, "rr": 1.0, "device_cost": 0.0})
    assert demo_cea_inmb(DEMO_PARAMS) == pytest.approx(treated - untreated)


def test_demo_inmb_zero_when_no_effect():
    assert demo_cea_inmb({**DEMO_PARAMS, "rr": 1.0, "device_cost": 0.0}) == pytest.approx(0.0)


def test_transition_builder_remainder_and_absorbing():
    matrix = compile_transitions(
        ("a", "b", "dead"),
        (False, False, True),
        (
            {"from": "a", "to": "b", "param": "p"},
            {"from": "a", "to": "dead", "value": 0.1},
            {"from": "b", "to": "dead", "product": ["p", 2.0]},
        ),
    )({"p": 0.2})
    assert np.allclose(matrix.sum(axis=1), 1.0)
    assert matrix[0, 1] == pytest.approx(0.2)
    assert matrix[0, 0] == pytest.approx(0.7)
    assert matrix[1, 2] == pytest.approx(0.4)
    assert np.array_equal(matrix[2], [0, 0, 1])


def _reference_matrix(states, absorbing, transitions, params):
    """The per-entry loop the compiled builder replaced, kept as a reference.

    It takes row remainders from numpy sums, which run left to right, as
    the builder's do, for rows of fewer than eight entries.
    """
    index = {name: i for i, name in enumerate(states)}
    n = len(states)
    matrix = np.zeros((n, n))
    for entry in transitions:
        src, dst = index[entry["from"]], index[entry["to"]]
        if "value" in entry:
            p = float(entry["value"])
        elif "param" in entry:
            p = float(params[entry["param"]])
        else:
            p = 1.0
            for factor in entry["product"]:
                p *= float(params[factor]) if isinstance(factor, str) else float(factor)
        matrix[src, dst] += p
    for i in range(n):
        if absorbing[i]:
            matrix[i] = 0.0
            matrix[i, i] = 1.0
        else:
            matrix[i, i] += 1.0 - matrix[i].sum()
    return matrix


def _random_table(rng, n):
    """Random states, absorbing flags and entries, with repeated (from, to)
    pairs, constants anywhere in a product, and absorbing states that have
    outgoing entries of their own."""
    states = tuple(f"s{i}" for i in range(n))
    absorbing = tuple(bool(b) for b in rng.random(n) < 0.3)
    names = [f"q{k}" for k in range(4)]
    pairs = [(states[rng.integers(n)], states[rng.integers(n)]) for _ in range(n + 2)]
    transitions = []
    for _ in range(rng.integers(1, 4 * n)):
        src, dst = pairs[rng.integers(len(pairs))]
        kind = rng.integers(3)
        if kind == 0:
            transitions.append({"from": src, "to": dst, "value": float(rng.uniform(0, 0.1))})
        elif kind == 1:
            transitions.append({"from": src, "to": dst, "param": names[rng.integers(4)]})
        else:
            factors = [
                names[rng.integers(4)] if rng.random() < 0.5 else float(rng.uniform(0.2, 3.0))
                for _ in range(rng.integers(1, 5))
            ]
            transitions.append({"from": src, "to": dst, "product": factors})
    params = {name: float(rng.uniform(0.0, 0.1)) for name in names}
    return states, absorbing, transitions, params


def test_compiled_builder_matches_reference_loop():
    rng = np.random.default_rng(20261018)
    for n in range(2, 7):
        for _ in range(300):
            states, absorbing, transitions, params = _random_table(rng, n)
            builder = compile_transitions(states, absorbing, transitions)
            expected = _reference_matrix(states, absorbing, transitions, params)
            assert np.array_equal(builder(params), expected), (transitions, params)
            used = {e["param"] for e in transitions if "param" in e}
            used |= {f for e in transitions for f in e.get("product", ()) if isinstance(f, str)}
            assert builder.param_names == used

    # The precomputed arrays follow a replaced horizon and discount rate,
    # also when the original spec has built its own already.
    spec = demo_cea_spec()
    discounted_outcomes(cohort_trace(spec, DEMO_PARAMS), spec)
    for horizon, rate in ((1, 0.0), (37, 0.1), (240, 0.035)):
        replaced = dataclasses.replace(spec, horizon_cycles=horizon, discount_rate_annual=rate)
        fresh = CohortCeaSpec(
            states=spec.states,
            absorbing=spec.absorbing,
            transition_builder=compile_transitions(spec.states, spec.absorbing, DEMO_TRANSITIONS),
            costs=spec.costs,
            utilities=spec.utilities,
            cycle_length_years=spec.cycle_length_years,
            horizon_cycles=horizon,
            discount_rate_annual=rate,
            initial=spec.initial,
        )
        got = discounted_outcomes(cohort_trace(replaced, DEMO_PARAMS), replaced)
        assert got == discounted_outcomes(cohort_trace(fresh, DEMO_PARAMS), fresh)
        assert cohort_trace(replaced, DEMO_PARAMS).shape == (horizon + 1, 4)


def test_compiled_builder_stacks_match_reference_loop():
    # Stacks of 1 to 300 points, each matrix equal to the reference loop's.
    rng = np.random.default_rng(20261021)
    for n in range(2, 7):
        for size in (1, 2, 300, *rng.integers(3, 300, 5).tolist()):
            states, absorbing, transitions, params = _random_table(rng, n)
            points = [{name: float(rng.uniform(0.0, 0.1)) for name in params} for _ in range(size)]
            stack = compile_transitions(states, absorbing, transitions).stack(points)
            expected = np.array([_reference_matrix(states, absorbing, transitions, p) for p in points])
            assert stack.shape == (size, n, n)
            assert np.array_equal(stack, expected), transitions


def test_row_sums_added_left_to_right():
    """A row remainder and a bad row's reported sum are added left to right,
    as Python 3.11's ``sum`` adds, not compensated as ``math.fsum`` and
    3.12's ``sum`` add; on these rows the two differ.  The suite runs on
    3.11 only (numpy is not installed for 3.12 here), where ``sum`` would
    pass this test too."""
    states, absorbing = ("a", "b", "c", "d"), (False, True, True, True)
    row = [0.7, 0.1, 0.1, 0.1]
    left_to_right = ((0.7 + 0.1) + 0.1) + 0.1
    assert left_to_right != math.fsum(row) == 1.0
    builder = compile_transitions(
        states, absorbing, [{"from": "a", "to": s, "value": v} for s, v in zip(states, row)]
    )
    assert builder({})[0, 0] == 0.7 + (1.0 - left_to_right) != 0.7

    bad = [0.7, 0.1, 0.1, 0.2]
    assert ((0.7 + 0.1) + 0.1) + 0.2 == 1.0999999999999999 != math.fsum(bad)
    spec = CohortCeaSpec(
        states=states,
        absorbing=absorbing,
        transition_builder=lambda params: np.array([bad, *np.eye(4)[1:]]),
        costs=(1.0, 0.0, 0.0, 0.0),
        utilities=(1.0, 0.0, 0.0, 0.0),
        cycle_length_years=1.0,
        horizon_cycles=3,
        discount_rate_annual=0.0,
        initial=(1.0, 0.0, 0.0, 0.0),
    )
    with pytest.raises(RowSumViolation, match=r"row for state 'a' sums to 1\.0999999999999999$"):
        cohort_trace(spec, {})


@pytest.mark.parametrize(
    "entry, message",
    [
        ({"from": "a", "to": "gone", "param": "p"}, "naming declared states"),
        ({"to": "a", "value": 0.1}, "naming declared states"),
        ({"from": "a", "to": "b"}, "needs a 'value', 'param' or 'product'"),
        ({"from": "a", "to": "b", "value": True}, "True where a number belongs"),
        ({"from": "a", "to": "b", "value": "0.1"}, "'0.1' where a number belongs"),
        ({"from": "a", "to": "b", "product": ["p", True]}, "True where a number belongs"),
        ({"from": "a", "to": "b", "product": ["p", None]}, "None where a number belongs"),
        ({"from": "a", "to": "b", "product": [0.5, [0.2]]}, r"\[0\.2\] where a number belongs"),
        ({"from": "a", "to": "b", "param": "p", "value": 0.5}, "has 'value' and 'param'; give one"),
        ({"from": "a", "to": "b", "product": ["p"], "param": "p"}, "has 'param' and 'product'; give one"),
        ({"from": "a", "to": "b", "value": 0.5, "prob": 0.5}, r"unknown keys \['prob'\]"),
        ({"from": ["a"], "to": "b", "value": 0.5}, "naming declared states"),
    ],
)
def test_compile_rejects_bad_entry(entry, message):
    with pytest.raises(ValueError, match=message):
        compile_transitions(("a", "b"), (False, True), [entry])


def test_registry_declares_parameters():
    entry = REGISTRY["four_state_life_expectancy"]
    assert entry.param_names == {"c1", "c2", "c3", "c4", "c5", "c6"}
    value = entry.fn(dict(c1=0.05, c6=1.0, **BASE_RATES))
    assert value == pytest.approx(life_expectancy(FourStateRates(c1=0.05, c6=1.0, **BASE_RATES)))


def test_demo_models_declare_the_demo_names():
    names = {"p_minor", "p_serious", "p_die", "p_minor_serious", "p_die_serious", "rr", "device_cost"}
    for name in ("demo_cea_nmb", "demo_cea_inmb"):
        assert REGISTRY[name].param_names == names
    assert set(DEMO_PARAMS) == names


def test_only_the_four_state_model_is_declared_monotone():
    # A grid probe of the CEA demo sees both signs of slope in p_serious.
    assert REGISTRY["four_state_life_expectancy"].fn.monotone is True
    for name in ("demo_cea_nmb", "demo_cea_inmb"):
        assert not getattr(REGISTRY[name].fn, "monotone", False)


def test_divergence_carries_its_direction():
    for rates in (
        FourStateRates(0, 0, 0, 0, 0, 0),
        FourStateRates(0.1, 0.1, 0.0, 0.1, 0.1, 0.0),
        FourStateRates(0.1, 0.0, 0.1, 0.0, 0.0, 1.0),
    ):
        with pytest.raises(SingularSystem) as err:
            life_expectancy(rates)
        assert err.value.direction == 1


def test_four_state_vertex_extrema_bracket_the_box(rng):
    """The monotone declaration holds: vertices bound every interior point.

    All six rates are boxed (c6 kept positive, so every value is finite);
    a dense interior grid and DIRECT's own MIN and MAX must stay inside the
    vertex range.
    """
    model = REGISTRY["four_state_life_expectancy"].fn
    names = ("c1", "c2", "c3", "c4", "c5", "c6")
    objective = lambda v: model(dict(zip(names, v)))
    for _ in range(6):
        lows = rng.uniform(0.0, 1.0, size=6)
        lows[5] += 0.05
        highs = lows + rng.uniform(0.01, 1.0, size=6)
        bounds = tuple(Interval(lo, hi) for lo, hi in zip(lows, highs))
        box = SearchBox(bounds, OptimizerSettings(budget=2000, tol=1e-4))
        v_lo, v_hi = vertex_extrema(objective, box)
        slack = 1e-12 * abs(v_hi)
        for point in itertools.product(*(np.linspace(lo, hi, 5)[1:-1] for lo, hi in zip(lows, highs))):
            assert v_lo - slack <= objective(point) <= v_hi + slack
        for sense in (MIN, MAX):
            assert v_lo - slack <= optimize_box(objective, box, sense).value <= v_hi + slack


def _random_cohort_tables(rng, n, count):
    """A random n-state spec and ``count`` transition matrices for it.

    Most matrices are row-stochastic, with identity rows for the absorbing
    states.  The rest are spoilt in one of the ways the checks look for: a
    NaN or infinite entry, a negative entry, a row sum off 1, an absorbing
    row that is not the identity, or every row a little over 1, which
    passes the matrix check but lets the occupancy mass drift.
    """
    absorbing = tuple(bool(b) for b in rng.random(n) < 0.3)
    initial = rng.dirichlet(np.ones(n))
    spec = dict(
        states=tuple(f"s{i}" for i in range(n)),
        absorbing=absorbing,
        costs=tuple(rng.uniform(0, 1000, n)),
        utilities=tuple(rng.uniform(0, 1, n)),
        cycle_length_years=float(rng.choice([1.0, 1.0 / 12.0])),
        horizon_cycles=int(rng.integers(1, 130)),
        discount_rate_annual=float(rng.uniform(0, 0.05)),
        initial=tuple(initial / math.fsum(initial)),
    )
    tables = []
    for _ in range(count):
        m = rng.dirichlet(np.ones(n) * 0.7, size=n)
        for i in np.flatnonzero(absorbing):
            m[i] = np.eye(n)[i]
        i, j = rng.integers(n), rng.integers(n)
        spoil = rng.integers(12)
        if spoil == 0:
            m[i, j] = math.nan
        elif spoil == 1:
            m[i, j] = rng.choice([math.inf, -math.inf])
        elif spoil == 2:  # a negative entry in a row that still sums to 1
            m[i, (j + 1) % n] += m[i, j] + 1e-3
            m[i, j] = -1e-3
        elif spoil == 3:
            m[i] *= 1.0 + float(rng.choice([-1e-6, 1e-9, 3e-10, -2e-10]))
        elif spoil == 4:
            m[i] = rng.dirichlet(np.ones(n))
        elif spoil == 5:
            m *= 1.0 + 9e-11
        tables.append(m)
    return spec, tables


def _outcome_or_error(spec, params):
    try:
        return spec.outcomes(params)
    except RowSumViolation as exc:
        return str(exc), exc.cycle, exc.state


def _outcome_models(spec):
    """The spec's cost and QALY models (``cea_model``), each with its own round table."""
    return cea_model(spec, "cost", 0.0), cea_model(spec, "qaly", 0.0)


def _pair_or_error(models, params):
    """(cost, QALY) from the two ``_outcome_models`` at ``params``, or the
    RowSumViolation (message, cycle, state) that both raise."""
    cost, qaly = (_value_or_error(model, params) for model in models)
    if isinstance(cost, tuple):
        assert qaly == cost
        return cost
    return cost, qaly


def test_prefetch_then_call_matches_call_alone():
    """On 1,500 random tables of 2-6 states, a point evaluated in a stack by
    a cohort model's ``prefetch`` and then called gives the value, or the
    RowSumViolation (message, cycle, state), of the spec's outcomes alone; a
    prefetched point, failing or not, is not built again when it is called."""
    rng = np.random.default_rng(20261019)
    kinds = set()
    for n in range(2, 7):
        fields, tables = _random_cohort_tables(rng, n, 300)
        built = []

        def builder(params, tables=tables, built=built):
            built.append(params["k"])
            return tables[params["k"]]

        alone = CohortCeaSpec(transition_builder=lambda params, tables=tables: tables[params["k"]], **fields)
        stacked = _outcome_models(CohortCeaSpec(transition_builder=builder, **fields))
        expected = [_outcome_or_error(alone, {"k": k}) for k in range(len(tables))]
        k = 0
        while k < len(tables):
            chunk = range(k, min(k + int(rng.integers(1, 21)), len(tables)))
            for model in stacked:
                model.prefetch([{"k": i} for i in chunk])
            for i in chunk:
                del built[:]
                got = _pair_or_error(stacked, {"k": i})
                assert got == expected[i], (n, i)
                assert built == []
                kinds.add(got[0].split(" ")[0] if isinstance(got[0], str) else "value")
            k = chunk.stop
    assert kinds == {"value", "row", "absorbing", "occupancy"}


def _value_or_error(model, params):
    try:
        return model(params)
    except RowSumViolation as exc:
        return str(exc), exc.cycle, exc.state


def _mixed_demo_round(rng) -> list[dict]:
    """Demo points of one round, some repeated: good ones; ones whose device
    arm fails (its well row sums above 1); ones where only the comparator arm
    fails (rr = 1 lifts the well row above 1); and ones where both fail,
    the device arm on a NaN, so that the two errors differ."""
    good = [
        {
            **DEMO_PARAMS,
            "p_serious": float(rng.uniform(0.001, 0.02)),
            "rr": float(rng.uniform(0.45, 1.05)),
            "device_cost": float(rng.uniform(500.0, 3000.0)),
        }
        for _ in range(60)
    ]
    device_fails = [{**point, "rr": 200.0} for point in good[:4]]
    comparator_fails = [{**point, "p_minor": 0.7, "p_serious": 0.4, "rr": 0.5} for point in good[4:8]]
    both_fail = [{**point, "rr": math.nan} for point in comparator_fails[:2]]
    # Points that share a comparator arm: the same inputs but rr and the device cost.
    shared = [{**good[0], "rr": rr, "device_cost": 900.0 + rr} for rr in (0.6, 0.8, 1.0)]
    points = good + device_fails + comparator_fails + both_fail + shared + good[::7]
    return [points[i] for i in rng.permutation(len(points))]


def _demo_reference(params, outcome):
    """A demo model's value at ``params`` from per-point spec outcomes, or its error."""
    spec = demo_cea_spec()
    try:
        cost, qaly = spec.outcomes(params)
        if outcome == "inmb":
            cost_b, qaly_b = spec.outcomes({**params, "rr": 1.0})
            return inmb(cost + params["device_cost"], qaly, cost_b, qaly_b, WTP_PER_QALY)
    except RowSumViolation as exc:
        return str(exc), exc.cycle, exc.state
    return {
        "nmb": WTP_PER_QALY * qaly - (cost + params["device_cost"]),
        "cost": cost,
        "qaly": qaly,
        "cea-nmb": 12_345.0 * qaly - cost,
    }[outcome]


@pytest.mark.parametrize("outcome", ["inmb", "nmb", "cost", "qaly", "cea-nmb"])
def test_round_values_equal_per_point_calls(outcome):
    """A cohort model's round table holds, bit for bit, the value of each
    point that the model called point by point without ``prefetch`` gives,
    and the per-point spec outcomes combined as the model's formula (for the
    INMB, ``inmb``'s) combines them; each failing point holds the same
    ``RowSumViolation`` (message, cycle, state), the device arm's first."""
    if outcome in ("inmb", "nmb"):
        model = demo_cea_inmb if outcome == "inmb" else demo_cea_nmb
    else:
        model = cea_model(demo_cea_spec(), outcome.removeprefix("cea-"), 12_345.0)
    table = model.prefetch.__self__
    points = _mixed_demo_round(np.random.default_rng(20261020))
    expected = [_demo_reference(p, outcome) for p in points]
    kinds = {type(e) for e in expected}
    assert kinds == {float, tuple}

    table.clear()
    assert [_value_or_error(model, p) for p in points] == expected
    assert len(table) == 0  # each call was computed alone

    model.prefetch(points)
    assert len(table) == len({table.key(p) for p in points}) < len(points)
    stored = [table[table.key(p)] for p in points]
    assert [s if isinstance(s, float) else (str(s), s.cycle, s.state) for s in stored] == expected
    assert [_value_or_error(model, p) for p in points] == expected
    if outcome == "inmb":
        messages = {e[0] for e in expected if isinstance(e, tuple)}
        assert any("nan" in m for m in messages) and any("nan" not in m for m in messages)


@pytest.mark.parametrize("model", [demo_cea_inmb, demo_cea_nmb], ids=["inmb", "nmb"])
def test_demo_point_without_device_cost_raises_its_arm_error_first(model):
    """A demo point that lacks ``device_cost`` raises its failing arm's
    ``RowSumViolation``, as the per-point formula does, and ``KeyError``
    only when its arms pass; the same with or without a round in the table."""
    points = _mixed_demo_round(np.random.default_rng(20261020))
    for prefetch in (False, True):
        model.prefetch.__self__.clear()
        if prefetch:
            model.prefetch(points)
        for params in points:
            lacking = {k: v for k, v in params.items() if k != "device_cost"}
            expected = _demo_reference({**params, "device_cost": 0.0}, model.__name__.removeprefix("demo_cea_"))
            if isinstance(expected, tuple):
                assert _value_or_error(model, lacking) == expected
            else:
                with pytest.raises(KeyError, match="device_cost"):
                    model(lacking)


def test_prefetch_in_slices_gives_the_per_point_outcomes(monkeypatch):
    """A stack longer than a slice is evaluated slice by slice, with the
    outcomes of the points evaluated one by one."""
    monkeypatch.setattr("pba.models._SLICE_MATRICES", 7)
    rng = np.random.default_rng(20261022)
    points = [
        {**DEMO_PARAMS, "p_serious": float(rng.uniform(0.001, 0.02)), "rr": float(rng.uniform(0.45, 1.05))}
        for _ in range(50)
    ]
    alone = demo_cea_spec()
    tables = []
    for model in _outcome_models(demo_cea_spec()):
        model.prefetch(points)
        tables.append(model.prefetch.__self__)
    assert [len(table) for table in tables] == [50, 50]
    assert [tuple(table[table.key(p)] for table in tables) for p in points] == [alone.outcomes(p) for p in points]


def _counted_model(count):
    """The cost model (``cea_model``) of a random 3-state spec over
    ``count`` tables, and the list of the table indices its builder is
    asked for."""
    fields, tables = _random_cohort_tables(np.random.default_rng(20261019), 3, count)
    built = []

    def builder(params):
        built.append(params["k"])
        return tables[params["k"]]

    return cea_model(CohortCeaSpec(transition_builder=builder, **fields), "cost", 0.0), built


def test_prefetch_table_holds_exactly_its_round():
    """After ``prefetch``, the table's keys are the round's distinct keys,
    however many times a point is repeated, and whatever the round before
    held."""
    model, _ = _counted_model(30)
    table = model.prefetch.__self__
    assert table == {}
    for ks in ((0, 1, 2, 1, 0), tuple(range(3, 25)), (7, 24, 25, 7), (29,)):
        model.prefetch([{"k": k} for k in ks])
        assert set(table) == {table.key({"k": k}) for k in ks}


def test_prefetch_round_is_the_same_whatever_came_before():
    """A round's table, and the matrices it builds, are the same whether or
    not another round came before it: a point the round before held is
    built again, once, and read back without building."""
    points = [{"k": k} for k in (0, 1, 2, 1, *range(8, 13))]
    fresh, fresh_built = _counted_model(20)
    fresh.prefetch(points)
    assert fresh_built == [0, 1, 2, *range(8, 13)]
    expected = [_value_or_error(fresh, p) for p in points]
    for before in ([{"k": k} for k in range(8)], [{"k": 19}], points):
        model, built = _counted_model(20)
        model.prefetch(before)
        del built[:]
        model.prefetch(points)
        assert built == fresh_built
        assert set(model.prefetch.__self__) == set(fresh.prefetch.__self__)
        assert [_value_or_error(model, p) for p in points] == expected
        assert built == fresh_built


def test_call_outside_the_table_is_evaluated_alone_and_stored_nowhere():
    """A call on a point the table lacks builds its matrix alone and leaves
    the table as it was; a model never prefetched keeps no table at all."""
    model, built = _counted_model(20)
    fresh, _ = _counted_model(20)
    model.prefetch([{"k": k} for k in range(5)])
    table = dict(model.prefetch.__self__)
    for k in (12, 12, 17):
        del built[:]
        assert _value_or_error(model, {"k": k}) == _value_or_error(fresh, {"k": k})
        assert built == [k]
        assert model.prefetch.__self__ == table
    assert fresh.prefetch.__self__ == {}


def _value_or_raised(model, params):
    try:
        return model(params)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "cycle", None), getattr(exc, "state", None)


def test_prefetch_raises_nothing_and_leaves_errors_to_the_calls():
    """``prefetch`` raises nothing for a batch with a point that lacks an
    input, or one whose matrix the builder cannot build; each call after it
    gives the value, or the error, of a fresh model's call."""
    lacking = {k: v for k, v in DEMO_PARAMS.items() if k != "rr"}
    demo_points = [{**DEMO_PARAMS, "rr": rr} for rr in (0.5, 0.75, 200.0)] + [lacking]
    model = cea_model(demo_cea_spec(), "cost", 0.0)
    model.prefetch(demo_points)
    got = [_value_or_raised(model, p) for p in demo_points]
    assert got == [_value_or_raised(cea_model(demo_cea_spec(), "cost", 0.0), p) for p in demo_points]
    assert [g[0] if isinstance(g, tuple) else float for g in got] == [float, float, RowSumViolation, KeyError]

    fields, tables = _random_cohort_tables(np.random.default_rng(20261019), 3, 40)

    def builder(params):
        if params["k"] == 7:
            raise ValueError("no matrix at k=7")
        return tables[params["k"]]

    points = [{"k": k} for k in range(len(tables))]
    prefetched = cea_model(CohortCeaSpec(transition_builder=builder, **fields), "cost", 0.0)
    prefetched.prefetch(points)
    got = [_value_or_raised(prefetched, p) for p in points]
    fresh = cea_model(CohortCeaSpec(transition_builder=builder, **fields), "cost", 0.0)
    assert got == [_value_or_raised(fresh, p) for p in points]
    assert got[7] == (ValueError, "no matrix at k=7", None, None)
    assert {g[0] for g in got if isinstance(g, tuple)} >= {RowSumViolation, ValueError}
    assert any(isinstance(g, float) for g in got)


def test_remembered_error_keeps_a_short_traceback():
    """A prefetched point's ``RowSumViolation`` is the same error at every
    call on it, and raising it again does not lengthen its traceback."""
    spec = CohortCeaSpec(
        states=("alive", "dead"),
        absorbing=(False, True),
        transition_builder=lambda params: np.array([[0.5, 0.6], [0.0, 1.0]]),
        costs=(1.0, 0.0),
        utilities=(1.0, 0.0),
        cycle_length_years=1.0,
        horizon_cycles=3,
        discount_rate_annual=0.0,
        initial=(1.0, 0.0),
    )
    model = cea_model(spec, "cost", 0.0)
    model.prefetch([{}])
    raised = []
    for _ in range(5):
        with pytest.raises(RowSumViolation) as err:
            model({})
        raised.append(err.value)
    assert all(exc is raised[0] for exc in raised)
    assert len(traceback.extract_tb(raised[0].__traceback__)) <= 2
