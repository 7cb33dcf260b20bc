import hashlib
import math
import random

import numpy as np
import pytest

from pba._direct import Direct
from pba.errors import DimensionTooLarge, NonFiniteObjective, SingularSystem
from pba.interval import Interval
from pba.optimize import (
    MAX,
    MIN,
    WINDOW,
    OptimizerSettings,
    SearchBox,
    _pointwise,
    _search,
    optimize_box,
    optimize_boxes,
    vertex_extrema,
)

UNIT2 = (Interval(0, 1), Interval(0, 1))


def quadratic(v):
    return (v[0] - 0.3) ** 2 + (v[1] - 0.7) ** 2


def linear(v):
    return 2 * v[0] - v[1]


def camel(v):
    # Six-hump camel: global minimum -1.0316 at (+-0.0898, -+0.7126).
    x, y = v
    return (4 - 2.1 * x**2 + x**4 / 3) * x**2 + x * y + (-4 + 4 * y**2) * y**2


CAMEL_BOX = SearchBox((Interval(-3, 3), Interval(-2, 2)), OptimizerSettings(budget=3000, tol=1e-7))


@pytest.mark.parametrize(
    "kwargs, message",
    [({"budget": 0}, "budget must"), ({"tol": 0.0}, "tol must"), ({"tol": 1.0}, "tol must")],
)
def test_settings_range_checked(kwargs, message):
    with pytest.raises(ValueError, match=message):
        OptimizerSettings(**kwargs)


def test_search_box_needs_a_dimension():
    with pytest.raises(ValueError, match="at least one dimension"):
        SearchBox(())


def test_quadratic_minimum():
    result = optimize_box(quadratic, SearchBox(UNIT2, OptimizerSettings(budget=2000, tol=1e-6)), MIN)
    assert result.value == pytest.approx(0.0, abs=1e-4)
    assert result.point[0] == pytest.approx(0.3, abs=1e-2)
    assert result.point[1] == pytest.approx(0.7, abs=1e-2)
    assert result.evaluations <= 2000


def test_linear_extrema():
    box = SearchBox(UNIT2, OptimizerSettings(budget=4000, tol=1e-8))
    rmin = optimize_box(linear, box, MIN)
    rmax = optimize_box(linear, box, MAX)
    assert rmin.value == pytest.approx(-1.0, abs=1e-6)
    assert rmax.value == pytest.approx(2.0, abs=1e-6)


def test_multimodal_global_minimum():
    result = optimize_box(camel, CAMEL_BOX, MIN)
    assert result.value == pytest.approx(-1.031628, abs=1e-3)


@pytest.mark.parametrize(
    "objective, box, sense, evaluations, converged, value, point",
    [
        (camel, CAMEL_BOX, MIN, 867, True, "-0x1.0818cd655ca51p+0",
         ("-0x1.6ffe463fc8080p-4", "0x1.6ce14bc32fef4p-1")),
        (camel, CAMEL_BOX, MAX, 193, True, "0x1.45ccc2e22967dp+7",
         ("-0x1.7ffffe3f03b76p+1", "-0x1.fffffda95a49dp+0")),
        (quadratic, SearchBox(UNIT2, OptimizerSettings(budget=500, tol=1e-6)), MIN, 499, False,
         "0x1.2382eb5db9adep-36", ("0x1.33324fe6ae6e2p-2", "0x1.66661aa23a24bp-1")),
    ],
    ids=["camel-min", "camel-max", "quadratic-budget"],
)
def test_search_trajectory_pinned(objective, box, sense, evaluations, converged, value, point):
    # Exact results of the reference DIRECT search: any change to the points
    # sampled, their order or the tie-breaks moves at least one of them.
    result = optimize_box(objective, box, sense)
    assert result.evaluations == evaluations
    assert result.converged is converged
    assert result.value.hex() == value
    assert tuple(x.hex() for x in result.point) == point


def _seeded_search(r):
    """A random polynomial objective, box, settings and sense drawn from
    ``random.Random`` ``r``, with some zero-width coordinates; a third of
    the objectives are rounded down to a step.  The objective uses only
    adds, multiplies and ``floor``, summed left to right."""
    dim = r.randint(1, 4)
    bounds = []
    for _ in range(dim):
        lo = r.uniform(-2.0, 2.0)
        width = 0.0 if r.random() < 0.15 else r.uniform(0.1, 3.0)
        bounds.append(Interval(lo, lo + width))
    settings = OptimizerSettings(budget=r.randint(1, 400), tol=r.choice([1e-2, 1e-4, 1e-6]))
    coefs = [tuple(r.uniform(-1.0, 1.0) for _ in range(4)) for _ in range(dim)]
    coupling = r.uniform(-1.0, 1.0)
    step = r.choice([0.0, 0.0, 0.125])  # a step > 0 gives plateaus, so ties in value

    def objective(v):
        total = 0.0
        for (a, b, c, d), x in zip(coefs, v):
            total += ((a * x + b) * x + c) * x * x + d * x
        total += coupling * v[0] * v[-1]
        return math.floor(total / step) * step if step else total

    return objective, SearchBox(tuple(bounds), settings), r.choice([MIN, MAX])


def test_random_searches_pinned():
    # Exact results of 300 seeded searches (dims 1-4, budgets 1-400, three
    # tolerances, some pinned coordinates, some plateaus), folded into one
    # digest: a change to any sampled point, tie-break or exit of the
    # search moves it.
    r = random.Random(20260419)
    digest = hashlib.sha256()
    converged = 0
    for _ in range(300):
        objective, box, sense = _seeded_search(r)
        result = optimize_box(objective, box, sense)
        converged += result.converged
        record = (result.evaluations, result.converged, result.value.hex(), tuple(x.hex() for x in result.point))
        digest.update(repr(record).encode())
    assert 0 < converged < 300
    assert digest.hexdigest() == "8d32c106bd550663abfc278b8ca23776698f21535396bcf61f49f8ef16bd3550"


def test_determinism():
    box = SearchBox(UNIT2, OptimizerSettings(budget=500, tol=1e-6))
    runs = [optimize_box(quadratic, box, MIN) for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]


def test_soundness_against_interior_samples(rng):
    objective = lambda v: np.sin(3 * v[0]) * np.cos(2 * v[1]) + 0.1 * v[0]
    box = SearchBox(UNIT2, OptimizerSettings(budget=3000, tol=1e-7))
    lo = optimize_box(objective, box, MIN).value
    hi = optimize_box(objective, box, MAX).value
    for _ in range(100):
        point = rng.uniform(0, 1, size=2)
        value = objective(point)
        assert lo - 1e-6 <= value <= hi + 1e-6


def test_nested_boxes_monotone():
    outer = SearchBox(UNIT2, OptimizerSettings(budget=3000, tol=1e-7))
    inner = SearchBox((Interval(0.2, 0.8), Interval(0.1, 0.6)), OptimizerSettings(budget=3000, tol=1e-7))
    f = lambda v: (v[0] - 0.55) ** 2 - v[1]
    tol = 1e-6
    assert optimize_box(f, inner, MIN).value >= optimize_box(f, outer, MIN).value - tol
    assert optimize_box(f, inner, MAX).value <= optimize_box(f, outer, MAX).value + tol


def test_vertex_extrema_exact_for_linear():
    box = SearchBox(UNIT2, OptimizerSettings(budget=2000))
    assert vertex_extrema(linear, box) == (-1.0, 2.0)


def test_vertex_extrema_counts_evaluations():
    calls = []
    box = SearchBox((Interval(0, 1),) * 3, OptimizerSettings(budget=2000))
    vertex_extrema(lambda v: calls.append(1) or 0.0, box)
    assert len(calls) == 8


def test_vertex_extrema_constant():
    box = SearchBox(UNIT2, OptimizerSettings(budget=2000))
    assert vertex_extrema(lambda v: 3.5, box) == (3.5, 3.5)


def test_dimension_too_large():
    box = SearchBox((Interval(0, 1),) * 12, OptimizerSettings(budget=2000))
    with pytest.raises(DimensionTooLarge):
        vertex_extrema(lambda v: 0.0, box)


def test_non_finite_objective():
    box = SearchBox(UNIT2, OptimizerSettings(budget=100))
    with pytest.raises(NonFiniteObjective):
        optimize_box(lambda v: float("nan"), box, MIN)
    with pytest.raises(NonFiniteObjective):
        vertex_extrema(lambda v: float("inf"), box)


def test_degenerate_coordinates_pinned():
    box = SearchBox((Interval(0.4, 0.4), Interval(0, 1)), OptimizerSettings(budget=500, tol=1e-6))
    result = optimize_box(lambda v: (v[0] - 0.4) ** 2 + (v[1] - 0.25) ** 2, box, MIN)
    assert result.point[0] == 0.4
    assert result.value == pytest.approx(0.0, abs=1e-6)


def test_fully_degenerate_box():
    box = SearchBox((Interval(0.3, 0.3), Interval(0.6, 0.6)), OptimizerSettings(budget=500))
    result = optimize_box(lambda v: v[0] + v[1], box, MIN)
    assert result.point == (0.3, 0.6)
    assert result.value == pytest.approx(0.9)
    assert result.converged and result.evaluations == 1


def test_budget_respected_and_flagged():
    box = SearchBox(UNIT2, OptimizerSettings(budget=40, tol=1e-12))
    result = optimize_box(quadratic, box, MIN)
    assert result.evaluations <= 40
    assert not result.converged


def test_vertex_extrema_reads_a_signed_divergence_as_infinity():
    def diverges_at_origin(v, direction):
        if v == (0, 0):
            raise SingularSystem("no finite value", direction=direction)
        return v[0] + v[1]

    box = SearchBox(UNIT2, OptimizerSettings(budget=100))
    assert vertex_extrema(lambda v: diverges_at_origin(v, 1), box) == (1.0, math.inf)
    assert vertex_extrema(lambda v: diverges_at_origin(v, -1), box) == (-math.inf, 2.0)
    with pytest.raises(SingularSystem):  # no direction: nothing to map it to
        vertex_extrema(lambda v: diverges_at_origin(v, 0), box)
    with pytest.raises(SingularSystem):  # a point evaluation still raises
        optimize_box(lambda v: diverges_at_origin(v, 1), SearchBox((Interval(0, 0),) * 2), MAX)


def recording(record):
    """An ``evaluate`` that hands each combined round to ``record``, then calls each point."""

    def evaluate(rounds):
        record(rounds)
        return _pointwise(rounds)

    return evaluate


class RoundRecorder:
    """An objective that records each announced round and every point it evaluates."""

    def __init__(self, f):
        self.f = f
        self.calls = []
        self.rounds = []  # (calls made before the announcement, announced points)

    def __call__(self, point):
        self.calls.append(tuple(point))
        return self.f(point)

    def announce(self, rounds):
        ((objective, points),) = rounds
        assert objective is self
        self.rounds.append((len(self.calls), list(points)))

    def search(self, box, sense):
        return optimize_boxes([(self, _search(box, sense))], recording(self.announce))[0]


def _check_rounds(recorder):
    """Each announced list is exactly the points evaluated next, in order,
    and the rounds cover every evaluation."""
    start = 0
    for made, points in recorder.rounds:
        assert made == start
        assert points and recorder.calls[made : made + len(points)] == points
        start += len(points)
    assert start == len(recorder.calls)


@pytest.mark.parametrize(
    "objective, box, sense",
    [
        (camel, CAMEL_BOX, MIN),
        (camel, CAMEL_BOX, MAX),
        (quadratic, SearchBox(UNIT2, OptimizerSettings(budget=500, tol=1e-6)), MIN),
    ],
    ids=["camel-min", "camel-max", "quadratic-budget"],
)
def test_rounds_announced_before_evaluation(objective, box, sense):
    recorder = RoundRecorder(objective)
    result = recorder.search(box, sense)
    assert result == optimize_box(objective, box, sense)
    assert len(recorder.rounds) > 10
    _check_rounds(recorder)


def test_round_cut_by_budget_announces_only_what_is_evaluated():
    # At budget 100 the last round stops after 6 of its 10 points: that
    # round is announced as those 6, and every earlier round as it is
    # announced with the full budget.
    full = RoundRecorder(camel)
    full.search(CAMEL_BOX, MIN)
    cut = RoundRecorder(camel)
    result = cut.search(SearchBox(CAMEL_BOX.bounds, OptimizerSettings(budget=100, tol=1e-7)), MIN)
    assert (result.evaluations, result.converged) == (99, False)
    _check_rounds(cut)
    last = len(cut.rounds) - 1
    assert cut.rounds[:last] == full.rounds[:last]
    made, points = cut.rounds[last]
    assert full.rounds[last] == (made, points + full.rounds[last][1][len(points) :])
    assert 0 < len(points) < len(full.rounds[last][1])


def test_announced_points_are_in_box_coordinates():
    box = SearchBox((Interval(2, 4), Interval(5, 5), Interval(-1, 0)), OptimizerSettings(budget=60))
    recorder = RoundRecorder(lambda v: (v[0] - 3.3) ** 2 + v[2] ** 2)
    recorder.search(box, MIN)
    _check_rounds(recorder)
    for _, points in recorder.rounds:
        for x, y, z in points:
            assert 2 < x < 4 and y == 5 and -1 < z < 0


def test_pinned_point_announced():
    # A box with no width is searched by evaluating its one point, which is
    # announced as a round of its own first.
    recorder = RoundRecorder(lambda v: v[0] + v[1])
    result = recorder.search(SearchBox((Interval(0.3, 0.3), Interval(0.6, 0.6))), MIN)
    assert recorder.rounds == [(0, [(0.3, 0.6)])] and recorder.calls == [(0.3, 0.6)]
    _check_rounds(recorder)
    assert (result.point, result.evaluations) == ((0.3, 0.6), 1)


def test_objective_gets_the_announced_tuples():
    # Each point is mapped into the box once: the objective is called with
    # the very tuple objects the round announced, and the result's point is
    # one of them.
    announced, called = [], []

    def objective(point):
        called.append(point)
        return camel(point)

    result = optimize_boxes(
        [(objective, _search(CAMEL_BOX, MIN))], recording(lambda rounds: announced.extend(rounds[0][1]))
    )[0]
    assert len(called) == len(announced) == result.evaluations
    assert all(a is c for a, c in zip(announced, called))
    assert any(result.point is c for c in called)


def test_diameter_squares_added_left_to_right():
    # For these levels a compensated sum (math.fsum, or sum() on Python
    # 3.12) gives another last bit than left-to-right adds, and so another
    # diameter.  The test suite itself runs on 3.11, where sum() adds left
    # to right too.  Each rect's diameter comes from its own levels, so two
    # rects of one size class may differ in that bit.
    levels = (1, 1, 1, 0, 0)
    squares = [9.0 ** (-level) for level in levels]
    left_to_right = (((squares[0] + squares[1]) + squares[2]) + squares[3]) + squares[4]
    assert 0.5 * math.sqrt(left_to_right) != 0.5 * math.sqrt(math.fsum(squares))
    mirrored = (((squares[4] + squares[3]) + squares[2]) + squares[1]) + squares[0]
    diameters = Direct(5)._diameters(np.array([levels, levels[::-1]]))
    assert diameters.tolist() == [0.5 * math.sqrt(left_to_right), 0.5 * math.sqrt(mirrored)]


def _random_search(rng):
    """A random objective, box and sense, with some degenerate coordinates."""
    dim = int(rng.integers(1, 4))
    lows = rng.uniform(-2.0, 2.0, dim)
    widths = rng.uniform(0.1, 3.0, dim) * (rng.random(dim) < 0.85)
    box = SearchBox(
        tuple(Interval(float(lo), float(lo + w)) for lo, w in zip(lows, widths)),
        OptimizerSettings(budget=int(rng.integers(1, 160)), tol=float(rng.choice([1e-2, 1e-4]))),
    )
    a, b, c = rng.uniform(-1.0, 1.0, (3, dim))

    def objective(v):
        return sum(ai * x * x + bi * math.sin(3.0 * x + ci) for ai, bi, ci, x in zip(a, b, c, v))

    return objective, box, (MIN, MAX)[int(rng.integers(2))]


def _stepped_together_equal_one_by_one(searches):
    """Each search's result stepped together with the others through
    ``optimize_boxes`` equals its own ``optimize_box`` result; each round
    hands over exactly what each search evaluates next, and at most WINDOW
    searches at a time."""
    alone = [optimize_box(objective, box, sense) for objective, box, sense in searches]
    calls: dict = {}
    recorded = []
    wrapped = []
    for k, (objective, box, sense) in enumerate(searches):
        calls[k] = []

        def counted(v, objective=objective, k=k):
            calls[k].append(v)
            return objective(v)

        wrapped.append((counted, box, sense))
    number = {id(objective): k for k, (objective, _, _) in enumerate(wrapped)}
    results = optimize_boxes(
        [(f, _search(box, sense)) for f, box, sense in wrapped],
        recording(lambda rounds: recorded.append([(number[id(f)], list(p)) for f, p in rounds])),
    )
    assert results == alone
    assert [r.evaluations for r in results] == [len(calls[k]) for k in range(len(searches))]
    assert max(len(rounds) for rounds in recorded) == WINDOW
    made = {k: 0 for k in calls}
    for rounds in recorded:
        assert [k for k, _ in rounds] == sorted(k for k, _ in rounds)
        for k, points in rounds:
            assert points and calls[k][made[k] : made[k] + len(points)] == points
            made[k] += len(points)
    assert made == {k: len(calls[k]) for k in calls}


def test_boxes_stepped_together_equal_one_by_one(rng):
    # More searches than the window holds, so finished searches make room
    # for new ones.  The seeded searches of ``test_random_searches_pinned``
    # put mixed dimensions, pinned coordinates, plateaus with tied values
    # and spent budgets into one window.
    _stepped_together_equal_one_by_one([_random_search(rng) for _ in range(WINDOW + 40)])
    r = random.Random(20260419)
    _stepped_together_equal_one_by_one([_seeded_search(r) for _ in range(300)])


def test_boxes_stepped_together_raise_the_one_by_one_error():
    # Search 0 fails in its fourth round after the centre, search 2 already
    # in its first.  One by one, search 0 raises first, and so must the
    # window; search 1, before the later failure, runs on to its end.
    def rounds_of(objective, box, sense):
        found = []
        optimize_boxes([(objective, _search(box, sense))], recording(lambda rounds: found.append(list(rounds[0][1]))))
        return found

    box = SearchBox(UNIT2, OptimizerSettings(budget=300, tol=1e-6))
    bad = {rounds_of(quadratic, box, MIN)[4][1], rounds_of(camel, CAMEL_BOX, MIN)[1][0]}
    failures = []

    def failing(f):
        def objective(v):
            if v in bad:
                failures.append(v)
                raise NonFiniteObjective(f"no value at {v}", point=v)
            return f(v)

        return objective

    searches = [(failing(quadratic), box, MIN), (linear, box, MAX), (failing(camel), CAMEL_BOX, MIN)]
    with pytest.raises(NonFiniteObjective) as one_by_one:
        for objective, b, sense in searches:
            optimize_box(objective, b, sense)
    failures.clear()
    with pytest.raises(NonFiniteObjective) as together:
        optimize_boxes([(f, _search(b, sense)) for f, b, sense in searches], _pointwise)
    assert failures[0] != failures[1] == one_by_one.value.point
    assert (str(together.value), together.value.point) == (str(one_by_one.value), one_by_one.value.point)


def test_boxes_without_prefetch_run_one_at_a_time(rng):
    # With no prefetch there is no round to batch, and propagation steps a
    # window of one: each search runs to its end before the next starts,
    # holding one search's state at a time.
    searches = [_random_search(rng) for _ in range(5)]
    order = []
    wrapped = [
        (lambda v, f=f, k=k: order.append(k) or f(v), box, sense) for k, (f, box, sense) in enumerate(searches)
    ]
    together = optimize_boxes([(f, _search(box, sense)) for f, box, sense in wrapped], _pointwise, 1)
    assert together == [optimize_box(f, box, sense) for f, box, sense in searches]
    assert order == sorted(order) and len(set(order)) == 5


@pytest.mark.parametrize("width", [0, -3])
def test_window_needs_a_search(width):
    with pytest.raises(ValueError, match="width must be at least 1"):
        optimize_boxes([(quadratic, _search(SearchBox(UNIT2), MIN))], _pointwise, width)
