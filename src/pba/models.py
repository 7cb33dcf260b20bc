"""Built-in decision models and the black-box model contract.

Models are pure callables from a named-parameter mapping to a scalar
outcome.  Two families ship here: a four-state continuous-time cohort model
whose outcome is expected residence time outside the absorbing state, and a
generic discrete-time cohort cost-effectiveness evaluator with a synthetic
demonstration specification.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Callable, Hashable, Iterable, Mapping, Sequence

from ._lazy import np
from .errors import RowSumViolation, SingularSystem

WTP_PER_QALY = 30_000.0  # willingness-to-pay threshold, money per QALY
ANNUAL_DISCOUNT_RATE = 0.035

_ROW_TOL = 1e-10
_SLICE_MATRICES = 64  # at most this many matrices go through the kernel as one stack,
_SLICE_BYTES = 1 << 20  # and their trace buffer takes at most this many bytes


# ---------------------------------------------------------------------------
# Four-state continuous-time cohort model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FourStateRates:
    """Transition rates per year of the four-state chain; S4 absorbs.

    c1: S1->S2, c2: S1->S3, c3: S1->S4, c4: S2->S3, c5: S2->S4, c6: S3->S4.
    """

    c1: float
    c2: float
    c3: float
    c4: float
    c5: float
    c6: float

    def __post_init__(self):
        for name in ("c1", "c2", "c3", "c4", "c5", "c6"):
            if getattr(self, name) < 0:
                raise ValueError(f"rate {name} must be non-negative")


def life_expectancy(rates: FourStateRates) -> float:
    """Expected total time in S1-S3 starting from S1.

    Solves the transient linear system -Q_T t = 1 exactly: the generator
    restricted to {S1, S2, S3} is upper triangular, so the expected
    absorption times come from back substitution over the states reachable
    from S1.  States that cannot be reached do not constrain the solution.
    Where a reachable state has no exit the time diverges to +inf, raised as
    ``SingularSystem`` with direction +1.
    """
    r = rates
    exit1 = r.c1 + r.c2 + r.c3
    if exit1 <= 0:
        raise SingularSystem("no transition out of S1; residence time diverges", direction=1)
    reaches_s2 = r.c1 > 0
    reaches_s3 = r.c2 > 0 or (reaches_s2 and r.c4 > 0)
    t3 = 0.0
    if reaches_s3:
        if r.c6 <= 0:
            raise SingularSystem("S3 reachable but has no exit; residence time diverges", direction=1)
        t3 = 1.0 / r.c6
    t2 = 0.0
    if reaches_s2:
        exit2 = r.c4 + r.c5
        if exit2 <= 0:
            raise SingularSystem("S2 reachable but has no exit; residence time diverges", direction=1)
        t2 = (1.0 + r.c4 * t3) / exit2
    return (1.0 + r.c1 * t2 + r.c2 * t3) / exit1


def monotone(fn: Callable[[Mapping[str, float]], float]):
    """Declare the model ``fn`` monotone in each input, in either direction.

    Propagation then takes a box's extrema from its vertices instead of
    searching it.  The mark is an attribute on the callable, so a wrapper
    made with ``functools.wraps`` keeps it; any other wrapper drops it, and
    the model is searched by DIRECT again.
    """
    fn.monotone = True
    return fn


# Monotone: a Moebius function of each of c1..c5, and through 1/c6
# decreasing in c6; a divergence (c6 -> 0 and the like) is a limit of it.
@monotone
def _life_expectancy_model(params: Mapping[str, float]) -> float:
    return life_expectancy(
        FourStateRates(
            params["c1"], params["c2"], params["c3"], params["c4"], params["c5"], params["c6"]
        )
    )


# ---------------------------------------------------------------------------
# Generic discrete-time cohort cost-effectiveness evaluator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CohortCeaSpec:
    """A cohort Markov model with per-state annual reward rates.

    ``transition_builder`` maps named parameters to a (states x states)
    row-stochastic matrix.  Costs and utilities are annual rates weighted by
    state occupancy; rewards accrue at cycle starts with no half-cycle
    correction, discounted by (1 + annual rate)**(-t * cycle_length).

    The arrays every evaluation needs (costs, utilities, initial
    distribution, discount factors and the entry bounds of the matrix
    check) are built once per spec; ``dataclasses.replace`` makes a new spec and
    so builds them afresh.  Each spec also keeps a table of the outcome, or
    the error, of each point of the last round handed to ``prefetch``, and
    of nothing else: a round is evaluated afresh, whatever the round before
    held.  ``outcomes`` and ``prefetch`` both compute through ``_evaluate``,
    one slice of points at a time.

    A ``transition_builder`` with a ``stack`` attribute (as
    ``compile_transitions`` makes) builds many matrices at once:
    ``stack(points)`` gives the (B x states x states) array for a sequence of
    B parameter mappings.
    """

    states: tuple[str, ...]
    absorbing: tuple[bool, ...]
    transition_builder: Callable[[Mapping[str, float]], np.ndarray]
    costs: tuple[float, ...]
    utilities: tuple[float, ...]
    cycle_length_years: float
    horizon_cycles: int
    discount_rate_annual: float
    initial: tuple[float, ...]

    def __post_init__(self):
        n = len(self.states)
        if not (len(self.absorbing) == len(self.costs) == len(self.utilities) == len(self.initial) == n):
            raise ValueError("per-state fields must all have one entry per state")
        # Each check is written so that a NaN fails it.
        if not self.horizon_cycles >= 1:
            raise ValueError("horizon must be at least one cycle")
        if not 0 < self.cycle_length_years < math.inf:
            raise ValueError(f"cycle length must be positive and finite, got {self.cycle_length_years}")
        if not -1 < self.discount_rate_annual < math.inf:
            raise ValueError(f"discount rate must be finite and above -1, got {self.discount_rate_annual}")
        if not all(math.isfinite(c) for c in self.costs):
            raise ValueError(f"costs must be finite, got {self.costs}")
        if any(not 0.0 <= u <= 1.0 for u in self.utilities):
            raise ValueError("utilities must lie in [0, 1]")
        if not all(x >= 0.0 for x in self.initial):
            raise ValueError(f"initial distribution entries must be non-negative, got {self.initial}")
        if not abs(math.fsum(self.initial) - 1.0) <= _ROW_TOL:
            raise ValueError("initial distribution must sum to 1")

    # Built on first use, once per spec: a run that never evaluates the
    # spec (the bundled demo spec is made at import) pays nothing for them.

    @cached_property
    def _costs(self) -> np.ndarray:
        return np.asarray(self.costs, dtype=float)

    @cached_property
    def _utilities(self) -> np.ndarray:
        return np.asarray(self.utilities, dtype=float)

    @cached_property
    def _initial(self) -> np.ndarray:
        return np.asarray(self.initial, dtype=float)

    @cached_property
    def _discount(self) -> np.ndarray:
        cycles = np.arange(self.horizon_cycles)
        return (1.0 + self.discount_rate_annual) ** (-cycles * self.cycle_length_years)

    @cached_property
    def _entry_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """(offset, upper): an entry x passes if -tol <= x - offset <= upper.

        A free state's entries need only x >= -tol; an absorbing state's row
        must be within tol of its identity row, which also makes it
        non-negative.
        """
        n = len(self.states)
        offset = np.zeros((n, n))
        upper = np.full((n, n), math.inf)
        for i, absorbing in enumerate(self.absorbing):
            if absorbing:
                offset[i, i] = 1.0
                upper[i] = _ROW_TOL
        return offset, upper

    @cached_property
    def _round(self) -> dict:
        """The table: the outcome of each point of the last prefetched round, by key."""
        return {}

    @cached_property
    def _key(self) -> Callable[[Mapping[str, float]], Hashable]:
        """The table key of a parameter mapping: the values of the builder's
        inputs, or every (name, value) pair for a builder that does not name
        its inputs."""
        names = getattr(self.transition_builder, "param_names", None)
        if names is None:
            return lambda params: tuple(sorted(params.items()))
        if not names:
            return lambda params: ()
        return itemgetter(*sorted(names))

    def _evaluate(self, points: Sequence[Mapping[str, float]]) -> list:
        """The (cost, QALY), or the ``RowSumViolation``, of each of the
        ``points``, in order.  They go through the kernel in as few slices
        of at most ``_slice_size`` points as there can be, their lengths
        within one of each other; each slice's stack is built, raising as
        the builder does, traced and discounted before the next is built."""
        slices = -(-len(points) // _slice_size(self))
        found = []
        for i in range(slices):
            part = points[len(points) * i // slices : len(points) * (i + 1) // slices]
            traces, faults = _traces(self, _transition_stack(self, part))
            found += [outcome if fault is None else fault for fault, outcome in zip(faults, _discounted(self, traces))]
        return found

    def outcomes(self, params: Mapping[str, float]) -> tuple[float, float]:
        """Discounted (total cost, total QALY) at ``params``.

        The same as ``discounted_outcomes(cohort_trace(self, params), self)``,
        and raises as that does.  A point of the last prefetched round is
        read from the table, its error raised again; any other point is
        evaluated alone, as a slice of one, and stored nowhere.
        """
        found = self._round.get(self._key(params))
        if found is None:
            (found,) = self._evaluate([params])
        if isinstance(found, RowSumViolation):
            # Each raise would otherwise add its frames to the stored error's traceback.
            raise found.with_traceback(None)
        return found

    def prefetch(self, points: Iterable[Mapping[str, float]]) -> None:
        """Make the table hold the outcomes of exactly the ``points``.

        The table is rebuilt from the round's distinct keys alone: each is
        evaluated once, whatever the round before held.  Only a speed-up
        for the ``outcomes`` calls that follow.  It raises nothing: a round
        that cannot be keyed, or whose matrices cannot be built, leaves the
        table as it was, and its calls raise their own errors.
        """
        try:
            distinct = {self._key(params): params for params in points}
            table = dict(zip(distinct, self._evaluate(list(distinct.values()))))
        except Exception:
            return  # left for the per-point calls to raise
        self.__dict__["_round"] = table  # where cached_property keeps it; the dataclass is frozen


def _slice_size(spec: CohortCeaSpec) -> int:
    """Points per slice, one matrix each: as many as fit ``_SLICE_BYTES``
    of trace buffer, 8 * n * (n + horizon + 1) bytes each, but at most
    ``_SLICE_MATRICES`` and at least one.  The product of a doubling step is
    no bigger, so a slice's working set stays in cache: 64 matrices for the
    demo spec, 9 for 12 states and 1,200 cycles."""
    n = len(spec.states)
    return max(1, min(_SLICE_MATRICES, _SLICE_BYTES // (8 * n * (n + spec.horizon_cycles + 1))))


def _transition_stack(spec: CohortCeaSpec, points: Sequence[Mapping[str, float]]) -> np.ndarray:
    """The spec's transition matrices at ``points`` as a (B x n x n) float array."""
    builder = spec.transition_builder
    stack = getattr(builder, "stack", None)
    matrices = np.asarray(stack(points) if stack is not None else [builder(p) for p in points], dtype=float)
    n = len(spec.states)
    if matrices.shape != (len(points), n, n):
        raise RowSumViolation(f"transition matrix must be {n}x{n}, got {matrices.shape[1:]}")
    return matrices


def _row_sums(array: np.ndarray) -> np.ndarray:
    """Sums over the last axis of ``array``, added left to right from 0.0.

    Python 3.11's ``sum`` of floats adds the same way; 3.12's compensates,
    so it is not used for sums that decide a check or a matrix entry.
    """
    total = np.zeros(array.shape[:-1])
    for j in range(array.shape[-1]):
        total += array[..., j]
    return total


def _matrix_faults(spec: CohortCeaSpec, stack: np.ndarray) -> list[RowSumViolation | None]:
    """For each matrix of the (B, n, n) ``stack``, the error at its first bad row, or None.

    A row is bad if its sum is off 1 or an entry is negative, or, for an
    absorbing state, if it is not the identity row; a NaN anywhere fails
    the sum check, which a row is named for before its identity check.
    Row sums run left to right.
    """
    offset, upper = spec._entry_bounds
    with np.errstate(all="ignore"):  # an inf or a NaN entry only fails its row
        totals = _row_sums(stack)
    shifted = stack - offset
    ok = (np.abs(totals - 1.0) <= _ROW_TOL) & ((shifted >= -_ROW_TOL) & (shifted <= upper)).all(axis=2)
    faults: list[RowSumViolation | None] = [None] * len(stack)
    for b in np.flatnonzero(~ok.all(axis=1)).tolist():
        i = int(np.argmin(ok[b]))
        total = float(totals[b, i])
        if abs(total - 1.0) <= _ROW_TOL and min(stack[b, i].tolist()) >= -_ROW_TOL:
            message = f"absorbing state {spec.states[i]!r} row is not identity"
        else:
            message = f"row for state {spec.states[i]!r} sums to {total}"
        faults[b] = RowSumViolation(message, cycle=0, state=i)
    return faults


def _traces(spec: CohortCeaSpec, stack: np.ndarray) -> tuple[np.ndarray, list[RowSumViolation | None]]:
    """State occupancy by cycle for each matrix of the (B, n, n) ``stack``,
    and the ``RowSumViolation`` each matrix raises, or None.

    Occupancy is computed by repeated squaring.  One (B, n + rows, n)
    buffer holds P**k in the first n rows of each slice and the trace after
    them; once trace rows 0..k-1 are known, the one stacked product
    ``buffer[:, :n + step] @ P**k`` gives both P**2k and trace rows
    k..k+step-1 of every slice, so a horizon of H cycles takes about
    log2(H) products instead of H.  A matrix that fails its check is
    replaced by the identity, so its (unused) trace stays finite.  Mass
    conservation is checked at every cycle, and a drift (or a NaN) is
    reported at the first cycle where it exceeds the tolerance.
    """
    faults = _matrix_faults(spec, stack)
    n, rows = len(spec.states), spec.horizon_cycles + 1
    buffer = np.empty((len(stack), n + rows, n))
    buffer[:, :n] = stack
    failed = [b for b, fault in enumerate(faults) if fault is not None]
    if failed:
        buffer[failed, :n] = np.eye(n)
    buffer[:, n] = spec._initial
    filled = 1  # buffer[:, :n] == matrix ** filled, and trace rows 0..filled-1 are known
    while filled < rows:
        step = min(filled, rows - filled)
        product = buffer[:, : n + step] @ buffer[:, :n]
        buffer[:, :n] = product[:, :n]
        buffer[:, n + filled : n + filled + step] = product[:, n:]
        filled += step
    traces = buffer[:, n:]
    mass = _row_sums(traces)
    drifted = ~(np.abs(mass - 1.0) <= _ROW_TOL)
    for b in np.flatnonzero(drifted.any(axis=1)).tolist():
        if faults[b] is None:
            t = int(np.argmax(drifted[b]))
            faults[b] = RowSumViolation(
                f"occupancy at cycle {t} sums to {float(mass[b, t])}", cycle=t, state=None
            )
    return traces, faults


def cohort_trace(spec: CohortCeaSpec, params: Mapping[str, float]) -> np.ndarray:
    """State occupancy by cycle: row 0 is the initial distribution.

    Evaluated as a stack of one matrix; raises ``RowSumViolation`` at the
    matrix's first bad row, or at the first cycle whose occupancy does not
    sum to 1.
    """
    traces, (fault,) = _traces(spec, _transition_stack(spec, [params]))
    if fault is not None:
        raise fault
    return traces[0]


def _discounted(spec: CohortCeaSpec, traces: np.ndarray) -> list[tuple[float, float]]:
    """Discounted (total cost, total QALY) of each trace of the (B, rows, n) ``traces``.

    The per-cycle rewards are one product for the stack, and so are the
    discounted totals: a stack of (1 x cycles) @ (cycles x 1) products, each
    one dot of the same operands in the same order as ``discount @ c`` per
    trace.  A stacked matrix-vector product would round differently.
    """
    occupancy = traces[:, : spec.horizon_cycles]
    cost_per_cycle = occupancy @ spec._costs * spec.cycle_length_years
    qaly_per_cycle = occupancy @ spec._utilities * spec.cycle_length_years
    row = spec._discount[None, None, :]
    costs = (row @ cost_per_cycle[:, :, None]).ravel().tolist()
    qalys = (row @ qaly_per_cycle[:, :, None]).ravel().tolist()
    return list(zip(costs, qalys))


def discounted_outcomes(trace: np.ndarray, spec: CohortCeaSpec) -> tuple[float, float]:
    """Discounted (total cost, total QALY) over the horizon."""
    return _discounted(spec, trace[None])[0]


def inmb(
    cost_a: float, qaly_a: float, cost_b: float, qaly_b: float, wtp: float = WTP_PER_QALY
) -> float:
    """Incremental net monetary benefit of strategy A over strategy B."""
    if wtp < 0:
        raise ValueError(f"willingness to pay must be non-negative, got {wtp}")
    return wtp * (qaly_a - qaly_b) - (cost_a - cost_b)


# ---------------------------------------------------------------------------
# Config-driven transition matrices
# ---------------------------------------------------------------------------


def _constant(value, entry: Mapping) -> float:
    """A constant factor of a transition entry: a number, and not a boolean."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"transition {dict(entry)} has {value!r} where a number belongs")
    return float(value)


_ENTRY_KINDS = ("value", "param", "product")  # a transition entry has exactly one


def compile_transitions(
    states: Sequence[str],
    absorbing: Sequence[bool],
    transitions: Sequence[Mapping],
) -> Callable[[Mapping[str, float]], np.ndarray]:
    """A transition builder for declarative transition entries.

    Each entry has ``from``, ``to`` and exactly one of ``value`` (a
    constant), ``param`` (a named parameter) or ``product`` (a list of
    names/constants multiplied together, left to right), and no other key.
    A constant is a number; a boolean or anything else raises
    ``ValueError``, as does an entry with another key or two of the three.
    Staying probabilities are the row remainders, summed left to right;
    absorbing states take identity rows.

    The entries are resolved once, here: state indices and factors.
    ``builder.stack(points)`` then builds the (B x n x n) matrices of B
    parameter mappings at once: each entry is one column of B products,
    each its factors multiplied in order from 1.0, as one point's entry
    is.  ``builder(params)`` is the stack of one.
    ``builder.param_names`` is the frozenset of parameter names the entries
    use.
    """
    index = {name: i for i, name in enumerate(states)}
    n = len(states)
    entries = []
    names: set[str] = set()
    for entry in transitions:
        ends = entry.get("from"), entry.get("to")
        src, dst = (index.get(end) if isinstance(end, str) else None for end in ends)
        if src is None or dst is None:
            raise ValueError(f"transition {dict(entry)} needs 'from' and 'to' naming declared states")
        if unknown := sorted(set(entry) - {"from", "to", *_ENTRY_KINDS}):
            raise ValueError(f"transition {dict(entry)} has unknown keys {unknown}")
        kinds = [key for key in _ENTRY_KINDS if key in entry]
        if len(kinds) > 1:
            raise ValueError(f"transition {dict(entry)} has {' and '.join(map(repr, kinds))}; give one of them")
        if "value" in entry:
            factors = [_constant(entry["value"], entry)]
        elif "param" in entry:
            factors = [str(entry["param"])]
        elif "product" in entry:
            if not isinstance(entry["product"], (list, tuple)):
                raise ValueError(f"transition {dict(entry)} needs 'product' as a list of names and constants")
            factors = [f if isinstance(f, str) else _constant(f, entry) for f in entry["product"]]
        else:
            raise ValueError(f"transition {dict(entry)} needs a 'value', 'param' or 'product'")
        entries.append((src, dst, tuple(factors)))
        names.update(f for f in factors if isinstance(f, str))
    free = [i for i in range(n) if not absorbing[i]]
    held = [i for i in range(n) if absorbing[i]]
    used = sorted(names)

    def stack(points: Sequence[Mapping[str, float]]) -> np.ndarray:
        values = {name: np.array([params[name] for params in points], dtype=float) for name in used}
        matrices = np.zeros((len(points), n, n))
        for src, dst, factors in entries:
            p = np.ones(len(points))
            for factor in factors:
                p *= values[factor] if isinstance(factor, str) else factor
            matrices[:, src, dst] += p
        for i in free:
            matrices[:, i, i] += 1.0 - _row_sums(matrices[:, i])
        matrices[:, held] = 0.0
        matrices[:, held, held] = 1.0
        return matrices

    def builder(params: Mapping[str, float]) -> np.ndarray:
        return stack([params])[0]

    builder.stack = stack
    builder.param_names = frozenset(names)
    return builder


# ---------------------------------------------------------------------------
# Demonstration cost-effectiveness model
# ---------------------------------------------------------------------------

DEMO_STATES = ("well", "minor", "serious", "dead")
DEMO_TRANSITIONS = (
    {"from": "well", "to": "minor", "product": ["p_minor", "rr"]},
    {"from": "well", "to": "serious", "product": ["p_serious", "rr"]},
    {"from": "well", "to": "dead", "param": "p_die"},
    {"from": "minor", "to": "well", "value": 0.15},
    {"from": "minor", "to": "serious", "param": "p_minor_serious"},
    {"from": "minor", "to": "dead", "param": "p_die"},
    {"from": "serious", "to": "minor", "value": 0.05},
    {"from": "serious", "to": "dead", "param": "p_die_serious"},
)


def demo_cea_spec() -> CohortCeaSpec:
    """Synthetic device-evaluation cohort model, monthly cycles for 10 years."""
    absorbing = (False, False, False, True)
    return CohortCeaSpec(
        states=DEMO_STATES,
        absorbing=absorbing,
        transition_builder=compile_transitions(DEMO_STATES, absorbing, DEMO_TRANSITIONS),
        costs=(300.0, 2_400.0, 24_000.0, 0.0),
        utilities=(0.95, 0.75, 0.40, 0.0),
        cycle_length_years=1.0 / 12.0,
        horizon_cycles=120,
        discount_rate_annual=ANNUAL_DISCOUNT_RATE,
        initial=(1.0, 0.0, 0.0, 0.0),
    )


_DEMO_SPEC = demo_cea_spec()
DEMO_PARAM_NAMES = _DEMO_SPEC.transition_builder.param_names | {"device_cost"}


def _comparator(params: Mapping[str, float]) -> dict[str, float]:
    """The conventional comparator's inputs: ``params`` without the device's relative risk."""
    return {**params, "rr": 1.0}


def demo_cea_nmb(params: Mapping[str, float]) -> float:
    """Net monetary benefit of one strategy at the fixed threshold."""
    cost, qaly = _DEMO_SPEC.outcomes(params)
    return WTP_PER_QALY * qaly - (cost + params["device_cost"])


def demo_cea_inmb(params: Mapping[str, float]) -> float:
    """INMB of the device strategy over the conventional comparator."""
    cost_a, qaly_a = _DEMO_SPEC.outcomes(params)
    cost_b, qaly_b = _DEMO_SPEC.outcomes(_comparator(params))
    return inmb(cost_a + params["device_cost"], qaly_a, cost_b, qaly_b, WTP_PER_QALY)


def _prefetch_inmb(points: Iterable[Mapping[str, float]]) -> None:
    _DEMO_SPEC.prefetch([arm for params in points for arm in (params, _comparator(params))])


# Each round of a box search is evaluated as one stack (``pba.optimize``).
demo_cea_nmb.prefetch = _DEMO_SPEC.prefetch
demo_cea_inmb.prefetch = _prefetch_inmb


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegisteredModel:
    fn: Callable[[Mapping[str, float]], float]
    param_names: frozenset[str]


REGISTRY: dict[str, RegisteredModel] = {
    "four_state_life_expectancy": RegisteredModel(
        _life_expectancy_model, frozenset({"c1", "c2", "c3", "c4", "c5", "c6"})
    ),
    "demo_cea_nmb": RegisteredModel(demo_cea_nmb, DEMO_PARAM_NAMES),
    "demo_cea_inmb": RegisteredModel(demo_cea_inmb, DEMO_PARAM_NAMES),
}
