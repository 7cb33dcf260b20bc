"""Interval-valued expected utilities and decision rules over them.

Expectations against the two bounding step functions of an outcome box give
an interval of expected utilities per action.  For an increasing utility
the stochastically smaller bound yields the smaller expectation, so rather
than naming which step produced which endpoint, the interval is returned
ordered as [min, max].  An infinite outcome makes an end infinite; a step
holding both -inf and +inf has no expectation and is rejected.

Actions are chosen by dominance or by a Hurwicz score of the interval,
alpha * lower + (1 - alpha) * upper.  ``Pessimist()`` and ``Optimist()``
are that score at alpha 1 and 0.  An end with weight 0 is left out of the
score, so it may be infinite; an interval with both ends infinite has no
score for 0 < alpha < 1 and is rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

from .errors import NonMonotoneUtility, TooFewActions
from .interval import Interval
from .propagate import EmpiricalPBox


@dataclass(frozen=True)
class UtilityInterval:
    action: str
    interval: Interval

    @property
    def lo(self) -> float:
        return self.interval.lo

    @property
    def hi(self) -> float:
        return self.interval.hi


class _Indeterminate:
    """No strict ordering exists among the undominated actions."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Indeterminate"


INDETERMINATE = _Indeterminate()


@dataclass(frozen=True)
class Dominance:
    pass


@dataclass(frozen=True)
class Hurwicz:
    """Scores alpha * lower + (1 - alpha) * upper; alpha weights pessimism."""

    alpha: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")


def Pessimist() -> Hurwicz:
    """Hurwicz with alpha 1: scores the lower end."""
    return Hurwicz(1.0)


def Optimist() -> Hurwicz:
    """Hurwicz with alpha 0: scores the upper end."""
    return Hurwicz(0.0)


DecisionRule = Union[Dominance, Hurwicz]


def expected_interval(
    e: EmpiricalPBox,
    utility: Callable[[float], float] | None = None,
    action: str = "",
) -> UtilityInterval:
    """Stieltjes sums of a monotone utility against both bounding steps.

    The identity utility gives the interval of expected outcome values.
    Utilities must be non-decreasing on the outcome support; for
    non-monotone maps the CDF bounds no longer bound the expectation, so
    they are rejected.  ``utility`` is called once per distinct outcome.
    An infinite outcome with positive mass makes that end of the interval
    infinite.  Each end is ``math.fsum`` of the step's (mass x utility)
    products, each mass the rise of the cumulative step: the correctly
    rounded sum of those rounded products, whatever the order or platform,
    clamped into the range of the step's utilities.
    """
    up_y, up_c = e.upper_steps()
    lo_y, lo_c = e.lower_steps()
    if utility is None:
        u_up, u_lo = up_y, lo_y
    else:
        u = {y: float(utility(y)) for y in sorted({*up_y, *lo_y})}
        u_all = list(u.values())
        scale = max([1.0, *(abs(v) for v in u_all if math.isfinite(v))])
        if any(b - a < -1e-12 * scale for a, b in zip(u_all, u_all[1:])):
            raise NonMonotoneUtility("utility map decreases on the outcome support")
        u_up = [u[y] for y in up_y]
        u_lo = [u[y] for y in lo_y]
    if any(-math.inf in values and math.inf in values for values in (u_up, u_lo)):
        raise ValueError(
            "expected value is undefined: one bounding step holds both -inf and +inf"
        )
    lo, hi = sorted((_stieltjes(up_c, u_up), _stieltjes(lo_c, u_lo)))
    return UtilityInterval(action, Interval(lo, hi))


def _stieltjes(cum: list[float], values: list[float]) -> float:
    """The correctly rounded sum of mass x value over a step whose
    cumulative masses are ``cum``, clamped into the range of ``values``: a
    mass-weighted mean cannot leave it, but the sum of rounded masses and
    products can, by an ulp."""
    total = math.fsum((c - below) * v for below, c, v in zip([0.0, *cum], cum, values))
    return min(max(total, min(values)), max(values))


def _hurwicz_score(u: UtilityInterval, alpha: float) -> float:
    """alpha * lo + (1 - alpha) * hi, leaving out an end whose weight is 0,
    so that an infinite end it ignores cannot make the score NaN.  With both
    ends weighted, [-inf, +inf] has no score and is rejected."""
    score = sum(w * end for w, end in ((alpha, u.lo), (1.0 - alpha, u.hi)) if w != 0.0)
    if math.isnan(score):
        raise ValueError(f"Hurwicz score of {u.action!r} is undefined: alpha {alpha} weights both ends of [-inf, inf]")
    return score


def choose(us: Sequence[UtilityInterval], rule: DecisionRule):
    """Optimal action set under the given rule, or INDETERMINATE.

    Dominance: action a beats b iff both interval endpoints of a are
    strictly larger; the undominated set is returned when it is a single
    action and INDETERMINATE otherwise (no strict ordering exists among
    several maximal elements).  Hurwicz returns every maximizer on ties.
    """
    us = list(us)
    if len(us) < 2:
        raise TooFewActions(f"need at least two actions, got {len(us)}")
    if isinstance(rule, Dominance):
        def beaten(u: UtilityInterval) -> bool:
            return any(v.lo > u.lo and v.hi > u.hi for v in us if v is not u)

        maximal = [u for u in us if not beaten(u)]
        if len(maximal) == 1:
            return frozenset({maximal[0].action})
        return INDETERMINATE
    if isinstance(rule, Hurwicz):
        scores = [_hurwicz_score(u, rule.alpha) for u in us]
        best = max(scores)
        return frozenset(u.action for u, s in zip(us, scores) if s == best)
    raise TypeError(f"unknown decision rule {rule!r}")
