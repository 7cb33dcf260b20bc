"""Bounding CDF pairs built from summary statistics.

A probability box is a pair of piecewise-analytic CDFs (a lower bounding
function ``lbf`` and an upper bounding function ``ubf``, with
``lbf <= ubf`` pointwise) that enclose every distribution on a bounded
support consistent with the available summary statistics.  Bounds are kept
symbolically, one closed-form expression per theta segment, so evaluation
and quasi-inversion are exact rather than interpolated.

Boxes on one support intersect to an ``Intersection`` that keeps the boxes
as its parts: its bounds are the pointwise max (lower) and min (upper) of
theirs, and its quasi-inverses the min or max of theirs, so it is exact too.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence, Union

from .errors import EmptyBox, MismatchedSupports, ProbabilityOutOfRange
from .interval import Interval
from .minimal_data import (
    KIND_MEAN,
    KIND_MEAN_STD,
    KIND_MEDIAN,
    KIND_MEDIAN_MEAN,
    KIND_MINMAX,
    MinimalData,
    validate_minimal_data,
)

LOWER = "lower"
UPPER = "upper"

# Relative gap below the variance cap (b - mean)(mean - a) that still counts
# as the cap: squaring a rounded sqrt(cap) lands within about one ulp of it.
_CAP_ROUNDING = 4 * sys.float_info.epsilon


# ---------------------------------------------------------------------------
# Segment expressions
#
# Each expression is non-decreasing where a bound uses it, knows its exact
# closed form and the closed form of its inverse.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Constant:
    v: float

    def value(self, theta: float) -> float:
        return self.v

    def inverse(self, p: float) -> float:
        raise ValueError("constant expression has no pointwise inverse")


@dataclass(frozen=True)
class MeanLower:
    """(theta - mean) / (theta - a): tight lower bound given a mean."""

    a: float
    mu: float

    def value(self, theta: float) -> float:
        return (theta - self.mu) / (theta - self.a)

    def inverse(self, p: float) -> float:
        return (self.mu - p * self.a) / (1.0 - p)


@dataclass(frozen=True)
class MeanUpper:
    """(b - mean) / (b - theta): tight upper bound given a mean."""

    b: float
    mu: float

    def value(self, theta: float) -> float:
        return (self.b - self.mu) / (self.b - theta)

    def inverse(self, p: float) -> float:
        return self.b - (self.b - self.mu) / p


def _slack(e: StdLowerMid | StdUpperMid) -> float:
    """r = (b-mu)(mu-a) - s^2, the variance below the cap.  The middle pieces
    are written in r: near the cap their textbook forms cancel badly."""
    return (e.b - e.mu) * (e.mu - e.a) - e.sigma**2


@dataclass(frozen=True)
class StdLowerMid:
    """[s^2 + (b-mu)(theta-mu)] / [(b-a)(theta-a)] = [(b-mu) - r/(theta-a)] / (b-a),
    between the two kinks."""

    a: float
    b: float
    mu: float
    sigma: float

    def value(self, theta: float) -> float:
        return ((self.b - self.mu) - _slack(self) / (theta - self.a)) / (self.b - self.a)

    def inverse(self, p: float) -> float:
        return self.a + _slack(self) / ((self.b - self.mu) - p * (self.b - self.a))


@dataclass(frozen=True)
class StdLowerRight:
    """(theta-mu)^2 / [(theta-mu)^2 + s^2] on theta >= mu."""

    mu: float
    sigma: float

    def value(self, theta: float) -> float:
        d2 = (theta - self.mu) ** 2
        return d2 / (d2 + self.sigma**2)

    def inverse(self, p: float) -> float:
        return self.mu + self.sigma * math.sqrt(p / (1.0 - p))


@dataclass(frozen=True)
class StdUpperLeft:
    """s^2 / [(mu-theta)^2 + s^2] on theta <= mu."""

    mu: float
    sigma: float

    def value(self, theta: float) -> float:
        return self.sigma**2 / ((self.mu - theta) ** 2 + self.sigma**2)

    def inverse(self, p: float) -> float:
        return self.mu - self.sigma * math.sqrt((1.0 - p) / p)


@dataclass(frozen=True)
class StdUpperMid:
    """[(b-mu)(b-a+mu-theta) - s^2] / [(b-a)(b-theta)] = [(b-mu) + r/(b-theta)] / (b-a),
    between the kinks."""

    a: float
    b: float
    mu: float
    sigma: float

    def value(self, theta: float) -> float:
        return ((self.b - self.mu) + _slack(self) / (self.b - theta)) / (self.b - self.a)

    def inverse(self, p: float) -> float:
        return self.b - _slack(self) / (p * (self.b - self.a) - (self.b - self.mu))


Expression = Union[
    Constant, MeanLower, MeanUpper, StdLowerMid, StdLowerRight, StdUpperLeft, StdUpperMid
]


@dataclass(frozen=True)
class BoundSegment:
    """Half-open theta interval [start, end) carrying one expression."""

    start: float
    end: float
    expr: Expression

    def value(self, theta: float) -> float:
        return self.expr.value(theta)

    def value_range(self) -> tuple[float, float]:
        """Values spanned on [start, end): attained start value, end limit."""
        return self.expr.value(self.start), self.expr.value(self.end)


# ---------------------------------------------------------------------------
# The p-box proper
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PBox:
    """Pair of bounding CDFs over a bounded support.

    ``lbf`` and ``ubf`` are ordered segment sequences tiling the whole real
    line; both are right-continuous, non-decreasing, 0 left of the support
    and 1 from its right end (the lbf from the support's right end, the ubf
    possibly earlier).
    """

    lbf: tuple[BoundSegment, ...]
    ubf: tuple[BoundSegment, ...]
    support: Interval
    provenance: MinimalData | str

    def __post_init__(self):
        for segs in (self.lbf, self.ubf):
            if segs[0].start != -math.inf or segs[-1].end != math.inf:
                raise ValueError("bound segments must tile the real line")
            for left, right in zip(segs, segs[1:]):
                if left.end != right.start:
                    raise ValueError("bound segments must not gap or overlap")

    def _segments(self, side: str) -> tuple[BoundSegment, ...]:
        if side == LOWER:
            return self.lbf
        if side == UPPER:
            return self.ubf
        raise ValueError(f"side must be {LOWER!r} or {UPPER!r}, got {side!r}")

    def value(self, side: str, theta: float) -> float:
        segs = self._segments(side)
        for seg in segs:
            if seg.start <= theta < seg.end:
                return min(1.0, max(0.0, seg.value(theta)))
        return 1.0  # theta == +inf

    def lower(self, theta: float) -> float:
        return self.value(LOWER, theta)

    def upper(self, theta: float) -> float:
        return self.value(UPPER, theta)

    def inf_at_least(self, side: str, p: float) -> float:
        """inf{theta : G(theta) >= p} for the right-continuous non-decreasing G.

        A constant segment (v_lo == v_hi) is returned or passed over before
        ``inverse`` could be called on it.  The inverse is clamped into its
        own segment, so rounding cannot carry it past a neighbouring piece.
        """
        for seg in self._segments(side):
            v_lo, v_hi = seg.value_range()
            if v_lo >= p:
                return seg.start
            if p < v_hi:
                return min(max(seg.expr.inverse(p), seg.start), seg.end)
        return math.inf

    def sup_at_most(self, side: str, p: float) -> float:
        """sup{theta : G(theta) <= p}; equals inf{theta : G(theta) > p}.

        Constant segments and rounding are handled as in ``inf_at_least``.
        """
        for seg in reversed(self._segments(side)):
            v_lo, v_hi = seg.value_range()
            if v_hi <= p:
                return seg.end
            if v_lo <= p:
                return min(max(seg.expr.inverse(p), seg.start), seg.end)
        return -math.inf

    def breakpoints(self) -> list[float]:
        """Finite segment boundaries of both bounds, sorted and deduplicated."""
        pts = set()
        for segs in (self.lbf, self.ubf):
            for seg in segs:
                for t in (seg.start, seg.end):
                    if math.isfinite(t):
                        pts.add(t)
        return sorted(pts)


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def _assemble(inner: list[tuple[float, float, Expression]], one_from: float) -> tuple[BoundSegment, ...]:
    """Build a full tiling from inner pieces plus 0- and 1-tails.

    ``inner`` pieces are (start, end, expr) with increasing, possibly empty
    intervals; ``one_from`` is where the bound becomes 1 for good.
    """
    pieces = [(s, e, x) for (s, e, x) in inner if s < e]
    segs: list[BoundSegment] = []
    first = pieces[0][0] if pieces else one_from
    segs.append(BoundSegment(-math.inf, first, Constant(0.0)))
    for s, e, x in pieces:
        segs.append(BoundSegment(s, e, x))
    segs.append(BoundSegment(one_from, math.inf, Constant(1.0)))
    return tuple(segs)


def _step_box(a: float, b: float, at: float, provenance: MinimalData) -> PBox:
    """Degenerate box for a point mass at ``at`` (both bounds one step)."""
    step = _assemble([], at)
    return PBox(step, step, Interval(a, b), provenance)


def _build_minmax(d: MinimalData) -> PBox:
    a, b = d.minimum, d.maximum
    return PBox(_assemble([], b), _assemble([], a), Interval(a, b), d)


def _build_median(d: MinimalData) -> PBox:
    a, b, m = d.minimum, d.maximum, d.median
    lbf = _assemble([(m, b, Constant(0.5))], b)
    ubf = _assemble([(a, m, Constant(0.5))], m)
    return PBox(lbf, ubf, Interval(a, b), d)


def _build_mean(d: MinimalData) -> PBox:
    a, b, mu = d.minimum, d.maximum, d.mean
    if mu == a or mu == b:
        return _step_box(a, b, mu, d)
    lbf = _assemble([(mu, b, MeanLower(a, mu))], b)
    ubf = _assemble([(a, mu, MeanUpper(b, mu))], mu)
    return PBox(lbf, ubf, Interval(a, b), d)


def _build_mean_std(d: MinimalData) -> PBox:
    a, b, mu, sigma = d.minimum, d.maximum, d.mean, d.std
    if sigma == 0.0:
        return _step_box(a, b, mu, d)
    cap = (b - mu) * (mu - a)
    if cap - sigma**2 <= _CAP_ROUNDING * cap:
        # Maximal variance: the two-point {a, b} distribution is the only
        # one consistent, and both bounds collapse to its CDF.  A std given
        # as sqrt(cap) squares back to cap only within rounding; below it,
        # the kinks xi1 and xi2 would round onto a and b.
        phi = (b - mu) / (b - a)
        lbf = _assemble([(a, b, Constant(phi))], b)
        ubf = _assemble([(a, b, Constant(phi))], b)
        return PBox(lbf, ubf, Interval(a, b), d)
    # Just below the cap the kinks can round onto a or b: keep them inside.
    xi1 = max(mu - sigma**2 / (b - mu), math.nextafter(a, b))
    xi2 = min(mu + sigma**2 / (mu - a), math.nextafter(b, a))
    lbf = _assemble(
        [(xi1, xi2, StdLowerMid(a, b, mu, sigma)), (xi2, b, StdLowerRight(mu, sigma))],
        b,
    )
    ubf = _assemble(
        [(a, xi1, StdUpperLeft(mu, sigma)), (xi1, xi2, StdUpperMid(a, b, mu, sigma))],
        xi2,
    )
    return PBox(lbf, ubf, Interval(a, b), d)


def _build_median_mean(d: MinimalData) -> PBox:
    """Pointwise max of the median and mean lower bounds, min of the uppers.

    The median+mean box is the intersection of the median-only and
    mean-only boxes, built here from one list of pieces per bound.
    MeanLower reaches 1/2 at gamma = 2*mean - a and MeanUpper at
    psi = 2*mean - b; clamping gamma into [median, b] and psi into
    [a, median] makes the pieces a case does not have empty, and
    ``_assemble`` drops them.
    """
    a, b, m, mu = d.minimum, d.maximum, d.median, d.mean
    if mu == a or mu == b:
        return _step_box(a, b, mu, d)
    gamma = min(max(2.0 * mu - a, m), b)
    psi = min(max(2.0 * mu - b, a), m)
    half = Constant(0.5)
    low = MeanLower(a, mu)
    up = MeanUpper(b, mu)
    lbf = _assemble([(mu, m, low), (m, gamma, half), (gamma, b, low)], b)
    ubf = _assemble([(a, psi, up), (psi, m, half), (m, mu, up)], max(m, mu))
    return PBox(lbf, ubf, Interval(a, b), d)


_BUILDERS = {
    KIND_MINMAX: _build_minmax,
    KIND_MEDIAN: _build_median,
    KIND_MEAN: _build_mean,
    KIND_MEAN_STD: _build_mean_std,
    KIND_MEDIAN_MEAN: _build_median_mean,
}


def build_pbox(d: MinimalData) -> PBox:
    """Construct the bounding-CDF pair for the given summary statistics."""
    d = validate_minimal_data(d)
    return _BUILDERS[d.kind](d)


# ---------------------------------------------------------------------------
# Quasi-inverses
# ---------------------------------------------------------------------------


def quasi_inverse(p: PBox | Intersection, side: str, prob: float) -> Interval:
    """Set-valued inverse of one bound at probability ``prob``.

    Plateaus of the bound at exactly ``prob`` return the full closed theta
    interval; elsewhere the interval is degenerate.  Results are clamped to
    the support.
    """
    if not 0.0 <= prob <= 1.0:
        raise ProbabilityOutOfRange(f"probability {prob} outside [0, 1]")
    a, b = p.support.lo, p.support.hi
    lo = min(max(p.inf_at_least(side, prob), a), b)
    hi = min(max(p.sup_at_most(side, prob), a), b)
    return Interval(lo, hi)


# ---------------------------------------------------------------------------
# Intersection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Intersection:
    """Pointwise max of the parts' lower bounds and min of their upper bounds.

    The parts share ``support``.  For non-decreasing right-continuous bounds
    the quasi-inverses compose exactly: where the bound is a max G of the
    parts' G_i, inf{theta : G >= p} is the least of the parts' infima and
    sup{theta : G <= p} the least of their suprema; where it is a min, both
    are the greatest.  So no crossing of two curves is ever located.
    """

    parts: tuple[PBox, ...]
    support: Interval
    provenance = "intersection"

    def value(self, side: str, theta: float) -> float:
        values = [p.value(side, theta) for p in self.parts]
        return max(values) if side == LOWER else min(values)

    def lower(self, theta: float) -> float:
        return self.value(LOWER, theta)

    def upper(self, theta: float) -> float:
        return self.value(UPPER, theta)

    def inf_at_least(self, side: str, p: float) -> float:
        thetas = [q.inf_at_least(side, p) for q in self.parts]
        return min(thetas) if side == LOWER else max(thetas)

    def sup_at_most(self, side: str, p: float) -> float:
        thetas = [q.sup_at_most(side, p) for q in self.parts]
        return min(thetas) if side == LOWER else max(thetas)

    def breakpoints(self) -> list[float]:
        """Finite segment boundaries of every part, sorted and deduplicated."""
        return sorted({t for p in self.parts for t in p.breakpoints()})


def intersect_pboxes(boxes: Sequence[PBox]) -> Intersection:
    """Pointwise max of lower bounds and min of upper bounds.

    All boxes must share the same support.  Raises ``EmptyBox`` when the
    combined lower bound exceeds the combined upper bound anywhere, which
    signals mutually inconsistent summary statistics.
    """
    boxes = tuple(boxes)
    if not boxes:
        raise ValueError("need at least one p-box")
    support = boxes[0].support
    for p in boxes[1:]:
        if p.support != support:
            raise MismatchedSupports(f"supports differ: {support} vs {p.support}")
    a, b = support.lo, support.hi
    out = Intersection(boxes, support)

    probe = sorted(set(out.breakpoints()) | {a + (b - a) * k / 400 for k in range(401)})
    for t in probe:
        for x in (t, min(0.5 * (t + b), b)):
            if out.lower(x) > out.upper(x) + 1e-12:
                raise EmptyBox(f"lower bound exceeds upper bound at theta = {x}")
    return out


