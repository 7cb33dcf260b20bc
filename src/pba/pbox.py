"""Bounding CDF pairs built from summary statistics.

A probability box is a pair of piecewise-analytic CDFs (a lower bounding
function ``lbf`` and an upper bounding function ``ubf``, with
``lbf <= ubf`` pointwise) that enclose every distribution on a bounded
support consistent with the available summary statistics.  Bounds are kept
symbolically, one closed-form expression per theta segment, so evaluation
and quasi-inversion are exact rather than interpolated.
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

_TIE_EPS = 1e-15
# Relative gap below the variance cap (b - mean)(mean - a) that still counts
# as the cap: squaring a rounded sqrt(cap) lands within about one ulp of it.
_CAP_ROUNDING = 4 * sys.float_info.epsilon


# ---------------------------------------------------------------------------
# Segment expressions
#
# Each expression is non-decreasing where a bound uses it, knows its exact
# closed form and the closed form of its inverse.  ``rank`` orders
# expressions by analytic simplicity; pointwise ties in intersections are
# resolved toward the lower rank.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Constant:
    v: float
    rank = 0

    def value(self, theta: float) -> float:
        return self.v

    def inverse(self, p: float) -> float:
        raise ValueError("constant expression has no pointwise inverse")


@dataclass(frozen=True)
class MeanLower:
    """(theta - mean) / (theta - a): tight lower bound given a mean."""

    a: float
    mu: float
    rank = 1

    def value(self, theta: float) -> float:
        return (theta - self.mu) / (theta - self.a)

    def inverse(self, p: float) -> float:
        return (self.mu - p * self.a) / (1.0 - p)


@dataclass(frozen=True)
class MeanUpper:
    """(b - mean) / (b - theta): tight upper bound given a mean."""

    b: float
    mu: float
    rank = 1

    def value(self, theta: float) -> float:
        return (self.b - self.mu) / (self.b - theta)

    def inverse(self, p: float) -> float:
        return self.b - (self.b - self.mu) / p


@dataclass(frozen=True)
class StdLowerMid:
    """[s^2 + (b-mu)(theta-mu)] / [(b-a)(theta-a)], between the two kinks."""

    a: float
    b: float
    mu: float
    sigma: float
    rank = 2

    def value(self, theta: float) -> float:
        num = self.sigma**2 + (self.b - self.mu) * (theta - self.mu)
        den = (self.b - self.a) * (theta - self.a)
        return num / den

    def inverse(self, p: float) -> float:
        num = self.mu * (self.b - self.mu) - self.sigma**2 - p * self.a * (self.b - self.a)
        den = (self.b - self.mu) - p * (self.b - self.a)
        return num / den


@dataclass(frozen=True)
class StdLowerRight:
    """(theta-mu)^2 / [(theta-mu)^2 + s^2] on theta >= mu."""

    mu: float
    sigma: float
    rank = 2

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
    rank = 2

    def value(self, theta: float) -> float:
        return self.sigma**2 / ((self.mu - theta) ** 2 + self.sigma**2)

    def inverse(self, p: float) -> float:
        return self.mu - self.sigma * math.sqrt((1.0 - p) / p)


@dataclass(frozen=True)
class StdUpperMid:
    """[(b-mu)(b-a+mu-theta) - s^2] / [(b-a)(b-theta)], between the kinks."""

    a: float
    b: float
    mu: float
    sigma: float
    rank = 2

    def value(self, theta: float) -> float:
        num = (self.b - self.mu) * (self.b - self.a + self.mu - theta) - self.sigma**2
        den = (self.b - self.a) * (self.b - theta)
        return num / den

    def inverse(self, p: float) -> float:
        num = p * self.b * (self.b - self.a) - (self.b - self.mu) * (self.b - self.a + self.mu) + self.sigma**2
        den = p * (self.b - self.a) - (self.b - self.mu)
        return num / den


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
    xi1 = mu - sigma**2 / (b - mu)
    xi2 = mu + sigma**2 / (mu - a)
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


def _inf_at_least(segs: Sequence[BoundSegment], p: float) -> float:
    """inf{theta : G(theta) >= p} for a right-continuous non-decreasing G.

    A constant segment (v_lo == v_hi) is returned or passed over before
    ``inverse`` could be called on it.  The inverse is clamped into its own
    segment, so rounding cannot carry it past a neighbouring piece.
    """
    for seg in segs:
        v_lo, v_hi = seg.value_range()
        if v_lo >= p:
            return seg.start
        if p < v_hi:
            return min(max(seg.expr.inverse(p), seg.start), seg.end)
    return math.inf


def _sup_at_most(segs: Sequence[BoundSegment], p: float) -> float:
    """sup{theta : G(theta) <= p}; equals inf{theta : G(theta) > p}.

    A constant segment (v_lo == v_hi) is returned or passed over before
    ``inverse`` could be called on it.  The inverse is clamped into its own
    segment, as in ``_inf_at_least``.
    """
    for seg in reversed(segs):
        v_lo, v_hi = seg.value_range()
        if v_hi <= p:
            return seg.end
        if v_lo <= p:
            return min(max(seg.expr.inverse(p), seg.start), seg.end)
    return -math.inf


def quasi_inverse(p: PBox, side: str, prob: float) -> Interval:
    """Set-valued inverse of one bound at probability ``prob``.

    Plateaus of the bound at exactly ``prob`` return the full closed theta
    interval; elsewhere the interval is degenerate.  Results are clamped to
    the support.
    """
    if not 0.0 <= prob <= 1.0:
        raise ProbabilityOutOfRange(f"probability {prob} outside [0, 1]")
    segs = p._segments(side)
    a, b = p.support.lo, p.support.hi
    lo = min(max(_inf_at_least(segs, prob), a), b)
    hi = min(max(_sup_at_most(segs, prob), a), b)
    return Interval(lo, hi)


# ---------------------------------------------------------------------------
# Intersection
# ---------------------------------------------------------------------------


def _winner(exprs: list[Expression], theta: float, take_max: bool) -> int:
    vals = [e.value(theta) for e in exprs]
    best = max(vals) if take_max else min(vals)
    candidates = [
        i for i, v in enumerate(vals) if abs(v - best) <= _TIE_EPS * max(1.0, abs(best))
    ]
    return min(candidates, key=lambda i: (exprs[i].rank, i))


def _bisect_crossing(e1: Expression, e2: Expression, lo: float, hi: float) -> float:
    g = lambda t: e1.value(t) - e2.value(t)
    g_lo = g(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if (g(mid) > 0) == (g_lo > 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _active_expr(segs: Sequence[BoundSegment], theta: float) -> Expression:
    for seg in segs:
        if seg.start <= theta < seg.end:
            return seg.expr
    return Constant(1.0)


def _envelope(
    seglists: list[tuple[BoundSegment, ...]], a: float, b: float, take_max: bool
) -> tuple[BoundSegment, ...]:
    """Pointwise max (or min) of several bounds as a new segment tiling."""
    cuts = {a, b}
    for segs in seglists:
        for seg in segs:
            for t in (seg.start, seg.end):
                if math.isfinite(t) and a < t < b:
                    cuts.add(t)
    # A curve meets a plateau where it inverts to the plateau's level; cut
    # there exactly rather than rely on the scan below, which can miss it.
    levels = {seg.expr.v for segs in seglists for seg in segs if isinstance(seg.expr, Constant)}
    for segs in seglists:
        for seg in segs:
            v_lo, v_hi = seg.value_range()
            for v in levels:
                if v_lo < v < v_hi:
                    t = seg.expr.inverse(v)
                    if a < t < b:
                        cuts.add(t)
    cuts = sorted(cuts)

    pieces: list[tuple[float, float, Expression]] = []
    for t0, t1 in zip(cuts, cuts[1:]):
        exprs = [_active_expr(segs, 0.5 * (t0 + t1)) for segs in seglists]
        # Locate interior crossings by scanning for winner changes.
        n_scan = 17
        xs = [t0 + (t1 - t0) * k / n_scan for k in range(n_scan)]
        winners = [_winner(exprs, x, take_max) for x in xs]
        sub_cuts = [t0]
        for k in range(1, n_scan):
            if winners[k] != winners[k - 1]:
                cross = _bisect_crossing(
                    exprs[winners[k - 1]], exprs[winners[k]], xs[k - 1], xs[k]
                )
                if sub_cuts[-1] < cross < t1:
                    sub_cuts.append(cross)
        sub_cuts.append(t1)
        for s0, s1 in zip(sub_cuts, sub_cuts[1:]):
            # Sub-stretches are crossing-free, so the midpoint winner wins
            # throughout (endpoints can tie exactly at a crossing).
            w = _winner(exprs, 0.5 * (s0 + s1), take_max)
            pieces.append((s0, s1, exprs[w]))

    merged: list[tuple[float, float, Expression]] = []
    for s, e, x in pieces:
        if merged and merged[-1][2] == x:
            merged[-1] = (merged[-1][0], e, x)
        else:
            merged.append((s, e, x))

    # Trim leading zero pieces and trailing one pieces into the tails.
    while merged and isinstance(merged[0][2], Constant) and merged[0][2].v == 0.0:
        merged.pop(0)
    one_from = b
    while merged and isinstance(merged[-1][2], Constant) and merged[-1][2].v == 1.0:
        one_from = merged[-1][0]
        merged.pop()
    return _assemble(merged, one_from)


def intersect_pboxes(boxes: Sequence[PBox]) -> PBox:
    """Pointwise max of lower bounds and min of upper bounds.

    All boxes must share the same support.  Raises ``EmptyBox`` when the
    combined lower bound exceeds the combined upper bound anywhere, which
    signals mutually inconsistent summary statistics.
    """
    boxes = list(boxes)
    if not boxes:
        raise ValueError("need at least one p-box")
    support = boxes[0].support
    for p in boxes[1:]:
        if p.support != support:
            raise MismatchedSupports(f"supports differ: {support} vs {p.support}")
    a, b = support.lo, support.hi
    lbf = _envelope([p.lbf for p in boxes], a, b, take_max=True)
    ubf = _envelope([p.ubf for p in boxes], a, b, take_max=False)
    out = PBox(lbf, ubf, support, "intersection")

    probe = sorted(set(out.breakpoints()) | {a + (b - a) * k / 400 for k in range(401)})
    for t in probe:
        for x in (t, min(0.5 * (t + b), b)):
            if out.lower(x) > out.upper(x) + 1e-12:
                raise EmptyBox(f"lower bound exceeds upper bound at theta = {x}")
    return out
