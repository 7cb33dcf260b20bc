"""Exception types shared across the package."""


class PbaError(Exception):
    """Base class for all errors raised by this package."""


class ReversedBounds(PbaError):
    """Support bounds with min >= max."""


class StatisticOutOfRange(PbaError):
    """Median or mean outside the support interval."""


class InfeasibleVariance(PbaError):
    """Variance exceeds the maximum (b - mean)(mean - a) allowed on [a, b]."""


class InfeasibleMedianMean(PbaError):
    """Mean outside [(a + m)/2, (m + b)/2], impossible given median m."""


class ProbabilityOutOfRange(PbaError):
    """Probability argument outside [0, 1]."""


class MismatchedSupports(PbaError):
    """P-boxes to intersect do not share a common support."""


class EmptyBox(PbaError):
    """Intersection of p-boxes has lower bound above upper bound somewhere."""


class ZeroSlices(PbaError):
    """Discretization requested with fewer than one slice."""


class HyperrectangleCapExceeded(PbaError):
    """Product of slice counts exceeds the configured cap."""


class InvalidDistributionSpec(PbaError):
    """Malformed or unsupported precise-distribution specification."""


class InfeasibleMoments(PbaError):
    """No distribution of the requested family has the given moments."""


class ModelEvaluationError(PbaError):
    """Model raised while being evaluated; carries the offending inputs."""

    def __init__(self, message, params=None):
        super().__init__(message)
        self.params = dict(params) if params else {}


class NonFiniteObjective(PbaError):
    """Objective returned NaN or infinity; carries the offending point."""

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = tuple(point) if point is not None else None


class DimensionTooLarge(PbaError):
    """2**dim vertex evaluations would not fit the evaluation budget."""


class SingularSystem(PbaError):
    """Transient linear system has no finite solution (no absorption path).

    ``direction`` is the sign of the divergence: +1 when the outcome grows
    without bound, -1 when it falls without bound, 0 when unknown.  A box
    vertex where the model raises this with a sign counts as that infinity
    (see ``pba.optimize.vertex_extrema``).
    """

    def __init__(self, message, direction=0):
        super().__init__(message)
        self.direction = direction


class RowSumViolation(PbaError):
    """Transition matrix row does not sum to one."""

    def __init__(self, message, cycle=None, state=None):
        super().__init__(message)
        self.cycle = cycle
        self.state = state


class NonMonotoneUtility(PbaError):
    """Utility map decreases somewhere on the outcome support."""


class TooFewActions(PbaError):
    """Decision rules need at least two candidate actions."""


class ConfigParseError(PbaError):
    """Analysis configuration is malformed; carries a config location."""

    def __init__(self, message, location=None):
        super().__init__(message)
        self.location = location
