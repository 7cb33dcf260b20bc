"""Precise parameter distributions for the Monte Carlo pipelines.

A ``DistributionSpec`` is built by the constructor named after its family
(``gamma``, ``beta``, ``uniform``, ``tabulated``), or for the first three
from summary statistics by ``from_moments``: ``moment_match`` returns the
native parameters under that constructor's argument names, so building from
moments needs no second dispatch on the family.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from . import _lazy
from ._lazy import np
from .errors import InfeasibleMoments, InvalidDistributionSpec
from .minimal_data import MinimalData

GAMMA = "gamma"
BETA = "beta"
UNIFORM = "uniform"
TABULATED = "tabulated"
MOMENT_FAMILIES = (GAMMA, BETA, UNIFORM)  # the families ``moment_match`` fits


def moment_match(family: str, data: MinimalData) -> dict[str, float]:
    """Native parameters of ``family`` reproducing the given statistics.

    gamma: shape = mean^2/std^2, rate = mean/std^2.
    beta:  nu = mean(1-mean)/std^2 - 1, alpha = mean*nu, beta = (1-mean)*nu.
    uniform: the (min, max) pair directly.

    The keys are the argument names of ``DistributionSpec``'s constructor
    for ``family``.  An unknown family is rejected before anything else.
    """
    if family not in MOMENT_FAMILIES:
        raise InvalidDistributionSpec(f"unknown family {family!r}")
    if family == UNIFORM:
        return {"low": data.minimum, "high": data.maximum}
    mu, sigma = data.mean, data.std
    if mu is None or sigma is None:
        raise InfeasibleMoments(f"{family} moment matching needs mean and std")
    if family == GAMMA:
        if mu <= 0 or sigma <= 0:
            raise InfeasibleMoments(f"gamma needs positive mean and std, got {mu}, {sigma}")
        return {"shape": mu**2 / sigma**2, "rate": mu / sigma**2}
    var = sigma**2
    if not 0 < mu < 1:
        raise InfeasibleMoments(f"beta needs mean in (0, 1), got {mu}")
    if var >= mu * (1 - mu):
        raise InfeasibleMoments(f"beta needs std^2 < mean(1-mean), got {var}")
    nu = mu * (1 - mu) / var - 1
    return {"alpha": mu * nu, "beta": (1 - mu) * nu}


@dataclass(frozen=True)
class DistributionSpec:
    """A precisely specified parameter distribution, sampled by inversion."""

    family: str
    params: tuple[tuple[str, float], ...]
    table: tuple[tuple[float, float], ...] = ()  # (value, cum prob) pairs

    @classmethod
    def gamma(cls, shape: float, rate: float) -> "DistributionSpec":
        if shape <= 0 or rate <= 0:
            raise InvalidDistributionSpec("gamma shape and rate must be positive")
        return cls(GAMMA, (("shape", shape), ("rate", rate)))

    @classmethod
    def beta(cls, alpha: float, beta: float) -> "DistributionSpec":
        if alpha <= 0 or beta <= 0:
            raise InvalidDistributionSpec("beta parameters must be positive")
        return cls(BETA, (("alpha", alpha), ("beta", beta)))

    @classmethod
    def uniform(cls, low: float, high: float) -> "DistributionSpec":
        if not low < high:
            raise InvalidDistributionSpec(f"uniform needs low < high, got [{low}, {high}]")
        return cls(UNIFORM, (("low", low), ("high", high)))

    @classmethod
    def tabulated(cls, values, cum_probs) -> "DistributionSpec":
        values = [float(v) for v in values]
        cum_probs = [float(p) for p in cum_probs]
        if len(values) != len(cum_probs) or len(values) < 2:
            raise InvalidDistributionSpec("tabulated CDF needs matching lists of length >= 2")
        if sorted(values) != values or sorted(cum_probs) != cum_probs:
            raise InvalidDistributionSpec("tabulated CDF must be non-decreasing")
        if not math.isclose(cum_probs[0], 0.0, abs_tol=1e-12) or not math.isclose(
            cum_probs[-1], 1.0, abs_tol=1e-12
        ):
            raise InvalidDistributionSpec("tabulated CDF must start at 0 and end at 1")
        return cls(TABULATED, (), tuple(zip(values, cum_probs)))

    @classmethod
    def from_moments(cls, family: str, data: MinimalData) -> "DistributionSpec":
        params = moment_match(family, data)  # rejects an unknown family first
        return getattr(cls, family)(**params)

    def _p(self, name: str) -> float:
        return dict(self.params)[name]

    def ppf(self, u):
        """Quantile function; ``u`` may be a scalar or an array in [0, 1].

        Gamma and beta quantiles come from the compiled ``scipy.special``
        ufuncs that ``scipy.stats`` evaluates itself, ``_lazy.gammaincinv``
        and ``_lazy.betaincinv``, loaded on the first such draw so that runs
        without them never load scipy, and runs with them load only the
        compiled module each lives in, not the ``scipy.special`` package and
        its array-API import.  They equal ``scipy.stats`` bit for bit, edge cases
        included: 0 at u = 0, the upper end of the support at u = 1, nan
        outside [0, 1].  The one exception lies where the samplers never
        draw (their u is 0 or at least 2**-53): below about u = 1e-30,
        ``betaincinv`` may return nan where ``scipy.stats.beta.ppf`` returns
        a value.

        A uniform quantile is ``low + u * (high - low)``, for a number ``u``
        in plain floats: the value numpy computes, without loading numpy.
        """
        if self.family == UNIFORM:
            u = float(u) if isinstance(u, numbers.Real) else np.asarray(u, dtype=float)
            return self._p("low") + u * (self._p("high") - self._p("low"))
        u = np.asarray(u, dtype=float)
        if self.family == GAMMA:
            return _lazy.gammaincinv(self._p("shape"), u) * (1.0 / self._p("rate"))
        if self.family == BETA:
            return _lazy.betaincinv(self._p("alpha"), self._p("beta"), u)
        if self.family == TABULATED:
            xs = np.array([v for v, _ in self.table])
            ps = np.array([p for _, p in self.table])
            return np.interp(u, ps, xs)
        raise InvalidDistributionSpec(f"unknown family {self.family!r}")
