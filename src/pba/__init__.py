"""Probability bounds analysis for black-box decision models.

Builds bounding-CDF pairs from minimal summary statistics, propagates them
through black-box models by interval slicing plus box-constrained
optimization, and supports interval-valued decision rules, with seeded
Monte Carlo probabilistic sensitivity analysis as the comparison baseline.

Each public name is imported from its module on first use (PEP 562), so
``import pba`` and ``pba pbox`` load only the modules they run.  ``_lazy``
is imported here all the same, so a missing numpy fails at ``import pba``.
"""

import importlib

from . import _lazy  # noqa: F401

# The public names, by the module that defines each.
_MODULES = {
    "decision": (
        "INDETERMINATE",
        "DecisionRule",
        "Dominance",
        "Hurwicz",
        "Optimist",
        "Pessimist",
        "UtilityInterval",
        "choose",
        "expected_interval",
    ),
    "distributions": ("DistributionSpec", "moment_match"),
    "interval": ("Interval",),
    "minimal_data": (
        "MinimalData",
        "min_max",
        "min_max_mean",
        "min_max_mean_std",
        "min_max_median",
        "min_max_median_mean",
        "validate_minimal_data",
    ),
    "models": (
        "REGISTRY",
        "CohortCeaSpec",
        "FourStateRates",
        "cohort_trace",
        "discounted_outcomes",
        "inmb",
        "life_expectancy",
        "monotone",
    ),
    "optimize": ("OptimizerSettings", "SearchBox", "optimize_box", "vertex_extrema"),
    "oracle": ("oracle_cdf_bounds",),
    "pbox": ("PBox", "build_pbox", "intersect_pboxes", "quasi_inverse"),
    "propagate": ("EmpiricalPBox", "ParameterSet", "propagate_mixed", "propagate_pboxes", "psa_propagate"),
    "slicing": ("DiscretizedPBox", "FocalElement", "Hyperrectangle", "discretize_outer", "focal_product"),
}
_EXPORTS = {name: module for module, names in _MODULES.items() for name in names}

__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
