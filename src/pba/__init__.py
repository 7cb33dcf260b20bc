"""Probability bounds analysis for black-box decision models.

Builds bounding-CDF pairs from minimal summary statistics, propagates them
through black-box models by interval slicing plus box-constrained
optimization, and supports interval-valued decision rules, with seeded
Monte Carlo probabilistic sensitivity analysis as the comparison baseline.
"""

from .decision import (
    INDETERMINATE,
    DecisionRule,
    Dominance,
    Hurwicz,
    Optimist,
    Pessimist,
    UtilityInterval,
    choose,
    expected_interval,
)
from .distributions import DistributionSpec, moment_match
from .interval import Interval
from .minimal_data import (
    MinimalData,
    min_max,
    min_max_mean,
    min_max_mean_std,
    min_max_median,
    min_max_median_mean,
    validate_minimal_data,
)
from .models import (
    REGISTRY,
    CohortCeaSpec,
    FourStateRates,
    cohort_trace,
    discounted_outcomes,
    inmb,
    life_expectancy,
    monotone,
)
from .optimize import OptimizerSettings, SearchBox, optimize_box, vertex_extrema
from .oracle import oracle_cdf_bounds
from .pbox import PBox, build_pbox, intersect_pboxes, quasi_inverse
from .propagate import (
    EmpiricalPBox,
    ParameterSet,
    propagate_mixed,
    propagate_pboxes,
    psa_propagate,
)
from .slicing import DiscretizedPBox, FocalElement, Hyperrectangle, discretize_outer, focal_product

__all__ = [
    "INDETERMINATE",
    "CohortCeaSpec",
    "DecisionRule",
    "DiscretizedPBox",
    "DistributionSpec",
    "Dominance",
    "EmpiricalPBox",
    "FocalElement",
    "FourStateRates",
    "Hurwicz",
    "Hyperrectangle",
    "Interval",
    "MinimalData",
    "Optimist",
    "OptimizerSettings",
    "PBox",
    "ParameterSet",
    "Pessimist",
    "REGISTRY",
    "SearchBox",
    "UtilityInterval",
    "build_pbox",
    "choose",
    "cohort_trace",
    "discounted_outcomes",
    "discretize_outer",
    "expected_interval",
    "focal_product",
    "inmb",
    "intersect_pboxes",
    "life_expectancy",
    "min_max",
    "min_max_mean",
    "min_max_mean_std",
    "min_max_median",
    "min_max_median_mean",
    "moment_match",
    "monotone",
    "optimize_box",
    "oracle_cdf_bounds",
    "propagate_mixed",
    "propagate_pboxes",
    "psa_propagate",
    "quasi_inverse",
    "validate_minimal_data",
    "vertex_extrema",
]

__version__ = "0.1.0"
