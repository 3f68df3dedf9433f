"""Homogeneous-polynomial approximation on convex-body boundaries."""

from .errors import (
    HomApproxError, DimensionError, BoundaryPointError, UnsupportedBodyError,
    InvalidWeightError, NoConvergenceError, QuadratureError, DegreeCapError,
    UnequalLimitsError, OddMonomialError, EscalationError, ConfigError,
    ExprError, ExprDomainError,
)
from .geometry import ConvexBody, SupportLine
from .polys import (
    HomogeneousPoly, DensePoly, linear_form_power, homogenize_even,
    growth_bound, growth_bound_check,
)
from .partition import (
    gstar, g_odd, g_1d, g_k, active_indices, partition_sum_and_overlap,
    sphere_patches, SpherePatch,
)
from .potential import (
    Weight, check_weight, invert_weight, mrs_support, density,
    EquilibriumMeasure, equilibrium_check, smooth_integral_diag,
)
from .report import ApproxReport
from .unity import UnityParams, approximate_unity, unity_error_report
from .weighted_approx import (
    CompactifiedFunction, WeightedApproximant, weighted_minimax,
    homog_from_weighted, divide_out_weight,
)
from .pipeline import HomPair, approximate_theorem1, approximate_theorem2
from .expr import parse_expr

__all__ = [
    "HomApproxError", "DimensionError", "BoundaryPointError",
    "UnsupportedBodyError", "InvalidWeightError", "NoConvergenceError",
    "QuadratureError", "DegreeCapError", "UnequalLimitsError",
    "OddMonomialError", "EscalationError", "ConfigError", "ExprError",
    "ExprDomainError",
    "ConvexBody", "SupportLine",
    "HomogeneousPoly", "DensePoly", "linear_form_power", "homogenize_even",
    "growth_bound", "growth_bound_check",
    "gstar", "g_odd", "g_1d", "g_k", "active_indices",
    "partition_sum_and_overlap", "sphere_patches", "SpherePatch",
    "Weight", "check_weight", "invert_weight", "mrs_support", "density",
    "EquilibriumMeasure", "equilibrium_check", "smooth_integral_diag",
    "ApproxReport",
    "UnityParams", "approximate_unity", "unity_error_report",
    "CompactifiedFunction", "WeightedApproximant", "weighted_minimax",
    "homog_from_weighted", "divide_out_weight",
    "HomPair", "approximate_theorem1", "approximate_theorem2",
    "parse_expr",
]

__version__ = "0.1.0"
