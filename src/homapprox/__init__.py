"""Homogeneous-polynomial approximation on convex-body boundaries."""

from .errors import (
    HomApproxError, DimensionError, BoundaryPointError, UnsupportedBodyError,
    NoConvergenceError, QuadratureError, DegreeCapError, UnequalLimitsError,
    OddMonomialError, EscalationError, ConfigError, ExprError, ExprDomainError,
)
from .geometry import ConvexBody, SupportLine
from .polys import (
    HomogeneousPoly, linear_form_power, homogenize_even, growth_bound,
    growth_bound_check,
)
from .partition import (
    gstar, g_odd, g_1d, g_k, active_indices, partition_sum_and_overlap,
    sphere_patches, SpherePatch,
)
from .potential import (
    Weight, check_weight, mrs_support, density, EquilibriumMeasure,
    equilibrium_check,
)
from .report import ApproxReport
from .unity import approximate_unity, mesh_size, unity_error_report
from .weighted_approx import (
    CompactifiedFunction, WeightedApproximant, weighted_minimax,
)
from .pipeline import HomPair, approximate_theorem1, approximate_theorem2
from .expr import parse_expr

__all__ = [
    "HomApproxError", "DimensionError", "BoundaryPointError",
    "UnsupportedBodyError", "NoConvergenceError", "QuadratureError",
    "DegreeCapError", "UnequalLimitsError", "OddMonomialError",
    "EscalationError", "ConfigError", "ExprError", "ExprDomainError",
    "ConvexBody", "SupportLine",
    "HomogeneousPoly", "linear_form_power", "homogenize_even",
    "growth_bound", "growth_bound_check",
    "gstar", "g_odd", "g_1d", "g_k", "active_indices",
    "partition_sum_and_overlap", "sphere_patches", "SpherePatch",
    "Weight", "check_weight", "mrs_support", "density",
    "EquilibriumMeasure", "equilibrium_check",
    "ApproxReport",
    "approximate_unity", "mesh_size", "unity_error_report",
    "CompactifiedFunction", "WeightedApproximant", "weighted_minimax",
    "HomPair", "approximate_theorem1", "approximate_theorem2",
    "parse_expr",
]

__version__ = "0.1.0"
