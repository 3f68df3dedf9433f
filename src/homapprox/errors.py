"""Exception types shared across the package."""


class HomApproxError(Exception):
    """Base class for numeric/geometry failures."""


class DimensionError(HomApproxError):
    """Operation requires a different ambient dimension."""


class BoundaryPointError(HomApproxError):
    """Point is not on the boundary within tolerance."""


class UnsupportedBodyError(HomApproxError):
    """Body is outside the scope of the requested construction."""


class NoConvergenceError(HomApproxError):
    """Iterative solve exhausted its iteration cap."""

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals


class QuadratureError(HomApproxError):
    """Spectral expansion failed to converge below tolerance."""


class DegreeCapError(HomApproxError):
    """Requested degree exceeds the supported cap."""


class UnequalLimitsError(HomApproxError):
    """Function does not have matching limits at both infinities."""


class OddMonomialError(HomApproxError):
    """Even-polynomial operation received an odd-degree monomial."""


class EscalationError(HomApproxError):
    """Degree escalation failed to reach the requested target."""

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class ConfigError(Exception):
    """Invalid run configuration; carries a JSON-pointer-ish path."""

    def __init__(self, message, pointer=""):
        super().__init__(message)
        self.pointer = pointer


class ExprError(Exception):
    """Expression parse error with a column position."""

    def __init__(self, message, column=None):
        super().__init__(message)
        self.column = column


class ExprDomainError(HomApproxError):
    """Expression evaluated outside its domain (log of <=0 etc.)."""

    def __init__(self, message, where=None):
        super().__init__(message)
        self.where = where
