"""Exception hierarchy shared across the package."""


class ContestError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(ContestError, ValueError):
    """An input violates its documented domain (bad parameter, malformed spec)."""


class DomainError(ValidationError):
    """An evaluation point lies outside a function's domain."""


class ConvergenceError(ContestError, RuntimeError):
    """An iterative routine failed to reach its tolerance."""


class NoEquilibriumError(ConvergenceError):
    """No pure-strategy equilibrium exists, or none could be certified."""
