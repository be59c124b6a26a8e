"""Exception types shared across the solver library."""

import math
import numbers


class NnlifError(Exception):
    """Base class for all library-specific errors."""


class ConfigurationError(NnlifError, ValueError):
    """A run configuration is invalid (misaligned delays, bad grids,
    non-finite parameters, ...)."""


class IllConditionedBasisError(NnlifError):
    """The Galerkin mass matrix could not be solved reliably."""

    def __init__(self, message, condition_estimate=None):
        super().__init__(message)
        self.condition_estimate = condition_estimate


class SingularFiringRateError(NnlifError):
    """The implicit firing-rate relation has no stable solution."""


class LinearSolveError(NnlifError):
    """A per-step linear system was singular."""


class NonpositiveDiffusionError(NnlifError):
    """The effective diffusion coefficient dropped to zero or below."""


def check_finite(name: str, value) -> None:
    """Reject a parameter that is not a finite real number."""
    if not (isinstance(value, numbers.Real) and math.isfinite(value)):
        raise ConfigurationError(f"{name} must be a finite number, got {value!r}")
