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


class SingularFiringRateError(NnlifError):
    """The implicit firing-rate relation has no stable solution."""


class LinearSolveError(NnlifError):
    """A per-step linear system was singular."""


class NonpositiveDiffusionError(NnlifError):
    """The effective diffusion coefficient dropped to zero or below."""


def check_finite(name: str, value) -> None:
    """Reject a parameter that is not a finite real number; a bool is not
    one, although Python counts it as a ``numbers.Real``."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Real) and math.isfinite(value)):
        raise ConfigurationError(f"{name} must be a finite number, got {value!r}")


def check_integer(name: str, value) -> None:
    """Reject a value that is not an integer; NumPy integers are, a bool is
    not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")


def check_positive(name: str, value) -> None:
    """Reject a time outside (0, inf), NaN included: a run's dt and t_final,
    and the dt of a public step."""
    if not 0.0 < value < math.inf:
        raise ConfigurationError(f"{name} must be finite and > 0, got {value!r}")
