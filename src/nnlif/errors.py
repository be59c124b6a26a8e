"""Exception types shared across the solver library, and the one copy of
each single-value input rule: ``check(name, value)`` raises
:class:`ConfigurationError` naming ``name``, also for a value of the wrong
type.  Rules that tie values together stay with the code that reads them.
"""

import math
import numbers
import sys


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


# the intervals a number may be required to lie in, as a rule writes them
_INTERVALS = {"(0, inf)": lambda x: x > 0, "[0, inf)": lambda x: x >= 0, "[0, 1)": lambda x: 0 <= x < 1,
              "(0, 1]": lambda x: 0 < x <= 1}


def check_finite(name: str, value) -> None:
    """A finite real number; a bool is not one, although Python counts it as
    a ``numbers.Real``, and nor is an integer past the float range."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Real) and abs(value) <= sys.float_info.max):
        raise ConfigurationError(f"{name} must be a finite number, got {value!r}")


def check_within(name: str, value, interval: str) -> None:
    """A finite number in ``interval``, a key of :data:`_INTERVALS`."""
    check_finite(name, value)
    if not _INTERVALS[interval](value):
        raise ConfigurationError(f"{name} must lie in {interval}, got {value}")


def check_positive(name: str, value) -> None:
    """A finite number > 0.  Every step checks its dt here, so an in-range
    ``float`` passes on one type test and one comparison."""
    if type(value) is not float or not 0.0 < value < math.inf:
        check_within(name, value, "(0, inf)")


def check_nonnegative(name: str, value) -> None:
    """A finite number >= 0."""
    check_within(name, value, "[0, inf)")


def check_positive_integer(name: str, value) -> None:
    """An integer >= 1 within the float range; NumPy integers are integers,
    a bool is not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or not 1 <= value <= sys.float_info.max:
        raise ConfigurationError(f"{name} must be a positive integer, got {value!r}")


def check_one_of(name: str, value, allowed: tuple) -> None:
    """One of the values ``allowed``; a bool is none of them, although
    ``True == 1``."""
    if isinstance(value, bool) or value not in allowed:
        raise ConfigurationError(f"{name} must be {' or '.join(map(repr, allowed))}, got {value!r}")
