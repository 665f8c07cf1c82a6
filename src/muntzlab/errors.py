"""Exception types shared across the package, and the number check that
every config reader uses."""

import math
import numbers


class MuntzlabError(Exception):
    """Base class for all package-specific failures."""


class ConfigError(MuntzlabError):
    """Invalid user-supplied configuration or parameters."""


class ConditioningError(MuntzlabError):
    """The evaluated basis is numerically rank-deficient on the grid."""


class UnboundedGrowthError(MuntzlabError):
    """No finite alpha: a sample vanishes on so many cells of [y, 1] that no
    finite alpha brings its superlevel set up to the measure that
    estimate_alpha asks for."""


class ConvergenceError(MuntzlabError):
    """An iterative solver failed and no exact fallback recovered.

    Raised when an exchange stops without a certificate (a cycle, its
    iteration cap or a stall) and the exact alternative (the discrete
    minimax LP with a checked alternation certificate, or 60-digit
    arithmetic) fails as well, or when an LP solve itself fails.
    """


def finite_number(value, what: str) -> float:
    """`value` as a float; ConfigError for a bool, a non-number, NaN or
    +-inf (an int too large for a float counts as infinite)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{what} must be a number, not {value!r}")
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(f"{what} must be finite, not {value!r}")
    return x
