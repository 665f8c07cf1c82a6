"""Exception types shared across the package."""


class MuntzlabError(Exception):
    """Base class for all package-specific failures."""


class ConfigError(MuntzlabError):
    """Invalid user-supplied configuration or parameters."""


class ConditioningError(MuntzlabError):
    """The evaluated basis is numerically rank-deficient on the grid."""


class UnboundedGrowthError(MuntzlabError):
    """The growth functional is unbounded: the constraint grid has fewer
    points than the dimension of the span."""


class ConvergenceError(MuntzlabError):
    """An iterative solver failed and no exact fallback recovered.

    Raised when an exchange iteration cycles or reaches its iteration cap
    and the exact alternative (the discrete minimax LP with a checked
    alternation certificate, or 60-digit arithmetic) fails as well, or when
    an LP solve itself fails.
    """
