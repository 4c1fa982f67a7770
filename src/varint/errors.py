"""Exception hierarchy shared across the package, and its argument check."""

import math


class VarintError(Exception):
    """Base class for all errors raised by varint."""


class ConfigurationError(VarintError):
    """Invalid configuration value (bad precision, eccentricity, config key...)."""


class SingularityError(VarintError):
    """Gravitational collision: configuration too close to the potential singularity."""


class UnsupportedOrderError(VarintError):
    """Requested derivative order not available for this model."""


class NonMonotoneTimeError(VarintError):
    """Physical time failed to increase (t_{k+1} <= t_k, or t'(a) <= 0)."""


class MonitorDomainError(VarintError):
    """Monitor function non-positive or undefined at the requested point."""


class SolverError(VarintError):
    """Base class for nonlinear-solver failures."""


class NonconvergenceError(SolverError):
    """Newton iteration exhausted without meeting the tolerance.

    ``report`` is the SolveReport at the last iterate, or None if the solve had none.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class IllPosednessError(SolverError):
    """Numerically singular Jacobian at an accepted solution: the update equations
    do not determine the unknowns (e.g. the time step of a free particle at rest)."""


class IntegrationError(VarintError):
    """A trajectory run aborted mid-way.  Carries the partial trajectory; the
    failure that aborted it is its ``__cause__``."""

    def __init__(self, message, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory


class StiffnessError(VarintError):
    """Reference solver step-size underflow (stiffness or collision approach)."""


def check_finite(value, message: str, lower=0, *, inclusive=False, upper=math.inf) -> None:
    """Raise :class:`ConfigurationError`, ``message`` with ``value`` in its ``{}`` (formatted
    on failure only), unless ``lower < value < upper`` (``lower <= value`` if ``inclusive``):
    for a nan too, a float's or a ``Decimal``'s (whose comparison raises ``InvalidOperation``
    under a context that traps it), and for a value that does not compare with a number
    (None, a string), whose ``TypeError`` this turns into it."""
    try:
        if (lower <= value if inclusive else lower < value) and value < upper:
            return
    except (TypeError, ArithmeticError):
        pass
    raise ConfigurationError(message.format(value))
