"""Exception hierarchy shared across the package."""


class SemDdeError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(SemDdeError, ValueError):
    """An argument violates a documented precondition."""


class NoHopfError(SemDdeError):
    """The linearization admits no imaginary-axis eigenvalue crossing."""


class NewtonError(SemDdeError):
    """Base class for Newton iteration failures; ``residual_history``
    holds the residual max-norms recorded before one, where set."""

    def __init__(self, message, residual_history=None):
        super().__init__(message)
        self.residual_history = residual_history


class MaxIterExceededError(NewtonError):
    """Newton did not reach the residual tolerance within max_iter steps."""


class SingularJacobianError(NewtonError):
    """The LU factorization of the Jacobian produced a negligible pivot."""


class NonFiniteResidualError(NewtonError):
    """The residual contained NaN or infinity."""


class CollapseError(NewtonError):
    """Newton converged onto the equilibrium, not the orbit it started
    from (which also solves the system)."""


class NegativeDelayError(NewtonError):
    """A state-dependent delay evaluated to a negative value (an advance).

    A Newton failure: the solve reached a state that the problem
    rejects, so callers record or bisect it like any other failed solve.
    """


class StepFailureError(SemDdeError):
    """Branch continuation could not complete a parameter step.

    The last successfully converged branch point, if any, is attached as
    ``last_good``.
    """

    def __init__(self, message, last_good=None, points=None):
        super().__init__(message)
        self.last_good = last_good
        self.points = points if points is not None else []


class AnalyticityViolationError(SemDdeError):
    """A function is not analytic on the requested Bernstein ellipse."""


class ConfigError(SemDdeError):
    """A run configuration document is malformed or inconsistent."""


class FormatVersionError(SemDdeError):
    """A data file declares a format version this build cannot read."""
