"""Exception hierarchy shared across the package, and its integer and
real rules."""

import math
import numbers

import numpy as np


class SemDdeError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(SemDdeError, ValueError):
    """An argument violates a documented precondition."""


def _is_integer(value) -> bool:
    """The package's one integer rule: numpy's pass, bools do not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _checked_int(value, name: str, minimum=None) -> int:
    """The integer ``value`` (>= ``minimum`` if given) as a Python int."""
    if not _is_integer(value):
        raise InvalidArgumentError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise InvalidArgumentError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def _checked_real(value, name: str, minimum=None, strict=False) -> float:
    """The package's one real rule: the finite real ``value`` (>=
    ``minimum`` if given, > if ``strict``) as a Python float.  numpy's
    reals pass; bools and ints beyond the double range do not."""
    try:
        number = float(value) if isinstance(value, numbers.Real) \
            and not isinstance(value, bool) else math.nan
    except OverflowError:  # an integer beyond the double range
        number = math.nan
    if not math.isfinite(number):
        raise InvalidArgumentError(
            f"{name} must be a finite number, got {value!r}")
    if minimum is not None and (number <= minimum if strict
                                else number < minimum):
        raise InvalidArgumentError(f"{name} must be {'>' if strict else '>='} "
                                   f"{minimum}, got {value!r}")
    return number


def _checked_fields(obj, names, minimum=None, strict=False) -> None:
    """``_checked_real`` on the fields ``names`` of a frozen dataclass."""
    for name in names:
        object.__setattr__(obj, name, _checked_real(getattr(obj, name), name,
                                                    minimum, strict))


def _checked_reals(value, name: str) -> np.ndarray:
    """``value`` as a fresh read-only array of finite floats: a numeric
    array whole, anything else by ``_checked_real`` on each entry."""
    if isinstance(value, np.ndarray) and value.dtype.kind in "iuf":
        arr = value.astype(float)
    else:
        entries = np.array(value, dtype=object)
        arr = np.array([_checked_real(v, f"each entry of {name}")
                        for v in entries.flat]).reshape(entries.shape)
    if not np.isfinite(arr).all():
        raise InvalidArgumentError(f"{name} must be finite")
    arr.flags.writeable = False
    return arr


class NoHopfError(SemDdeError):
    """The linearization admits no imaginary-axis eigenvalue crossing."""


class NewtonError(SemDdeError):
    """Base class for Newton iteration failures; ``newton_solve`` sets
    ``residual_history`` to the residual max-norms recorded before one."""

    residual_history = None


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

    ``points`` holds the branch points completed before it; the last of
    them, if any, is ``last_good``.
    """

    def __init__(self, message, points=None):
        super().__init__(message)
        self.points = points if points is not None else []

    @property
    def last_good(self):
        return self.points[-1] if self.points else None


class AnalyticityViolationError(SemDdeError):
    """A function is not analytic on the requested Bernstein ellipse."""


class ConfigError(SemDdeError):
    """A run configuration document is malformed or inconsistent."""


class FormatVersionError(SemDdeError):
    """A data file declares a format version this build cannot read."""
