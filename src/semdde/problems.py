"""Delay differential equation right-hand sides and built-in test problems.

A problem is written in functional form: the rhs receives a history
evaluator e mapping a lag theta <= 0 to the state value at that lag,
plus the free parameters.  State-dependent delays are computed
inside the rhs from evaluator queries, so the interface stays equal to
the mathematical form y'(t) = G(y_t, p).

Evaluators may be batched: e(theta) with a scalar lag returns one state
row per base time, and a per-point lag array applies elementwise.  A rhs
built from numpy arithmetic therefore serves one point or a whole set of
collocation points with the same source.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InvalidArgumentError, NegativeDelayError, OutOfWindowError
from .piecewise import PeriodicPiecewisePoly


@dataclass(frozen=True)
class DdeProblem:
    """A delay differential equation y'(t) = rhs(y_t, p).

    ``rhs`` must be deterministic and query the evaluator only at lags
    theta <= 0 (unscaled time units); the periodic evaluator answers any
    such lag, so no window is declared.
    """

    name: str
    dim: int
    num_params: int
    rhs: Callable[[Callable, np.ndarray], np.ndarray]
    equilibrium: Optional[np.ndarray] = None
    params_default: Optional[np.ndarray] = None


MACKEY_GLASS_A = -1.0
MACKEY_GLASS_B = 2.0
MACKEY_GLASS_C = 10.0


def mackey_glass() -> DdeProblem:
    """The scalar Mackey-Glass equation with a = -1, b = 2, c = 10.

    y'(t) = a y(t) + b y(t - tau) / (1 + y(t - tau)^c), parameter tau.
    The positive equilibrium is y = 1 for these coefficients.
    """

    def rhs(e, p):
        tau = float(p[0])
        if tau <= 0.0:
            raise InvalidArgumentError(f"delay must be positive, got {tau}")
        now = e(0.0)
        lagged = e(-tau)
        return (MACKEY_GLASS_A * now
                + MACKEY_GLASS_B * lagged / (1.0 + lagged**MACKEY_GLASS_C))

    return DdeProblem(
        name="mackey_glass",
        dim=1,
        num_params=1,
        rhs=rhs,
        equilibrium=np.array([1.0]),
        params_default=np.array([1.0]),
    )


def sd_quadratic() -> DdeProblem:
    """Scalar equation with a quadratic state-dependent delay.

    y'(t) = -y(t - d) with d = tau + y(t) + y(t)^2, parameter tau.  The
    zero equilibrium turns this into y'(t) = -y(t - tau) linearized.  A
    negative d would be a time advance and is rejected.
    """

    def rhs(e, p):
        tau = float(p[0])
        now = e(0.0)
        delay = tau + now + now**2
        if np.any(delay < 0.0):
            raise NegativeDelayError(
                f"state-dependent delay went negative (min "
                f"{float(np.min(delay))}); time advances are rejected")
        return -e(-delay)

    return DdeProblem(
        name="sd_quadratic",
        dim=1,
        num_params=1,
        rhs=rhs,
        equilibrium=np.array([0.0]),
        params_default=np.array([0.95]),
    )


def state_eval_example() -> DdeProblem:
    """The self-referencing rhs y'(t) = y(y(t)); exercises evaluator
    plumbing with state-dependent query points in tests.

    The current state value is used directly as the lag, so it must lie
    in the history window [-1, 0].
    """

    def rhs(e, p):
        now = e(0.0)
        if np.any(now < -1.0) or np.any(now > 0.0):
            raise OutOfWindowError(
                "state used as a lag must lie in [-1, 0], got values in "
                f"[{float(np.min(now))}, {float(np.max(now))}]")
        return e(now)

    return DdeProblem(
        name="state_eval_example",
        dim=1,
        num_params=0,
        rhs=rhs,
        equilibrium=np.array([0.0]),
        params_default=np.zeros(0),
    )


_BY_NAME = {
    "mackey_glass": mackey_glass,
    "sd_quadratic": sd_quadratic,
}


def get_problem(name: str) -> DdeProblem:
    """Look up a shipped problem by its CLI name."""
    try:
        factory = _BY_NAME[name]
    except KeyError:
        raise InvalidArgumentError(
            f"unknown problem {name!r}; available: {sorted(_BY_NAME)}"
        ) from None
    return factory()


class RescaledRhs:
    """Right-hand side in period-rescaled time.

    For a 1-periodic profile v, period T and parameters p packed as
    mu = (T, p), evaluates T * rhs(theta -> v(t + theta/T), p).  Periodic
    evaluation makes every lag representable, so the history closure is
    total.  ``evaluate`` exposes the same evaluator with each query
    answered by the caller, which is how the collocation Jacobian
    perturbs one query's output.
    """

    def __init__(self, problem: DdeProblem):
        self.problem = problem

    def __call__(self, poly: PeriodicPiecewisePoly, t, mu: np.ndarray):
        t_arr = np.asarray(t, dtype=float)
        out = self.evaluate(np.atleast_1d(t_arr).ravel(), mu,
                            lambda k, times: poly.eval(times))
        if t_arr.ndim == 0:
            return out[0]
        return out.reshape(t_arr.shape + (self.problem.dim,))

    def evaluate(self, base: np.ndarray, mu: np.ndarray,
                 answer: Callable[[int, np.ndarray], np.ndarray]
                 ) -> np.ndarray:
        """T * rhs at the base times, shape (N,) -> (N, dim).

        The rhs's k-th evaluator query (k = 0, 1, ...) asks for the state
        at the times base + theta/T, one per base time; ``answer(k,
        times)`` returns it, shape (N, dim).
        """
        mu = np.asarray(mu, dtype=float)
        if mu.size != 1 + self.problem.num_params:
            raise InvalidArgumentError(
                f"mu must pack (period, {self.problem.num_params} params), "
                f"got {mu.size} entries")
        period = mu[0]
        if period <= 0.0:
            raise InvalidArgumentError(f"period must be positive, got {period}")
        queries = itertools.count()

        def evaluator(theta):
            th = np.asarray(theta, dtype=float)
            if th.ndim > 0:
                th = th.ravel()
                if th.size not in (1, base.size):
                    raise InvalidArgumentError(
                        f"lag batch of size {th.size} does not match "
                        f"{base.size} base times")
                if th.size == 1:
                    th = th[0]
            return answer(next(queries), base + th / period)

        out = period * np.asarray(self.problem.rhs(evaluator, mu[1:]),
                                  dtype=float)
        return out.reshape(base.size, self.problem.dim)
