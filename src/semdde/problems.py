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
import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import InvalidArgumentError, NegativeDelayError, NoHopfError, \
    _checked_fields, _checked_int, _checked_real, _checked_reals
from .piecewise import PeriodicPiecewisePoly


@dataclass(frozen=True)
class HopfData:
    """Delay, angular frequency, and equilibrium at an oscillation onset."""

    tau_hopf: float
    omega: float
    equilibrium: np.ndarray

    def __post_init__(self):
        _checked_fields(self, ("tau_hopf", "omega"), 0.0, strict=True)
        eq = _checked_reals(self.equilibrium, "equilibrium")
        if eq.ndim != 1:
            raise InvalidArgumentError("equilibrium must be a vector")
        object.__setattr__(self, "equilibrium", eq)

    @property
    def period(self) -> float:
        return 2.0 * math.pi / self.omega


def scalar_hopf_point(alpha: float, beta: float) -> Tuple[float, float]:
    """Smallest delay where alpha y + beta y(t - tau) starts oscillating.

    Returns (tau, omega) with omega = sqrt(beta^2 - alpha^2) and the
    smallest tau > 0 with cos(omega tau) = -alpha/beta on the branch
    where sin(omega tau) has the sign of -beta: omega tau in (0, pi) for
    beta < 0 and in (pi, 2 pi) for beta > 0.
    """
    alpha, beta = _checked_real(alpha, "alpha"), _checked_real(beta, "beta")
    if abs(beta) <= abs(alpha):
        raise NoHopfError(
            f"characteristic roots never reach the imaginary axis for "
            f"|beta| = {abs(beta)} <= |alpha| = {abs(alpha)}")
    omega = math.sqrt(beta * beta - alpha * alpha)
    angle = math.acos(-alpha / beta)
    if beta > 0.0:
        angle = 2.0 * math.pi - angle
    return angle / omega, omega


@dataclass(frozen=True)
class DdeProblem:
    """A delay differential equation y'(t) = rhs(y_t, p).

    ``rhs`` must be deterministic and query the evaluator only at lags
    theta <= 0 (unscaled time units); the periodic evaluator answers any
    such lag, so no window is declared.  ``onset``, where declared, is
    the Hopf point at which the equilibrium starts oscillating as p[0]
    passes ``onset.tau_hopf``; the ``hopf`` guess starts there, and the
    continuation predictor extrapolates in sqrt(|p[0] - tau_hopf|)
    where a step's orbits and target lie on one side of it, taking it
    as the second node of a single orbit;
    its equilibrium is bitwise a declared ``equilibrium``.
    ``lag``, where declared, is the delay law of a single delayed query:
    ``lag(y, p)`` maps state values of shape (..., dim) and the
    parameters to the unscaled delay, shape (...), element by element.
    The rhs asks for the state at -lag(y(t), p), so the law is written
    once; the circle-map diagnostic is built from it.
    """

    name: str
    dim: int
    num_params: int
    rhs: Callable[[Callable, np.ndarray], np.ndarray]
    equilibrium: Optional[np.ndarray] = None
    onset: Optional[HopfData] = None
    lag: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        object.__setattr__(self, "dim", _checked_int(self.dim, "dim", 1))
        object.__setattr__(self, "num_params", _checked_int(
            self.num_params, "num_params", 0))
        onset, declared = self.onset, self.equilibrium
        if declared is not None:
            declared = _checked_reals(declared, "equilibrium")
            object.__setattr__(self, "equilibrium", declared)
        # the phase anchor reads the declared equilibrium, the onset
        # guesses start from the onset's: one equilibrium, bitwise
        if onset is not None and (
                self.num_params < 1 or onset.equilibrium.shape != (self.dim,)
                or declared is not None and (
                    declared.shape != (self.dim,)
                    or declared.tobytes() != onset.equilibrium.tobytes())):
            raise InvalidArgumentError(
                f"an onset needs a parameter p[0] and an equilibrium of "
                f"{self.dim} components, bitwise any declared equilibrium")


MACKEY_GLASS_A = -1.0
MACKEY_GLASS_B = 2.0
MACKEY_GLASS_C = 10.0


def mackey_glass() -> DdeProblem:
    """The scalar Mackey-Glass equation with a = -1, b = 2, c = 10.

    y'(t) = a y(t) + b y(t - tau) / (1 + y(t - tau)^c), parameter tau.
    The positive equilibrium is y = 1 for these coefficients.  There the
    feedback slope is b (1 + (1 - c)) / 4, so the linearization is the
    scalar delay equation with alpha = a and beta = b (2 - c) / 4, whose
    Hopf point is the declared onset.
    """

    def rhs(e, p):
        tau = float(p[0])
        if tau <= 0.0:
            raise InvalidArgumentError(f"delay must be positive, got {tau}")
        now = e(0.0)
        lagged = e(-tau)
        return (MACKEY_GLASS_A * now
                + MACKEY_GLASS_B * lagged / (1.0 + lagged**MACKEY_GLASS_C))

    def lag(y, p):
        return np.broadcast_to(p[0], np.shape(y[..., 0])).astype(float)

    return DdeProblem(
        name="mackey_glass",
        dim=1,
        num_params=1,
        rhs=rhs,
        lag=lag,
        equilibrium=np.array([1.0]),
        onset=HopfData(*scalar_hopf_point(
            MACKEY_GLASS_A,
            MACKEY_GLASS_B * ((1.0 + (1.0 - MACKEY_GLASS_C)) / 4.0)),
            equilibrium=np.array([1.0])),
    )


def sd_quadratic() -> DdeProblem:
    """Scalar equation with a quadratic state-dependent delay.

    y'(t) = -y(t - d) with d = tau + y(t) + y(t)^2, parameter tau.  The
    zero equilibrium turns this into y'(t) = -y(t - tau) linearized,
    whose Hopf point tau = pi/2 is the declared onset.  A negative d
    would be a time advance and is rejected.
    """

    def lag(y, p):
        return p[0] + y[..., 0] + y[..., 0]**2

    def rhs(e, p):
        delay = lag(e(0.0), p)
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
        lag=lag,
        equilibrium=np.array([0.0]),
        onset=HopfData(*scalar_hopf_point(0.0, -1.0),
                       equilibrium=np.array([0.0])),
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
        shape = (base.size, self.problem.dim)
        if out.size != base.size * self.problem.dim:
            # a state of another dimension than the problem's
            raise InvalidArgumentError(
                f"rhs of {self.problem.name} returned shape {out.shape}, "
                f"expected {shape}")
        return out.reshape(shape)
