"""Discretized periodic BVP and its damped Newton solver.

The unknowns are the free values of the periodic piecewise polynomial
(nodes 0..m-1 of each interval, exactly what the polynomial stores) plus
mu = (period, parameters).  The residual collects the rescaled equation
at the m Gauss-Legendre collocation points of every mesh interval,
followed by the affine constraint rows that square the system.

The Jacobian follows the chain rule through the rhs's evaluator queries
(the structured collocation systems of Engelborghs et al., SIAM J. Sci.
Comput. 22, 2001): an exact differentiation block, plus, for each query,
the rhs's sensitivity to that query's output times the Lagrange row at
the query time.  The sensitivities are forward differences on the
query outputs, taken for all collocation points in one rhs call, so a
Jacobian costs a few residual-sized evaluations for any mesh size.  Each
(T, p) column is a forward difference of one rhs call.  Query rows and
free-value columns come from ``PeriodicPiecewisePoly.eval_with_basis``;
the differentiation block keeps the reference matrices.  One rule
answers every query: query k reuses the value held for query k when its
times have not moved.  The constraint rows are exact affine gradients.

The Newton iteration damps by halving on residual increase, down to a
floor, and factors the dense Jacobian by LU with partial pivoting.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve

from .errors import (
    InvalidArgumentError,
    MaxIterExceededError,
    NonFiniteResidualError,
    SingularJacobianError,
)
from .nodes import NodeKind, interpolation_matrix, make_nodes
from .piecewise import (
    FORMAT_VERSION,
    Mesh,
    PeriodicPiecewisePoly,
    _document_array,
    check_format_version,
    poly_from_document,
    poly_to_document,
    sample_periodic,
)
from .problems import DdeProblem, RescaledRhs


class DiscreteState:
    """A candidate solution: periodic profile plus mu = (period, params).

    ``flatten`` packs the profile's free values (nodes 0..m-1 of each
    interval) and mu into one vector; ``from_flat`` inverts it bitwise.
    """

    def __init__(self, poly: PeriodicPiecewisePoly, mu):
        mu = np.asarray(mu, dtype=float).copy()
        if mu.ndim != 1 or mu.size < 1:
            raise InvalidArgumentError("mu must pack (period, parameters)")
        if not np.all(np.isfinite(mu)):
            raise InvalidArgumentError("mu must be finite")
        if mu[0] <= 0.0:
            raise InvalidArgumentError(f"period must be positive, got {mu[0]}")
        mu.flags.writeable = False
        self.poly = poly
        self.mu = mu

    @property
    def period(self) -> float:
        return float(self.mu[0])

    @property
    def params(self) -> np.ndarray:
        return self.mu[1:]

    @property
    def size(self) -> int:
        mesh = self.poly.mesh
        return (mesh.num_intervals * self.poly.degree * self.poly.dim
                + self.mu.size)

    def flatten(self) -> np.ndarray:
        return np.concatenate([self.poly.free_values.ravel(), self.mu])

    @classmethod
    def from_flat(cls, flat, mesh: Mesh, degree: int, dim: int,
                  num_params: int) -> "DiscreteState":
        flat = np.asarray(flat, dtype=float)
        L = mesh.num_intervals
        n_mu = 1 + num_params
        n_free = L * degree * dim
        if flat.shape != (n_free + n_mu,):
            raise InvalidArgumentError(
                f"flat vector must have length {n_free + n_mu}, got "
                f"{flat.shape}")
        poly = PeriodicPiecewisePoly(mesh, degree,
                                     flat[:n_free].reshape(L, degree, dim))
        return cls(poly, flat[n_free:])


def resample_state(state: DiscreteState, mesh: Mesh,
                   degree: int) -> DiscreteState:
    """Re-express a state on another mesh and degree, keeping mu.

    The profile is re-sampled at the new representation nodes; this is
    the warm-start path between discretizations.
    """
    poly = sample_periodic(state.poly.eval, mesh, degree)
    return DiscreteState(poly, state.mu)


def with_parameter(state: DiscreteState, index: int,
                   value: float) -> DiscreteState:
    """Copy a state with one problem parameter replaced."""
    if not 0 <= index < state.params.size:
        raise InvalidArgumentError(
            f"parameter index {index} outside 0..{state.params.size - 1}")
    mu = state.mu.copy()
    mu[1 + index] = value
    return DiscreteState(state.poly, mu)


def state_to_document(state: DiscreteState) -> dict:
    """JSON-ready description of a state; round-trips bitwise."""
    return {
        "format_version": FORMAT_VERSION,
        "mu": state.mu.tolist(),
        "profile": poly_to_document(state.poly),
    }


def state_from_document(doc: dict) -> DiscreteState:
    required = {"format_version", "mu", "profile"}
    if not isinstance(doc, dict) or set(doc) != required:
        keys = sorted(doc) if isinstance(doc, dict) else type(doc).__name__
        raise InvalidArgumentError(
            f"state document needs keys {sorted(required)}, got {keys}")
    check_format_version(doc["format_version"], "state document")
    return DiscreteState(poly_from_document(doc["profile"]),
                         _document_array(doc["mu"], "mu"))


@dataclass(frozen=True)
class AffineRow:
    """One affine functional: sum of point values of the profile plus a
    linear term in mu plus an offset.

    ``point_terms`` is a tuple of (time, component, coefficient).
    """

    point_terms: Tuple[Tuple[float, int, float], ...]
    mu_coeffs: np.ndarray
    offset: float

    def __post_init__(self):
        coeffs = np.asarray(self.mu_coeffs, dtype=float).copy()
        coeffs.flags.writeable = False
        object.__setattr__(self, "mu_coeffs", coeffs)

    def value(self, poly: PeriodicPiecewisePoly, mu: np.ndarray) -> float:
        total = float(self.mu_coeffs @ mu) + self.offset
        for time, comp, coeff in self.point_terms:
            total += coeff * float(poly.eval(time)[comp])
        return total


def phase_anchor_row(anchor_value: float, num_params: int) -> AffineRow:
    """The row y_0(0) - anchor_value = 0."""
    return AffineRow(point_terms=((0.0, 0, 1.0),),
                     mu_coeffs=np.zeros(1 + num_params),
                     offset=-float(anchor_value))


def parameter_pin_row(param_index: int, target: float,
                      num_params: int) -> AffineRow:
    """The row p[param_index] - target = 0."""
    coeffs = np.zeros(1 + num_params)
    coeffs[1 + param_index] = 1.0
    return AffineRow(point_terms=(), mu_coeffs=coeffs, offset=-float(target))


def default_constraints(prob: DdeProblem, params_target,
                        anchor_value: Optional[float] = None,
                        ) -> Tuple[AffineRow, ...]:
    """Phase anchor at t=0 plus one pin row per free parameter.

    The anchor value defaults to the problem's declared equilibrium;
    problems without one must pass it explicitly (taken from the initial
    guess's value at t=0 by the callers that do so).
    """
    params_target = np.atleast_1d(np.asarray(params_target, dtype=float))
    if params_target.size != prob.num_params:
        raise InvalidArgumentError(
            f"expected {prob.num_params} target parameters, got "
            f"{params_target.size}")
    if anchor_value is None:
        if prob.equilibrium is None:
            raise InvalidArgumentError(
                f"problem {prob.name!r} declares no equilibrium; pass an "
                f"explicit phase anchor value")
        anchor_value = float(prob.equilibrium[0])
    rows = [phase_anchor_row(anchor_value, prob.num_params)]
    for k in range(prob.num_params):
        rows.append(parameter_pin_row(k, float(params_target[k]),
                                      prob.num_params))
    return tuple(rows)


@dataclass(frozen=True)
class NewtonSettings:
    """Damped Newton iteration controls.

    ``max_iter`` is an integer >= 1; every other entry is a positive
    finite real.  Booleans are rejected, numpy scalars accepted.
    ``fd_step`` is the relative forward-difference step of
    ``assemble_jacobian``, applied to query outputs and to mu.
    """

    tol_residual: float = 1e-10
    tol_step: float = 1e-12
    max_iter: int = 25
    damping_min: float = 1.0 / 64.0
    fd_step: float = float(np.sqrt(np.finfo(float).eps))

    def __post_init__(self):
        if (isinstance(self.max_iter, bool)
                or not isinstance(self.max_iter, numbers.Integral)
                or self.max_iter < 1):
            raise InvalidArgumentError(
                f"max_iter must be an integer >= 1, got {self.max_iter!r}")
        for name in ("tol_residual", "tol_step", "damping_min", "fd_step"):
            value = getattr(self, name)
            try:
                usable = (not isinstance(value, bool)
                          and isinstance(value, numbers.Real)
                          and 0.0 < float(value) < math.inf)
            except OverflowError:  # an integer beyond the double range
                usable = False
            if not usable:
                raise InvalidArgumentError(
                    f"{name} must be a positive finite number, got "
                    f"{value!r}")


def assemble_residual(state: DiscreteState, prob: DdeProblem,
                      cons: Sequence[AffineRow]) -> np.ndarray:
    """Collocation rows (profile derivative minus rescaled rhs) followed
    by the affine constraint values."""
    _require_square(state, cons)
    poly = state.poly
    colloc = make_nodes(NodeKind.GAUSS_LEGENDRE, poly.degree)
    times = poly.mesh.node_times(colloc.nodes).ravel()
    rows = _equation_rows(state, prob, times).ravel()
    cons_vals = [row.value(poly, state.mu) for row in cons]
    return np.concatenate([rows, cons_vals])


def _require_square(state: DiscreteState, cons: Sequence[AffineRow]):
    if len(cons) != state.mu.size:
        raise InvalidArgumentError(
            f"need {state.mu.size} constraint rows to square the system, "
            f"got {len(cons)}")


def _held_answers(poly: PeriodicPiecewisePoly, held):
    """The one evaluator-query rule: query k gets a copy of held[k][0] when
    its times equal held[k][1] bitwise, else ``poly.eval`` (the same bits,
    since evaluation is batch-independent).  Returns (callback, asked)."""
    asked = []

    def answer(k, at):
        asked.append(k)
        if k < len(held) and np.array_equal(at, held[k][1]):
            return held[k][0].copy()
        return poly.eval(at)

    return answer, asked


def _equation_rows(state: DiscreteState, prob: DdeProblem,
                   times: np.ndarray) -> np.ndarray:
    """v'(t) - T G(v_t, p) at 1-d times, shape (times, dim); query 0 at
    exactly ``times`` (lag 0) reuses the values of ``eval_with_deriv``."""
    values, deriv = state.poly.eval_with_deriv(times)
    answer, _ = _held_answers(state.poly, [(values, times)])
    return deriv - RescaledRhs(prob).evaluate(times, state.mu, answer)


def constraint_gradient(row: AffineRow, state: DiscreteState) -> np.ndarray:
    """Exact gradient of an affine row with respect to the flat vector."""
    poly = state.poly
    dim = poly.dim
    n_free = poly.free_values.size
    grad = np.zeros(n_free + state.mu.size)
    for time, comp, coeff in row.point_terms:
        _, free, basis = poly.eval_with_basis(np.array([float(time)]))
        # add.at sums both terms when nodes 0 and m share a column (L = 1)
        np.add.at(grad, free[0] * dim + comp, coeff * basis[0])
    grad[n_free:] = row.mu_coeffs
    return grad


def assemble_jacobian(state: DiscreteState, prob: DdeProblem,
                      cons: Sequence[AffineRow],
                      settings: NewtonSettings = NewtonSettings(),
                      ) -> np.ndarray:
    """Jacobian of ``assemble_residual`` with respect to the flat vector.

    Collocation row (t, s) is v'_s(t) - T G_s(q_0, ..., q_K-1, p), where
    q_k = v(t + theta_k/T) answers the rhs's k-th evaluator query; the
    chain rule through those answers gives every free-value column:

    - v'(t) is exact: the reference Lagrange row of the collocation node
      times ``diff_matrix``, over the interval length (rows built at the
      global times would move entries in the last bits).
    - dG/dq_k is one forward difference on q_k's output per component,
      for all collocation points in one rhs call (G is pointwise in the
      base time), scattered through the query's ``eval_with_basis`` rows.
      A lag computed from q_k moves a later query, which is evaluated
      afresh, so it contributes its y'(t - d) dd/dq_k term.
    - Each mu = (T, p) column is a forward difference of one rhs call,
      against the profile derivative computed once.

    In every rhs call, a query other than the bumped one gets its recorded
    answer while its times have not moved.  The constraint rows are exact.

    ``settings.fd_step`` is the relative step for query outputs and mu.
    Raises InvalidArgumentError when moving a query's output changes the
    number of evaluator queries (the rhs must be deterministic); a step
    in mu may change it.
    """
    _require_square(state, cons)
    poly = state.poly
    mesh = poly.mesh
    L, m, dim = mesh.num_intervals, poly.degree, poly.dim
    n_free = poly.free_values.size
    n = n_free + state.mu.size
    colloc = make_nodes(NodeKind.GAUSS_LEGENDRE, m)
    times = mesh.node_times(colloc.nodes).ravel()
    rows = np.arange(times.size * dim).reshape(times.size, dim)
    jac = np.zeros((n, n))

    basis = interpolation_matrix(poly.node_family, colloc.nodes)
    deriv = np.sum(basis[:, None, :] * poly.node_family.diff_matrix.T, axis=2)
    block = deriv / mesh.lengths[:, None, None]
    # a break belongs to the interval it starts: one row of columns each
    cols = poly.eval_with_basis(mesh.breaks[:-1])[1][:, None, :] * dim
    for s in range(dim):
        np.add.at(jac, (rows[:, s].reshape(L, m, 1), cols + s), block)

    rhs = RescaledRhs(prob)
    answers = []

    def record(k, at):
        value, free, lagrange = poly.eval_with_basis(at)
        answers.append((value, at, free, lagrange))
        return value.copy()

    base = rhs.evaluate(times, state.mu, record)
    for k, (value, at, free, lagrange) in enumerate(answers):
        for s in range(dim):
            bumped = value.copy()
            bumped[:, s] += settings.fd_step * np.maximum(1.0,
                                                          np.abs(value[:, s]))
            step = bumped[:, s] - value[:, s]  # as rounded into bumped
            # query k's times follow from earlier queries and mu alone
            answer, asked = _held_answers(
                poly, answers[:k] + [(bumped, at)] + answers[k + 1:])
            out = rhs.evaluate(times, state.mu, answer)
            if len(asked) != len(answers):
                raise InvalidArgumentError(
                    f"the rhs of {prob.name!r} made a different number of "
                    f"evaluator queries when query {k} moved; it must be "
                    f"deterministic")
            slope = (out - base) / step[:, None]
            np.add.at(jac, (rows[:, :, None], free[:, None, :] * dim + s),
                      -slope[:, :, None] * lagrange[:, None, :])

    # (T, p) columns: lag 0 and lags the moved entry of mu misses keep theirs
    deriv = poly.eval_deriv(times)
    r0 = (deriv - base).ravel()
    for j in range(state.mu.size):
        mu = state.mu.copy()
        h = settings.fd_step * max(1.0, abs(mu[j]))
        mu[j] += h
        answer, _ = _held_answers(poly, answers)
        r = (deriv - rhs.evaluate(times, mu, answer)).ravel()
        jac[:r0.size, n_free + j] = (r - r0) / h
    for k, row in enumerate(cons):
        jac[r0.size + k, :] = constraint_gradient(row, state)
    return jac


@dataclass(frozen=True)
class NewtonResult:
    state: DiscreteState
    iterations: int
    residual_history: np.ndarray = field(repr=False)


def newton_solve(init: DiscreteState, prob: DdeProblem,
                 cons: Sequence[AffineRow],
                 settings: NewtonSettings = NewtonSettings(),
                 ) -> NewtonResult:
    """Damped Newton iteration on the discretized periodic BVP.

    Stops when the residual max-norm drops to ``tol_residual``.  Raises
    when the iteration budget runs out, the step stagnates below
    ``tol_step`` without meeting the tolerance, the LU factorization
    meets a pivot below 1e-14 of the matrix scale, or the residual
    leaves the finite (or positive-period) region at the damping floor.
    """
    mesh = init.poly.mesh
    degree = init.poly.degree
    dim = init.poly.dim
    num_params = init.mu.size - 1
    x = init.flatten()
    if not np.all(np.isfinite(x)):
        raise InvalidArgumentError("initial state must be finite")
    state = init
    residual = assemble_residual(state, prob, cons)
    if not np.all(np.isfinite(residual)):
        raise NonFiniteResidualError("residual not finite at the initial state")
    res_norm = float(np.max(np.abs(residual)))
    history = [res_norm]

    for iteration in range(settings.max_iter):
        if res_norm <= settings.tol_residual:
            return NewtonResult(state, iteration, np.array(history))
        jac = assemble_jacobian(state, prob, cons, settings)
        scale = float(np.max(np.abs(jac)))
        with warnings.catch_warnings():
            # the explicit pivot check below turns singularity into a
            # typed error; scipy's advisory warning would be redundant
            warnings.simplefilter("ignore", LinAlgWarning)
            lu, piv = lu_factor(jac)
        if float(np.min(np.abs(np.diag(lu)))) < 1e-14 * scale:
            raise SingularJacobianError(
                f"LU pivot below 1e-14 of the matrix scale {scale:.3e} at "
                f"iteration {iteration}")
        step = lu_solve((lu, piv), -residual)

        damping = 1.0
        period_idx = x.size - state.mu.size
        while True:
            x_trial = x + damping * step
            trial_ok = (np.all(np.isfinite(x_trial))
                        and x_trial[period_idx] > 0.0)
            if trial_ok:
                trial_state = DiscreteState.from_flat(
                    x_trial, mesh, degree, dim, num_params)
                trial_residual = assemble_residual(trial_state, prob, cons)
                finite = bool(np.all(np.isfinite(trial_residual)))
            else:
                finite = False
            if finite:
                trial_norm = float(np.max(np.abs(trial_residual)))
                if trial_norm < res_norm or damping <= settings.damping_min:
                    break
            elif damping <= settings.damping_min:
                raise NonFiniteResidualError(
                    "residual left the finite region even at the damping "
                    f"floor (iteration {iteration})")
            damping *= 0.5

        step_norm = float(np.max(np.abs(damping * step)))
        x, state, residual = x_trial, trial_state, trial_residual
        res_norm = trial_norm
        history.append(res_norm)
        if res_norm <= settings.tol_residual:
            return NewtonResult(state, iteration + 1, np.array(history))
        if step_norm <= settings.tol_step * max(1.0, float(np.max(np.abs(x)))):
            raise MaxIterExceededError(
                f"Newton stalled: step {step_norm:.3e} below tol_step with "
                f"residual {res_norm:.3e}",
                residual_history=np.array(history))

    raise MaxIterExceededError(
        f"no convergence in {settings.max_iter} iterations "
        f"(residual {res_norm:.3e})",
        residual_history=np.array(history))
