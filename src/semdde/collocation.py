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
at the collocation points, with the profile derivative, from one read
of ``_collocation_basis``, and at a constraint's point time from its
kept row (``_point``).  ``piecewise`` makes and keeps both per
discretization, as it keeps the differentiation block that each
Jacobian starts from a copy of (``_jacobian_start``).  One rule answers
every query: query k reuses the value held for query k when its times
have not moved.  A constraint's value and exact gradient read one row.

The Newton iteration damps by halving on residual increase, down to a
floor; a trial is admissible when ``DiscreteState`` accepts it (finite,
with period > 0) and its residual is finite.  Each step is solved with
numpy's dense LU with partial pivoting, and each accepted iteration is
logged at debug level under ``semdde.collocation``.  numpy exposes no
LU pivots, so a step that looks singular has them checked by a short
elimination in numpy (``lu_factor``); numpy is the package's only
linear algebra.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import (
    InvalidArgumentError,
    MaxIterExceededError,
    NewtonError,
    NonFiniteResidualError,
    SingularJacobianError,
    _checked_fields,
    _checked_int,
    _checked_real,
    _checked_reals,
)
from .piecewise import (
    COLLOCATION,
    FORMAT_VERSION,
    Mesh,
    PeriodicPiecewisePoly,
    check_document_keys,
    check_format_version,
    poly_from_document,
    poly_to_document,
    sample_periodic,
)
from .problems import DdeProblem, RescaledRhs

log = logging.getLogger("semdde.collocation")


class DiscreteState:
    """A candidate solution: periodic profile plus mu = (period, params).

    ``flatten`` packs the profile's free values (nodes 0..m-1 of each
    interval) and mu into one vector; ``from_flat`` inverts it bitwise.
    """

    def __init__(self, poly: PeriodicPiecewisePoly, mu):
        mu = _checked_reals(mu, "mu")
        if mu.ndim != 1 or mu.size < 1:
            raise InvalidArgumentError("mu must pack (period, parameters)")
        _checked_real(mu[0], "period", 0.0, strict=True)
        self.poly = poly
        self.mu = mu

    @property
    def period(self) -> float:
        return float(self.mu[0])

    @property
    def params(self) -> np.ndarray:
        return self.mu[1:]

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


def _admissible(state: DiscreteState, flat) -> Optional[DiscreteState]:
    """``flat`` as a state in ``state``'s layout, or None where the
    ``DiscreteState`` and ``PeriodicPiecewisePoly`` constructors reject
    it (a non-finite entry or a period <= 0)."""
    poly = state.poly
    try:
        return DiscreteState.from_flat(flat, poly.mesh, poly.degree, poly.dim,
                                       state.params.size)
    except InvalidArgumentError:
        return None


def resample_state(state: DiscreteState, mesh: Mesh,
                   degree: int) -> DiscreteState:
    """Re-express a state on another mesh and degree, keeping mu.

    The profile is re-sampled at the new representation nodes; this is
    the warm-start path between discretizations.
    """
    poly = sample_periodic(state.poly.eval, mesh, degree)
    return DiscreteState(poly, state.mu)


def _parameter_index(index, num_params: int) -> int:
    """``index`` checked to be an integer in 0..num_params-1."""
    index = _checked_int(index, "parameter index")
    if not 0 <= index < num_params:
        raise InvalidArgumentError(
            f"parameter index {index} outside 0..{num_params - 1}")
    return index


def with_parameter(state: DiscreteState, index: int,
                   value: float) -> DiscreteState:
    """Copy a state with one problem parameter replaced."""
    mu = state.mu.copy()
    mu[1 + _parameter_index(index, state.params.size)] = _checked_real(
        value, "value")
    return DiscreteState(state.poly, mu)


def state_to_document(state: DiscreteState) -> dict:
    """JSON-ready description of a state; round-trips bitwise."""
    return {
        "format_version": FORMAT_VERSION,
        "mu": state.mu.tolist(),
        "profile": poly_to_document(state.poly),
    }


def state_from_document(doc: dict) -> DiscreteState:
    check_document_keys(doc, ("format_version", "mu", "profile"),
                        "state document")
    check_format_version(doc["format_version"], "state document")
    return DiscreteState(poly_from_document(doc["profile"]), doc["mu"])


@dataclass(frozen=True)
class AffineRow:
    """One affine functional: sum of point values of the profile plus a
    linear term in mu plus an offset.

    ``point_terms`` is a tuple of (time, component, coefficient); each
    component is an integer >= 0, and below the dim of every state the
    row is applied to, whose mu has one entry per entry of ``mu_coeffs``.
    """

    point_terms: Tuple[Tuple[float, int, float], ...]
    mu_coeffs: np.ndarray
    offset: float

    def __post_init__(self):
        object.__setattr__(self, "mu_coeffs",
                           _checked_reals(self.mu_coeffs, "mu_coeffs"))
        object.__setattr__(self, "point_terms", tuple(
            (_checked_real(time, "time"), _checked_int(comp, "component", 0),
             _checked_real(coeff, "coefficient"))
            for time, comp, coeff in self.point_terms))
        _checked_fields(self, ("offset",))

    def _terms_within(self, dim: int, mu_size: int):
        """The point terms, checked against a state's dim and mu size."""
        if self.mu_coeffs.shape != (mu_size,):
            raise InvalidArgumentError(f"mu_coeffs must have {mu_size} "
                                       f"entries, got {self.mu_coeffs.shape}")
        for _, comp, _ in self.point_terms:
            if comp >= dim:
                raise InvalidArgumentError(
                    f"component must be < dim = {dim}, got {comp}")
        return self.point_terms

    def value(self, poly: PeriodicPiecewisePoly, mu: np.ndarray) -> float:
        """Each point term contracts its time's kept Lagrange row with
        the free values (``PeriodicPiecewisePoly._point``): exactly the
        affine function whose gradient ``constraint_gradient`` scatters."""
        terms = self._terms_within(poly.dim, mu.size)
        total = float(self.mu_coeffs @ mu) + self.offset
        free = poly.free_values.reshape(-1, poly.dim)
        for time, comp, coeff in terms:
            cols, row = poly._point(time)
            # with optimize off, einsum runs its own loop, not BLAS
            total += coeff * float(np.einsum("n,n->", row, free[cols, comp]))
        return total


def phase_anchor_row(anchor_value: float, num_params: int) -> AffineRow:
    """The row y_0(0) - anchor_value = 0."""
    num_params = _checked_int(num_params, "num_params", 0)
    return AffineRow(point_terms=((0.0, 0, 1.0),),
                     mu_coeffs=np.zeros(1 + num_params),
                     offset=-_checked_real(anchor_value, "anchor_value"))


def parameter_pin_row(param_index: int, target: float,
                      num_params: int) -> AffineRow:
    """The row p[param_index] - target = 0."""
    num_params = _checked_int(num_params, "num_params", 0)
    coeffs = np.zeros(1 + num_params)
    coeffs[1 + _parameter_index(param_index, num_params)] = 1.0
    return AffineRow(point_terms=(), mu_coeffs=coeffs,
                     offset=-_checked_real(target, "target"))


def default_constraints(prob: DdeProblem, params_target,
                        anchor_value: Optional[float] = None,
                        ) -> Tuple[AffineRow, ...]:
    """Phase anchor at t=0 plus one pin row per free parameter.

    The anchor value defaults to the problem's declared equilibrium;
    problems without one must pass it explicitly (taken from the initial
    guess's value at t=0 by the callers that do so).
    """
    targets = np.atleast_1d(_checked_reals(params_target, "params_target"))
    if targets.size != prob.num_params:
        raise InvalidArgumentError(
            f"expected {prob.num_params} target parameters, got "
            f"{targets.size}")
    if anchor_value is None:
        if prob.equilibrium is None:
            raise InvalidArgumentError(
                f"problem {prob.name!r} declares no equilibrium; pass an "
                f"explicit phase anchor value")
        anchor_value = prob.equilibrium[0]
    rows = [phase_anchor_row(anchor_value, prob.num_params)]
    for k in range(prob.num_params):
        rows.append(parameter_pin_row(k, targets[k], prob.num_params))
    return tuple(rows)


@dataclass(frozen=True)
class NewtonSettings:
    """Damped Newton iteration controls.

    ``max_iter`` is an integer >= 1; every other entry is a positive
    finite real, kept as a Python float (``errors._checked_real``).
    ``fd_step`` is the relative forward-difference step of
    ``assemble_jacobian``, applied to query outputs and to mu.
    """

    tol_residual: float = 1e-10
    tol_step: float = 1e-12
    max_iter: int = 25
    damping_min: float = 1.0 / 64.0
    fd_step: float = float(np.sqrt(np.finfo(float).eps))

    def __post_init__(self):
        object.__setattr__(self, "max_iter",
                           _checked_int(self.max_iter, "max_iter", 1))
        _checked_fields(self, ("tol_residual", "tol_step", "damping_min",
                               "fd_step"), 0.0, strict=True)


def assemble_residual(state: DiscreteState, prob: DdeProblem,
                      cons: Sequence[AffineRow]) -> np.ndarray:
    """Collocation rows (profile derivative minus rescaled rhs) followed
    by the affine constraint values."""
    _require_square(state, cons)
    poly = state.poly
    rows = _equation_rows(state, prob, COLLOCATION)[0].ravel()
    cons_vals = [row.value(poly, state.mu) for row in cons]
    return np.concatenate([rows, cons_vals])


def _require_square(state: DiscreteState, cons: Sequence[AffineRow]):
    if len(cons) != state.mu.size:
        raise InvalidArgumentError(
            f"need {state.mu.size} constraint rows to square the system, "
            f"got {len(cons)}")


def _held_answers(poly: PeriodicPiecewisePoly, held):
    """The one evaluator-query rule: query k gets a copy of held[k][0] when
    its times equal held[k][1] bitwise, else ``poly.eval``.  Held values
    read by ``eval_with_basis`` or the terms path of ``_on`` are
    ``eval``'s bits, since evaluation is batch-independent; those of a
    grid that tiles the mesh agree with them to roundoff.  Returns
    (callback, asked)."""
    asked = []

    def answer(k, at):
        asked.append(k)
        if k < len(held) and np.array_equal(at, held[k][1]):
            return held[k][0].copy()
        return poly.eval(at)

    return answer, asked


def _equation_rows(state: DiscreteState, prob: DdeProblem,
                   name) -> Tuple[np.ndarray, np.ndarray]:
    """v'(t) - T G(v_t, p) at the times t of the fixed time set ``name``,
    shape (times, dim), and v(t), the values of ``_on(name)``; query 0
    at exactly those times (lag 0) reuses the values that
    ``_on(name, deriv=True)`` reads with the derivative."""
    times, values, deriv = state.poly._on(name, deriv=True)
    answer, _ = _held_answers(state.poly, [(values, times)])
    rows = deriv - RescaledRhs(prob).evaluate(times, state.mu, answer)
    return rows, values


def constraint_gradient(row: AffineRow, state: DiscreteState) -> np.ndarray:
    """Exact gradient of an affine row with respect to the flat vector."""
    poly = state.poly
    dim = poly.dim
    n_free = poly.free_values.size
    grad = np.zeros(n_free + state.mu.size)
    for time, comp, coeff in row._terms_within(dim, state.mu.size):
        cols, basis = poly._point(time)
        # add.at sums both terms when nodes 0 and m share a column (L = 1)
        np.add.at(grad, cols * dim + comp, coeff * basis)
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
      global times would move entries in the last bits), the block that
      ``piecewise`` makes and keeps per discretization.
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
    dim = poly.dim
    n_free = poly.free_values.size
    n = n_free + state.mu.size
    times, *lag0, deriv = poly._collocation_basis()
    rows = np.arange(times.size * dim).reshape(times.size, dim)

    jac = poly._jacobian_start(n)

    rhs = RescaledRhs(prob)
    answers = []

    def record(k, at):
        # lag 0 reads the collocation points' basis
        value, free, lagrange = lag0 if np.array_equal(at, times) \
            else poly.eval_with_basis(at)
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


#: a Newton step has its LU pivots checked when max|step| times the
#: Jacobian's scale exceeds this multiple of max|residual|; healthy
#: steps of the shipped problems stay below 1e5
_SUSPICIOUS_AMPLIFICATION = 1e8


# The step's linear algebra sits behind the module names lu_solve and
# lu_factor: perfbench/spans.py times both as the collocation.lu span.
def lu_solve(jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``jac``'s solution at ``rhs`` by numpy's LAPACK ``gesv`` (LU with
    partial pivoting); raises ``numpy.linalg.LinAlgError`` on an exactly
    zero pivot."""
    return np.linalg.solve(jac, rhs)


def lu_factor(jac: np.ndarray) -> np.ndarray:
    """The pivots, U's diagonal, of ``jac``'s LU with partial pivoting
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002, ch. 9)
    by rank-1 updates.  Each column pivots on its first largest entry, as
    LAPACK's ``idamax`` picks it; a zero column is left uneliminated."""
    a = np.array(jac, dtype=float)
    for k in range(a.shape[0] - 1):
        p = k + int(np.argmax(np.abs(a[k:, k])))
        a[[k, p], k:] = a[[p, k], k:]
        if a[k, k] != 0.0:
            a[k + 1:, k + 1:] -= np.outer(a[k + 1:, k] / a[k, k],
                                          a[k, k + 1:])
    return a.diagonal().copy()


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

    Stops when the residual max-norm drops to ``tol_residual``.  Each
    step is halved from damping 1 until a trial is admissible and lowers
    the residual, or the damping reaches ``damping_min``.  A trial is
    admissible when ``DiscreteState`` accepts it (finite, with period
    > 0) and its residual is finite.  Raises when the iteration budget
    runs out, the step stagnates below ``tol_step`` without meeting the
    tolerance, the Jacobian fails the pivot rule, or the trial at the
    damping floor is not admissible.  Every NewtonError it passes on, a
    problem's own included, carries the residual max-norms recorded
    before it as ``residual_history``.

    Each step is solved once, by numpy (``lu_solve``).  A Jacobian that
    is not finite raises NonFiniteResidualError before the solve.  The
    pivot rule raises SingularJacobianError when that solve meets an
    exactly zero pivot, or when the step is suspicious and a pivot of
    ``lu_factor`` lies below 1e-14 of the Jacobian's scale (its largest
    entry).  A step is suspicious when it is not finite, or when
    max|step| times the scale exceeds ``_SUSPICIOUS_AMPLIFICATION``
    times max|residual|; a suspicious step that passes the rule is kept.
    A near-singular Jacobian whose residual lies almost in its range
    amplifies too little to be checked, and its step is taken.
    """
    history = []
    try:
        state = init
        residual = assemble_residual(state, prob, cons)
        res_norm = float(np.max(np.abs(residual)))
        if not math.isfinite(res_norm):
            raise NonFiniteResidualError(
                "residual not finite at the initial state")
        history.append(res_norm)

        for iteration in itertools.count():
            if res_norm <= settings.tol_residual:
                return NewtonResult(state, iteration, np.array(history))
            if iteration == settings.max_iter:
                raise MaxIterExceededError(
                    f"no convergence in {settings.max_iter} iterations "
                    f"(residual {res_norm:.3e})")
            x = state.flatten()
            jac = assemble_jacobian(state, prob, cons, settings)
            scale = float(np.max(np.abs(jac)))
            if not math.isfinite(scale):
                raise NonFiniteResidualError(
                    f"Jacobian not finite at iteration {iteration}")
            pivot = math.inf  # the smallest LU pivot, found only when needed
            try:
                step = lu_solve(jac, -residual)
            except np.linalg.LinAlgError:  # an exactly zero pivot: no step
                pivot = 0.0
            else:
                amplification = float(np.max(np.abs(step))) * scale / res_norm
                # a non-finite step gives inf or nan, which fail the test
                if not amplification <= _SUSPICIOUS_AMPLIFICATION:
                    pivot = float(np.min(np.abs(lu_factor(jac))))
            if pivot < 1e-14 * scale:
                raise SingularJacobianError(
                    f"LU pivot below 1e-14 of the matrix scale {scale:.3e} "
                    f"at iteration {iteration}")

            for halvings in itertools.count():
                damping = 0.5 ** halvings
                x_trial = x + damping * step
                trial_state = _admissible(state, x_trial)
                trial_norm = math.nan  # an inadmissible trial has no norm
                if trial_state is not None:
                    trial_residual = assemble_residual(trial_state, prob, cons)
                    trial_norm = float(np.max(np.abs(trial_residual)))
                last = damping <= settings.damping_min  # the damping floor
                if math.isfinite(trial_norm) and (trial_norm < res_norm
                                                  or last):
                    break
                if last:
                    raise NonFiniteResidualError(
                        ("residual left the finite region even at the "
                         "damping floor" if trial_state is not None else
                         "no admissible trial (finite, period > 0) was "
                         "found down to the damping floor")
                        + f" (iteration {iteration})")

            step_norm = float(np.max(np.abs(damping * step)))
            state, residual, res_norm = trial_state, trial_residual, trial_norm
            history.append(res_norm)
            log.debug("newton iteration %d: residual %.3e, step %.3e, "
                      "damping %.3g after %d halvings", iteration + 1,
                      res_norm, step_norm, damping, halvings)
            if res_norm > settings.tol_residual and step_norm <= max(
                    1.0, float(np.max(np.abs(x_trial)))) * settings.tol_step:
                raise MaxIterExceededError(
                    f"Newton stalled: step {step_norm:.3e} below tol_step "
                    f"with residual {res_norm:.3e}")
    except NewtonError as exc:
        exc.residual_history = np.array(history)
        raise
