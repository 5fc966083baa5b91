"""Tests for the discretized BVP assembly and the damped Newton solver.

The Mackey-Glass equilibrium and its Hopf data give closed-form expected
values: the linearization slope a + b h'(1) = -5 and the Hopf frequency
sqrt(15) follow from hand differentiation of the rhs.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from semdde.collocation import (
    AffineRow,
    DiscreteState,
    NewtonSettings,
    assemble_jacobian,
    assemble_residual,
    constraint_gradient,
    default_constraints,
    newton_solve,
    resample_state,
    state_from_document,
)
from semdde.continuation import sd_quadratic_seed
from semdde.errors import (
    InvalidArgumentError,
    MaxIterExceededError,
    SingularJacobianError,
)
from semdde.piecewise import (
    Mesh,
    PeriodicPiecewisePoly,
    _PiecewiseBase,
    sample_periodic,
)
from semdde.problems import (
    DdeProblem,
    mackey_glass,
    sd_quadratic,
    state_eval_example,
)

TAU_HOPF = np.arccos(-0.25) / np.sqrt(15.0)
PERIOD_HOPF = 2.0 * np.pi / np.sqrt(15.0)


MG_BRANCH_END = (Path(__file__).resolve().parents[1] / "perfbench" / "data"
                 / "mg_branch_end.json")


def _fd_jacobian(state, prob, cons, settings=NewtonSettings()):
    """Reference Jacobian: one forward difference on the full residual
    per column, with the exact constraint rows."""
    poly = state.poly
    x0 = state.flatten()
    r0 = assemble_residual(state, prob, cons)
    n = x0.size
    jac = np.empty((n, n))
    for j in range(n):
        h = settings.fd_step * max(1.0, abs(x0[j]))
        xj = x0.copy()
        xj[j] += h
        state_j = DiscreteState.from_flat(xj, poly.mesh, poly.degree,
                                          poly.dim, state.mu.size - 1)
        jac[:, j] = (assemble_residual(state_j, prob, cons) - r0) / h
    n_colloc = n - state.mu.size
    for k, row in enumerate(cons):
        jac[n_colloc + k, :] = constraint_gradient(row, state)
    return jac


def _full_residual_mu_columns(state, prob, cons, settings=NewtonSettings()):
    """Reference (T, p) columns of the Jacobian: one forward difference
    of the full residual per entry of mu, collocation rows only."""
    r0 = assemble_residual(state, prob, cons)
    n_colloc = r0.size - state.mu.size
    cols = []
    for j in range(state.mu.size):
        mu = state.mu.copy()
        h = settings.fd_step * max(1.0, abs(mu[j]))
        mu[j] += h
        r = assemble_residual(DiscreteState(state.poly, mu), prob, cons)
        cols.append((r[:n_colloc] - r0[:n_colloc]) / h)
    return np.stack(cols, axis=1)


def _coupled_pair():
    """Two components, each fed by delayed values of both, one lag
    depending on the state: the cross-component blocks of the Jacobian."""

    def rhs(e, p):
        now = e(0.0)
        lag = e(-p[0])
        moving = e(-(0.5 * p[0] + 0.1 * now[:, 1] ** 2))
        return np.stack([
            -now[:, 0] + 2.0 * lag[:, 1] / (1.0 + lag[:, 0] ** 2),
            -now[:, 1] + np.sin(lag[:, 0]) * moving[:, 0]
            + 0.3 * moving[:, 1],
        ], axis=1)

    return DdeProblem(name="coupled_pair", dim=2, num_params=1, rhs=rhs)


def _mackey_glass_case(L, m):
    doc = json.loads(MG_BRANCH_END.read_text())
    state = resample_state(state_from_document(doc), Mesh.uniform(L), m)
    return mackey_glass(), state


def _sd_quadratic_case(L, m):
    state = resample_state(sd_quadratic_seed(0.95), Mesh.uniform(L), m)
    return sd_quadratic(), state


def _state_eval_case():
    # the profile is the lag, so it stays inside the window [-1, 0]
    poly = sample_periodic(lambda t: -0.5 + 0.3 * np.sin(2 * np.pi * t),
                           Mesh.uniform(6), 5)
    return state_eval_example(), DiscreteState(poly, np.array([1.5]))


def _coupled_case():
    poly = sample_periodic(
        lambda t: np.stack([np.cos(2 * np.pi * t),
                            0.5 + np.sin(2 * np.pi * t)], axis=-1),
        Mesh.uniform(5), 6)
    return _coupled_pair(), DiscreteState(poly, np.array([2.0, 0.7]))


def _repeated_query_case():
    # queries 0 and 1 ask the same times; moving one must leave the other
    # at its recorded value
    def rhs(e, p):
        return -e(0.0) * (1.0 + 0.5 * e(0.0)) + 0.2 * e(-p[0])

    poly = sample_periodic(lambda t: 0.5 + 0.3 * np.sin(2 * np.pi * t),
                           Mesh.uniform(4), 6)
    return (DdeProblem(name="repeated_query", dim=1, num_params=1, rhs=rhs),
            DiscreteState(poly, np.array([1.3, 0.4])))


JACOBIAN_CASES = [
    lambda: _mackey_glass_case(11, 8),
    lambda: _mackey_glass_case(20, 12),
    lambda: _mackey_glass_case(11, 40),
    lambda: _sd_quadratic_case(10, 8),
    lambda: _sd_quadratic_case(20, 12),
    _state_eval_case,
    _coupled_case,
    _repeated_query_case,
]
JACOBIAN_CASE_IDS = ["mackey_glass_11_8", "mackey_glass_20_12",
                     "mackey_glass_11_40", "sd_quadratic_10_8",
                     "sd_quadratic_20_12", "state_eval_example",
                     "coupled_pair", "repeated_query"]


def _equilibrium_state(tau=0.8, period=1.6, num_intervals=3, degree=4):
    mesh = Mesh.uniform(num_intervals)
    poly = sample_periodic(lambda t: np.ones_like(t), mesh, degree)
    return DiscreteState(poly, np.array([period, tau]))


@pytest.fixture(scope="module")
def near_hopf_orbit():
    """Small-amplitude orbit just past the Hopf point, L=11, m=4."""
    prob = mackey_glass()
    tau = TAU_HOPF + 1e-3
    mesh = Mesh.uniform(11)
    guess = sample_periodic(lambda t: 1.0 + 0.01 * np.sin(2 * np.pi * t),
                            mesh, 4)
    init = DiscreteState(guess, np.array([PERIOD_HOPF, tau]))
    cons = default_constraints(prob, [tau])
    result = newton_solve(init, prob, cons)
    return prob, cons, result


class TestDiscreteState:
    def test_flatten_unflatten_is_bitwise_identity(self):
        rng = np.random.default_rng(5)
        mesh = Mesh.uniform(3)
        free = rng.standard_normal((3, 4, 2))
        state = DiscreteState(PeriodicPiecewisePoly(mesh, 4, free),
                              np.array([1.7, 0.4]))
        flat = state.flatten()
        assert flat.size == 3 * 4 * 2 + 2 == state.size
        back = DiscreteState.from_flat(flat, mesh, 4, 2, 1)
        assert np.array_equal(back.poly.values, state.poly.values)
        assert np.array_equal(back.mu, state.mu)
        assert np.array_equal(back.flatten(), flat)

    def test_rejects_nonpositive_period(self):
        poly = sample_periodic(lambda t: np.ones_like(t), Mesh.uniform(1), 2)
        with pytest.raises(InvalidArgumentError):
            DiscreteState(poly, np.array([-1.0, 0.5]))
        with pytest.raises(InvalidArgumentError):
            DiscreteState(poly, np.array([0.0, 0.5]))

    def test_rejects_nonfinite_mu_and_bad_flat_length(self):
        poly = sample_periodic(lambda t: np.ones_like(t), Mesh.uniform(1), 2)
        with pytest.raises(InvalidArgumentError):
            DiscreteState(poly, np.array([1.0, np.nan]))
        with pytest.raises(InvalidArgumentError):
            DiscreteState.from_flat(np.ones(7), Mesh.uniform(2), 2, 1, 1)


class TestResidual:
    def test_system_is_square(self):
        prob = mackey_glass()
        for L, m in ((1, 3), (2, 5), (4, 2)):
            mesh = Mesh.uniform(L)
            poly = sample_periodic(lambda t: np.ones_like(t), mesh, m)
            state = DiscreteState(poly, np.array([1.5, 0.7]))
            r = assemble_residual(state, prob, default_constraints(prob, [0.7]))
            assert r.size == state.size == L * m + 2

    def test_constraint_count_must_match_mu(self):
        state = _equilibrium_state()
        prob = mackey_glass()
        cons = default_constraints(prob, [0.8])
        with pytest.raises(InvalidArgumentError):
            assemble_residual(state, prob, cons[:1])

    def test_equilibrium_residual_vanishes(self):
        state = _equilibrium_state(tau=0.8)
        cons = default_constraints(mackey_glass(), [0.8])
        r = assemble_residual(state, mackey_glass(), cons)
        assert np.abs(r).max() <= 1e-12

    def test_converged_orbit_meets_tolerance(self, near_hopf_orbit):
        prob, cons, result = near_hopf_orbit
        r = assemble_residual(result.state, prob, cons)
        assert np.abs(r).max() <= 1e-10

    def test_perturbation_sensitivity(self, near_hopf_orbit):
        prob, cons, result = near_hopf_orbit
        flat = result.state.flatten().copy()
        flat[3] += 1e-3
        poked = DiscreteState.from_flat(flat, result.state.poly.mesh, 4, 1, 1)
        r = assemble_residual(poked, prob, cons)
        assert np.abs(r).max() >= 1e-5

    def test_time_shift_by_whole_intervals_changes_only_the_phase_row(
            self, near_hopf_orbit):
        # the equation is autonomous, so rolling the profile by whole
        # mesh intervals permutes the collocation rows and only the
        # anchor row moves
        prob, cons, result = near_hopf_orbit
        state = result.state
        rolled_values = np.roll(state.poly.free_values, -3, axis=0)
        rolled = DiscreteState(
            PeriodicPiecewisePoly(state.poly.mesh, 4, rolled_values),
            state.mu)
        r = assemble_residual(rolled, prob, cons)
        n_colloc = r.size - 2
        assert np.abs(r[:n_colloc]).max() <= 1e-10
        assert abs(r[n_colloc]) >= 1e-4      # phase anchor sees the shift
        assert abs(r[n_colloc + 1]) <= 1e-14  # parameter pin unaffected


class TestJacobian:
    def test_constraint_rows_match_finite_differences(self):
        state = _equilibrium_state()
        prob = mackey_glass()
        cons = default_constraints(prob, [0.8])
        x0 = state.flatten()
        h = 1e-8
        for row in cons:
            grad = constraint_gradient(row, state)
            for j in range(x0.size):
                xj = x0.copy()
                xj[j] += h
                state_j = DiscreteState.from_flat(xj, state.poly.mesh, 4, 1, 1)
                fd = (row.value(state_j.poly, state_j.mu)
                      - row.value(state.poly, state.mu)) / h
                assert abs(fd - grad[j]) <= 1e-7

    def test_uniform_shift_direction_reproduces_linearization(self):
        # d/dc [a c + b c/(1+c^10)] at c=1 is a + b h'(1) = -5; the
        # residual rows are derivative-minus-rhs, so the directional
        # derivative along a uniform state shift is +5T per row
        period, tau = 1.6, 0.8
        state = _equilibrium_state(tau=tau, period=period)
        prob = mackey_glass()
        cons = default_constraints(prob, [tau])
        jac = assemble_jacobian(state, prob, cons)
        n_colloc = state.size - 2
        direction = np.zeros(state.size)
        direction[:n_colloc] = 1.0
        moved = jac @ direction
        np.testing.assert_allclose(moved[:n_colloc], 5.0 * period,
                                   rtol=0, atol=1e-4)

    @pytest.mark.parametrize("case", JACOBIAN_CASES, ids=JACOBIAN_CASE_IDS)
    def test_matches_the_finite_difference_oracle(self, case):
        prob, state = case()
        cons = default_constraints(prob, state.params,
                                   anchor_value=state.poly.eval(0.0)[0])
        oracle = _fd_jacobian(state, prob, cons)
        jac = assemble_jacobian(state, prob, cons)
        scale = np.max(np.abs(oracle))
        assert np.max(np.abs(jac - oracle)) <= 1e-6 * scale

    @pytest.mark.parametrize("case", JACOBIAN_CASES, ids=JACOBIAN_CASE_IDS)
    def test_mu_columns_equal_full_residual_differences_bitwise(self, case):
        prob, state = case()
        cons = default_constraints(prob, state.params,
                                   anchor_value=state.poly.eval(0.0)[0])
        jac = assemble_jacobian(state, prob, cons)
        n_colloc = state.size - state.mu.size
        expected = _full_residual_mu_columns(state, prob, cons)
        assert np.array_equal(jac[:n_colloc, n_colloc:], expected)

    def test_mu_columns_survive_a_query_that_only_the_p_step_adds(self):
        # at p = 0.5 the rhs queries once; the p step crosses the
        # threshold, so that column's rhs call asks a lagged query first
        # and the lag-0 query second, beyond the recorded answers
        def rhs(e, p):
            extra = -0.1 * e(-p[0]) if p[0] > 0.5 else 0.0
            return extra - e(0.0)

        prob = DdeProblem(name="threshold", dim=1, num_params=1, rhs=rhs)
        poly = sample_periodic(lambda t: np.sin(2 * np.pi * t),
                               Mesh.uniform(3), 4)
        state = DiscreteState(poly, np.array([1.0, 0.5]))
        cons = default_constraints(prob, [0.5], anchor_value=0.0)
        jac = assemble_jacobian(state, prob, cons)
        n_colloc = state.size - 2
        expected = _full_residual_mu_columns(state, prob, cons)
        assert np.array_equal(jac[:n_colloc, n_colloc:], expected)
        assert np.max(np.abs(expected[:, 1])) > 1e5  # the jump is seen

    @pytest.mark.parametrize("case, calls", [
        (lambda: _mackey_glass_case(11, 8), 2),  # only the lag moves with mu
        (lambda: _sd_quadratic_case(20, 12), 3),  # the lag moves with y(t)
    ], ids=["mackey_glass_11_8", "sd_quadratic_20_12"])
    def test_queries_at_unmoved_times_reuse_their_answers(
            self, case, calls, monkeypatch):
        prob, state = case()
        cons = default_constraints(prob, state.params)
        evals = []
        original = _PiecewiseBase.eval

        def counted(self, t):
            evals.append(np.size(t))
            return original(self, t)

        monkeypatch.setattr(_PiecewiseBase, "eval", counted)
        assemble_jacobian(state, prob, cons)
        assert len(evals) == calls

    def test_constraint_count_must_match_mu(self):
        state = _equilibrium_state()
        prob = mackey_glass()
        cons = default_constraints(prob, [0.8])
        for wrong in (cons[:1], cons + cons[:1]):
            with pytest.raises(InvalidArgumentError, match="square"):
                assemble_jacobian(state, prob, wrong)

    def test_query_count_that_follows_the_state_is_rejected(self):
        # the extra query appears only once the first answer moves up
        def rhs(e, p):
            now = e(0.0)
            if np.any(now > 0.5):
                return -e(-p[0])
            return -now

        prob = DdeProblem(name="fickle", dim=1, num_params=1, rhs=rhs)
        poly = sample_periodic(lambda t: np.full_like(t, 0.5 - 1e-12),
                               Mesh.uniform(2), 3)
        state = DiscreteState(poly, np.array([1.0, 0.5]))
        cons = default_constraints(prob, [0.5], anchor_value=0.5)
        with pytest.raises(InvalidArgumentError, match="deterministic"):
            assemble_jacobian(state, prob, cons)

    def test_doubling_fd_step_changes_entries_at_first_order(self):
        state_poly = sample_periodic(
            lambda t: 1.0 + 0.2 * np.sin(2 * np.pi * t), Mesh.uniform(2), 4)
        state = DiscreteState(state_poly, np.array([1.6, 0.8]))
        prob = mackey_glass()
        cons = default_constraints(prob, [0.8])
        h = float(np.sqrt(np.finfo(float).eps))
        j1 = assemble_jacobian(state, prob, cons, NewtonSettings(fd_step=h))
        j2 = assemble_jacobian(state, prob, cons,
                               NewtonSettings(fd_step=2.0 * h))
        rng = np.random.default_rng(17)
        rows = rng.integers(0, state.size - 2, 10)
        cols = rng.integers(0, state.size, 10)
        diffs = np.abs(j1[rows, cols] - j2[rows, cols])
        assert np.all(diffs <= 1e-4)


class TestAffineRow:
    def test_random_triple_test_confirms_affinity(self):
        rng = np.random.default_rng(23)
        mesh = Mesh.uniform(2)
        row = AffineRow(point_terms=((0.15, 0, 1.3), (0.6, 0, -0.4)),
                        mu_coeffs=np.array([0.7, -1.1]), offset=0.25)

        def value_at(flat):
            st = DiscreteState.from_flat(flat, mesh, 3, 1, 1)
            return row.value(st.poly, st.mu)

        for _ in range(5):
            base = rng.standard_normal(2 * 3 * 1 + 2)
            base[-2] = 1.0 + rng.uniform(0.5, 1.5)  # keep the period positive
            d1 = 0.1 * rng.standard_normal(base.size)
            d2 = 0.1 * rng.standard_normal(base.size)
            lhs = value_at(base + d1 + d2) - value_at(base)
            rhs = ((value_at(base + d1) - value_at(base))
                   + (value_at(base + d2) - value_at(base)))
            assert abs(lhs - rhs) <= 1e-12


class TestNewton:
    def test_settings_validation(self):
        with pytest.raises(InvalidArgumentError):
            NewtonSettings(tol_residual=0.0)
        with pytest.raises(InvalidArgumentError):
            NewtonSettings(max_iter=0)
        with pytest.raises(InvalidArgumentError):
            NewtonSettings(fd_step=-1e-8)

    @pytest.mark.parametrize("change", [
        {"fd_step": True}, {"max_iter": 2.5}, {"max_iter": True},
        {"tol_residual": "1e-8"}, {"damping_min": float("nan")},
        {"tol_step": float("inf")}, {"fd_step": 10**400},
    ], ids=["fd_step_bool", "max_iter_float", "max_iter_bool", "tol_str",
            "damping_min_nan", "tol_step_inf", "fd_step_beyond_double"])
    def test_settings_reject_wrong_types(self, change):
        with pytest.raises(InvalidArgumentError):
            NewtonSettings(**change)

    def test_settings_accept_numpy_scalars(self):
        settings = NewtonSettings(tol_residual=np.float64(1e-9),
                                  max_iter=np.int64(7))
        assert settings.max_iter == 7 and settings.tol_residual == 1e-9

    def test_converged_state_is_a_fixed_point(self, near_hopf_orbit):
        prob, cons, result = near_hopf_orbit
        again = newton_solve(result.state, prob, cons)
        assert again.iterations == 0
        assert np.array_equal(again.state.flatten(), result.state.flatten())

    def test_near_hopf_orbit_properties(self, near_hopf_orbit):
        _, _, result = near_hopf_orbit
        values = result.state.poly.values[:, :, 0]
        amplitude = 0.5 * (values.max() - values.min())
        assert abs(result.state.period - PERIOD_HOPF) <= 5e-3
        assert 1e-3 <= amplitude <= 0.1
        history = result.residual_history
        assert history[-1] <= 1e-10
        # superlinear tail: the final contraction is far stronger than
        # the first one
        assert history[-1] / history[-2] < 0.01 * history[1] / history[0]

    def test_duplicate_constraints_trip_the_pivot_check(self):
        # two identical pin rows make the analytic constraint rows of the
        # Jacobian exactly dependent, so LU produces a zero pivot
        state = _equilibrium_state(tau=0.8)
        prob = mackey_glass()
        pin = default_constraints(prob, [0.8])[1]
        with pytest.raises(SingularJacobianError):
            newton_solve(state, prob, (pin, pin),
                         NewtonSettings(tol_residual=1e-16))

    def test_exhausted_iteration_budget_raises_with_history(self):
        prob = mackey_glass()
        tau = TAU_HOPF + 1e-3
        guess = sample_periodic(lambda t: 1.0 + 0.01 * np.sin(2 * np.pi * t),
                                Mesh.uniform(11), 4)
        init = DiscreteState(guess, np.array([PERIOD_HOPF, tau]))
        with pytest.raises(MaxIterExceededError) as exc:
            newton_solve(init, prob, default_constraints(prob, [tau]),
                         NewtonSettings(max_iter=2))
        assert exc.value.residual_history is not None
        assert len(exc.value.residual_history) == 3


class TestDefaultConstraints:
    def test_problem_without_equilibrium_needs_explicit_anchor(self):
        bare = DdeProblem(name="bare", dim=1, num_params=1,
                          rhs=lambda e, p: -e(0.0))
        with pytest.raises(InvalidArgumentError):
            default_constraints(bare, [0.5])
        rows = default_constraints(bare, [0.5], anchor_value=0.25)
        assert rows[0].offset == -0.25

    def test_target_size_must_match(self):
        with pytest.raises(InvalidArgumentError):
            default_constraints(mackey_glass(), [0.5, 0.6])
