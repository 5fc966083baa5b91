"""Tests for the discretized BVP assembly and the damped Newton solver.

The Mackey-Glass equilibrium and its Hopf data give closed-form expected
values: the linearization slope a + b h'(1) = -5 and the Hopf frequency
sqrt(15) follow from hand differentiation of the rhs.
"""

import dataclasses
import json
import logging
import os
import re
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

import semdde
from semdde import collocation
from semdde.analysis import convergence_study
from semdde.collocation import (
    AffineRow,
    DiscreteState,
    NewtonSettings,
    assemble_jacobian,
    assemble_residual,
    constraint_gradient,
    default_constraints,
    lu_factor,
    newton_solve,
    parameter_pin_row,
    phase_anchor_row,
    resample_state,
    state_from_document,
    state_to_document,
    with_parameter,
)
from semdde.continuation import (
    continue_branch,
    hopf_initial_guess,
    mackey_glass_hopf,
    sd_quadratic_seed,
)
from semdde.errors import (
    InvalidArgumentError,
    MaxIterExceededError,
    NegativeDelayError,
    NonFiniteResidualError,
    SingularJacobianError,
)
from semdde.oracle import phi_m_defect
from semdde import piecewise
from semdde.piecewise import (
    Mesh,
    PeriodicPiecewisePoly,
    _PiecewiseBase,
    sample_periodic,
)
from semdde.problems import DdeProblem, mackey_glass, sd_quadratic

from support import (
    MG_BRANCH_END,
    PERIOD_HOPF,
    TAU_HOPF,
    coupled_case,
    equilibrium_state,
    mackey_glass_case,
    repeated_query_case,
    sd_quadratic_case,
    state_eval_example,
)


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


def _state_eval_case():
    # the profile is the lag, so it stays inside the window [-1, 0]
    poly = sample_periodic(lambda t: -0.5 + 0.3 * np.sin(2 * np.pi * t),
                           Mesh.uniform(6), 5)
    return state_eval_example(), DiscreteState(poly, np.array([1.5]))


JACOBIAN_CASES = [
    lambda: mackey_glass_case(11, 8),
    lambda: mackey_glass_case(20, 12),
    lambda: mackey_glass_case(11, 40),
    lambda: sd_quadratic_case(10, 8),
    lambda: sd_quadratic_case(20, 12),
    _state_eval_case,
    coupled_case,
    repeated_query_case,
]
JACOBIAN_CASE_IDS = ["mackey_glass_11_8", "mackey_glass_20_12",
                     "mackey_glass_11_40", "sd_quadratic_10_8",
                     "sd_quadratic_20_12", "state_eval_example",
                     "coupled_pair", "repeated_query"]


def _blowup_problem():
    """y' = p - y while |y| < 10, infinite beyond; the phase anchor asks
    for v(0) = 1e4 and the period is pinned to 1."""
    def rhs(e, p):
        now = e(0.0)
        return np.where(np.abs(now) < 10.0, p[0] - now, np.inf)

    prob = DdeProblem(name="blowup", dim=1, num_params=1, rhs=rhs)
    pin_period = AffineRow(point_terms=(), mu_coeffs=np.array([1.0, 0.0]),
                           offset=-1.0)
    return prob, (default_constraints(prob, [0.0], anchor_value=1e4)[0],
                  pin_period)


def _near_blowup_state():
    """A constant profile just below 10, where ``_blowup_problem``'s rhs
    turns infinite, with period 1 and p = 0."""
    return DiscreteState(
        sample_periodic(lambda t: np.full_like(t, 10.0 - 1e-9),
                        Mesh.uniform(3), 4), np.array([1.0, 0.0]))


def _duplicate_constraints_case():
    """Mackey-Glass with its parameter pin twice: the analytic constraint
    rows of the Jacobian are exactly dependent, so LU meets a zero
    pivot."""
    prob = mackey_glass()
    pin = default_constraints(prob, [0.8])[1]
    return prob, equilibrium_state(tau=0.8), (pin, pin)


def _near_hopf_guess():
    """Mackey-Glass guess just past the Hopf point, L=11, m=4, with its
    problem and constraints."""
    prob = mackey_glass()
    tau = TAU_HOPF + 1e-3
    mesh = Mesh.uniform(11)
    guess = sample_periodic(lambda t: 1.0 + 0.01 * np.sin(2 * np.pi * t),
                            mesh, 4)
    init = DiscreteState(guess, np.array([PERIOD_HOPF, tau]))
    return prob, init, default_constraints(prob, [tau])


def _nearly_singular_case():
    """Mackey-Glass with the parameter pin and a near copy of it: the copy
    adds 1e-15 v(0) and asks for another target.  The smallest LU pivot
    of the Jacobian is about 5e-18 of its scale, while numpy's solve
    still returns a finite step of about 9e12."""
    prob = mackey_glass()
    poly = sample_periodic(lambda t: 1.0 + 0.1 * np.sin(2 * np.pi * t),
                           Mesh.uniform(3), 4)
    pin = default_constraints(prob, [0.8])[1]
    near = AffineRow(point_terms=((0.0, 0, 1e-15),),
                     mu_coeffs=pin.mu_coeffs, offset=pin.offset - 1e-3)
    return prob, DiscreteState(poly, np.array([1.6, 0.8])), (pin, near)


@pytest.fixture
def lu_factor_calls(monkeypatch):
    """The shapes ``newton_solve`` passes to ``lu_factor``, which still
    factors them."""
    calls = []
    monkeypatch.setattr(collocation, "lu_factor", lambda jac: (
        calls.append(jac.shape) or lu_factor(jac)))
    return calls


@pytest.fixture(scope="module")
def near_hopf_orbit():
    """Small-amplitude orbit just past the Hopf point, L=11, m=4."""
    prob, init, cons = _near_hopf_guess()
    return prob, cons, newton_solve(init, prob, cons)


class TestDiscreteState:
    def test_flatten_unflatten_is_bitwise_identity(self):
        rng = np.random.default_rng(5)
        mesh = Mesh.uniform(3)
        free = rng.standard_normal((3, 4, 2))
        state = DiscreteState(PeriodicPiecewisePoly(mesh, 4, free),
                              np.array([1.7, 0.4]))
        flat = state.flatten()
        assert flat.size == 3 * 4 * 2 + 2
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

    @pytest.mark.parametrize("mu", [[], [[1.7, 0.4]]],
                             ids=["empty", "two_dimensional"])
    def test_rejects_mu_that_is_not_a_flat_vector(self, mu):
        poly = sample_periodic(lambda t: np.ones_like(t), Mesh.uniform(1), 2)
        with pytest.raises(InvalidArgumentError,
                           match=r"^mu must pack \(period, parameters\)$"):
            DiscreteState(poly, mu)

    @pytest.mark.parametrize("index", [-1, 1])
    def test_with_parameter_rejects_an_index_out_of_range(self, index):
        state = equilibrium_state()
        with pytest.raises(InvalidArgumentError,
                           match=rf"^parameter index {index} outside 0\.\.0$"):
            with_parameter(state, index, 0.5)

    @pytest.mark.parametrize("index", [True, 0.0, np.float64(0.0)],
                             ids=["bool", "float", "numpy_float"])
    def test_with_parameter_takes_an_integer_index(self, index):
        # True would name p[0]
        state = equilibrium_state()
        with pytest.raises(InvalidArgumentError,
                           match="^parameter index must be an integer, got "):
            with_parameter(state, index, 0.5)
        assert with_parameter(state, np.int64(0), 0.5).params.tolist() == [0.5]

    def test_a_numpy_integer_degree_round_trips_through_json(self):
        # json.dumps refuses a numpy integer, so the degree must be an int
        state = state_from_document(json.loads(MG_BRANCH_END.read_text()))
        state = resample_state(state, state.poly.mesh, np.int64(6))
        again = state_from_document(
            json.loads(json.dumps(state_to_document(state))))
        assert type(again.poly.degree) is int and again.poly.degree == 6
        assert again.flatten().tobytes() == state.flatten().tobytes()

    def test_a_float_degree_raises_at_construction(self):
        # 4.0 would build a state whose document state_from_document refuses
        with pytest.raises(InvalidArgumentError,
                           match=r"^degree must be an integer, got 4\.0$"):
            resample_state(equilibrium_state(), Mesh.uniform(3), 4.0)

    @pytest.mark.parametrize("change, got", [
        (lambda doc: dict(doc, note="hi"),
         "['format_version', 'mu', 'note', 'profile']"),
        (lambda doc: {k: v for k, v in doc.items() if k != "mu"},
         "['format_version', 'profile']"),
        (lambda doc: list(doc), "list"),
    ], ids=["extra_key", "missing_key", "not_an_object"])
    def test_document_needs_exactly_its_keys(self, change, got):
        doc = change(state_to_document(equilibrium_state()))
        with pytest.raises(InvalidArgumentError) as info:
            state_from_document(doc)
        assert str(info.value) == (
            "state document needs keys ['format_version', 'mu', 'profile'], "
            f"got {got}")


class TestResampleOntoItsOwnDiscretization:
    """The CLI resamples every guess onto the configured mesh and degree,
    each defaulting to the guess's own; a guess already on them comes
    back bitwise, because each free value is read at its own node."""

    @pytest.mark.parametrize("guess", [
        lambda: hopf_initial_guess(mackey_glass_hopf(), 0.01,
                                   Mesh.uniform(11), 8),
        lambda: DiscreteState(sample_periodic(
            lambda t: np.tile([1.2, -0.4], (t.size, 1)), Mesh.uniform(5), 6),
            np.array([2.0, 0.9])),
        lambda: sd_quadratic_seed(0.95),
        lambda: state_from_document(json.loads(MG_BRANCH_END.read_text())),
    ], ids=["hopf", "constant", "seed", "converged"])
    def test_gives_the_state_back_bitwise(self, guess):
        state = guess()
        again = resample_state(state, state.poly.mesh, state.poly.degree)
        assert again.flatten().tobytes() == state.flatten().tobytes()
        assert again.mu.tobytes() == state.mu.tobytes()
        assert again.poly.mesh == state.poly.mesh


class TestResidual:
    def test_system_is_square(self):
        prob = mackey_glass()
        for L, m in ((1, 3), (2, 5), (4, 2)):
            mesh = Mesh.uniform(L)
            poly = sample_periodic(lambda t: np.ones_like(t), mesh, m)
            state = DiscreteState(poly, np.array([1.5, 0.7]))
            r = assemble_residual(state, prob, default_constraints(prob, [0.7]))
            assert r.size == state.flatten().size == L * m + 2

    def test_constraint_count_must_match_mu(self):
        state = equilibrium_state()
        prob = mackey_glass()
        cons = default_constraints(prob, [0.8])
        with pytest.raises(InvalidArgumentError):
            assemble_residual(state, prob, cons[:1])

    def test_equilibrium_residual_vanishes(self):
        state = equilibrium_state(tau=0.8)
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
        state = equilibrium_state()
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
        state = equilibrium_state(tau=tau, period=period)
        prob = mackey_glass()
        cons = default_constraints(prob, [tau])
        jac = assemble_jacobian(state, prob, cons)
        n_colloc = state.flatten().size - 2
        direction = np.zeros(state.flatten().size)
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
        n_colloc = state.flatten().size - state.mu.size
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
        n_colloc = state.flatten().size - 2
        expected = _full_residual_mu_columns(state, prob, cons)
        assert np.array_equal(jac[:n_colloc, n_colloc:], expected)
        assert np.max(np.abs(expected[:, 1])) > 1e5  # the jump is seen

    @pytest.mark.parametrize("case, calls", [
        (lambda: mackey_glass_case(11, 8), 2),  # only the lag moves with mu
        (lambda: sd_quadratic_case(20, 12), 3),  # the lag moves with y(t)
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

    def test_kept_sets_leave_eval_only_the_lagged_query(self, monkeypatch):
        monkeypatch.setattr(piecewise, "_STORE", piecewise._Store())
        prob, state = mackey_glass_case(11, 8)
        cons = default_constraints(prob, state.params)
        for _ in range(2):  # the discretization's sets recorded, then kept
            assemble_residual(state, prob, cons)
            assemble_jacobian(state, prob, cons)
        calls = []
        for cls, name in ((_PiecewiseBase, "eval"),
                          (PeriodicPiecewisePoly, "eval_with_basis")):
            def counted(self, t, original=getattr(cls, name), name=name):
                calls.append((name, np.size(t)))
                return original(self, t)

            monkeypatch.setattr(cls, name, counted)
        assemble_residual(state, prob, cons)
        # the phase anchor reads its kept row, the lag 0 query the kept set
        assert calls == [("eval", 88)]
        calls.clear()
        assemble_jacobian(state, prob, cons)
        # the lagged query's rows; no constraint row asks for one
        assert [call for call in calls if call[0] == "eval_with_basis"] \
            == [("eval_with_basis", 88)]

    def test_constraint_count_must_match_mu(self):
        state = equilibrium_state()
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
        rows = rng.integers(0, state.flatten().size - 2, 10)
        cols = rng.integers(0, state.flatten().size, 10)
        diffs = np.abs(j1[rows, cols] - j2[rows, cols])
        assert np.all(diffs <= 1e-4)


def _parent_value(row, poly, mu):
    """An affine row's value with each point term from ``eval``."""
    total = float(row.mu_coeffs @ mu) + row.offset
    for time, comp, coeff in row.point_terms:
        total += coeff * float(poly.eval(time)[comp])
    return total


def _parent_gradient(row, state):
    """An affine row's gradient with each point term's row and columns
    from ``eval_with_basis``."""
    poly = state.poly
    n_free, dim = poly.free_values.size, poly.dim
    grad = np.zeros(n_free + state.mu.size)
    for time, comp, coeff in row.point_terms:
        _, free, basis = poly.eval_with_basis(np.array([time]))
        np.add.at(grad, free[0] * dim + comp, coeff * basis[0])
    grad[n_free:] = row.mu_coeffs
    return grad


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

    @pytest.mark.parametrize("L,dim", [(1, 1), (3, 1), (3, 2)])
    def test_point_terms_at_a_node_are_the_parent_formulas_bitwise(
            self, monkeypatch, L, dim):
        # L = 1: nodes 0 and m share a column, so add.at sums two terms
        free = np.random.default_rng(L + dim).standard_normal((L, 4, dim))
        poly = PeriodicPiecewisePoly(Mesh.uniform(L), 4, free)
        state = DiscreteState(poly, np.array([1.7, 0.3]))
        # the anchor, and two terms at node times: t = 0 and an interior
        # node of the last interval
        node = float(poly.node_times[-1, 2])
        rows = (phase_anchor_row(0.2, 1),
                AffineRow(((0.0, dim - 1, -0.4), (node, 0, 1.3)),
                          np.array([0.7, -1.1]), 0.25))
        formulas = ((lambda row: row.value(poly, state.mu).hex(),
                     lambda row: _parent_value(row, poly, state.mu).hex()),
                    (lambda row: constraint_gradient(row, state).tobytes(),
                     lambda row: _parent_gradient(row, state).tobytes()))
        for row in rows:
            for got, want in formulas:
                monkeypatch.setattr(piecewise, "_STORE", piecewise._Store())
                for request in range(3):  # recorded, built, kept
                    assert got(row) == want(row)
                    kept = piecewise._STORE.current[1][("point", 0.0)]
                    assert (kept is None) == (request == 0)
        assert rows[0].value(poly, state.mu) == free[0, 0, 0] - 0.2

    def test_off_node_terms_are_eval_to_roundoff_and_match_the_gradient(
            self, monkeypatch):
        monkeypatch.setattr(piecewise, "_STORE", piecewise._Store())
        rng = np.random.default_rng(29)
        row = AffineRow(point_terms=((0.15, 0, 1.3), (0.6, 0, -0.4)),
                        mu_coeffs=np.array([0.7, -1.1]), offset=0.25)
        for _ in range(3):  # recorded, built, kept
            flat = rng.standard_normal(2 * 3 * 1 + 2)
            flat[-2] = 1.5
            state = DiscreteState.from_flat(flat, Mesh.uniform(2), 3, 1, 1)
            value = row.value(state.poly, state.mu)
            assert abs(value - _parent_value(row, state.poly,
                                             state.mu)) <= 1e-14
            assert abs(value - (constraint_gradient(row, state) @ flat
                                + row.offset)) <= 1e-14

    @pytest.mark.parametrize("comp", [-1, 1, 0.5, True],
                             ids=["negative", "dim", "fraction", "bool"])
    def test_a_component_outside_the_state_raises(self, comp):
        # on this dim-1 state, -1 would read component 0, and the gradient
        # of component 1 would land in the next free value's column
        state = equilibrium_state()

        def value():
            row = AffineRow(((0.3, comp, 1.0),), np.zeros(2), 0.0)
            return row.value(state.poly, state.mu)

        def gradient():
            row = AffineRow(((0.3, comp, 1.0),), np.zeros(2), 0.0)
            return constraint_gradient(row, state)

        for use in (value, gradient):
            with pytest.raises(InvalidArgumentError,
                               match="^component must be "):
                use()

    @pytest.mark.parametrize("call", [
        assemble_residual, newton_solve, phi_m_defect, assemble_jacobian],
        ids=lambda call: call.__name__)
    @pytest.mark.parametrize("size", [1, 3])
    def test_mu_coeffs_of_another_length_than_mu_raise(self, call, size):
        # numpy's matmul or broadcast raised a bare ValueError here
        prob, state = mackey_glass(), equilibrium_state()
        anchor, pin = default_constraints(prob, state.params)
        short = AffineRow(anchor.point_terms, np.zeros(size), anchor.offset)
        with pytest.raises(InvalidArgumentError,
                           match=r"^mu_coeffs must have 2 entries, got "
                                 rf"\({size},\)$"):
            call(state, prob, (short, pin))


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
        assert type(settings.max_iter) is int

    def test_each_iteration_is_logged_at_debug_level(self, caplog):
        prob, init, cons = _near_hopf_guess()
        with caplog.at_level(logging.DEBUG, logger="semdde.collocation"):
            result = newton_solve(init, prob, cons)
        messages = [r.getMessage() for r in caplog.records
                    if r.name == "semdde.collocation"]
        assert len(messages) == result.iterations >= 1
        for k, (message, norm) in enumerate(
                zip(messages, result.residual_history[1:]), start=1):
            assert message.startswith(
                f"newton iteration {k}: residual {norm:.3e}, step ")
            assert message.endswith(" halvings")

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
        prob, state, cons = _duplicate_constraints_case()
        with pytest.raises(SingularJacobianError,
                           match="at iteration 0$") as exc:
            newton_solve(state, prob, cons,
                         NewtonSettings(tol_residual=1e-16))
        # the initial residual is the one norm recorded before the LU
        assert exc.value.residual_history.shape == (1,)
        residual = assemble_residual(state, prob, cons)
        assert exc.value.residual_history[0] == np.max(np.abs(residual))

    def test_nearly_dependent_constraints_trip_the_pivot_check(self):
        prob, state, cons = _nearly_singular_case()
        with pytest.raises(SingularJacobianError,
                           match="at iteration 0$") as exc:
            newton_solve(state, prob, cons)
        residual = assemble_residual(state, prob, cons)
        assert exc.value.residual_history.tolist() == [
            np.max(np.abs(residual))]

    def test_solver_and_pivot_rule_run_with_scipy_unimportable(self):
        # a fresh interpreter in which any import of scipy fails: the CLI
        # imports, a healthy solve converges, and the pivot rule still
        # types both singular cases
        child = textwrap.dedent("""
            import json, sys
            sys.modules["scipy"] = None
            import semdde.cli
            from semdde.errors import SingularJacobianError
            from test_collocation import (
                NewtonSettings, _duplicate_constraints_case,
                _near_hopf_guess, _nearly_singular_case, newton_solve)
            prob, init, cons = _near_hopf_guess()
            seen = [float(newton_solve(init, prob, cons)
                          .residual_history[-1])]
            for case in (_nearly_singular_case, _duplicate_constraints_case):
                prob, state, cons = case()
                try:
                    newton_solve(state, prob, cons,
                                 NewtonSettings(tol_residual=1e-16))
                except SingularJacobianError as exc:
                    seen.append([str(exc), len(exc.residual_history)])
            print(json.dumps(seen))
        """)
        # the child imports the same semdde as this process, and this file
        package_root = os.path.dirname(os.path.dirname(semdde.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
            package_root, str(Path(__file__).resolve().parent),
            os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", child],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        final, *singular = json.loads(proc.stdout)
        assert final <= NewtonSettings().tol_residual
        assert len(singular) == 2
        for message, history_length in singular:
            assert message.endswith("at iteration 0")
            assert history_length == 1

    def test_every_step_checked_leaves_a_healthy_solve_bitwise(
            self, near_hopf_orbit, lu_factor_calls, monkeypatch):
        # a trigger of 0 runs the pivot rule on every step; a step that
        # passes it is numpy's, so nothing moves
        prob, cons, result = near_hopf_orbit
        monkeypatch.setattr(collocation, "_SUSPICIOUS_AMPLIFICATION", 0.0)
        _, init, _ = _near_hopf_guess()
        checked = newton_solve(init, prob, cons)
        assert len(lu_factor_calls) == result.iterations >= 1
        assert np.array_equal(checked.state.flatten(),
                              result.state.flatten())
        assert np.array_equal(checked.residual_history,
                              result.residual_history)

    def test_non_finite_jacobian_raises_before_the_solve(self):
        # the residual is finite, but the Jacobian's forward difference
        # bumps v past 10, where the rhs is infinite
        prob, cons = _blowup_problem()
        init = _near_blowup_state()
        with pytest.raises(NonFiniteResidualError,
                           match="^Jacobian not finite at iteration 0$") \
                as exc:
            newton_solve(init, prob, cons)
        initial = np.max(np.abs(assemble_residual(init, prob, cons)))
        assert exc.value.residual_history.tolist() == [initial]

    def test_non_finite_initial_residual_has_an_empty_history(self):
        prob, cons = _blowup_problem()
        init = DiscreteState(
            sample_periodic(lambda t: np.full_like(t, 20.0), Mesh.uniform(3),
                            4), np.array([1.0, 0.0]))
        with pytest.raises(NonFiniteResidualError) as exc:
            newton_solve(init, prob, cons)
        assert exc.value.residual_history.shape == (0,)

    def test_a_problem_error_at_the_initial_state_has_an_empty_history(
            self):
        # the solve of convergence_study's (10, 4) cell at delay 0.1: the
        # initial state already has a negative delay (about -0.145)
        prob, seed = sd_quadratic(), sd_quadratic_seed(0.95)
        init = DiscreteState(
            resample_state(seed, Mesh.uniform(10), 4).poly,
            np.array([seed.period, 0.1]))
        with pytest.raises(NegativeDelayError) as exc:
            newton_solve(init, prob, default_constraints(prob, [0.1]))
        assert exc.value.residual_history.shape == (0,)
        table = convergence_study(prob, [0.1], [10], [4], seed=seed)
        assert table.rows[0].failure == f"NegativeDelayError: {exc.value}"

    def test_non_finite_trial_at_the_damping_floor_keeps_the_history(self):
        # the anchor pulls v(0) from 0.5 to 1e4: even 1/64 of that step
        # takes y beyond 10, where the rhs is infinite
        prob, cons = _blowup_problem()
        init = DiscreteState(
            sample_periodic(lambda t: np.full_like(t, 0.5), Mesh.uniform(3),
                            4), np.array([1.0, 0.0]))
        with pytest.raises(NonFiniteResidualError, match="damping floor") \
                as exc:
            newton_solve(init, prob, cons)
        initial = np.max(np.abs(assemble_residual(init, prob, cons)))
        assert exc.value.residual_history.tolist() == [initial]

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

    def test_exhausted_budget_reports_the_last_residual(self):
        prob, init, cons = _near_hopf_guess()
        full = newton_solve(init, prob, cons).residual_history
        with pytest.raises(MaxIterExceededError) as exc:
            newton_solve(init, prob, cons, NewtonSettings(max_iter=2))
        history = exc.value.residual_history
        assert history.tolist() == full[:3].tolist()
        assert str(exc.value) == (f"no convergence in 2 iterations "
                                  f"(residual {history[-1]:.3e})")

    def test_a_budget_of_the_iterations_needed_is_enough(self):
        prob, init, cons = _near_hopf_guess()
        full = newton_solve(init, prob, cons)
        k = full.iterations
        assert k >= 2
        exact = newton_solve(init, prob, cons, NewtonSettings(max_iter=k))
        assert exact.iterations == k
        assert exact.state.flatten().tobytes() == \
            full.state.flatten().tobytes()
        assert exact.residual_history.tolist() == \
            full.residual_history.tolist()
        with pytest.raises(MaxIterExceededError,
                           match=rf"^no convergence in {k - 1} iterations "):
            newton_solve(init, prob, cons, NewtonSettings(max_iter=k - 1))

    def test_one_iteration_short_keeps_every_norm_but_the_last(self):
        prob, init, cons = _near_hopf_guess()
        full = newton_solve(init, prob, cons)
        k = full.iterations
        with pytest.raises(MaxIterExceededError) as exc:
            newton_solve(init, prob, cons, NewtonSettings(max_iter=k - 1))
        history = exc.value.residual_history
        assert len(history) == k
        assert history.tolist() == full.residual_history[:k].tolist()

    def test_a_step_below_tol_step_stalls(self):
        prob = mackey_glass()
        init = hopf_initial_guess(mackey_glass_hopf(), 0.01, Mesh.uniform(3),
                                  6)
        cons = default_constraints(prob, init.params)
        settings = NewtonSettings(tol_residual=1e-300, tol_step=1e-6)
        with pytest.raises(MaxIterExceededError) as exc:
            newton_solve(init, prob, cons, settings)
        history = exc.value.residual_history
        assert history.shape == (6,)
        assert history[0] == np.max(np.abs(assemble_residual(init, prob,
                                                              cons)))
        assert np.all(np.diff(history) < 0.0)
        match = re.fullmatch(
            r"Newton stalled: step (\S+) below tol_step with residual (\S+)",
            str(exc.value))
        assert match is not None
        # tol_step is relative to max|x|, here the period of about 1.6
        assert 0.0 < float(match.group(1)) <= settings.tol_step * 2.0
        assert match.group(2) == f"{history[-1]:.3e}"

    @pytest.mark.parametrize("damping_min, trials", [
        (1.0 / 64.0, 7), (0.3, 3), (1.0, 1)])
    def test_the_damping_floor_is_the_first_halving_at_or_below_it(
            self, damping_min, trials, monkeypatch):
        # every trial of the blow-up step is finite but its residual is
        # not, so the step is halved from 1 until damping <= damping_min
        prob, cons = _blowup_problem()
        init = DiscreteState(
            sample_periodic(lambda t: np.full_like(t, 0.5), Mesh.uniform(3),
                            4), np.array([1.0, 0.0]))
        calls = []
        residual = collocation.assemble_residual

        def counting(state, *args):
            calls.append(state.period)
            return residual(state, *args)

        monkeypatch.setattr(collocation, "assemble_residual", counting)
        with pytest.raises(NonFiniteResidualError) as exc:
            newton_solve(init, prob, cons,
                         NewtonSettings(damping_min=damping_min))
        assert str(exc.value) == ("residual left the finite region even at "
                                  "the damping floor (iteration 0)")
        assert len(calls) == 1 + trials
        assert exc.value.residual_history.tolist() == [
            np.max(np.abs(residual(init, prob, cons)))]

    def test_a_trial_with_a_period_at_or_below_zero_is_halved(
            self, monkeypatch):
        # y' = p - y with the period pinned to -1: each full step asks for
        # a negative period, so only damped trials with T > 0 are solved,
        # until even the floor's trial has T <= 0
        prob = DdeProblem(name="linear", dim=1, num_params=1,
                          rhs=lambda e, p: p[0] - e(0.0))
        pin = AffineRow(point_terms=(), mu_coeffs=np.array([1.0, 0.0]),
                        offset=1.0)
        cons = (default_constraints(prob, [0.0], anchor_value=0.0)[0], pin)
        init = DiscreteState(
            sample_periodic(lambda t: np.zeros_like(t), Mesh.uniform(2), 3),
            np.array([1.0, 0.0]))
        periods = []
        residual = collocation.assemble_residual

        def recording(state, *args):
            periods.append(state.period)
            return residual(state, *args)

        monkeypatch.setattr(collocation, "assemble_residual", recording)
        with pytest.raises(NonFiniteResidualError) as exc:
            newton_solve(init, prob, cons)
        # the floor's trial has T <= 0, so no residual was computed for it
        assert str(exc.value) == ("no admissible trial (finite, period > 0) "
                                  "was found down to the damping floor "
                                  "(iteration 5)")
        # dampings 1/4, 1/4, 1/16, 1/32, 1/64 move T towards -1
        assert periods == [1.0, 0.5, 0.125, 0.0546875, 0.021728515625,
                           0.005764007568359375]
        assert exc.value.residual_history.tolist() == [
            1.0 + period for period in periods]

    def test_convergence_study_records_a_non_finite_jacobian(self):
        prob, _ = _blowup_problem()
        prob = dataclasses.replace(prob, equilibrium=np.array([0.0]))
        table = convergence_study(prob, [0.0], [3], [4],
                                  seed=_near_blowup_state())
        assert [cell.failure for cell in table.rows] == [
            "NonFiniteResidualError: Jacobian not finite at iteration 0"]


def _pinned(prob, state):
    return prob, state, default_constraints(prob, state.params)


PIVOT_CASES = [
    _nearly_singular_case,
    _duplicate_constraints_case,
    lambda: _pinned(*mackey_glass_case(11, 8)),
    lambda: _pinned(*mackey_glass_case(5, 20)),
    lambda: _pinned(*mackey_glass_case(11, 40)),
]
PIVOT_CASE_IDS = ["nearly_singular", "duplicate_constraints",
                  "mackey_glass_11_8", "mackey_glass_5_20",
                  "mackey_glass_11_40"]


class TestPivots:
    @pytest.mark.parametrize("case", PIVOT_CASES, ids=PIVOT_CASE_IDS)
    def test_pivots_match_scipys_lu(self, case):
        # scipy's LAPACK getrf is the reference; the package needs no scipy
        scipy_linalg = pytest.importorskip("scipy.linalg")
        prob, state, cons = case()
        jac = assemble_jacobian(state, prob, cons)
        with warnings.catch_warnings():  # the exact zero pivot
            warnings.simplefilter("ignore", scipy_linalg.LinAlgWarning)
            reference = np.diag(scipy_linalg.lu_factor(jac)[0])
        pivots = lu_factor(jac)
        assert pivots.shape == (jac.shape[0],)
        assert np.all(np.abs(pivots - reference) <= 1e-13 * np.abs(reference))

    def test_healthy_solves_never_factor(self, lu_factor_calls):
        # the Hopf solve, its 20-step branch and an sd_quadratic table
        # column take every step unchecked: the elimination stays off
        # healthy solves
        prob = mackey_glass()
        guess = hopf_initial_guess(mackey_glass_hopf(), 0.01,
                                   Mesh.uniform(11), 8)
        start = newton_solve(guess, prob,
                             default_constraints(prob, guess.params)).state
        points = continue_branch(start, prob, float(start.params[0]), 1.0, 20)
        table = convergence_study(sd_quadratic(), [0.95], [20],
                                  [4, 6, 8, 10, 12],
                                  seed=sd_quadratic_seed(0.95))
        assert len(points) == 20
        assert all(cell.failure is None for cell in table.rows)
        assert lu_factor_calls == []


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

    @pytest.mark.parametrize("index, num_params", [
        (True, 2), (1.0, 2), (-1, 2), (2, 2), (0, 2.0), (0, True),
    ], ids=["bool_index", "float_index", "negative_index", "index_past_end",
            "float_count", "bool_count"])
    def test_a_pin_row_takes_an_integer_index_and_count(self, index,
                                                        num_params):
        # True would pin p[1], -1 the period, and 1.0 would raise IndexError
        with pytest.raises(InvalidArgumentError):
            parameter_pin_row(index, 0.5, num_params)
        row = parameter_pin_row(np.int64(1), 0.5, np.int64(2))
        assert row.mu_coeffs.tolist() == [0.0, 0.0, 1.0]

    @pytest.mark.parametrize("num_params", [True, 1.0, -1],
                             ids=["bool", "float", "negative"])
    def test_a_phase_anchor_takes_an_integer_count(self, num_params):
        with pytest.raises(InvalidArgumentError,
                           match="^num_params must be "):
            phase_anchor_row(0.0, num_params)
        assert phase_anchor_row(0.0, np.int64(1)).mu_coeffs.tolist() == \
            [0.0, 0.0]
