"""Tests for the fixed-point verification oracle.

The oracle recomputes the solution identity from the rhs at the
collocation points and exact quadrature, a path disjoint from the Newton
residual, so a converged state must score near machine zero while
perturbations of any one value must be flagged at their own magnitude.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from semdde.collocation import (
    DiscreteState,
    default_constraints,
    newton_solve,
    resample_state,
    state_from_document,
)
from semdde.continuation import sd_quadratic_seed
from semdde.nodes import NodeKind, gauss_rule, make_nodes
from semdde.oracle import (
    DEFAULT_DEFECT_GRID,
    FixedPointDefect,
    _integration_matrix,
    phi_m_defect,
)
from semdde.piecewise import Mesh, PeriodicPiecewisePoly, project, sample_periodic
from semdde.problems import RescaledRhs, mackey_glass, sd_quadratic

TAU_HOPF = np.arccos(-0.25) / np.sqrt(15.0)
PERIOD_HOPF = 2.0 * np.pi / np.sqrt(15.0)
NEWTON_TOL = 1e-10

MG_BRANCH_END = (Path(__file__).resolve().parents[1] / "perfbench" / "data"
                 / "mg_branch_end.json")


def _prefix_integrals(proj, times):
    """Reference for the oracle's integration matrix: integral_0^t of the
    projection at each time, the whole intervals before t plus [t_i, t],
    each by its own Gauss rule evaluated at that time."""
    mesh = proj.mesh
    quad_nodes, quad_w = gauss_rule(proj.node_family.m)

    def from_break(idx, span):
        pts = mesh.breaks[idx, None] + span[:, None] * quad_nodes
        vals = proj.eval(pts.ravel()).reshape(idx.size, quad_nodes.size, -1)
        return span[:, None] * np.einsum("q,kqs->ks", quad_w, vals)

    whole = from_break(np.arange(mesh.num_intervals), mesh.lengths)
    prefix = np.vstack([np.zeros((1, proj.dim)), np.cumsum(whole, axis=0)])
    idx = mesh.interval_index(times)
    return prefix[idx] + from_break(idx, times - mesh.breaks[idx])


def _reference_defects(state, prob, grid_points=2001):
    """(sup_defect_v, defect_v0) by quadrature at every grid point."""
    poly, mu = state.poly, state.mu
    rhs = RescaledRhs(prob)
    w = project(lambda t: rhs(poly, t, mu), poly.mesh, poly.degree)
    total = w.integrate(0.0, 1.0)
    grid = np.linspace(0.0, 1.0, grid_points)
    reconstructed = (poly.values[0, 0][None, :] + _prefix_integrals(w, grid)
                     - grid[:, None] * total)
    return (float(np.max(np.abs(poly.eval(grid) - reconstructed))),
            float(np.max(np.abs(total))))


def _phi_m_defect_by_projection(state, prob, cons):
    """The oracle through the path it replaced: the rhs projected onto
    the collocation nodes (``project``), its mean by ``integrate(0, 1)``."""
    poly, mu = state.poly, state.mu
    mesh, m = poly.mesh, poly.degree
    rhs = RescaledRhs(prob)
    w = project(lambda t: rhs(poly, t, mu), mesh, m)
    total = w.integrate(0.0, 1.0)
    partial = mesh.lengths[:, None, None] * np.einsum(
        "jk,iks->ijs", _integration_matrix(m), w.values)
    prefix = np.concatenate([np.zeros((1, poly.dim)),
                             np.cumsum(partial[:-1, m], axis=0)])
    reconstructed = (poly.values[0, 0] + prefix[:, None, :] + partial[:, :m]
                     - poly.node_times[:, :m, None] * total)
    defect = PeriodicPiecewisePoly(mesh, m, poly.free_values - reconstructed)
    return FixedPointDefect(
        np.max(np.abs(defect._on(DEFAULT_DEFECT_GRID)[1])),
        np.max(np.abs(total)),
        max((abs(row.value(poly, mu)) for row in cons), default=0.0))


def _bits(defect):
    return [float(x).hex() for x in dataclasses.astuple(defect)]


def _mackey_glass_cell(L, m):
    prob = mackey_glass()
    end = state_from_document(json.loads(MG_BRANCH_END.read_text()))
    cons = default_constraints(prob, end.params)
    init = resample_state(end, Mesh.uniform(L), m)
    return prob, cons, newton_solve(init, prob, cons).state


def _equilibrium_state(tau=0.8, period=1.6, num_intervals=4, degree=5):
    mesh = Mesh.uniform(num_intervals)
    poly = sample_periodic(lambda t: np.ones_like(t), mesh, degree)
    return DiscreteState(poly, np.array([period, tau]))


@pytest.fixture(scope="module")
def near_hopf_orbit():
    """Converged small orbit just past the Hopf point, L=11, m=4."""
    prob = mackey_glass()
    tau = TAU_HOPF + 1e-3
    mesh = Mesh.uniform(11)
    guess = sample_periodic(lambda t: 1.0 + 0.01 * np.sin(2 * np.pi * t),
                            mesh, 4)
    init = DiscreteState(guess, np.array([PERIOD_HOPF, tau]))
    cons = default_constraints(prob, [tau])
    result = newton_solve(init, prob, cons)
    return prob, cons, result.state


class TestFixedPointDefect:
    def test_rejects_negative_components(self):
        with pytest.raises(ValueError):
            FixedPointDefect(-1e-3, 0.0, 0.0)
        with pytest.raises(ValueError):
            FixedPointDefect(0.0, -1e-3, 0.0)
        with pytest.raises(ValueError):
            FixedPointDefect(0.0, 0.0, -1e-3)

    def test_max_defect_is_largest_component(self):
        d = FixedPointDefect(1e-9, 3e-7, 2e-8)
        assert d.max_defect == 3e-7


class TestPhiMDefect:
    def test_equilibrium_defects_vanish(self):
        prob = mackey_glass()
        state = _equilibrium_state()
        cons = default_constraints(prob, [0.8])
        defect = phi_m_defect(state, prob, cons)
        assert defect.sup_defect_v <= 1e-12
        assert defect.defect_v0 <= 1e-12
        assert defect.defect_mu <= 1e-12

    def test_converged_orbit_within_hundred_times_newton_tol(
            self, near_hopf_orbit):
        prob, cons, state = near_hopf_orbit
        defect = phi_m_defect(state, prob, cons)
        # Observed max defect 1.8e-15; the bound absorbs quadrature and
        # interpolation roundoff on top of the solver tolerance.
        assert defect.max_defect <= 100.0 * NEWTON_TOL

    def test_single_value_perturbation_is_flagged(self, near_hopf_orbit):
        prob, cons, state = near_hopf_orbit
        flat = state.flatten()
        flat[3] += 1e-4
        poked = DiscreteState.from_flat(flat, state.poly.mesh,
                                        state.poly.degree, state.poly.dim,
                                        prob.num_params)
        defect = phi_m_defect(poked, prob, cons)
        assert defect.sup_defect_v >= 1e-6

    def test_time_shift_moves_only_the_constraint_defect(
            self, near_hopf_orbit):
        """A shifted orbit still solves the equation, not the anchor."""
        prob, cons, state = near_hopf_orbit
        shifted_values = np.roll(state.poly.free_values, -3, axis=0)
        shifted = DiscreteState(
            PeriodicPiecewisePoly(state.poly.mesh, state.poly.degree,
                                  shifted_values), state.mu)
        defect = phi_m_defect(shifted, prob, cons)
        assert defect.sup_defect_v <= 1e-8
        assert defect.defect_v0 <= 1e-8
        assert defect.defect_mu >= 1e-5

    def test_defect_v0_matches_per_interval_integrals(self, near_hopf_orbit):
        prob, cons, state = near_hopf_orbit
        poly = state.poly
        rhs = RescaledRhs(prob)
        w = project(lambda t: rhs(poly, t, state.mu), poly.mesh, poly.degree)
        breaks = poly.mesh.breaks
        per_interval = sum(
            w.integrate(float(breaks[i]), float(breaks[i + 1]))
            for i in range(poly.mesh.num_intervals))
        whole = w.integrate(0.0, 1.0)
        assert np.max(np.abs(per_interval - whole)) <= 1e-13
        defect = phi_m_defect(state, prob, cons)
        assert abs(defect.defect_v0 - np.max(np.abs(whole))) <= 1e-13


class TestIntegrationMatrix:
    @pytest.mark.parametrize("m", [1, 2, 4, 8, 40])
    def test_ends_are_zero_and_the_gauss_weights(self, m):
        q = _integration_matrix(m)
        assert q.shape == (m + 1, m) and not q.flags.writeable
        assert np.all(q[0] == 0.0)
        assert np.max(np.abs(q[m] - gauss_rule(m)[1])) <= 1e-15

    @pytest.mark.parametrize("m", [1, 2, 4, 8, 40])
    def test_integrates_monomials_exactly_at_the_lobatto_nodes(self, m):
        q = _integration_matrix(m)
        gauss = make_nodes(NodeKind.GAUSS_LEGENDRE, m).nodes
        ends = make_nodes(NodeKind.CHEBYSHEV_LOBATTO, m).nodes
        for d in range(m):
            exact = ends ** (d + 1) / (d + 1)
            assert np.max(np.abs(np.sum(q * gauss**d, axis=1) - exact)) \
                <= 1e-15


class TestAgainstTheProjectionPath:
    """The oracle takes the rhs at the collocation set and its Gauss sum;
    every defect is bitwise the one of the projection path it replaced."""

    @pytest.mark.parametrize("L, m", [(1, 40), (5, 20), (11, 8)])
    def test_mackey_glass_cells(self, L, m):
        prob, cons, state = _mackey_glass_cell(L, m)
        assert _bits(phi_m_defect(state, prob, cons)) == \
            _bits(_phi_m_defect_by_projection(state, prob, cons))

    @pytest.mark.parametrize("converged", [False, True],
                             ids=["seed", "converged"])
    def test_sd_quadratic_state(self, converged):
        prob = sd_quadratic()
        seed = sd_quadratic_seed(0.95)
        cons = default_constraints(prob, seed.params)
        state = resample_state(seed, Mesh.uniform(20), 12)
        if converged:
            state = newton_solve(state, prob, cons).state
        assert _bits(phi_m_defect(state, prob, cons)) == \
            _bits(_phi_m_defect_by_projection(state, prob, cons))


class TestAgainstQuadratureAtEveryGridPoint:
    """The integration-matrix oracle against the slower path it replaced,
    which ran a Gauss rule at each of the grid points."""

    @pytest.mark.parametrize("L", [1, 11])
    @pytest.mark.parametrize("m", [4, 8, 40])
    def test_mackey_glass_cells(self, L, m):
        prob, cons, state = _mackey_glass_cell(L, m)
        defect = phi_m_defect(state, prob, cons)
        sup_v, v0 = _reference_defects(state, prob)
        assert abs(defect.sup_defect_v - sup_v) <= 1e-15
        assert abs(defect.defect_v0 - v0) <= 1e-15

    def test_sd_quadratic_state(self):
        prob = sd_quadratic()
        state = resample_state(sd_quadratic_seed(0.95), Mesh.uniform(20), 12)
        cons = default_constraints(prob, state.params)
        defect = phi_m_defect(state, prob, cons)
        sup_v, v0 = _reference_defects(state, prob)
        assert sup_v > 1e-3  # the seed is not converged on this mesh
        assert abs(defect.sup_defect_v - sup_v) <= 1e-15
        assert abs(defect.defect_v0 - v0) <= 1e-15

    def test_converged_sd_quadratic_state_within_roundoff(self):
        # both paths sit at roundoff here, each a few ulps of the profile
        # (|v| reaches 2.6) away from the exact identity, so the bound is
        # in ulps of the profile rather than 1e-15
        prob = sd_quadratic()
        seed = sd_quadratic_seed(0.95)
        cons = default_constraints(prob, seed.params)
        state = newton_solve(resample_state(seed, Mesh.uniform(20), 12),
                             prob, cons).state
        defect = phi_m_defect(state, prob, cons)
        sup_v, v0 = _reference_defects(state, prob)
        ulp = np.spacing(np.max(np.abs(state.poly.values)))
        assert abs(defect.sup_defect_v - sup_v) <= 4 * ulp
        assert abs(defect.defect_v0 - v0) <= 1e-15
