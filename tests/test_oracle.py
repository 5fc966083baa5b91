"""Tests for the fixed-point verification oracle.

The oracle recomputes the solution identity through projection and
piecewise quadrature, a path disjoint from the Newton residual, so a
converged state must score near machine zero while perturbations of any
one value must be flagged at their own magnitude.
"""

import numpy as np
import pytest

from semdde.collocation import (
    DiscreteState,
    default_constraints,
    newton_solve,
)
from semdde.errors import InvalidArgumentError
from semdde.oracle import FixedPointDefect, phi_m_defect
from semdde.piecewise import Mesh, PeriodicPiecewisePoly, project, sample_periodic
from semdde.problems import RescaledRhs, mackey_glass

TAU_HOPF = np.arccos(-0.25) / np.sqrt(15.0)
PERIOD_HOPF = 2.0 * np.pi / np.sqrt(15.0)
NEWTON_TOL = 1e-10


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

    def test_rejects_tiny_grid(self, near_hopf_orbit):
        prob, cons, state = near_hopf_orbit
        with pytest.raises(InvalidArgumentError):
            phi_m_defect(state, prob, cons, grid_points=1)
