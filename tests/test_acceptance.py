"""Acceptance suite: one test per advertised guarantee of the package.

Each test states its tolerance inline and the heavy artifacts (the
Mackey-Glass branch out to delay 1, the convergence tables) are built
once per session and shared, so `pytest tests/test_acceptance.py -v`
prints one pass/fail line per guarantee.  Runtime ceilings are asserted
where a guarantee includes one.
"""

import math
import time

import numpy as np
import pytest

from semdde.analysis import (
    bernstein_bound_fit,
    circle_map_analysis,
    convergence_study,
    err_and_amplitude,
    orbit_lag_map,
)
from semdde.collocation import (
    NewtonSettings,
    default_constraints,
    newton_solve,
    resample_state,
)
from semdde.continuation import (
    continue_branch,
    hopf_initial_guess,
    mackey_glass_hopf,
    sd_quadratic_seed,
)
from semdde.nodes import NodeKind, gauss_weights, lebesgue_constant, \
    make_nodes
from semdde.oracle import phi_m_defect
from semdde.piecewise import Mesh, project, sample_periodic
from semdde.problems import mackey_glass, sd_quadratic

NEWTON_TOL = NewtonSettings().tol_residual


@pytest.fixture(scope="module")
def mackey_glass_branch():
    """Branch of orbits from just past the onset delay out to delay 1,
    timed so the convergence guarantee can include the setup cost."""
    start_time = time.perf_counter()
    prob = mackey_glass()
    guess = hopf_initial_guess(mackey_glass_hopf(), 0.01,
                               Mesh.uniform(11), 8)
    cons = default_constraints(prob, guess.params)
    start = newton_solve(guess, prob, cons).state
    points = continue_branch(start, prob, float(start.params[0]), 1.0, 20)
    return points, time.perf_counter() - start_time


@pytest.fixture(scope="module")
def mackey_glass_table(mackey_glass_branch):
    points, branch_time = mackey_glass_branch
    start_time = time.perf_counter()
    table = convergence_study(mackey_glass(), [1.0], [1, 2, 5, 11],
                              list(range(4, 41)), seed=points[-1].state)
    return table, branch_time + time.perf_counter() - start_time


@pytest.fixture(scope="module")
def sd_quadratic_tables():
    prob = sd_quadratic()
    start_time = time.perf_counter()
    tables = {
        tau: convergence_study(prob, [tau], [10, 20], [4, 6, 8, 10, 12],
                               seed=sd_quadratic_seed(tau))
        for tau in (0.95, 1.1)
    }
    return tables, time.perf_counter() - start_time


@pytest.fixture(scope="module")
def sd_quadratic_fine_state():
    """The delay-0.95 orbit re-converged at the finest study cell."""
    prob = sd_quadratic()
    seed = sd_quadratic_seed(0.95)
    cons = default_constraints(prob, seed.params)
    return newton_solve(resample_state(seed, Mesh.uniform(20), 12),
                        prob, cons).state


@pytest.fixture(scope="module")
def warm_start_states(mackey_glass_branch):
    """Two solves of the same cell reached along different discrete
    paths: directly, and through a coarse intermediate solve."""
    points, _ = mackey_glass_branch
    prob = mackey_glass()
    end = points[-1].state
    cons = default_constraints(prob, end.params)
    target = Mesh.uniform(11)
    first = newton_solve(resample_state(end, target, 20), prob, cons).state
    coarse = newton_solve(resample_state(end, Mesh.uniform(3), 25),
                          prob, cons).state
    second = newton_solve(resample_state(coarse, target, 20),
                          prob, cons).state
    return first, second


def test_hopf_location_matches_an_independent_bisection():
    start_time = time.perf_counter()
    data = mackey_glass_hopf()
    elapsed = time.perf_counter() - start_time

    # oracle: for the linearization y' = alpha y + beta y(t - tau) with
    # alpha = -1, beta = -4, the onset satisfies cos(theta) = -alpha/beta
    # with theta = omega*tau in (0, pi); plain interval bisection, no
    # package code involved
    alpha, beta = -1.0, -4.0
    lo, hi = 0.0, math.pi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if math.cos(mid) - (-alpha / beta) > 0.0:
            lo = mid
        else:
            hi = mid
    theta = 0.5 * (lo + hi)
    omega_oracle = -beta * math.sin(theta)
    tau_oracle = theta / omega_oracle

    assert abs(omega_oracle - math.sqrt(15.0)) <= 1e-12
    assert abs(data.tau_hopf - 0.4708) <= 5e-4
    assert abs(data.tau_hopf - tau_oracle) <= 1e-12
    assert abs(data.omega - omega_oracle) <= 1e-8
    assert elapsed < 1.0


def test_mackey_glass_error_slopes_steepen_with_mesh_size(
        mackey_glass_table):
    table, elapsed = mackey_glass_table
    assert all(row.completed for row in table.rows)
    assert len(table.rows) == 4 * 37
    slopes = table.slopes()
    assert sorted(slopes) == [1, 2, 5, 11]
    ordered = [slopes[L] for L in (1, 2, 5, 11)]
    assert all(s < -0.2 for s in ordered)
    assert all(a >= b for a, b in zip(ordered, ordered[1:]))
    assert elapsed < 600.0


def test_interpolation_error_stays_below_the_analyticity_bound():
    start_time = time.perf_counter()

    def f(t):
        return 1.0 / (2.0 - np.cos(2.0 * np.pi * np.asarray(t)))

    bound = bernstein_bound_fit(f, 0.5)
    mesh = Mesh.uniform(1)
    dense = np.linspace(0.0, 1.0, 2001)
    exact = f(dense)
    for m in range(8, 41):
        poly = sample_periodic(f, mesh, m)
        err = float(np.max(np.abs(poly.eval(dense)[:, 0] - exact)))
        assert err <= bound.bound(m), f"degree {m}: {err} above bound"
    assert time.perf_counter() - start_time < 5.0


def test_lebesgue_constant_growth_is_sublinear():
    start_time = time.perf_counter()
    degrees = [4, 8, 16, 32, 64]
    for kind in (NodeKind.CHEBYSHEV_GAUSS, NodeKind.GAUSS_LEGENDRE):
        ratios = [lebesgue_constant(make_nodes(kind, m)) / m
                  for m in degrees]
        assert all(a > b for a, b in zip(ratios, ratios[1:])), kind
    for m in degrees:
        cheb = lebesgue_constant(make_nodes(NodeKind.CHEBYSHEV_GAUSS, m))
        assert cheb <= (2.0 / math.pi) * math.log(m) + 1.0
    assert time.perf_counter() - start_time < 10.0


def test_every_converged_state_passes_the_fixed_point_oracle(
        mackey_glass_branch, mackey_glass_table, sd_quadratic_tables,
        sd_quadratic_fine_state, warm_start_states):
    defects = [point.phi_defect for point in mackey_glass_branch[0]]
    defects += [row.phi_defect for row in
                mackey_glass_table[0].completed_rows()]
    for table in sd_quadratic_tables[0].values():
        defects += [row.phi_defect for row in table.completed_rows()]

    sdq = sd_quadratic()
    cons = default_constraints(sdq, sd_quadratic_fine_state.params)
    defects.append(phi_m_defect(sd_quadratic_fine_state, sdq,
                                cons).max_defect)
    mg = mackey_glass()
    for state in warm_start_states:
        cons = default_constraints(mg, state.params)
        defects.append(phi_m_defect(state, mg, cons).max_defect)

    assert len(defects) > 180
    worst = max(defects)
    assert worst <= 100.0 * NEWTON_TOL, f"worst defect {worst}"


def test_state_dependent_orbit_converges_and_has_five_unstable_points(
        sd_quadratic_tables, sd_quadratic_fine_state):
    tables, elapsed = sd_quadratic_tables
    start_time = time.perf_counter()
    for tau, table in tables.items():
        assert all(row.completed for row in table.rows), tau
        for L in (10, 20):
            errs = [row.err for row in table.completed_rows()
                    if row.num_intervals == L]
            assert len(errs) == 5
            assert all(a > b for a, b in zip(errs, errs[1:])), (tau, L)

    lag = orbit_lag_map(sd_quadratic_fine_state,
                        lambda y, p: p[0] + y[..., 0] + y[..., 0] ** 2)
    result = circle_map_analysis(lag, 5, 4000)
    assert result.kind == "generic"
    fifth = [pts for pts in result.periodic_points if pts.iterate == 5][0]
    assert int(np.sum(fifth.unstable)) == 5
    assert elapsed + time.perf_counter() - start_time < 600.0


def test_quadrature_projection_and_wrap_identities():
    start_time = time.perf_counter()
    rng = np.random.default_rng(20230815)

    # weights integrate random polynomials of degree 2m-1 exactly
    for m in (2, 5, 10, 20):
        family = make_nodes(NodeKind.GAUSS_LEGENDRE, m)
        weights = gauss_weights(family)
        coef = rng.uniform(-1.0, 1.0, 2 * m)
        quad = float(weights @ np.polynomial.polynomial.polyval(
            family.nodes, coef))
        exact = float(sum(c / (k + 1) for k, c in enumerate(coef)))
        assert abs(quad - exact) <= 1e-13

    # interpolating an interpolant reproduces it
    mesh = Mesh.uniform(3)
    first = project(lambda t: np.cos(2.0 * np.pi * t) + t * (1.0 - t),
                    mesh, 7)
    second = project(first.eval, mesh, 7)
    assert float(np.max(np.abs(second.values - first.values))) <= 1e-12

    # dyadic times survive a +1 shift exactly, so evaluation wraps bitwise
    poly = sample_periodic(lambda t: np.sin(2.0 * np.pi * t),
                           Mesh.uniform(2), 12)
    t = rng.integers(-3 * 2**20, 3 * 2**20, 1000) / 2.0**20
    np.testing.assert_array_equal(poly.eval(t + 1.0), poly.eval(t))
    assert time.perf_counter() - start_time < 5.0


def test_warm_started_solves_agree_on_the_same_cell(warm_start_states):
    first, second = warm_start_states
    prob = mackey_glass()
    err_first = err_and_amplitude(first, prob)[0]
    err_second = err_and_amplitude(second, prob)[0]
    assert err_first < 1e-9 and err_second < 1e-9
    assert abs(err_first - err_second) < 1e-9
