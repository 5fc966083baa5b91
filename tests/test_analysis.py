"""Tests for the diagnostics module.

The ellipse bound is checked against brute-force interpolation errors,
the circle-map finder against maps with hand-computable fixed points
and against the scalar scan it replaced, and the convergence table
against synthetic rows with known slopes.
"""

import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from semdde.analysis import (
    BernsteinBound,
    CircleMapResult,
    ConvergenceCell,
    ConvergenceTable,
    _lift_iterate,
    _merge_close,
    bernstein_bound_fit,
    circle_map_analysis,
    convergence_study,
    convergence_table_document,
    orbit_amplitude,
    orbit_lag_map,
    residual_err,
    write_circle_map_csv,
    write_convergence_csv,
)
from semdde.collocation import (
    DiscreteState,
    NewtonSettings,
    default_constraints,
    newton_solve,
    resample_state,
    state_from_document,
)
from semdde.continuation import sd_quadratic_seed
from semdde.errors import AnalyticityViolationError, InvalidArgumentError
from semdde.piecewise import Mesh, _wrap_time, sample_periodic
from semdde.problems import DdeProblem, RescaledRhs, mackey_glass, \
    sd_quadratic

MG_BRANCH_END = (Path(__file__).resolve().parents[1] / "perfbench" / "data"
                 / "mg_branch_end.json")


def _equilibrium_state(tau=0.8, period=1.6, num_intervals=3, degree=4):
    mesh = Mesh.uniform(num_intervals)
    poly = sample_periodic(lambda t: np.ones_like(t), mesh, degree)
    return DiscreteState(poly, np.array([period, tau]))


def _lagged_pair():
    """Two components and no query at lag 0, so no query shares the
    grid's times."""

    def rhs(e, p):
        lag = e(-p[0])
        moving = e(-(0.5 * p[0] + 0.1 * lag[:, 1] ** 2))
        return np.stack([-lag[:, 0] + moving[:, 1],
                         np.sin(moving[:, 0]) - 0.5 * lag[:, 1]], axis=1)

    return DdeProblem(name="lagged_pair", dim=2, num_params=1, rhs=rhs)


def _residual_case(case):
    if case == "mackey_glass":
        end = state_from_document(json.loads(MG_BRANCH_END.read_text()))
        return mackey_glass(), resample_state(end, Mesh.uniform(11), 8)
    if case == "sd_quadratic":
        return sd_quadratic(), resample_state(sd_quadratic_seed(0.95),
                                              Mesh.uniform(10), 8)
    poly = sample_periodic(
        lambda t: np.stack([np.cos(2 * np.pi * t),
                            0.5 + np.sin(2 * np.pi * t)], axis=-1),
        Mesh.uniform(5), 6)
    return _lagged_pair(), DiscreteState(poly, np.array([2.0, 0.7]))


class TestResidualErr:
    def test_equilibrium_residual_vanishes(self):
        state = _equilibrium_state()
        assert residual_err(state, mackey_glass()) <= 1e-13

    def test_rejects_tiny_grid(self):
        with pytest.raises(InvalidArgumentError):
            residual_err(_equilibrium_state(), mackey_glass(), grid_points=1)

    def test_nonsolution_has_large_residual(self):
        mesh = Mesh.uniform(4)
        poly = sample_periodic(lambda t: 1.0 + 0.5 * np.sin(2 * np.pi * t),
                               mesh, 6)
        state = DiscreteState(poly, np.array([1.0, 0.8]))
        assert residual_err(state, mackey_glass()) > 0.1

    @pytest.mark.parametrize("case", ["mackey_glass", "sd_quadratic",
                                      "lagged_pair"])
    @pytest.mark.parametrize("grid_points", [2, 10001])
    def test_equals_the_two_pass_formula_bitwise(self, case, grid_points):
        prob, state = _residual_case(case)
        grid = np.linspace(0.0, 1.0, grid_points)  # holds t = 1
        two_pass = np.max(np.abs(
            state.poly.eval_deriv(grid)
            - RescaledRhs(prob)(state.poly, grid, state.mu))) / state.period
        assert residual_err(state, prob, grid_points) == two_pass

    def test_amplitude_of_sine_profile(self):
        mesh = Mesh.uniform(4)
        poly = sample_periodic(lambda t: 1.0 + 0.3 * np.sin(2 * np.pi * t),
                               mesh, 12)
        state = DiscreteState(poly, np.array([1.0, 0.8]))
        assert orbit_amplitude(state) == pytest.approx(0.6, abs=1e-8)

    @pytest.mark.parametrize("grid_points", [0, 1])
    def test_amplitude_rejects_tiny_grid(self, grid_points):
        with pytest.raises(InvalidArgumentError):
            orbit_amplitude(_equilibrium_state(), grid_points)


class TestConvergenceTable:
    def test_rejects_duplicate_cells(self):
        row = ConvergenceCell(1, 4, 1e-3, 1e-12, 3, 0.1)
        with pytest.raises(InvalidArgumentError):
            ConvergenceTable((row, row))

    def test_rejects_negative_err_on_completed_cell(self):
        with pytest.raises(InvalidArgumentError):
            ConvergenceTable((ConvergenceCell(1, 4, -1.0, 0.0, 3, 0.1),))

    def test_failed_cell_with_nan_is_kept(self):
        row = ConvergenceCell(1, 4, float("nan"), float("nan"), -1, 0.1,
                              failure="MaxIterExceededError: budget")
        table = ConvergenceTable((row,))
        assert table.completed_rows() == ()

    def test_slope_fit_recovers_synthetic_rate_and_skips_plateau(self):
        rows = [ConvergenceCell(1, m, math.exp(-0.9 * m), 0.0, 3, 0.1)
                for m in (4, 8, 12)]
        # plateau cell at the roundoff floor must not bias the fit
        rows.append(ConvergenceCell(1, 16, 1e-16, 0.0, 3, 0.1))
        slopes = ConvergenceTable(tuple(rows)).slopes()
        assert slopes[1] == pytest.approx(-0.9, abs=1e-12)

    def test_slopes_omit_short_columns(self):
        table = ConvergenceTable(
            (ConvergenceCell(2, 4, 1e-3, 0.0, 3, 0.1),))
        assert table.slopes() == {}


class TestConvergenceStudy:
    def test_degenerate_single_cell(self):
        prob = mackey_glass()
        seed = _equilibrium_state(tau=0.8)
        table = convergence_study(prob, 0.8, [1], [4], seed=seed)
        assert len(table.rows) == 1
        row = table.rows[0]
        assert row.completed
        assert (row.num_intervals, row.degree) == (1, 4)
        assert row.err <= 1e-12
        assert table.metadata["problem"] == "mackey_glass"

    def test_newton_failure_is_recorded_not_raised(self):
        prob = mackey_glass()
        mesh = Mesh.uniform(2)
        poly = sample_periodic(lambda t: 1.0 + 0.8 * np.sin(2 * np.pi * t),
                               mesh, 4)
        seed = DiscreteState(poly, np.array([1.6, 1.0]))
        table = convergence_study(prob, 1.0, [2], [4], seed=seed,
                                  settings=NewtonSettings(max_iter=1))
        row = table.rows[0]
        assert not row.completed
        assert "Error" in row.failure
        assert math.isnan(row.err)

    def test_rejects_empty_or_too_small_lists(self):
        prob = mackey_glass()
        seed = _equilibrium_state()
        with pytest.raises(InvalidArgumentError):
            convergence_study(prob, 0.8, [], [4], seed=seed)
        with pytest.raises(InvalidArgumentError):
            convergence_study(prob, 0.8, [1], [1], seed=seed)

    def test_csv_and_json_exports_are_deterministic(self):
        prob = mackey_glass()
        seed = _equilibrium_state(tau=0.8)
        table = convergence_study(prob, 0.8, [1], [4], seed=seed)
        first, second = io.StringIO(), io.StringIO()
        write_convergence_csv(table, first)
        write_convergence_csv(table, second)
        assert first.getvalue() == second.getvalue()
        lines = first.getvalue().splitlines()
        assert lines[0] == "# format_version=1"
        assert lines[1].split(",")[:3] == ["num_intervals", "degree", "err"]
        assert "wall_time" not in lines[1]
        doc = convergence_table_document(table)
        assert doc["format_version"] == 1
        assert doc["rows"][0]["degree"] == 4


class TestBernsteinBound:
    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(InvalidArgumentError):
            BernsteinBound(eta=0.0, max_modulus=1.0)
        with pytest.raises(InvalidArgumentError):
            BernsteinBound(eta=0.5, max_modulus=0.0)

    def test_bound_strictly_decreasing_in_degree(self):
        bound = BernsteinBound(eta=0.3, max_modulus=2.0)
        values = bound.bound(np.arange(1, 50))
        assert np.all(np.diff(values) < 0)

    def test_constant_function_gives_its_modulus(self):
        fit = bernstein_bound_fit(lambda z: np.full_like(z, -3.0), eta=0.4)
        assert fit.max_modulus == pytest.approx(3.0, abs=1e-12)
        expected = 4.0 * 3.0 * math.exp(-0.4 * 7) / (math.exp(0.4) - 1.0)
        assert fit.bound(7) == pytest.approx(expected, rel=1e-12)

    def test_interpolation_error_stays_below_bound(self):
        f = lambda z: 1.0 / (2.0 - np.cos(2.0 * np.pi * z))
        fit = bernstein_bound_fit(f, eta=0.5)
        mesh = Mesh.uniform(1)
        dense = np.linspace(0.0, 1.0, 4001)
        exact = f(dense.astype(complex)).real
        for m in range(8, 41, 4):
            poly = sample_periodic(lambda t: f(t), mesh, m)
            sup_err = np.max(np.abs(poly.eval(dense)[:, 0] - exact))
            assert sup_err <= fit.bound(m)

    def test_pole_inside_ellipse_is_detected(self):
        f = lambda z: 1.0 / (1.0001 - np.cos(2.0 * np.pi * z))
        with pytest.raises(AnalyticityViolationError):
            bernstein_bound_fit(f, eta=0.5)

    def test_nonfinite_value_on_a_ring_is_detected(self):
        def f(z):
            with np.errstate(divide="ignore", invalid="ignore"):
                return 1.0 / (z - 0.5)

        with pytest.raises(AnalyticityViolationError):
            bernstein_bound_fit(f, eta=0.2, samples=1025)

    def test_rejects_bad_eta_and_sample_count(self):
        with pytest.raises(InvalidArgumentError):
            bernstein_bound_fit(lambda z: z, eta=-1.0)
        with pytest.raises(InvalidArgumentError):
            bernstein_bound_fit(lambda z: z, eta=0.5, samples=4)


class TestCircleMap:
    def test_zero_lag_reports_identity(self):
        result = circle_map_analysis(lambda t: np.zeros_like(t), 3, 1000)
        assert result.kind == "identity"
        assert result.periodic_points == ()
        assert result.shift == pytest.approx(0.0, abs=1e-12)
        assert result.iterates.shape == (3, 1000)
        np.testing.assert_allclose(result.iterates[2], result.times,
                                   atol=1e-12)

    def test_half_turn_reports_rotation(self):
        result = circle_map_analysis(
            lambda t: np.full_like(np.asarray(t, dtype=float), 0.5), 2, 1000)
        assert result.kind == "rotation"
        assert result.shift == pytest.approx(-0.5, abs=1e-12)
        assert result.periodic_points == ()
        # after two steps every point returns to itself
        np.testing.assert_allclose(result.iterates[1], result.times,
                                   atol=1e-12)

    def test_rational_rotation_has_no_isolated_points_below_its_period(self):
        result = circle_map_analysis(
            lambda t: np.full_like(np.asarray(t, dtype=float), 0.4), 4, 1200)
        assert result.kind == "rotation"
        assert result.periodic_points == ()

    def test_sine_lag_fixed_points_and_stability(self):
        # r(t) = 0.2 sin(2 pi t) vanishes at 0 and 1/2; the lifted slope
        # 1 - 0.4 pi cos(2 pi t) is -0.257 at 0 (stable) and 2.257 at
        # 1/2 (unstable)
        r = lambda t: 0.2 * np.sin(2.0 * np.pi * np.asarray(t, dtype=float))
        result = circle_map_analysis(r, 2, 2000)
        assert result.kind == "generic"
        first = result.periodic_points[0]
        assert first.iterate == 1
        np.testing.assert_allclose(first.points, [0.0, 0.5], atol=1e-6)
        np.testing.assert_allclose(first.derivatives,
                                   [1.0 - 0.4 * np.pi, 1.0 + 0.4 * np.pi],
                                   atol=1e-4)
        assert list(first.unstable) == [False, True]
        # fixed points of the map remain fixed points of its square
        second = result.periodic_points[1]
        for p in first.points:
            assert np.min(np.abs(second.points - p)) <= 1e-6

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            circle_map_analysis(lambda t: t, 0, 1000)
        with pytest.raises(InvalidArgumentError):
            circle_map_analysis(lambda t: t, 1, 999)

    def test_orbit_lag_map_rescales_by_period(self):
        mesh = Mesh.uniform(3)
        poly = sample_periodic(lambda t: np.sin(2 * np.pi * t), mesh, 12)
        state = DiscreteState(poly, np.array([2.0, 0.7]))
        r = orbit_lag_map(state, lambda y, p: p[0] + y[..., 0])
        t = np.array([0.0, 0.25])
        np.testing.assert_allclose(r(t), [(0.7 + 0.0) / 2.0, (0.7 + 1.0) / 2.0],
                                   atol=1e-10)

    def test_circle_map_csv_layout(self):
        result = circle_map_analysis(lambda t: np.zeros_like(t), 2, 1000)
        out = io.StringIO()
        write_circle_map_csv(result, out)
        lines = out.getvalue().splitlines()
        assert lines[0] == "# format_version=1"
        assert lines[1] == "t,g1,g2"
        assert len(lines) == 2 + 1000


def _bisect_root(fn, lo, hi, f_lo, tol=1e-10):
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        f_mid = fn(mid)
        if f_mid == 0.0:
            return mid
        if (f_lo < 0.0) != (f_mid < 0.0):
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def _scalar_circle_map(r, k_max, grid):
    """Reference: the per-grid-point scan with one scalar bisection per
    bracket, as circle_map_analysis once ran it; returns the iterates and
    (points, derivatives, unstable) for every iterate."""
    times = np.linspace(0.0, 1.0, grid, endpoint=False)
    lifts = [_lift_iterate(r, times, k) for k in range(1, k_max + 1)]
    spacing, step = 1.0 / grid, 1e-6
    found = []
    for k in range(1, k_max + 1):
        disp = np.append(lifts[k - 1] - times, lifts[k - 1][0] - times[0])
        grid_ext = np.append(times, 1.0)
        roots = []
        for n in range(math.floor(disp.min()), math.ceil(disp.max()) + 1):
            h = disp - n

            def displaced(t, n=n, k=k):
                return float(_lift_iterate(r, t, k)) - t - n

            for i in range(grid):
                if h[i] == 0.0:
                    roots.append(grid_ext[i])
                elif (h[i] < 0.0) != (h[i + 1] < 0.0) and h[i + 1] != 0.0:
                    roots.append(_bisect_root(displaced, grid_ext[i],
                                              grid_ext[i] + spacing, h[i]))
        merged = _merge_close(roots)
        derivs = np.array([(_lift_iterate(r, p + step, k)
                            - _lift_iterate(r, p - step, k)) / (2.0 * step)
                           for p in merged])
        found.append((np.array(merged), derivs, np.abs(derivs) > 1.0))
    return np.array([_wrap_time(x) for x in lifts]), found


@pytest.fixture(scope="module")
def sd_quadratic_lag():
    """r(t) of the converged sd_quadratic (20, 12) orbit at delay 0.95."""
    prob = sd_quadratic()
    seed = sd_quadratic_seed(0.95)
    state = newton_solve(resample_state(seed, Mesh.uniform(20), 12), prob,
                         default_constraints(prob, seed.params)).state
    return orbit_lag_map(state, lambda y, p: p[0] + y[..., 0] + y[..., 0] ** 2)


def _sine_lag(t):
    return 0.2 * np.sin(2.0 * np.pi * np.asarray(t, dtype=float))


#: midpoint of the 1024-point grid's bracket starting at 3/4
_MIDPOINT_ROOT = 0.75 + 1.0 / 2048.0


def _grid_zero_lag(t):
    # exactly 0 at the grid times 0 and 1/4 of a 1024-point grid and at
    # the first bisection midpoint of the bracket starting at 3/4
    t = np.asarray(t, dtype=float)
    return 0.8 * t * (t - 0.25) * (t - _MIDPOINT_ROOT) * (1.0 - t)


class TestCircleMapAgainstTheScalarScan:
    def _assert_equal_bitwise(self, r, k_max, grid):
        result = circle_map_analysis(r, k_max, grid)
        iterates, found = _scalar_circle_map(r, k_max, grid)
        assert result.kind == "generic"
        assert np.array_equal(result.iterates, iterates)
        assert len(result.periodic_points) == k_max
        for pts, (points, derivs, unstable) in zip(result.periodic_points,
                                                   found):
            assert pts.points.tobytes() == points.tobytes()
            assert pts.derivatives.tobytes() == derivs.tobytes()
            assert pts.unstable.tobytes() == unstable.tobytes()
        return result

    def test_state_dependent_orbit(self, sd_quadratic_lag):
        result = self._assert_equal_bitwise(sd_quadratic_lag, 5, 4000)
        assert int(np.sum(result.periodic_points[4].unstable)) == 5

    def test_sine_lag(self):
        self._assert_equal_bitwise(_sine_lag, 2, 2000)

    def test_displacement_vanishing_at_grid_times_and_a_midpoint(self):
        grid = 1024
        assert np.count_nonzero(
            _grid_zero_lag(np.linspace(0.0, 1.0, grid, endpoint=False))
            == 0.0) == 2
        result = self._assert_equal_bitwise(_grid_zero_lag, 3, grid)
        assert {0.0, 0.25, _MIDPOINT_ROOT} <= set(
            result.periodic_points[0].points)

    def test_one_batched_call_per_bisection_step(self, sd_quadratic_lag):
        calls = []

        def counted(t):
            calls.append(np.size(t))
            return sd_quadratic_lag(t)

        circle_map_analysis(counted, 5, 4000)
        assert len(calls) <= 200  # one bracket at a time took 1205
        assert min(calls) > 0

    def test_lag_of_the_wrong_shape_is_rejected(self):
        with pytest.raises(InvalidArgumentError, match="shape"):
            circle_map_analysis(lambda t: _sine_lag(t)[..., None], 5, 1000)

    def test_lag_with_a_nan_is_rejected(self):
        def r(t):
            return np.where(t > 0.5, np.nan, 0.1 * np.sin(2 * np.pi * t))

        with pytest.raises(InvalidArgumentError, match="finite"):
            circle_map_analysis(r, 2, 1000)

    def test_infinite_lag_is_rejected(self):
        with pytest.raises(InvalidArgumentError, match="finite"):
            circle_map_analysis(lambda t: np.full_like(t, np.inf), 2, 1000)
