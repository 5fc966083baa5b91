"""Tests for the diagnostics module.

The ellipse bound is checked against brute-force interpolation errors,
the circle-map finder against maps with hand-computable fixed points
and against the scalar scan it replaced, and the convergence table
against synthetic rows with known slopes.
"""

import io
import json
import logging
import math

import numpy as np
import pytest

import semdde
from semdde.analysis import (
    DEFAULT_ERR_GRID,
    BernsteinBound,
    CircleMapResult,
    ConvergenceCell,
    ConvergenceTable,
    _checked_plan,
    _lift_iterate,
    _merge_close,
    bernstein_bound_fit,
    checked_amplitude,
    circle_map_analysis,
    convergence_study,
    convergence_table_document,
    err_and_amplitude,
    measured_orbit,
    orbit_lag_map,
    write_circle_map_csv,
    write_convergence_csv,
)
from semdde.collocation import (
    DiscreteState,
    NewtonSettings,
    _equation_rows,
    default_constraints,
    newton_solve,
    resample_state,
    state_from_document,
)
from semdde.continuation import sd_quadratic_seed
from semdde.errors import AnalyticityViolationError, CollapseError, \
    InvalidArgumentError
from semdde.oracle import phi_m_defect
from semdde.piecewise import Mesh, _wrap_time, sample_periodic
from semdde.problems import DdeProblem, RescaledRhs, mackey_glass, \
    sd_quadratic

from support import (
    MG_BRANCH_END,
    coupled_pair,
    equilibrium_state,
    tiled_reference,
    tiles_mesh,
)


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
        state = equilibrium_state()
        assert err_and_amplitude(state, mackey_glass())[0] <= 1e-13

    def test_rejects_tiny_grid(self):
        with pytest.raises(InvalidArgumentError):
            err_and_amplitude(equilibrium_state(), mackey_glass(),
                              grid_points=1)

    def test_nonsolution_has_large_residual(self):
        mesh = Mesh.uniform(4)
        poly = sample_periodic(lambda t: 1.0 + 0.5 * np.sin(2 * np.pi * t),
                               mesh, 6)
        state = DiscreteState(poly, np.array([1.0, 0.8]))
        assert err_and_amplitude(state, mackey_glass())[0] > 0.1

    @pytest.mark.parametrize("case", ["mackey_glass", "sd_quadratic",
                                      "lagged_pair"])
    @pytest.mark.parametrize("grid_points", [2, 10001])
    def test_equals_the_two_pass_formula_bitwise(self, case, grid_points):
        prob, state = _residual_case(case)
        poly = state.poly
        grid = np.linspace(0.0, 1.0, grid_points)  # holds t = 1
        rhs = RescaledRhs(prob)
        if tiles_mesh(poly, grid_points):  # 10001 points on L = 10 and 5
            # the rows of the tiling path; a query at lag 0 reads its values
            _, values, deriv = tiled_reference(poly, grid_points)
            rhs_values = rhs.evaluate(
                grid, state.mu,
                lambda k, at: values.copy()
                if k == 0 and np.array_equal(at, grid) else poly.eval(at))
        else:
            deriv, rhs_values = poly.eval_deriv(grid), rhs(poly, grid,
                                                           state.mu)
        two_pass = np.max(np.abs(deriv - rhs_values)) / state.period
        assert err_and_amplitude(state, prob, grid_points)[0] == two_pass

    def test_amplitude_of_sine_profile(self):
        mesh = Mesh.uniform(4)
        poly = sample_periodic(lambda t: 1.0 + 0.3 * np.sin(2 * np.pi * t),
                               mesh, 12)
        state = DiscreteState(poly, np.array([1.0, 0.8]))
        assert err_and_amplitude(state, mackey_glass())[1] == pytest.approx(
            0.6, abs=1e-8)

    @pytest.mark.parametrize("grid_points", [0, 1])
    def test_amplitude_rejects_tiny_grid(self, grid_points):
        with pytest.raises(InvalidArgumentError):
            err_and_amplitude(equilibrium_state(), mackey_glass(),
                              grid_points)
        # a table's cells measure err on the grid too
        with pytest.raises(InvalidArgumentError):
            convergence_study(mackey_glass(), [0.8], [3], [4],
                              seed=equilibrium_state(),
                              grid_points=grid_points)

    @pytest.mark.parametrize("case", ["mackey_glass", "sd_quadratic",
                                      "lagged_pair"])
    @pytest.mark.parametrize("grid_points", [2, 2001, 10001])
    def test_shared_pass_equals_the_two_diagnostics_bitwise(
            self, case, grid_points):
        """The residual from the equation rows and the largest range of
        one component of the grid's values, each asked for first, so the
        shared pass reads the grid on a later request of the store."""
        prob, state = _residual_case(case)
        rows, _ = _equation_rows(state, prob, grid_points)
        values = state.poly._on(grid_points)[1]
        assert err_and_amplitude(state, prob, grid_points) == (
            float(np.max(np.abs(rows)) / state.period),
            max(float(np.ptp(values[:, s])) for s in range(state.poly.dim)))

    def test_amplitude_is_the_largest_range_of_one_component(self):
        """(0.1 sin(2 pi t), 5) reads 0.2, the collapse rule's measure,
        not the 5.1 of both components' values together."""
        state = _two_levels(0.1, 5.0)
        values = state.poly._on(DEFAULT_ERR_GRID)[1]
        amplitude = err_and_amplitude(state, coupled_pair())[1]
        assert amplitude == max(float(np.ptp(values[:, 0])),
                                float(np.ptp(values[:, 1])))
        assert amplitude == pytest.approx(checked_amplitude(state),
                                          rel=1e-12)


class TestMeasuredOrbit:
    def test_reports_what_the_solve_found(self):
        prob = mackey_glass()
        end = state_from_document(json.loads(MG_BRANCH_END.read_text()))
        cons = default_constraints(prob, end.params)
        result = newton_solve(end, prob, cons)
        orbit = measured_orbit(lambda: (result, cons), prob, 2001)
        assert orbit.state is result.state
        assert orbit.newton_iters == result.iterations
        assert (orbit.err, orbit.amplitude) == err_and_amplitude(
            result.state, prob, 2001)
        assert orbit.phi_defect == phi_m_defect(result.state, prob,
                                                cons).max_defect
        assert len(orbit.seconds) == 3
        assert all(isinstance(t, float) and t >= 0.0 for t in orbit.seconds)

    def test_a_failed_solve_is_not_measured(self, monkeypatch):
        measured = []
        monkeypatch.setattr(
            "semdde.analysis.err_and_amplitude",
            lambda *args: measured.append(args))

        def collapse():
            raise CollapseError("converged to the trivial solution")

        with pytest.raises(CollapseError):
            measured_orbit(collapse, mackey_glass())
        assert measured == []


def _two_levels(amplitude, level):
    """A dim-2 state: amplitude * sin(2 pi t) and the constant level."""
    poly = sample_periodic(
        lambda t: np.stack([amplitude * np.sin(2 * np.pi * t),
                            np.full_like(t, level)], axis=1),
        Mesh.uniform(4), 5)
    return DiscreteState(poly, np.array([1.0, 0.5]))


class TestCheckedAmplitude:
    @pytest.mark.parametrize("state", [
        lambda: equilibrium_state(),
        lambda: sd_quadratic_seed(0.95),
        lambda: DiscreteState(sample_periodic(
            lambda t: np.stack([np.sin(2 * np.pi * t),
                                3.0 * np.cos(6 * np.pi * t)], axis=1),
            Mesh([0.0, 0.3, 0.45, 1.0]), 7), np.array([1.0])),
        lambda: _two_levels(0.1, 5.0),
    ], ids=["flat", "sd_quadratic_seed", "two_components", "two_levels"])
    def test_is_the_range_of_the_free_values_bitwise(self, state):
        """The largest range of the free values of one component."""
        state = state()
        free = state.poly.free_values
        want = max(float(np.ptp(free[:, :, s])) for s in range(free.shape[2]))
        assert checked_amplitude(state).hex() == want.hex()
        if free.shape[2] == 1:  # the range of all free values
            assert checked_amplitude(state).hex() == \
                float(np.ptp(free)).hex()

    def test_a_component_collapsing_under_another_is_a_collapse(self):
        """The first component falls from 0.1 sin(2 pi t) to 0 while the
        second stays at 5: the range of all free values would fall only
        from 5.1 to 5."""
        before = checked_amplitude(_two_levels(0.1, 5.0))
        with pytest.raises(CollapseError):
            checked_amplitude(_two_levels(0.0, 5.0), before)

    def test_the_continuation_module_keeps_the_one_rule(self):
        from semdde import continuation
        assert continuation.checked_amplitude is checked_amplitude

    @pytest.mark.parametrize("ratio, collapsed", [
        (0.5, False), (9.9, False), (10.1, True), (1e6, True)])
    def test_raises_below_a_tenth_of_the_amplitude_before(self, ratio,
                                                          collapsed):
        state = sd_quadratic_seed(0.95)
        amplitude = checked_amplitude(state)
        before = ratio * amplitude
        if not collapsed:
            assert checked_amplitude(state, before) == amplitude
            return
        with pytest.raises(CollapseError) as exc:
            checked_amplitude(state, before)
        assert str(exc.value) == (
            f"orbit amplitude fell from {before:.3e} to {amplitude:.3e}; "
            f"converged to the trivial solution")

    @pytest.mark.parametrize("before", [None, 0.0, 1e-9, 1e-8])
    def test_never_raises_from_a_start_at_or_below_the_floor(self, before):
        # the equilibrium's amplitude 0 is below a tenth of any positive
        # amplitude, but a start at or below 1e-8 is itself flat
        assert checked_amplitude(equilibrium_state(), before) == 0.0

    def test_a_start_just_above_the_floor_is_not_flat(self):
        with pytest.raises(CollapseError):
            checked_amplitude(equilibrium_state(), np.nextafter(1e-8, 1.0))


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
        seed = equilibrium_state(tau=0.8)
        table = convergence_study(prob, 0.8, [1], [4], seed=seed)
        assert len(table.rows) == 1
        row = table.rows[0]
        assert row.completed
        assert (row.num_intervals, row.degree) == (1, 4)
        assert row.err <= 1e-12
        assert table.metadata["problem"] == "mackey_glass"

    @staticmethod
    def _failing_table():
        prob = mackey_glass()
        mesh = Mesh.uniform(2)
        poly = sample_periodic(lambda t: 1.0 + 0.8 * np.sin(2 * np.pi * t),
                               mesh, 4)
        seed = DiscreteState(poly, np.array([1.6, 1.0]))
        return convergence_study(prob, 1.0, [2], [4], seed=seed,
                                 settings=NewtonSettings(max_iter=1))

    def test_newton_failure_is_recorded_not_raised(self):
        table = self._failing_table()
        row = table.rows[0]
        assert not row.completed
        assert "Error" in row.failure
        assert math.isnan(row.err)

    def test_a_negative_delay_is_recorded_as_a_failed_cell(self):
        # delay 0.1 pulls the 0.95 orbit's delay law below zero
        table = convergence_study(sd_quadratic(), [0.1], [10], [4, 6],
                                  seed=sd_quadratic_seed(0.95))
        assert [(row.num_intervals, row.degree) for row in table.rows] == [
            (10, 4), (10, 6)]
        for row in table.rows:
            assert not row.completed and row.newton_iters == -1
            assert row.failure.startswith(
                "NegativeDelayError: state-dependent delay went negative")

    def test_a_cell_that_collapses_onto_the_equilibrium_fails(self):
        # at delay 1.5 the m=4 solve from the 1.1 orbit falls onto the
        # equilibrium (err at roundoff, amplitude about 3e-15); it must
        # neither count as converged nor warm-start m=8
        table = convergence_study(sd_quadratic(), [1.5], [10], [4, 8],
                                  seed=sd_quadratic_seed(1.1))
        collapsed, solved = table.rows
        assert not collapsed.completed and collapsed.newton_iters == -1
        assert collapsed.failure.startswith(
            "CollapseError: orbit amplitude fell from ")
        assert collapsed.failure.endswith(
            "; converged to the trivial solution")
        assert solved.completed and solved.degree == 8
        assert 1e-9 < solved.err < 1e-7

    def test_each_cell_is_logged_at_debug_level(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="semdde.analysis"):
            table = convergence_study(mackey_glass(), 0.8, [1], [4, 5],
                                      seed=equilibrium_state(tau=0.8))
            failed = self._failing_table()
        messages = [r.getMessage() for r in caplog.records
                    if r.name == "semdde.analysis"]
        assert messages == [
            f"cell L=1 m={row.degree}: {row.newton_iters} iterations, "
            f"err {row.err:.3e}" for row in table.rows
        ] + [f"cell L=2 m=4 failed: {failed.rows[0].failure}"]

    def test_rejects_empty_or_too_small_lists(self):
        prob = mackey_glass()
        seed = equilibrium_state()
        with pytest.raises(InvalidArgumentError):
            convergence_study(prob, 0.8, [], [4], seed=seed)
        with pytest.raises(InvalidArgumentError):
            convergence_study(prob, 0.8, [1], [1], seed=seed)

    @pytest.mark.parametrize("sizes, degrees, message", [
        ([10, 10], [4], r"^mesh sizes must be distinct, >= 1 and nonempty, "
                        r"got \[10, 10\]$"),
        ([10], [4, 4], r"^degrees must be distinct, >= 2 and nonempty, "
                       r"got \[4, 4\]$"),
    ], ids=["mesh_size", "degree"])
    def test_a_repeat_is_rejected_before_the_first_solve(
            self, monkeypatch, sizes, degrees, message):
        solves = []

        def counted(*args, **kwargs):
            solves.append(args)
            return newton_solve(*args, **kwargs)

        monkeypatch.setattr("semdde.analysis.newton_solve", counted)
        with pytest.raises(InvalidArgumentError, match=message):
            convergence_study(sd_quadratic(), [0.95], sizes, degrees,
                              seed=sd_quadratic_seed(0.95))
        assert solves == []

    @pytest.mark.parametrize("sizes, degrees, message", [
        ([2.5], [4], r"^mesh sizes must be integers, got \[2\.5\]$"),
        ([2], [4.9], r"^degrees must be integers, got \[4\.9\]$"),
        ([2.5, True], [4.9], r"^mesh sizes must be integers, "),
        ([True], [4], r"^mesh sizes must be integers, got \[True\]$"),
        ([2], [np.float64(4.0)], r"^degrees must be integers, "),
        ([2], ["4"], r"^degrees must be integers, got \['4'\]$"),
    ], ids=["float_size", "float_degree", "float_and_bool", "bool_size",
            "numpy_float_degree", "string_degree"])
    def test_a_non_integer_entry_is_rejected_before_the_first_solve(
            self, monkeypatch, sizes, degrees, message):
        # int() would cut [2.5], [4.9] to a cell (2, 4) nobody asked for
        solves = []

        def counted(*args, **kwargs):
            solves.append(args)
            return newton_solve(*args, **kwargs)

        monkeypatch.setattr("semdde.analysis.newton_solve", counted)
        with pytest.raises(InvalidArgumentError, match=message):
            convergence_study(mackey_glass(), [0.95], sizes, degrees,
                              seed=equilibrium_state())
        assert solves == []

    @pytest.mark.parametrize("params", [[math.nan], ["0.95"], math.inf],
                             ids=["nan", "string", "inf"])
    def test_a_bad_parameter_is_rejected_before_the_first_resample(
            self, monkeypatch, params):
        # it used to pass the count check and fail in the first cell
        resampled = []

        def counted(*args):
            resampled.append(args)
            return resample_state(*args)

        monkeypatch.setattr("semdde.analysis.resample_state", counted)
        with pytest.raises(InvalidArgumentError, match="params must be"):
            convergence_study(mackey_glass(), params, [2], [4],
                              seed=equilibrium_state())
        assert resampled == []

    @pytest.mark.parametrize("grid_points", [1, 2.0, True],
                             ids=["one", "float", "bool"])
    def test_a_bad_grid_is_rejected_before_the_first_solve(
            self, monkeypatch, grid_points):
        # the first cell's residual_err alone would refuse grid_points=1
        solves = []

        def counted(*args, **kwargs):
            solves.append(args)
            return newton_solve(*args, **kwargs)

        monkeypatch.setattr("semdde.analysis.newton_solve", counted)
        with pytest.raises(InvalidArgumentError, match="^grid_points must "):
            convergence_study(mackey_glass(), [0.95], [2], [4],
                              seed=equilibrium_state(),
                              grid_points=grid_points)
        assert solves == []

    def test_numpy_integers_make_a_plan_of_python_ints(self):
        sizes, degrees = _checked_plan(np.array([2, 3]), [np.int32(4)])
        assert (sizes, degrees) == ([2, 3], [4])
        assert all(type(v) is int for v in sizes + degrees)

    def test_csv_and_json_exports_are_deterministic(self):
        prob = mackey_glass()
        seed = equilibrium_state(tau=0.8)
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
        with pytest.raises(InvalidArgumentError,
                           match=r"^samples must be an integer, got 1024\.0$"):
            bernstein_bound_fit(lambda z: z, eta=0.5, samples=1024.0)


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

    @pytest.mark.parametrize("k_max, grid, name", [
        (True, 1000, "k_max"), (2.0, 1000, "k_max"), (2, 1000.0, "grid"),
        (2, np.float64(1000.0), "grid"),
    ], ids=["bool_k_max", "float_k_max", "float_grid", "numpy_float_grid"])
    def test_counts_must_be_integers(self, k_max, grid, name):
        # True would be one iterate, and a float would reach np.linspace
        with pytest.raises(InvalidArgumentError,
                           match=f"^{name} must be an integer, got "):
            circle_map_analysis(lambda t: np.zeros_like(t), k_max, grid)

    def test_orbit_lag_map_rescales_by_period(self):
        mesh = Mesh.uniform(3)
        poly = sample_periodic(lambda t: np.sin(2 * np.pi * t), mesh, 12)
        state = DiscreteState(poly, np.array([2.0, 0.7]))
        r = orbit_lag_map(state, lambda y, p: p[0] + y[..., 0])
        t = np.array([0.0, 0.25])
        np.testing.assert_allclose(r(t), [(0.7 + 0.0) / 2.0, (0.7 + 1.0) / 2.0],
                                   atol=1e-10)

    def test_points_across_t_0_merge_into_the_first(self):
        # 1 - 1e-9 and 1e-9 lie 2e-9 apart across the wrap
        assert _merge_close([0.5, 1.0 - 1e-9, 1e-9]) == [1e-9, 0.5]
        assert _merge_close([0.5, 1.0 - 1e-7, 1e-9]) == [1e-9, 0.5,
                                                         1.0 - 1e-7]

    def test_circle_map_csv_layout(self):
        result = circle_map_analysis(lambda t: np.zeros_like(t), 2, 1000)
        out = io.StringIO()
        write_circle_map_csv(result, out)
        lines = out.getvalue().splitlines()
        assert lines[0] == "# format_version=1"
        assert lines[1] == "t,g1,g2"
        assert len(lines) == 2 + 1000

    def test_circle_map_csv_reads_back_bitwise(self):
        # every double is written as its repr
        result = circle_map_analysis(_sine_lag, 3, 1000)
        out = io.StringIO()
        write_circle_map_csv(result, out)
        cells = np.array([line.split(",") for line in
                          out.getvalue().splitlines()[2:]], dtype=float)
        assert np.array_equal(cells[:, 0], result.times)
        assert np.array_equal(cells[:, 1:].T, result.iterates)


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
    return orbit_lag_map(state, prob.lag)


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

    @pytest.mark.parametrize("r, points", [
        # the displacement -r stays in (-0.15, -0.05): no bracket, no point
        (lambda t: 0.1 + 0.05 * np.sin(2.0 * np.pi * np.asarray(t)), []),
        # -r touches 0 without changing sign: t - r(t) is t at the grid
        # times 0 and 1/2 (r(1/2) rounds away), two points, no bracket
        (lambda t: 0.3 * np.sin(2.0 * np.pi * np.asarray(t)) ** 2,
         [0.0, 0.5]),
    ], ids=["no_zero", "touching_zero"])
    def test_an_iterate_without_a_bracket(self, r, points):
        result = self._assert_equal_bitwise(r, 2, 1000)
        assert result.periodic_points[0].points.tolist() == points

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


def test_every_exported_name_resolves():
    missing = [name for name in semdde.__all__
               if not hasattr(semdde, name)]
    assert missing == []
    assert "err_and_amplitude" in semdde.__all__
    assert "residual_err" not in semdde.__all__
    assert "orbit_amplitude" not in semdde.__all__
