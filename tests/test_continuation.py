"""Tests for Hopf location, initial guesses, and branch continuation.

The oscillation-onset numbers have closed forms: for the Mackey-Glass
linearization alpha = -1, beta = -4, so omega = sqrt(15) and the onset
delay is arccos(1/4 / -1 ... ) = arccos(-0.25)/sqrt(15).  Branch tests
run a short, cheap stretch of the real branch and check its shape.
"""

import dataclasses
import io
import logging
import math
import re
import warnings

import numpy as np
import pytest

from semdde.collocation import DiscreteState, default_constraints, \
    newton_solve, NewtonSettings
from semdde.continuation import (
    BranchPoint,
    HopfData,
    _PREDICTOR_ORBITS,
    _predict,
    continue_branch,
    hopf_initial_guess,
    mackey_glass_hopf,
    read_branch_csv,
    sd_quadratic_seed,
    write_branch_csv,
)
from semdde.errors import (
    CollapseError,
    FormatVersionError,
    InvalidArgumentError,
    NoHopfError,
    StepFailureError,
)
from semdde.oracle import phi_m_defect
from semdde.piecewise import Mesh, PeriodicPiecewisePoly, sample_periodic
from semdde.problems import mackey_glass, scalar_hopf_point, sd_quadratic

from support import PERIOD_HOPF, TAU_HOPF, coupled_pair


@pytest.fixture(scope="module")
def short_branch():
    """Mackey-Glass branch from just past onset to delay 0.6, L=11, m=4."""
    prob = mackey_glass()
    data = mackey_glass_hopf()
    guess = hopf_initial_guess(data, 0.01, Mesh.uniform(11), 4)
    start = newton_solve(guess, prob,
                         default_constraints(prob, guess.params)).state
    points = continue_branch(start, prob, float(guess.params[0]), 0.6, 5)
    return prob, start, float(guess.params[0]), points


class TestScalarHopfPoint:
    def test_matches_closed_form(self):
        tau, omega = scalar_hopf_point(-1.0, -4.0)
        assert omega == pytest.approx(math.sqrt(15.0), abs=1e-12)
        assert tau == pytest.approx(TAU_HOPF, abs=1e-10)

    def test_characteristic_equation_plugback(self):
        for alpha, beta in ((-1.0, -4.0), (-1.0, 4.0), (0.0, -1.0),
                            (0.5, -2.0)):
            tau, omega = scalar_hopf_point(alpha, beta)
            assert abs(alpha + beta * math.cos(omega * tau)) <= 1e-10
            assert abs(omega + beta * math.sin(omega * tau)) <= 1e-9

    def test_positive_beta_uses_second_branch(self):
        tau_neg, omega = scalar_hopf_point(-1.0, -4.0)
        tau_pos, _ = scalar_hopf_point(-1.0, 4.0)
        # same frequency, but the crossing angle moves past pi
        assert omega * tau_neg < math.pi < omega * tau_pos < 2.0 * math.pi

    def test_no_crossing_raises(self):
        with pytest.raises(NoHopfError):
            scalar_hopf_point(-1.0, -0.5)
        with pytest.raises(NoHopfError):
            scalar_hopf_point(-1.0, 1.0)

    def test_quadratic_delay_linearization_onset(self):
        tau, omega = scalar_hopf_point(0.0, -1.0)
        assert omega == pytest.approx(1.0, abs=1e-14)
        assert tau == pytest.approx(math.pi / 2.0, abs=1e-10)

    @pytest.mark.parametrize("alpha, beta", [
        (math.nan, -4.0), (-1.0, math.inf), (-math.inf, -4.0)])
    def test_rejects_a_coefficient_that_is_not_finite(self, alpha, beta):
        with pytest.raises(InvalidArgumentError,
                           match="^(alpha|beta) must be a finite number, "
                                 "got -?(nan|inf)$"):
            scalar_hopf_point(alpha, beta)


class TestHopfData:
    def test_mackey_glass_onset_digits(self):
        data = mackey_glass_hopf()
        assert abs(data.tau_hopf - 0.4708) <= 5e-4
        assert data.omega == pytest.approx(math.sqrt(15.0), abs=1e-12)
        assert data.equilibrium.tolist() == [1.0]
        assert data.period == pytest.approx(PERIOD_HOPF, abs=1e-14)

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            HopfData(tau_hopf=-1.0, omega=1.0, equilibrium=np.array([0.0]))
        with pytest.raises(InvalidArgumentError):
            HopfData(tau_hopf=1.0, omega=0.0, equilibrium=np.array([0.0]))
        with pytest.raises(InvalidArgumentError):
            HopfData(tau_hopf=1.0, omega=1.0,
                     equilibrium=np.array([np.inf]))


class TestHopfInitialGuess:
    def test_guess_layout_and_mu(self):
        data = mackey_glass_hopf()
        state = hopf_initial_guess(data, 0.01, Mesh.uniform(11), 4)
        assert state.flatten().size == 1 * 4 * 11 + 2
        assert state.period == data.period
        assert state.params[0] == data.tau_hopf + 1e-3
        dense = state.poly.eval(np.linspace(0.0, 1.0, 2001))
        deviation = np.max(np.abs(dense - 1.0))
        assert 0.0099 <= deviation <= 0.0101

    def test_zero_amplitude_gives_the_equilibrium(self):
        data = mackey_glass_hopf()
        state = hopf_initial_guess(data, 0.0, Mesh.uniform(3), 3)
        assert np.all(state.poly.values == 1.0)

    def test_negative_amplitude_rejected(self):
        data = mackey_glass_hopf()
        with pytest.raises(InvalidArgumentError):
            hopf_initial_guess(data, -0.01, Mesh.uniform(3), 3)

    def test_offset_override(self):
        data = mackey_glass_hopf()
        state = hopf_initial_guess(data, 0.01, Mesh.uniform(3), 3,
                                   offset=-2e-2)
        assert state.params[0] == data.tau_hopf - 2e-2


class TestBranchPoint:
    def test_validation(self, short_branch):
        _, _, _, points = short_branch
        good = points[0]
        with pytest.raises(InvalidArgumentError):
            BranchPoint(parameter=good.parameter, state=good.state,
                        amplitude=-1.0, period=good.period, err=good.err,
                        newton_iters=1, phi_defect=good.phi_defect)
        with pytest.raises(InvalidArgumentError):
            BranchPoint(parameter=good.parameter, state=good.state,
                        amplitude=good.amplitude, period=0.0, err=good.err,
                        newton_iters=1, phi_defect=good.phi_defect)

    @pytest.mark.parametrize("parameter", [math.nan, math.inf, -math.inf])
    def test_rejects_a_parameter_that_is_not_finite(self, short_branch,
                                                    parameter):
        good = short_branch[3][0]
        with pytest.raises(InvalidArgumentError,
                           match="^parameter must be a finite number, "
                                 "got -?(nan|inf)$"):
            dataclasses.replace(good, parameter=parameter)


class TestContinueBranch:
    def test_rejects_bad_step_count(self, short_branch):
        prob, start, p0, _ = short_branch
        with pytest.raises(InvalidArgumentError):
            continue_branch(start, prob, p0, 1.0, 0)

    @pytest.mark.parametrize("steps", [True, 2.0, 1.5, "2"],
                             ids=["bool", "float", "fraction", "string"])
    def test_rejects_a_step_count_that_is_not_an_integer(self, short_branch,
                                                         steps):
        # True would count as one step, and 2.0 would reach np.linspace
        prob, start, p0, _ = short_branch
        with pytest.raises(InvalidArgumentError,
                           match=rf"^steps must be an integer, got "
                                 rf"{re.escape(repr(steps))}$"):
            continue_branch(start, prob, p0, 0.5, steps)

    @pytest.mark.parametrize("grid_points", [1, 2.0, True],
                             ids=["one", "float", "bool"])
    def test_a_bad_grid_is_rejected_before_the_first_solve(
            self, short_branch, monkeypatch, grid_points):
        # the first step's err_and_amplitude alone would refuse
        # grid_points=1, after its solve
        prob, start, p0, _ = short_branch
        solves = []

        def counted(*args, **kwargs):
            solves.append(args)
            return newton_solve(*args, **kwargs)

        monkeypatch.setattr("semdde.continuation.newton_solve", counted)
        with pytest.raises(InvalidArgumentError, match="^grid_points must "):
            continue_branch(start, prob, p0, 0.5, 1, grid_points=grid_points)
        assert solves == []

    def test_a_flat_start_is_refused_before_the_first_solve(
            self, monkeypatch):
        """The Mackey-Glass equilibrium y = 1 solves every step, so the
        collapse rule, which measures a step against its start, would
        let a flat branch through."""
        solves = []
        monkeypatch.setattr("semdde.continuation.newton_solve",
                            lambda *args, **kwargs: solves.append(args))
        flat = DiscreteState(
            sample_periodic(lambda t: np.ones_like(t), Mesh.uniform(4), 5),
            np.array([1.6, 0.8]))
        with pytest.raises(CollapseError,
                           match=r"range over 0\.000e\+00, not above the "
                                 r"flat-profile floor 1e-08$"):
            continue_branch(flat, mackey_glass(), 0.8, 1.0, 3)
        assert solves == []

    def test_a_flat_start_of_two_components_is_refused(self, monkeypatch):
        """Each component is flat, though the free values range over 4."""
        solves = []
        monkeypatch.setattr("semdde.continuation.newton_solve",
                            lambda *args, **kwargs: solves.append(args))
        flat = DiscreteState(
            sample_periodic(lambda t: np.stack([np.full_like(t, 1.0),
                                                np.full_like(t, 5.0)], axis=1),
                            Mesh.uniform(4), 5),
            np.array([1.6, 0.7]))
        with pytest.raises(CollapseError,
                           match=r"range over 0\.000e\+00, not above the "
                                 r"flat-profile floor 1e-08$"):
            continue_branch(flat, coupled_pair(), 0.7, 0.8, 2)
        assert solves == []

    def test_a_numpy_integer_step_count_is_accepted(self, short_branch):
        prob, _, _, points = short_branch
        last = points[-1]
        more = continue_branch(last.state, prob, last.parameter,
                               last.parameter + 0.01, np.int64(1))
        assert len(more) == 1

    @pytest.mark.parametrize("p_from, p_to", [
        (math.nan, 0.6), (None, math.inf), (-math.inf, 0.6)],
        ids=["nan_from", "inf_to", "minus_inf_from"])
    def test_rejects_a_range_that_is_not_finite(self, short_branch, p_from,
                                                p_to):
        prob, start, p0, _ = short_branch
        with pytest.raises(InvalidArgumentError,
                           match="^p_(from|to) must be a finite number, "
                                 "got -?(nan|inf)$"):
            continue_branch(start, prob, p0 if p_from is None else p_from,
                            p_to, 1)

    def test_branch_shape(self, short_branch):
        _, _, p0, points = short_branch
        assert len(points) == 5
        expected = np.linspace(p0, 0.6, 6)[1:]
        np.testing.assert_allclose([p.parameter for p in points], expected,
                                   atol=1e-15)
        amplitudes = [p.amplitude for p in points]
        assert all(b > a for a, b in zip(amplitudes, amplitudes[1:]))
        assert all(p.period > 0 for p in points)

    def test_every_point_passes_the_fixed_point_oracle(self, short_branch):
        _, _, _, points = short_branch
        assert all(p.phi_defect <= 1e-8 for p in points)

    def test_reconverge_in_place(self, short_branch):
        """A zero step: the later solves have a history at the same p,
        whose coinciding nodes are dropped, so each keeps the previous
        orbit instead of dividing by zero."""
        prob, _, _, points = short_branch
        last = points[-1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            again = continue_branch(last.state, prob, last.parameter,
                                    last.parameter, 3)
        assert len(again) == 3
        for point in again:
            assert point.parameter == last.parameter
            assert point.newton_iters <= 1
            assert point.amplitude == pytest.approx(last.amplitude,
                                                    abs=1e-8)

    def test_predicted_points_match_the_previous_orbit_solves(
            self, short_branch, monkeypatch):
        """The predicted guess against the orbit the step starts from: the same orbits within the solver tolerance, in
        no more Newton iterations."""
        prob, start, p0, _ = short_branch
        iterations = []

        def counted(*args, **kwargs):
            result = newton_solve(*args, **kwargs)
            iterations.append(result.iterations)
            return result

        monkeypatch.setattr("semdde.continuation.newton_solve", counted)
        predicted = continue_branch(start, prob, p0, 0.6, 5)
        predicted_iters = sum(iterations)
        iterations.clear()
        monkeypatch.setattr("semdde.continuation._predict",
                            lambda orbits, onset, p_target: orbits[-1])
        reference = continue_branch(start, prob, p0, 0.6, 5)
        for point, ref in zip(predicted, reference):
            assert np.max(np.abs(point.state.poly.free_values
                                 - ref.state.poly.free_values)) <= 1e-8
            assert abs(point.period - ref.period) <= 1e-8
        assert predicted_iters <= sum(iterations)

    @pytest.mark.parametrize("bad", ["period_below_zero", "non_finite"])
    def test_invalid_prediction_keeps_the_previous_orbit(self, short_branch,
                                                         bad):
        """The first step's extrapolation through ``previous`` and
        ``start`` would have T <= 0 or a NaN; it is retried without its
        oldest orbit, down to the onset prediction from ``start``, so the
        branch is the one without a history, bitwise."""
        prob, start, p0, points = short_branch
        mu = start.mu.copy()
        poly = start.poly
        if bad == "period_below_zero":
            mu[0] += 100.0
            mu[1] = p0 - 1e-3
        else:
            # the extrapolated profile overflows
            mu[1] = p0 - 1e-12
            poly = PeriodicPiecewisePoly(poly.mesh, poly.degree,
                                         1e300 * poly.free_values)
        previous = DiscreteState(poly, mu)
        got = continue_branch(start, prob, p0, 0.6, 5, previous=(previous,))
        assert [(p.state.flatten().tobytes(), p.err, p.amplitude,
                 p.newton_iters) for p in got] == \
            [(p.state.flatten().tobytes(), p.err, p.amplitude,
              p.newton_iters) for p in points]

    @pytest.mark.parametrize("where", [0, 1, 2])
    def test_previous_of_another_layout_is_rejected(self, short_branch,
                                                    where):
        prob, _, _, points = short_branch
        other = hopf_initial_guess(mackey_glass_hopf(), 0.01,
                                   Mesh.uniform(5), 4)
        previous = [point.state for point in points[:3]]
        previous[where] = other
        with pytest.raises(InvalidArgumentError):
            continue_branch(points[3].state, prob, points[3].parameter,
                            0.6, 1, previous=tuple(previous))

    def test_previous_on_another_mesh_is_rejected(self):
        # the same free-value and mu shapes, so only the mesh tells them
        # apart; its nodes are not the start's
        start = hopf_initial_guess(mackey_glass_hopf(), 0.01,
                                   Mesh.uniform(4), 4)
        other = hopf_initial_guess(mackey_glass_hopf(), 0.01,
                                   Mesh([0.0, 0.1, 0.2, 0.3, 1.0]), 4)
        assert other.poly.free_values.shape == start.poly.free_values.shape
        with pytest.raises(InvalidArgumentError,
                           match="^each previous orbit must have start's "
                                 "mesh, degree and mu layout$"):
            continue_branch(start, mackey_glass(), start.params[0], 0.6, 1,
                            previous=(other,))

    def test_history_is_the_points_before_the_start(self, short_branch):
        """One call per target, each passed the points before the one it
        starts from, gives the points of one call over the schedule."""
        prob, start, p0, points = short_branch
        state, p_cur = start, p0
        for i, point in enumerate(points):
            (got,) = continue_branch(
                state, prob, p_cur, point.parameter, 1,
                previous=tuple(p.state for p in points[:max(i - 1, 0)][-5:]))
            assert got.state.flatten().tobytes() == \
                point.state.flatten().tobytes()
            state, p_cur = got.state, point.parameter

    def test_acceptance_branch_newton_iterations(self):
        """The predictor puts most steps of the acceptance branch within
        one Newton iteration of their orbit: at most 35 iterations over
        the 20 points (52 with the linear secant in p)."""
        prob = mackey_glass()
        guess = hopf_initial_guess(mackey_glass_hopf(), 0.01,
                                   Mesh.uniform(11), 8)
        start = newton_solve(guess, prob,
                             default_constraints(prob, guess.params)).state
        points = continue_branch(start, prob, float(start.params[0]), 1.0,
                                 20)
        assert sum(point.newton_iters for point in points) <= 35

    def test_failed_steps_and_stepping_stones_are_logged(self, short_branch,
                                                         caplog, monkeypatch):
        """Without the onset prediction, a full first step from the
        plain orbit just past the onset collapses onto the equilibrium
        four times before a stepping stone holds."""
        prob, start, p0, _ = short_branch
        prob = dataclasses.replace(prob, onset=None)
        first = p0 + (0.6 - p0) / 5
        defects = []

        def counted(*args, **kwargs):
            defects.append(args)
            return phi_m_defect(*args, **kwargs)

        monkeypatch.setattr("semdde.analysis.phi_m_defect", counted)
        with caplog.at_level(logging.DEBUG, logger="semdde.continuation"):
            continue_branch(start, prob, p0, first, 1)
        assert len(defects) == 1  # the branch point's; stones go unmeasured
        messages = [r.getMessage() for r in caplog.records
                    if r.name == "semdde.continuation"]
        failed = [m for m in messages if "failed" in m]
        stones = [m for m in messages if "stepping stone" in m]
        assert len(failed) == 4 and len(stones) == 4
        assert len(messages) == 8
        for depth, message in enumerate(failed):
            assert f"step p={p0:.6g} -> " in message
            assert message.endswith(f"failed at depth {depth}: collapse")
        caplog.clear()
        monkeypatch.setattr("semdde.continuation.MAX_STEP_BISECTIONS", 1)
        with caplog.at_level(logging.DEBUG, logger="semdde.continuation"):
            with pytest.raises(StepFailureError):
                continue_branch(start, prob, p0, first, 1,
                                NewtonSettings(max_iter=1))
        messages = [r.getMessage() for r in caplog.records
                    if r.name == "semdde.continuation"]
        assert messages and all("MaxIterExceededError" in m
                                for m in messages)

    def test_first_step_from_the_onset_prediction_holds(
            self, short_branch, caplog, monkeypatch):
        """With the declared onset, the full first step from the Hopf
        start takes one Newton solve and logs no failed step."""
        prob, start, p0, points = short_branch
        first = p0 + (0.6 - p0) / 5
        solves = []

        def counted(*args, **kwargs):
            solves.append(args[0].params[0])
            return newton_solve(*args, **kwargs)

        monkeypatch.setattr("semdde.continuation.newton_solve", counted)
        with caplog.at_level(logging.DEBUG, logger="semdde.continuation"):
            (point,) = continue_branch(start, prob, p0, first, 1)
        assert not [r for r in caplog.records
                    if r.name == "semdde.continuation"]
        assert solves == [first]
        assert point.state.flatten().tobytes() == \
            points[0].state.flatten().tobytes()

    def test_first_step_failure_has_no_last_good(self, short_branch,
                                                 monkeypatch):
        prob, start, p0, _ = short_branch
        monkeypatch.setattr("semdde.continuation.MAX_STEP_BISECTIONS", 3)
        with pytest.raises(StepFailureError) as excinfo:
            continue_branch(start, prob, p0, 1.0, 1,
                            NewtonSettings(max_iter=2))
        assert excinfo.value.last_good is None
        assert excinfo.value.points == []

    def test_failure_past_the_onset_keeps_completed_points(
            self, short_branch, monkeypatch):
        """No orbit exists below the onset delay, so a downward branch
        must fail after its first (still feasible) step."""
        prob, _, _, points = short_branch
        monkeypatch.setattr("semdde.continuation.MAX_STEP_BISECTIONS", 3)
        with pytest.raises(StepFailureError) as excinfo:
            continue_branch(points[-1].state, prob, 0.6, 0.3, 3)
        got = excinfo.value.points
        assert len(got) >= 1
        assert excinfo.value.last_good is got[-1]
        assert got[0].parameter == pytest.approx(0.5, abs=1e-12)


class TestPredict:
    """The one predictor: the last orbits' Lagrange extrapolation, the
    free values in s = sqrt(|p - p_h|) and the period in p on one side
    of a declared onset, both in p otherwise; a single orbit takes the
    onset as its second node: deviation from the equilibrium times
    sqrt(r), period's distance from the onset period times r,
    r = (p_target - p_h) / (p - p_h)."""

    ONSET = HopfData(tau_hopf=0.5, omega=2.0,
                     equilibrium=np.array([1.0, -2.0]))

    @staticmethod
    def _state(p, period=3.5, scale=1.0):
        poly = sample_periodic(
            lambda t: np.stack([1.0 + scale * np.sin(2 * np.pi * t),
                                -2.0 + scale * np.cos(2 * np.pi * t)], 1),
            Mesh.uniform(3), 4)
        return DiscreteState(poly, np.array([period, p, 7.0]))

    @staticmethod
    def _with(state, free_values, p, period):
        poly = state.poly
        return DiscreteState(
            PeriodicPiecewisePoly(poly.mesh, poly.degree, free_values),
            np.array([period, p, 7.0]))

    @pytest.fixture(autouse=True)
    def _no_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    @pytest.mark.parametrize("count", [2, 3, 6, 8])
    @pytest.mark.parametrize("side", [1.0, -1.0])
    def test_polynomial_history_is_extrapolated_exactly(self, count, side):
        """Free values a polynomial of degree min(count, 6) - 1 in s and
        a period one of that degree in p are extrapolated exactly; of 8
        orbits only the last 6 count, so two off the polynomial change
        nothing."""
        base = self._state(0.75)
        eq = self.ONSET.equilibrium
        shape = base.poly.free_values - eq
        degree = min(count, _PREDICTOR_ORBITS) - 1
        coefficients = [0.3, -0.7, 0.45, 0.2, -0.15, 0.05][:degree + 1]

        def free(p):
            s = math.sqrt(abs(p - 0.5))
            return eq + sum(c * s ** k * np.roll(shape, k, axis=0)
                            for k, c in enumerate(coefficients))

        def period(p):
            return math.pi + sum(c * (p - 0.5) ** k
                                 for k, c in enumerate(coefficients))

        ps = [0.5 + side * 0.05 * (k + 1) for k in range(count)]
        orbits = [self._with(base, free(p), p, period(p)) for p in ps]
        for k in range(count - _PREDICTOR_ORBITS):
            orbits[k] = self._with(base, free(ps[k]) + 1.0, ps[k],
                                   period(ps[k]) + 1.0)
        target = 0.5 + side * 0.05 * (count + 1)
        guess = _predict(orbits, self.ONSET, target)
        np.testing.assert_allclose(guess.poly.free_values, free(target),
                                   rtol=0.0, atol=1e-12)
        assert guess.period == pytest.approx(period(target), rel=1e-13)
        assert guess.params.tolist() == [ps[-1], 7.0]

    @pytest.mark.parametrize("p_cur,p_target,ratio", [
        (0.75, 1.5, 4.0),     # growing away from the onset
        (1.5, 0.75, 0.25),    # shrinking towards it
        (0.25, 0.375, 0.5),   # on the onset's other side (subcritical)
    ])
    def test_sqrt_amplitude_and_linear_period(self, p_cur, p_target,
                                              ratio):
        state = self._state(p_cur)
        guess = _predict((state,), self.ONSET, p_target)
        eq = self.ONSET.equilibrium
        np.testing.assert_allclose(
            guess.poly.free_values,
            eq + math.sqrt(ratio) * (state.poly.free_values - eq),
            rtol=0.0, atol=1e-15)
        assert guess.period == pytest.approx(
            math.pi + ratio * (3.5 - math.pi), rel=1e-15)
        assert guess.params.tolist() == [p_cur, 7.0]

    @pytest.mark.parametrize("p_cur,p_target", [
        (0.75, 0.25),  # the target lies on the other side of the onset
        (0.25, 0.75),
        (0.75, 0.5),   # the target is the onset itself
        (0.5, 0.75),   # the step starts on the onset
    ])
    def test_no_prediction_across_or_from_the_onset(self, p_cur, p_target):
        state = self._state(p_cur)
        guess = _predict((state,), self.ONSET, p_target)
        assert guess.flatten().tobytes() == state.flatten().tobytes()

    def test_no_prediction_without_an_onset(self):
        """One orbit extrapolated in p through its one node is itself."""
        state = self._state(0.75)
        guess = _predict((state,), None, 1.5)
        assert guess.flatten().tobytes() == state.flatten().tobytes()

    @pytest.mark.parametrize("p_prev,p_cur,p_target,onset", [
        (0.5, 0.75, 1.0, ONSET),   # an orbit on the onset
        (0.75, 1.0, 0.25, ONSET),  # the target across it
        (0.75, 1.0, 0.5, ONSET),   # the target on it
        (0.75, 1.0, 1.25, None),   # no onset
    ])
    def test_two_orbits_off_one_side_give_the_secant_in_p(
            self, p_prev, p_cur, p_target, onset):
        previous = self._state(p_prev, period=3.0, scale=0.5)
        state = self._state(p_cur)
        guess = _predict((previous, state), onset, p_target)
        ratio = (p_target - p_cur) / (p_cur - p_prev)
        np.testing.assert_allclose(
            guess.poly.free_values,
            state.poly.free_values + ratio * (state.poly.free_values
                                              - previous.poly.free_values),
            rtol=0.0, atol=1e-15)
        assert guess.period == pytest.approx(3.5 + ratio * 0.5, rel=1e-15)
        assert guess.params.tolist() == [p_cur, 7.0]

    def test_invalid_prediction_keeps_the_orbit(self):
        # the period extrapolates below zero
        state = self._state(0.75, period=1.0)
        assert _predict((state,), self.ONSET, 10.0) is state
        # the profile overflows: r is about 9e15, finite
        state = self._state(float(np.nextafter(0.5, 1.0)), scale=1e302)
        assert _predict((state,), self.ONSET, 1.5) is state

    @pytest.mark.parametrize("bad", ["period_below_zero", "non_finite",
                                     "same_p"])
    def test_an_invalid_prediction_drops_its_oldest_orbit(self, bad):
        """An oldest orbit that spoils the extrapolation (a period below
        zero, an overflow, or the p of another orbit) leaves the
        prediction of the orbits after it, bitwise."""
        orbits = [self._state(p, period=3.5 + 0.1 * p)
                  for p in (0.6, 0.75, 0.9, 1.05)]
        if bad == "period_below_zero":
            orbits[0] = self._state(0.6, period=300.0)
        elif bad == "non_finite":
            orbits[0] = self._state(0.6, scale=1e308)
        else:
            orbits[0] = self._state(0.75)
        for onset in (self.ONSET, None):
            guess = _predict(orbits, onset, 1.5)
            assert guess.flatten().tobytes() == \
                _predict(orbits[1:], onset, 1.5).flatten().tobytes()
            assert guess.flatten().tobytes() != \
                orbits[-1].flatten().tobytes()


class TestBranchCsv:
    def test_round_trip_is_exact(self, short_branch):
        _, _, _, points = short_branch
        out = io.StringIO()
        write_branch_csv(points, out)
        text = out.getvalue()
        assert text.splitlines()[0] == "# format_version=1"
        assert text.splitlines()[1] == \
            "p,T,amplitude,newton_iters,residual_err,phi_defect"
        rows = read_branch_csv(io.StringIO(text))
        assert len(rows) == len(points)
        for row, point in zip(rows, points):
            assert row["p"] == point.parameter
            assert row["T"] == point.period
            assert row["amplitude"] == point.amplitude
            assert row["newton_iters"] == point.newton_iters
            assert row["residual_err"] == point.err
            assert row["phi_defect"] == point.phi_defect

    def test_future_version_rejected(self):
        text = "# format_version=2\np,T,amplitude,newton_iters," \
            "residual_err,phi_defect\n"
        with pytest.raises(FormatVersionError):
            read_branch_csv(io.StringIO(text))

    def test_missing_version_line_rejected(self):
        with pytest.raises(FormatVersionError):
            read_branch_csv(io.StringIO("p,T\n1.0,2.0\n"))

    def test_wrong_columns_rejected(self):
        with pytest.raises(InvalidArgumentError):
            read_branch_csv(io.StringIO("# format_version=1\np,T\n"))

    @pytest.mark.parametrize("row", [
        "0.5,1.6,0.01,4,1e-09\n",
        "0.5,1.6,0.01,4,1e-09,1e-12,7\n",
        "0.5,1.6,abc,4,1e-09,1e-12\n",
        "0.5,1.6,0.01,4.0,1e-09,1e-12\n",
        "0.5,1.6,0.01,4,1e-09,1e-1",
    ], ids=["short", "long", "non_numeric", "fractional_iters",
            "truncated_number"])
    def test_malformed_row_rejected(self, row):
        text = "# format_version=1\np,T,amplitude,newton_iters," \
            "residual_err,phi_defect\n0.49,1.6,0.01,4,1e-09,1e-12\n" + row
        with pytest.raises(InvalidArgumentError):
            read_branch_csv(io.StringIO(text))


class TestSdQuadraticSeed:
    def test_seed_layout(self):
        for tau, period in ((0.95, 14.061906923), (1.1, 8.776977221)):
            seed = sd_quadratic_seed(tau)
            assert seed.poly.mesh.num_intervals == 12
            assert seed.poly.degree == 5
            assert seed.params.tolist() == [tau]
            assert seed.period == pytest.approx(period, abs=1e-6)

    def test_seed_reconverges_quickly(self):
        prob = sd_quadratic()
        seed = sd_quadratic_seed(1.1)
        result = newton_solve(seed, prob,
                              default_constraints(prob, seed.params))
        assert result.iterations <= 5
        # the coarse re-solve moves the period by its truncation error
        assert result.state.period == pytest.approx(seed.period, rel=1e-2)

    def test_unknown_delay_rejected(self):
        with pytest.raises(InvalidArgumentError):
            sd_quadratic_seed(0.5)
