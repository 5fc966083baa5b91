"""Tests for the built-in delay equation problems.

Expected values are hand arithmetic on the defining formulas (constant
histories, sine histories with known shifts); the rescaled wrapper is
checked against the same composition written out with np.sin directly.
"""

import dataclasses
import math

import numpy as np
import pytest

from semdde.collocation import default_constraints
from semdde.errors import (
    InvalidArgumentError,
    NegativeDelayError,
)
from semdde.piecewise import Mesh, sample_periodic
from semdde.problems import (
    _BY_NAME,
    DdeProblem,
    RescaledRhs,
    get_problem,
    mackey_glass,
    sd_quadratic,
)

from support import state_eval_example


def _const_history(c):
    return lambda theta: np.asarray(c, dtype=float) * np.ones(1)


class TestMackeyGlass:
    def setup_method(self):
        self.prob = mackey_glass()

    def test_metadata(self):
        assert self.prob.dim == 1
        assert self.prob.num_params == 1
        np.testing.assert_array_equal(self.prob.equilibrium, [1.0])

    def test_equilibrium_history_gives_zero(self):
        got = self.prob.rhs(_const_history(1.0), np.array([0.5]))
        assert abs(got[0]) <= 1e-15

    def test_zero_history_gives_zero(self):
        for tau in (0.2, 1.0, 3.0):
            got = self.prob.rhs(_const_history(0.0), np.array([tau]))
            assert got[0] == 0.0

    def test_constant_two_history(self):
        # -2 + 2*2/(1 + 2^10) by direct arithmetic
        got = self.prob.rhs(_const_history(2.0), np.array([0.5]))
        assert got[0] == pytest.approx(-2.0 + 4.0 / 1025.0, abs=1e-15)

    @pytest.mark.parametrize("tau", [0.0, -1.0])
    def test_rejects_nonpositive_delay(self, tau):
        with pytest.raises(InvalidArgumentError):
            self.prob.rhs(_const_history(1.0), np.array([tau]))

    def test_queries_stay_in_history_window(self):
        tau = 0.8
        seen = []

        def spy(theta):
            seen.append(float(np.asarray(theta).ravel()[0])
                        if np.ndim(theta) else float(theta))
            return np.ones(1)

        self.prob.rhs(spy, np.array([tau]))
        assert seen and all(th <= 0.0 for th in seen)


class TestSdQuadratic:
    def setup_method(self):
        self.prob = sd_quadratic()

    def test_zero_history(self):
        got = self.prob.rhs(_const_history(0.0), np.array([1.0]))
        assert got[0] == 0.0

    @pytest.mark.parametrize("c", [0.37, -0.6, 1.2])
    def test_constant_history_returns_negated_value(self, c):
        got = self.prob.rhs(_const_history(c), np.array([0.5]))
        assert got[0] == pytest.approx(-c, abs=1e-15)

    def test_sine_history_with_zero_current_value(self):
        # e(0) = 0 so the delay reduces to tau; hand-evaluate -e(-tau)
        e = lambda theta: np.atleast_1d(np.sin(2 * np.pi * np.asarray(theta)))
        got = self.prob.rhs(e, np.array([1.0]))
        assert got[0] == pytest.approx(-np.sin(-2 * np.pi), abs=1e-15)
        got = self.prob.rhs(e, np.array([0.75]))
        assert got[0] == pytest.approx(-np.sin(-1.5 * np.pi), abs=1e-15)

    def test_negative_delay_rejected(self):
        # c + c^2 reaches its minimum -1/4 at c = -1/2
        with pytest.raises(NegativeDelayError):
            self.prob.rhs(_const_history(-0.5), np.array([0.2]))

    def test_state_dependent_queries_stay_in_declared_window(self):
        tau = 0.95
        seen = []

        def spy(theta):
            th = np.asarray(theta, dtype=float).ravel()
            seen.extend(th.tolist())
            return np.atleast_1d(np.sin(2 * np.pi * th))

        self.prob.rhs(spy, np.array([tau]))
        # the window is theta <= 0: no time advance
        assert seen and all(th <= 0.0 for th in seen)


class TestStateEvalExample:
    def setup_method(self):
        self.prob = state_eval_example()

    def test_zero_history(self):
        got = self.prob.rhs(_const_history(0.0), np.zeros(0))
        assert got[0] == 0.0

    def test_identity_history(self):
        e = lambda theta: np.atleast_1d(np.asarray(theta, dtype=float))
        got = self.prob.rhs(e, np.zeros(0))
        assert got[0] == 0.0

    def test_constant_negative_history(self):
        got = self.prob.rhs(_const_history(-0.3), np.zeros(0))
        assert got[0] == pytest.approx(-0.3, abs=1e-15)

    @pytest.mark.parametrize("c", [0.2, -1.5])
    def test_rejects_state_outside_window(self, c):
        with pytest.raises(InvalidArgumentError):
            self.prob.rhs(_const_history(c), np.zeros(0))


class TestOnset:
    def test_declared_onsets(self):
        mg = mackey_glass().onset
        # alpha = -1, beta = -4: cos(omega tau) = -1/4, omega = sqrt(15)
        assert mg.omega == pytest.approx(math.sqrt(15.0), abs=1e-12)
        assert mg.tau_hopf == pytest.approx(
            math.acos(-0.25) / math.sqrt(15.0), abs=1e-10)
        assert mg.equilibrium.tolist() == [1.0]
        sdq = sd_quadratic().onset
        assert sdq.tau_hopf == pytest.approx(math.pi / 2.0, abs=1e-10)
        assert sdq.omega == 1.0
        assert sdq.equilibrium.tolist() == [0.0]

    def test_onset_must_fit_the_problem(self):
        prob = mackey_glass()
        with pytest.raises(InvalidArgumentError):
            dataclasses.replace(prob, dim=2)
        with pytest.raises(InvalidArgumentError):
            dataclasses.replace(prob, num_params=0)
        assert dataclasses.replace(prob, dim=2, onset=None).onset is None

    @pytest.mark.parametrize("key, bad, message", [
        ("dim", True, "^dim must be an integer, got True$"),
        ("dim", 1.0, "^dim must be an integer, got 1.0$"),
        ("dim", 0, "^dim must be >= 1, got 0$"),
        ("num_params", True, "^num_params must be an integer, got True$"),
        ("num_params", 1.0, "^num_params must be an integer, got 1.0$"),
        ("num_params", -1, "^num_params must be >= 0, got -1$"),
    ], ids=["dim_bool", "dim_float", "dim_zero", "num_params_bool",
            "num_params_float", "num_params_negative"])
    def test_counts_are_integers(self, key, bad, message):
        bare = dataclasses.replace(mackey_glass(), onset=None)
        with pytest.raises(InvalidArgumentError, match=message):
            dataclasses.replace(bare, **{key: bad})
        # a numpy integer is stored as a Python int
        kept = getattr(dataclasses.replace(bare, **{key: np.int64(1)}), key)
        assert type(kept) is int and kept == 1

    @pytest.mark.parametrize("make, equilibrium", [
        (mackey_glass, [1.0 + 2.0**-52]),
        (mackey_glass, [[1.0]]),
        (sd_quadratic, [-0.0]),  # equal as a number, not bitwise
    ], ids=["one_ulp_off", "other_shape", "negative_zero"])
    def test_onset_equilibrium_must_be_the_declared_one(self, make,
                                                        equilibrium):
        prob = make()
        with pytest.raises(InvalidArgumentError):
            dataclasses.replace(prob, equilibrium=np.array(equilibrium))
        # an integer equilibrium is the same doubles; none declared is fine
        assert dataclasses.replace(
            prob, equilibrium=prob.onset.equilibrium.astype(int)).onset
        assert dataclasses.replace(prob, equilibrium=None).onset

    def test_declared_equilibrium_is_read_only(self):
        # a write would move the phase anchor off the onset's equilibrium
        prob = mackey_glass()
        with pytest.raises(ValueError, match="read-only"):
            prob.equilibrium[0] = 2.0
        assert prob.equilibrium.tolist() == prob.onset.equilibrium.tolist()
        assert default_constraints(prob, [0.5])[0].offset == -1.0
        # the problem keeps a copy; the caller's array stays writable
        mine = np.array([1.0])
        assert dataclasses.replace(prob, equilibrium=mine).equilibrium \
            is not mine
        assert mine.flags.writeable


class TestRegistry:
    def test_known_names(self):
        assert get_problem("mackey_glass").name == "mackey_glass"
        assert get_problem("sd_quadratic").name == "sd_quadratic"

    def test_unknown_name(self):
        with pytest.raises(InvalidArgumentError):
            get_problem("lorenz")

    @pytest.mark.parametrize("name", [
        name for name in sorted(_BY_NAME) if get_problem(name).lag])
    def test_declared_lag_is_the_delay_the_rhs_queries(self, name):
        # the last evaluator query of a declared-lag rhs asks for the
        # state at t - lag(v(t), p)/T, bit for bit
        prob = get_problem(name)
        v = sample_periodic(
            lambda t: np.outer(np.sin(2 * np.pi * t), np.ones(prob.dim)),
            Mesh.uniform(3), 10)
        mu = np.concatenate([[1.7], np.full(prob.num_params, 0.6)])
        times = np.linspace(0.0, 1.0, 41)
        asked = []

        def answer(k, at):
            asked.append(at)
            return v.eval(at)

        RescaledRhs(prob).evaluate(times, mu, answer)
        delay = prob.lag(v.eval(times), mu[1:])
        assert delay.shape == times.shape
        assert np.array_equal(asked[-1], times - delay / mu[0])


class TestRescaledRhs:
    def _constant_poly(self, c):
        return sample_periodic(lambda t: np.full_like(t, c), Mesh.uniform(1), 2)

    def test_scaling_is_linear_in_period_for_constant_history(self):
        rhs = RescaledRhs(mackey_glass())
        v = self._constant_poly(2.0)
        g1 = rhs(v, 0.3, np.array([1.5, 0.5]))
        g2 = rhs(v, 0.3, np.array([3.0, 0.5]))
        np.testing.assert_array_equal(g2, 2.0 * g1)

    def test_equilibrium_persists_for_any_delay(self):
        rhs = RescaledRhs(mackey_glass())
        v = self._constant_poly(1.0)
        for tau in (0.1, 0.5, 2.0):
            for period in (0.7, 1.6):
                got = rhs(v, 0.2, np.array([period, tau]))
                assert abs(got[0]) <= 1e-14

    def test_matches_hand_composition_on_sine_profile(self):
        # v(t) = sin(2 pi t); at t = 0.3 with period T the wrapper must
        # return T * (-v(t - delay/T)) with delay = tau + v + v^2
        v = sample_periodic(lambda t: np.sin(2 * np.pi * t), Mesh.uniform(2), 20)
        rhs = RescaledRhs(sd_quadratic())
        t, period, tau = 0.3, 2.0, 0.5
        y = np.sin(2 * np.pi * t)
        delay = tau + y + y**2
        expected = -period * np.sin(2 * np.pi * (t - delay / period))
        got = rhs(v, t, np.array([period, tau]))
        assert got[0] == pytest.approx(expected, abs=1e-9)

    def test_batch_call_matches_scalar_calls(self):
        v = sample_periodic(lambda t: np.sin(2 * np.pi * t), Mesh.uniform(2), 14)
        rhs = RescaledRhs(mackey_glass())
        mu = np.array([1.8, 0.6])
        times = np.array([0.05, 0.3, 0.71, 0.99, 0.0, 0.5, 1.0, -0.25])
        batch = rhs(v, times, mu)
        assert batch.shape == (8, 1)
        # a 0-d time takes the batch path: the bits of its batch row
        for k, t in enumerate(times):
            for query in (float(t), np.array(t)):
                got = rhs(v, query, mu)
                assert got.shape == (1,)
                assert got.tobytes() == batch[k].tobytes()

    def test_evaluate_hands_each_query_to_the_caller_in_order(self):
        # sd_quadratic asks for y(t), then for y(t - d/T) with d from it
        v = sample_periodic(lambda t: np.sin(2 * np.pi * t), Mesh.uniform(2), 14)
        rhs = RescaledRhs(sd_quadratic())
        mu = np.array([2.0, 0.5])
        times = np.array([0.1, 0.4, 0.8])
        asked = []

        def answer(k, at):
            asked.append((k, at))
            return v.eval(at)

        got = rhs.evaluate(times, mu, answer)
        assert [k for k, _ in asked] == [0, 1]
        assert np.array_equal(asked[0][1], times)
        y = v.eval(times)[:, 0]
        np.testing.assert_array_equal(asked[1][1],
                                      times + -(0.5 + y + y**2) / 2.0)
        assert np.array_equal(got, rhs(v, times, mu))

    def test_rejects_a_state_of_another_dimension(self):
        rhs = RescaledRhs(mackey_glass())
        v = sample_periodic(lambda t: np.ones((t.size, 2)), Mesh.uniform(1),
                            2)
        with pytest.raises(InvalidArgumentError,
                           match=r"shape \(3, 2\), expected \(3, 1\)"):
            rhs(v, np.array([0.1, 0.5, 0.9]), np.array([1.6, 0.5]))

    @pytest.mark.parametrize("lag", [
        -0.3, np.float64(-0.3), np.array(-0.3), np.array([-0.3]),
        np.array([[-0.3]]),
    ], ids=["float", "numpy_float", "0d_array", "size_1", "size_1_2d"])
    @pytest.mark.parametrize("times", [
        np.array([0.1, 0.45, 0.8]), np.array([0.45]),
    ], ids=["three_times", "one_time"])
    def test_one_lag_gives_the_bits_of_a_per_point_batch(self, lag, times):
        v = sample_periodic(lambda t: np.sin(2 * np.pi * t), Mesh.uniform(3),
                            7)

        def rhs_of(theta):
            prob = DdeProblem(name="lag", dim=1, num_params=0,
                              rhs=lambda e, p: e(theta))
            return RescaledRhs(prob)(v, times, np.array([1.7]))

        got = rhs_of(lag)
        assert got.shape == (times.size, 1)
        assert got.tobytes() == rhs_of(np.full(times.size, -0.3)).tobytes()

    def test_rejects_a_lag_batch_of_another_size(self):
        prob = DdeProblem(name="batch", dim=1, num_params=0,
                          rhs=lambda e, p: e(np.zeros(2)))
        with pytest.raises(InvalidArgumentError,
                           match="^lag batch of size 2 does not match 3 "
                                 "base times$"):
            RescaledRhs(prob)(self._constant_poly(1.0),
                              np.array([0.1, 0.5, 0.9]), np.array([1.0]))

    def test_rejects_bad_mu(self):
        rhs = RescaledRhs(mackey_glass())
        v = self._constant_poly(1.0)
        with pytest.raises(InvalidArgumentError):
            rhs(v, 0.0, np.array([1.0]))          # missing tau
        with pytest.raises(InvalidArgumentError):
            rhs(v, 0.0, np.array([-1.0, 0.5]))    # nonpositive period
