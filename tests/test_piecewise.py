"""Tests for periodic piecewise polynomials and the interpolation projection.

Expected values come from direct evaluation of the sampled functions
(sine, monomials) or from closed-form integrals, never from the module
under test.
"""

import json
from importlib import resources

import numpy as np
import pytest

from semdde.errors import InvalidArgumentError
from semdde.nodes import NodeKind, make_nodes
from semdde.piecewise import (
    Mesh,
    PeriodicPiecewisePoly,
    PiecewiseProjection,
    poly_from_document,
    poly_from_json,
    poly_to_document,
    poly_to_json,
    project,
    sample_periodic,
)


def _random_continuous_poly(rng, num_intervals, degree, dim):
    """Random free values; the polynomial is continuous and periodic by
    construction."""
    mesh = Mesh.uniform(num_intervals)
    free = rng.standard_normal((num_intervals, degree, dim))
    return PeriodicPiecewisePoly(mesh, degree, free)


def _full_values_document(mesh, degree, values):
    return {"breaks": mesh.breaks.tolist(), "degree": degree,
            "dim": values.shape[2], "rep_kind": "chebyshev_lobatto",
            "values": values.tolist()}


class TestMesh:
    def test_uniform(self):
        mesh = Mesh.uniform(4)
        np.testing.assert_array_equal(mesh.breaks, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert mesh.num_intervals == 4
        np.testing.assert_allclose(mesh.lengths, 0.25)

    @pytest.mark.parametrize("breaks", [
        [0.0],
        [0.0, 0.5, 0.5, 1.0],
        [0.0, 0.7, 0.3, 1.0],
        [0.1, 0.5, 1.0],
        [0.0, 0.5, 0.9],
    ])
    def test_rejects_bad_breaks(self, breaks):
        with pytest.raises(InvalidArgumentError):
            Mesh(breaks)

    def test_interval_lookup_is_half_open(self):
        mesh = Mesh([0.0, 0.25, 0.5, 1.0])
        # a break time belongs to the interval that starts there
        assert mesh.interval_index(0.0) == 0
        assert mesh.interval_index(0.1) == 0
        assert mesh.interval_index(0.25) == 1
        assert mesh.interval_index(0.5) == 2
        assert mesh.interval_index(0.999) == 2

    def test_equality(self):
        assert Mesh.uniform(3) == Mesh.uniform(3)
        assert Mesh.uniform(3) != Mesh.uniform(4)


class TestPeriodicPolyConstruction:
    def test_rejects_discontinuous_values(self):
        mesh = Mesh.uniform(2)
        values = np.zeros((2, 3, 1))
        values[1, 0, 0] = 1e-16  # mismatch at the shared break
        with pytest.raises(InvalidArgumentError):
            poly_from_document(_full_values_document(mesh, 2, values))

    def test_rejects_broken_periodic_closure(self):
        mesh = Mesh.uniform(2)
        values = np.zeros((2, 3, 1))
        values[1, 2, 0] = 0.5  # last value differs from the first
        with pytest.raises(InvalidArgumentError):
            poly_from_document(_full_values_document(mesh, 2, values))

    def test_rejects_bad_shapes_and_degree(self):
        mesh = Mesh.uniform(2)
        with pytest.raises(InvalidArgumentError):
            PeriodicPiecewisePoly(mesh, 0, np.zeros((2, 1, 1)))
        with pytest.raises(InvalidArgumentError):
            PeriodicPiecewisePoly(mesh, 2, np.zeros((2, 3)))
        with pytest.raises(InvalidArgumentError):
            PeriodicPiecewisePoly(mesh, 2, np.zeros((3, 3, 1)))

    def test_rejects_nonfinite_values(self):
        mesh = Mesh.uniform(1)
        values = np.full((1, 2, 1), np.nan)
        with pytest.raises(InvalidArgumentError):
            PeriodicPiecewisePoly(mesh, 2, values)

    def test_values_are_immutable(self):
        p = _random_continuous_poly(np.random.default_rng(0), 2, 3, 1)
        with pytest.raises(ValueError):
            p.values[0, 0, 0] = 7.0


class TestEval:
    def test_constant_everywhere(self):
        mesh = Mesh.uniform(3)
        c = np.array([2.5, -1.0])
        values = np.tile(c, (3, 4, 1))
        p = PeriodicPiecewisePoly(mesh, 4, values)
        for t in (-1.7, 0.0, 0.123, 0.75, 2.0, 5.25):
            # numerator and denominator of the barycentric form round
            # independently, so constants reproduce to an ulp, not bitwise
            np.testing.assert_allclose(p.eval(t), c, rtol=1e-15, atol=0)

    def test_sine_sample_matches_direct_evaluation(self):
        p = sample_periodic(lambda t: np.sin(2 * np.pi * t),
                            Mesh.uniform(2), 20)
        got = p.eval(0.3)[0]
        assert abs(got - np.sin(0.6 * np.pi)) <= 1e-12

    def test_periodic_shift_wraps_to_same_value(self):
        p = sample_periodic(lambda t: np.sin(2 * np.pi * t),
                            Mesh.uniform(2), 12)
        assert p.eval(1.25)[0] == p.eval(0.25)[0]

    def test_wrap_identity_for_dyadic_times(self):
        # dyadic times keep t+1 exact, so the wrapped representative and
        # hence the evaluation are bitwise identical
        rng = np.random.default_rng(7)
        p = _random_continuous_poly(rng, 3, 6, 2)
        t = rng.integers(-3 * 2**20, 3 * 2**20, 1000) / 2.0**20
        np.testing.assert_array_equal(p.eval(t), p.eval(t + 1.0))

    def test_wrap_identity_for_arbitrary_times(self):
        # adding 1 can move t by an ulp, so demand closeness, not bits
        rng = np.random.default_rng(8)
        p = sample_periodic(lambda t: np.sin(2 * np.pi * t),
                            Mesh.uniform(2), 12)
        t = rng.uniform(-3.0, 3.0, 1000)
        np.testing.assert_allclose(p.eval(t + 1.0), p.eval(t),
                                   rtol=0, atol=1e-11)

    def test_representation_nodes_return_stored_values_bitwise(self):
        rng = np.random.default_rng(3)
        p = _random_continuous_poly(rng, 3, 5, 2)
        for i in range(3):
            for j in range(6):
                got = p.eval(p.node_times[i, j])
                assert np.array_equal(got, p.values[i, j])

    @pytest.mark.parametrize("method", ["eval", "eval_deriv"])
    def test_results_do_not_depend_on_the_batch(self, method):
        p = sample_periodic(
            lambda t: np.sin(2 * np.pi * t) + 0.3 * np.cos(6 * np.pi * t),
            Mesh.uniform(5), 12)
        t = np.random.default_rng(12).uniform(-1.0, 2.0, 4000)
        fn = getattr(p, method)
        batch = fn(t)
        one_at_a_time = np.array([fn(x) for x in t])
        np.testing.assert_array_equal(batch, one_at_a_time)

    def test_eval_with_deriv_is_eval_and_eval_deriv_bitwise(self):
        p = _random_continuous_poly(np.random.default_rng(3), 7, 9, 2)
        # random times across chunks, every break, both ends and t = 1,
        # where eval_deriv takes the first interval's one-sided derivative
        t = np.concatenate([np.random.default_rng(4).uniform(-1, 2, 3000),
                            p.mesh.breaks, p.node_times.ravel(), [1.0]])
        values, deriv = p.eval_with_deriv(t)
        np.testing.assert_array_equal(values, p.eval(t))
        np.testing.assert_array_equal(deriv, p.eval_deriv(t))
        values, deriv = p.eval_with_deriv(0.25)
        np.testing.assert_array_equal(values, p.eval(0.25))
        np.testing.assert_array_equal(deriv, p.eval_deriv(0.25))

    @pytest.mark.parametrize("num_intervals", [1, 7])
    def test_eval_with_basis_is_eval_bitwise_and_rebuilds_it(
            self, num_intervals):
        p = _random_continuous_poly(np.random.default_rng(5), num_intervals,
                                    9, 2)
        t = np.concatenate([np.random.default_rng(6).uniform(-1, 2, 3000),
                            p.mesh.breaks, p.node_times.ravel(), [1.0]])
        values, cols, rows = p.eval_with_basis(t)
        np.testing.assert_array_equal(values, p.eval(t))
        assert cols.shape == rows.shape == (t.size, 10)
        if num_intervals == 1:  # node m's column wraps onto node 0's
            assert np.all(cols[:, -1] == cols[:, 0])
        rebuilt = np.sum(rows[:, :, None]
                         * p.free_values.reshape(-1, 2)[cols], axis=1)
        assert (np.max(np.abs(rebuilt - values))
                <= 1e-14 * np.max(np.abs(values)))

    def test_array_argument_shapes(self):
        p = _random_continuous_poly(np.random.default_rng(1), 2, 3, 2)
        assert p.eval(0.3).shape == (2,)
        assert p.eval(np.linspace(0, 1, 5)).shape == (5, 2)
        assert p.eval(np.zeros((2, 3))).shape == (2, 3, 2)


class TestSamplePeriodic:
    def test_samples_each_free_time_once_whatever_the_rounding_of_f(self):
        # f rounds each result differently by its position in the batch, so
        # a break queried twice would get two values differing in last bits
        mesh = Mesh([0.0, 0.3, 0.5, 1.0])
        degree = 6
        queried = []

        def f(t):
            queried.append(np.array(t))
            ripple = 1.0 + np.arange(t.size) * np.finfo(float).eps
            base = 2.0 + np.sin(2 * np.pi * t)
            return np.stack([base * ripple, -base * ripple], axis=1)

        p = sample_periodic(f, mesh, degree)
        assert isinstance(p, PeriodicPiecewisePoly)
        times = np.concatenate(queried)
        assert times.size == mesh.num_intervals * degree
        assert np.all((times >= 0.0) & (times < 1.0))
        np.testing.assert_array_equal(np.sort(times),
                                      np.sort(p.node_times[:, :-1].ravel()))
        assert np.array_equal(p.values[:-1, -1], p.values[1:, 0])
        assert np.array_equal(p.values[-1, -1], p.values[0, 0])


class TestEvalDeriv:
    def test_constant_has_zero_derivative(self):
        mesh = Mesh.uniform(2)
        p = PeriodicPiecewisePoly(mesh, 3, np.full((2, 3, 1), 1.25))
        for t in (0.0, 0.2, 0.5, 0.9):
            assert abs(p.eval_deriv(t)[0]) <= 1e-12

    def test_linear_data_on_one_interval(self):
        # the periodic type cannot hold the non-periodic ramp t, so the
        # diff-matrix identity is checked on the unconstrained projection
        fam = make_nodes(NodeKind.GAUSS_LEGENDRE, 3)
        proj = PiecewiseProjection(Mesh.uniform(1), fam,
                                   fam.nodes[None, :, None].copy())
        for t in (0.1, 0.5, 0.83):
            assert abs(proj.eval_deriv(t)[0] - 1.0) <= 1e-12

    def test_sine_sample_derivative(self):
        p = sample_periodic(lambda t: np.sin(2 * np.pi * t),
                            Mesh.uniform(2), 20)
        got = p.eval_deriv(0.3)[0]
        assert abs(got - 2 * np.pi * np.cos(0.6 * np.pi)) <= 1e-9

    def test_break_time_uses_right_interval(self):
        mesh = Mesh.uniform(2)
        fam = make_nodes(NodeKind.GAUSS_LEGENDRE, 2)
        values = np.zeros((2, 2, 1))
        values[1, :, 0] = 1.0  # jump across the t = 0.5 break
        proj = PiecewiseProjection(mesh, fam, values)
        assert proj.eval(0.5)[0] == 1.0
        assert proj.eval(0.4999999)[0] == 0.0


class TestProject:
    def test_constant_reproduced_everywhere(self):
        proj = project(lambda t: np.full_like(t, 3.25), Mesh.uniform(3), 4)
        t = np.linspace(0.0, 1.0, 50)
        np.testing.assert_allclose(proj.eval(t)[:, 0], 3.25,
                                   rtol=0, atol=1e-14)

    def test_matches_samples_at_collocation_points_bitwise(self):
        f = lambda t: np.cos(2 * np.pi * t) + 0.1 * np.sin(4 * np.pi * t)
        proj = project(f, Mesh.uniform(2), 6)
        tc = proj.node_times.ravel()
        np.testing.assert_array_equal(proj.eval(tc)[:, 0], f(tc))

    def test_degree_m_minus_1_polynomial_is_exact(self):
        rng = np.random.default_rng(11)
        m = 7
        coeffs = rng.standard_normal(m)  # degree m-1
        poly = np.polynomial.Polynomial(coeffs)
        proj = project(poly, Mesh.uniform(2), m)
        t = rng.uniform(0.0, 1.0, 1000)
        err = np.abs(proj.eval(t)[:, 0] - poly(t)).max()
        assert err <= 1e-11

    def test_projection_idempotent_node_for_node(self):
        f = lambda t: 1.0 / (2.0 - np.cos(2 * np.pi * t))
        first = project(f, Mesh.uniform(2), 9)
        second = project(lambda t: first.eval(t), Mesh.uniform(2), 9)
        np.testing.assert_allclose(second.values, first.values,
                                   rtol=0, atol=1e-12)

    def test_analytic_function_error_decays_geometrically(self):
        f = lambda t: 1.0 / (2.0 - np.cos(2 * np.pi * t))
        t = np.linspace(0.0, 1.0, 2001)
        degrees = np.array([8, 16, 24, 32])
        errs = []
        for m in degrees:
            proj = project(f, Mesh.uniform(1), int(m))
            errs.append(np.abs(proj.eval(t)[:, 0] - f(t)).max())
        slope = np.polyfit(degrees, np.log(errs), 1)[0]
        assert slope < -0.5, (errs, slope)


class TestIntegrate:
    def test_constant(self):
        mesh = Mesh.uniform(3)
        p = PeriodicPiecewisePoly(mesh, 2, np.full((3, 2, 1), 2.0))
        assert abs(p.integrate(0.0, 1.0)[0] - 2.0) <= 1e-14
        assert abs(p.integrate(0.25, 0.75)[0] - 1.0) <= 1e-14

    def test_quadratic_projection(self):
        proj = project(lambda t: t**2, Mesh.uniform(1), 3)
        assert abs(proj.integrate(0.0, 1.0)[0] - 1.0 / 3.0) <= 1e-13

    @pytest.mark.parametrize("split", [0.25, 0.37, 0.5, 0.9031])
    def test_additivity_at_breaks_and_interior_points(self, split):
        rng = np.random.default_rng(int(split * 10000))
        p = _random_continuous_poly(rng, 4, 5, 2)
        whole = p.integrate(0.1, 0.97)
        parts = p.integrate(0.1, split) + p.integrate(split, 0.97)
        np.testing.assert_allclose(parts, whole, rtol=0, atol=1e-13)

    def test_rejects_bad_bounds(self):
        p = _random_continuous_poly(np.random.default_rng(0), 2, 2, 1)
        for a, b in ((0.7, 0.3), (-0.1, 0.5), (0.5, 1.2)):
            with pytest.raises(InvalidArgumentError):
                p.integrate(a, b)


class TestSerialization:
    def test_round_trip_is_bitwise(self):
        rng = np.random.default_rng(21)
        p = _random_continuous_poly(rng, 3, 4, 2)
        doc = json.loads(json.dumps(poly_to_document(p)))
        q = poly_from_document(doc)
        assert np.array_equal(q.values, p.values)
        assert np.array_equal(q.mesh.breaks, p.mesh.breaks)
        assert q.degree == p.degree and q.dim == p.dim

    def test_json_text_round_trip(self):
        p = sample_periodic(lambda t: np.sin(2 * np.pi * t),
                            Mesh.uniform(2), 6)
        q = poly_from_json(poly_to_json(p))
        assert np.array_equal(q.values, p.values)

    def test_shipped_format_1_profiles_write_back_bitwise(self):
        text = resources.files("semdde").joinpath(
            "data/sd_quadratic_seed.json").read_text()
        states = json.loads(text)["states"]
        assert states
        for state in states.values():
            profile = state["profile"]
            back = poly_to_document(poly_from_document(profile))
            assert json.dumps(back) == json.dumps(profile)

    def test_rejects_malformed_documents(self):
        p = _random_continuous_poly(np.random.default_rng(2), 2, 2, 1)
        doc = poly_to_document(p)
        extra = dict(doc, note="hi")
        missing = {k: v for k, v in doc.items() if k != "degree"}
        wrong_kind = dict(doc, rep_kind="gauss_legendre")
        wrong_dim = dict(doc, dim=3)
        for bad in (extra, missing, wrong_kind, wrong_dim):
            with pytest.raises(InvalidArgumentError):
                poly_from_document(bad)
