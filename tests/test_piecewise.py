"""Tests for periodic piecewise polynomials and the interpolation projection.

Expected values come from direct evaluation of the sampled functions
(sine, monomials) or from closed-form integrals, never from the module
under test.
"""

import json
import re
import tracemalloc
from importlib import resources

import numpy as np
import pytest

from semdde import piecewise
from semdde.errors import FormatVersionError, InvalidArgumentError
from semdde.nodes import (NodeKind, interpolation_matrix, lagrange_rows,
                          make_nodes)
from semdde.piecewise import (
    _CHUNK,
    COLLOCATION,
    Mesh,
    PeriodicPiecewisePoly,
    PiecewiseProjection,
    check_format_version,
    poly_from_document,
    poly_to_document,
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

    def test_uniform_needs_an_interval(self):
        with pytest.raises(InvalidArgumentError,
                           match="^interval count must be >= 1, got 0$"):
            Mesh.uniform(0)

    @pytest.mark.parametrize("count", [True, 2.0, np.float64(2.0)],
                             ids=["bool", "float", "numpy_float"])
    def test_uniform_takes_an_integer_count(self, count):
        # True would be one interval, and 2.0 would reach np.linspace
        with pytest.raises(InvalidArgumentError,
                           match="^interval count must be an integer, got "):
            Mesh.uniform(count)
        assert Mesh.uniform(np.int64(2)) == Mesh.uniform(2)


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

    def test_rejects_values_without_a_component(self):
        # eval raised numpy's bare "cannot reshape array of size 0"
        mesh = Mesh.uniform(2)
        message = (r"^values must have shape \(intervals, nodes, dim\) with "
                   r"dim >= 1, got \(2, 2, 0\)$")
        with pytest.raises(InvalidArgumentError, match=message):
            PeriodicPiecewisePoly(mesh, 2, np.zeros((2, 2, 0)))
        with pytest.raises(InvalidArgumentError, match=message):
            PiecewiseProjection(mesh, make_nodes(NodeKind.GAUSS_LEGENDRE, 2),
                                np.zeros((2, 2, 0)))
        doc = _full_values_document(mesh, 2, np.zeros((2, 3, 0)))
        assert doc["dim"] == 0
        with pytest.raises(InvalidArgumentError,
                           match=r"^dim must be >= 1, got 0$"):
            poly_from_document(doc)

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


    def test_rejects_degree_zero(self):
        with pytest.raises(InvalidArgumentError,
                           match="^degree must be >= 1, got 0$"):
            sample_periodic(np.sin, Mesh.uniform(2), 0)

    @pytest.mark.parametrize("degree", [4.0, True, np.float64(4.0)],
                             ids=["float", "bool", "numpy_float"])
    def test_a_degree_that_is_not_an_integer_raises(self, degree):
        # 4.0 would build a polynomial whose own document is refused, and
        # True would be degree 1
        message = ("^degree must be an integer, got "
                   + re.escape(repr(degree)) + "$")
        with pytest.raises(InvalidArgumentError, match=message):
            sample_periodic(np.sin, Mesh.uniform(2), degree)
        with pytest.raises(InvalidArgumentError, match=message):
            PeriodicPiecewisePoly(Mesh.uniform(2), degree, np.ones((2, 4, 1)))

    def test_a_numpy_integer_degree_is_kept_as_a_python_int(self):
        poly = sample_periodic(lambda t: np.sin(t)[:, None], Mesh.uniform(2),
                               np.int64(6))
        assert type(poly.degree) is int and poly.degree == 6
        assert json.loads(json.dumps(poly_to_document(poly)))["degree"] == 6

    @pytest.mark.parametrize("grid", [2.0, np.float64(10.0), "10"],
                             ids=["float", "numpy_float", "string"])
    def test_a_grid_size_that_is_not_an_integer_raises(self, grid):
        poly = sample_periodic(lambda t: np.sin(t)[:, None], Mesh.uniform(2),
                               3)
        with pytest.raises(InvalidArgumentError,
                           match="^grid_points must be an integer, got "):
            poly._on(grid)

    def test_degree_600_evaluates_to_finite_values(self):
        # the unscaled barycentric weights of degree 600 are NaN, and so
        # would be every value off the nodes
        poly = sample_periodic(
            lambda t: np.cos(2.0 * np.pi * t)[:, None], Mesh.uniform(1), 600)
        value = poly.eval(0.3)
        assert np.all(np.isfinite(value))
        assert abs(value[0] - np.cos(0.6 * np.pi)) < 1e-12


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

    def test_a_break_takes_the_right_intervals_derivative(self):
        # at every break the interval that starts there gives the
        # one-sided derivative, and t = 1 wraps onto the first interval
        p = _random_continuous_poly(np.random.default_rng(3), 7, 9, 2)
        ends = [np.einsum("k,iks->is", p.node_family.diff_matrix[j],
                          p.values) / p.mesh.lengths[:, None]
                for j in (0, -1)]
        assert not np.allclose(ends[0], np.roll(ends[1], 1, axis=0))
        np.testing.assert_allclose(p.eval_deriv(p.mesh.breaks[:-1]), ends[0],
                                   rtol=1e-13)
        np.testing.assert_array_equal(p.eval_deriv(1.0), p.eval_deriv(0.0))
        t = np.concatenate([p.mesh.breaks, [0.25]])
        np.testing.assert_array_equal(
            p.eval_deriv(t), np.array([p.eval_deriv(x) for x in t]))

    def test_break_time_uses_right_interval(self):
        mesh = Mesh.uniform(2)
        fam = make_nodes(NodeKind.GAUSS_LEGENDRE, 2)
        values = np.zeros((2, 2, 1))
        values[1, :, 0] = 1.0  # jump across the t = 0.5 break
        proj = PiecewiseProjection(mesh, fam, values)
        assert proj.eval(0.5)[0] == 1.0
        assert proj.eval(0.4999999)[0] == 0.0


class TestProject:
    def test_rejects_zero_nodes(self):
        # make_nodes' own check
        with pytest.raises(InvalidArgumentError,
                           match="^node count must be >= 1, got 0$"):
            project(np.sin, Mesh.uniform(2), 0)

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
        q = poly_from_document(json.loads(
            json.dumps(poly_to_document(p), indent=2)))
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

    def test_rejects_ragged_values(self):
        doc = dict(poly_to_document(sample_periodic(
            np.sin, Mesh.uniform(2), 2)), values=[[[0.0], [1.0]], [[1.0]]])
        with pytest.raises(InvalidArgumentError,
                           match=r"^each entry of values must be a finite "
                                 r"number, got \[\[0\.0\], \[1\.0\]\]$"):
            poly_from_document(doc)

    @pytest.mark.parametrize("version", [True, "1", 0])
    def test_format_version_must_be_an_int_of_at_least_1(self, version):
        with pytest.raises(FormatVersionError) as info:
            check_format_version(version, "doc")
        assert str(info.value) == f"bad format_version {version!r} in doc"


# The evaluation kernel written out of place, as the reference that the
# in-place chunked kernel must match bit for bit: the second barycentric
# formula sum_j q_j f_j / sum_j q_j with q_j = w_j / (t - x_j), a unit
# row of terms at a node hit.
def _reference_terms(points, node_times, weights):
    diff = points[:, None] - node_times
    hit = diff == 0.0
    diff[hit] = 1.0
    terms = weights / diff
    on_node = np.any(hit, axis=1)
    terms[on_node] = hit[on_node]
    return terms


def _reference_contract(table, idx, terms):
    return (np.einsum("kdn,kn->kd", table[idx], terms)
            / np.einsum("kn->k", terms)[:, None])


def _reference_interpolate(self, table, idx, t, terms=None):
    out = np.empty((t.size, table.shape[1]))
    for lo in range(0, t.size, _CHUNK):
        part = slice(lo, lo + _CHUNK)
        q = _reference_terms(
            t[part], self.node_times[idx[part]],
            self.node_family.bary_weights) if terms is None else terms[part]
        out[part] = _reference_contract(table, idx[part], q)
    return out


# The normalized formula the kernel used before: Lagrange rows (the terms
# over their sum), then the sum of rows times values.  ``lagrange_rows``
# and ``interpolation_matrix`` still give these rows bitwise, and the
# contraction is the accuracy baseline of the kernel.
def _reference_rows(points, node_times, weights):
    terms = _reference_terms(points, node_times, weights)
    return terms / np.sum(terms, axis=1, keepdims=True)


def _normalized_contract(table, idx, rows):
    return np.sum(rows[:, None, :] * table[idx], axis=2)


def _kernel_polys():
    mesh = Mesh.uniform(7)
    return {
        "lobatto": _random_continuous_poly(np.random.default_rng(21), 7, 9,
                                           2),
        "gauss": project(lambda t: np.stack([np.sin(2 * np.pi * t),
                                             np.cos(4 * np.pi * t)], axis=1),
                         mesh, 9),
    }


def _kernel_times(p, size):
    """``size`` times across [-1, 2]; the first chunk holds node times,
    exact node hits, and the later chunks hold none."""
    t = np.random.default_rng(size).uniform(-1.0, 2.0, size)
    nodes = p.node_times.ravel()
    hits = np.arange(0, min(size, _CHUNK), 3)
    t[hits] = np.resize(nodes, hits.size)
    assert not np.isin(t[_CHUNK:] - np.floor(t[_CHUNK:]), nodes).any()
    return t


SIZES = [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3]


def _fixed_case(kind, size):
    """``(poly, name, times)``: a fixed time set near ``size`` times and
    its times made here.  For "lobatto" the uniform grid of max(size, 2)
    times, whose ends hit the Lobatto nodes at the breaks; for "gauss"
    the Gauss-Legendre collocation points of the fewest degree-9
    intervals that hold ``size`` of them."""
    if kind == "lobatto":
        n = max(size, 2)
        return _kernel_polys()["lobatto"], n, np.linspace(0.0, 1.0, n)
    p = _random_continuous_poly(np.random.default_rng(size),
                                max(1, -(-size // 9)), 9, 2)
    return p, COLLOCATION, p.mesh.node_times(
        make_nodes(NodeKind.GAUSS_LEGENDRE, 9).nodes).ravel()


# An n-point grid tiles a uniform mesh of L >= 2 intervals when L divides
# n - 1: it holds its points at the offsets j / per of every interval,
# per = (n - 1) / L, and ``_on`` takes it by its own path.
def _tiles(p, n):
    L = p.mesh.num_intervals
    return L >= 2 and (n - 1) % L == 0 and p.mesh == Mesh.uniform(L)


def _tiled_reference(p, n):
    """``(times, values, derivatives)`` on an n-point grid that tiles the
    mesh, one point at a time: point k contracts the basis row of the
    offset j / per, j = (k mod (n - 1)) - idx * per, with the values of
    the interval idx that ``interval_index`` gives it; the points at the
    breaks are ``eval`` and ``eval_deriv``."""
    assert _tiles(p, n)
    per = (n - 1) // p.mesh.num_intervals
    times = np.linspace(0.0, 1.0, n)
    idx = p.mesh.interval_index(times % 1.0)
    rows = interpolation_matrix(p.node_family, np.arange(per + 1) / per)
    rows = rows[np.arange(n) % (n - 1) - idx * per]
    out = [times]
    for table, fn in ((p._value_table, p.eval),
                      (p._deriv_table, p.eval_deriv)):
        got = np.einsum("kn,kcn->kc", rows, table[idx])
        got[::per] = fn(times[::per])
        out.append(got)
    return tuple(out)


@pytest.fixture
def reference(monkeypatch):
    """``reference(fn)`` is ``fn()`` on the reference kernel."""
    def run(fn):
        with monkeypatch.context() as patch:
            patch.setattr(piecewise._PiecewiseBase, "_interpolate",
                          _reference_interpolate)
            return fn()
    return run


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", ["lobatto", "gauss"])
@pytest.mark.parametrize("size", SIZES)
class TestKernelIsTheReferenceBitwise:
    def test_eval_and_eval_with_deriv(self, reference, kind, size):
        p = _kernel_polys()[kind]
        t = _kernel_times(p, size)
        assert _same_bits(p.eval(t), reference(lambda: p.eval(t)))
        assert _same_bits(p.eval_deriv(t), reference(lambda: p.eval_deriv(t)))

    def test_stored_rows(self, monkeypatch, reference, kind, size):
        monkeypatch.setattr(piecewise, "_STORE", piecewise._Store())
        p, name, times = _fixed_case(kind, size)
        tiles = name != COLLOCATION and _tiles(p, name)  # 1023 on L = 7
        want = _tiled_reference(p, name) if tiles else (times,) + reference(
            lambda: (p.eval(times), p.eval_deriv(times)))
        # recorded, then built into the store, then read from it
        for _ in range(3):
            got = p._on(name, deriv=True)
            assert all(_same_bits(g, w) for g, w in zip(got, want))
        kept = piecewise._STORE.current[1][name][3]
        p.eval(_kernel_times(p, 2 * _CHUNK + 3)[::-1])
        if tiles:  # the basis rows of the per + 1 offsets
            per = (name - 1) // p.mesh.num_intervals
            assert _same_bits(kept, interpolation_matrix(
                p.node_family, np.arange(per + 1) / per))
            return
        flat = times - np.floor(times)
        assert _same_bits(kept, _reference_terms(
            flat, p.node_times[p.mesh.interval_index(flat)],
            p.node_family.bary_weights))


@pytest.mark.parametrize("size", SIZES)
def test_eval_with_basis_is_the_reference_bitwise(size):
    p = _kernel_polys()["lobatto"]
    t = _kernel_times(p, size)
    flat = t - np.floor(t)
    idx = p.mesh.interval_index(flat)
    terms = _reference_terms(flat, p.node_times[idx],
                             p.node_family.bary_weights)
    rows = _reference_rows(flat, p.node_times[idx],
                           p.node_family.bary_weights)
    values = _reference_contract(p._value_table, idx, terms)
    # terms built by the kernel, and terms handed in as the store hands
    # them
    held = [p.eval_with_basis(t),
            p._basis(p._value_table, idx, flat, p._terms(idx, flat)),
            p._basis(p._value_table, idx, flat, terms.copy())]
    # later evaluations must not reuse returned rows as a workspace
    p.eval_deriv(_kernel_times(p, 2 * _CHUNK + 3)[::-1])
    for got_values, got_cols, got_rows in held:
        assert _same_bits(got_values, values)
        assert _same_bits(got_rows, rows)
        assert _same_bits(got_cols, p._columns[idx])


@pytest.mark.parametrize("bounds", [(0.0, 1.0), (0.1, 0.97), (0.25, 0.5)])
def test_integrate_is_the_reference_bitwise(reference, bounds):
    # 60 intervals of 21 Gauss points: more than one chunk of queries
    p = _random_continuous_poly(np.random.default_rng(8), 60, 20, 2)
    assert 60 * 21 > _CHUNK
    assert _same_bits(p.integrate(*bounds),
                      reference(lambda: p.integrate(*bounds)))


@pytest.mark.parametrize("shared", [False, True], ids=["per_point",
                                                       "shared_nodes"])
def test_lagrange_rows_leaves_its_inputs_alone(shared):
    family = make_nodes(NodeKind.CHEBYSHEV_LOBATTO, 12)
    rng = np.random.default_rng(9)
    points = np.concatenate([rng.uniform(0.0, 1.0, 40), family.nodes[:5]])
    node_times = family.nodes if shared else np.tile(family.nodes,
                                                     (points.size, 1))
    weights = family.bary_weights.copy()
    before = [arr.copy() for arr in (points, node_times, weights)]
    rows = lagrange_rows(points, node_times, weights)
    for arr, copy in zip((points, node_times, weights), before):
        assert _same_bits(arr, copy)
    assert _same_bits(rows, _reference_rows(points, node_times, weights))
    assert not np.shares_memory(rows, node_times)


@pytest.mark.parametrize("kind", list(NodeKind))
def test_interpolation_matrix_is_the_normalized_formula_bitwise(kind):
    """Interpolation matrices keep the bits of the normalized formula, node
    hits included, across more than two chunks of points (the test above
    checks ``lagrange_rows`` with nodes per point)."""
    family = make_nodes(kind, 12)
    points = np.concatenate([
        np.random.default_rng(13).uniform(0.0, 1.0, 2 * _CHUNK + 3),
        family.nodes])
    assert _same_bits(
        interpolation_matrix(family, points),
        _reference_rows(points, family.nodes, family.bary_weights))


def test_dense_grid_eval_working_set_stays_below_its_bound():
    """One 10001-point eval on (L=11, m=40), the dense grid of a
    Mackey-Glass table cell, peaks below 1.5 MiB: its output, wrapped
    times and indices plus one reused row buffer and one reused product
    buffer, with room for one more 1024-row temporary but not for
    per-chunk temporaries."""
    p = sample_periodic(lambda t: np.sin(2 * np.pi * t)[:, None],
                        Mesh.uniform(11), 40)
    t = np.linspace(0.0, 1.0, 10001)
    p.eval(t)  # builds the cached value table outside the measurement
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        p.eval(t)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 1.5 * 2**20, f"peak {peak / 1024:.0f} KiB"


@pytest.mark.parametrize("degree", [8, 9], ids=["odd_n", "even_n"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_a_query_gives_its_bits_alone_and_anywhere_in_a_batch(degree, dim):
    """Each of 2 * _CHUNK + 3 queries, node hits included, gives the same
    bits evaluated alone and shifted by an odd number of queries, which
    moves it to another row, chunk and memory alignment."""
    p = _random_continuous_poly(np.random.default_rng(degree + 10 * dim), 7,
                                degree, dim)
    t = _kernel_times(p, 2 * _CHUNK + 3)
    shifted = np.concatenate([np.full(5, 0.3), t])

    for fn in (p.eval, p.eval_deriv):
        batch = fn(t)
        assert _same_bits(fn(shifted)[5:], batch)
        assert _same_bits(np.array([fn(x) for x in t]), batch)


def _longdouble_interpolate(p, table, t):
    """``table`` of ``p`` at times t in [0, 1) by the barycentric formula
    in np.longdouble, from the same nodes, weights and values."""
    idx = p.mesh.interval_index(t)
    diff = t.astype(np.longdouble)[:, None] - p.node_times[idx]
    hit = diff == 0.0
    diff[hit] = 1.0
    terms = p.node_family.bary_weights.astype(np.longdouble) / diff
    on_node = np.any(hit, axis=1)
    terms[on_node] = hit[on_node]
    return (np.einsum("kdn,kn->kd", table[idx].astype(np.longdouble), terms)
            / np.sum(terms, axis=1)[:, None])


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps / 8,
                    reason="np.longdouble is no wider than double here")
@pytest.mark.parametrize("num_intervals, degree", [(1, 40), (5, 34),
                                                   (11, 40)])
def test_kernel_is_as_accurate_as_the_normalized_formula(num_intervals,
                                                         degree):
    """On the 10001-point grid of a table cell's err, the kernel's largest
    value and derivative errors against an extended-precision evaluation
    of the same interpolant stay within twice the normalized formula's."""
    p = sample_periodic(
        lambda t: np.stack([np.sin(2 * np.pi * t) + 0.3 * np.cos(6 * np.pi * t),
                            np.exp(np.sin(2 * np.pi * t))], axis=1),
        Mesh.uniform(num_intervals), degree)
    t = np.linspace(0.0, 1.0, 10001)[:-1]
    idx = p.mesh.interval_index(t)
    rows = _reference_rows(t, p.node_times[idx], p.node_family.bary_weights)
    for fn, table in ((p.eval, p._value_table),
                      (p.eval_deriv, p._deriv_table)):
        exact = _longdouble_interpolate(p, table, t)
        kernel = np.max(np.abs(fn(t) - exact))
        normalized = np.max(np.abs(_normalized_contract(table, idx, rows)
                                   - exact))
        assert 0.0 < kernel <= 2.0 * normalized, (kernel, normalized)


@pytest.mark.parametrize("n", [2001, 10001])
@pytest.mark.parametrize("L", [2, 5, 10, 20])
def test_a_tiling_grid_is_the_contraction_per_offset(L, n):
    """Every point of a tiling grid takes the row of its offset in the
    interval ``interval_index`` gives it, and every break point the bits
    of ``eval`` and ``eval_deriv``, also where linspace rounds the break
    into the left interval: there the derivative is the left one."""
    p = _random_continuous_poly(np.random.default_rng(L + n), L, 9, 2)
    got = p._on(n, deriv=True)
    assert all(_same_bits(g, w) for g, w in zip(got, _tiled_reference(p, n)))
    times, values, deriv = got
    at = times[::(n - 1) // L]
    assert _same_bits(values[::(n - 1) // L], p.eval(at))
    assert _same_bits(deriv[::(n - 1) // L], p.eval_deriv(at))
    left = np.flatnonzero(at < p.mesh.breaks)
    assert left.size > 0 or L == 2
    assert np.array_equal(p.mesh.interval_index(at[left]), left - 1)
    scale = np.max(np.abs(p._deriv_table))
    k = left * ((n - 1) // L)
    assert np.max(np.abs(deriv[k] - p._deriv_table[left - 1, :, -1]),
                  initial=0.0) <= 1e-12 * scale
    assert np.all(np.abs(deriv[k] - p._deriv_table[left, :, 0])
                  > 1e-6 * scale)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps / 8,
                    reason="np.longdouble is no wider than double here")
@pytest.mark.parametrize("num_intervals, degree", [(2, 40), (5, 34),
                                                   (10, 20), (20, 12)])
def test_a_tiling_grid_is_as_accurate_as_the_normalized_formula(
        num_intervals, degree):
    """The tiling path's largest value and derivative errors stay within
    the factor the kernel keeps, twice the normalized formula's error at
    the grid times.  The path evaluates each interval's polynomial at
    the offsets j / per, which linspace's times miss by up to an ulp, so
    its extended-precision reference is taken at those offsets, on the
    reference nodes."""
    p = sample_periodic(
        lambda t: np.stack([np.sin(2 * np.pi * t) + 0.3 * np.cos(6 * np.pi * t),
                            np.exp(np.sin(2 * np.pi * t))], axis=1),
        Mesh.uniform(num_intervals), degree)
    n = 10001
    per = (n - 1) // num_intervals
    times, *got = p._on(n, deriv=True)
    t = times[:-1]
    idx = p.mesh.interval_index(t)
    rows = _reference_rows(t, p.node_times[idx], p.node_family.bary_weights)
    offsets = (np.arange(per + 1, dtype=np.longdouble) / per)[
        np.arange(n - 1) - idx * per]
    family = p.node_family
    diff = offsets[:, None] - family.nodes.astype(np.longdouble)
    hit = diff == 0.0
    diff[hit] = 1.0
    terms = family.bary_weights.astype(np.longdouble) / diff
    on_node = np.any(hit, axis=1)
    terms[on_node] = hit[on_node]
    for values, table in zip(got, (p._value_table, p._deriv_table)):
        at_offsets = (np.einsum("kdn,kn->kd",
                                table[idx].astype(np.longdouble), terms)
                      / np.sum(terms, axis=1)[:, None])
        tiled = np.max(np.abs(values[:-1] - at_offsets))
        normalized = np.max(np.abs(_normalized_contract(table, idx, rows)
                                   - _longdouble_interpolate(p, table, t)))
        assert 0.0 < tiled <= 2.0 * normalized, (tiled, normalized)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("L, n", [(2, 10001), (5, 2001), (10, 10001),
                                  (20, 2001)])
def test_a_tiling_grid_gives_the_same_values_with_derivatives(L, n, dim):
    p = _random_continuous_poly(np.random.default_rng(dim), L, 8, dim)
    assert _tiles(p, n)
    assert _same_bits(p._on(n)[1], p._on(n, deriv=True)[1])


@pytest.mark.parametrize("n", [2001, 10001])
@pytest.mark.parametrize("mesh", [
    Mesh.uniform(1), Mesh.uniform(11),
    Mesh([0.0, 0.3, 0.5, 0.75, 1.0]),
], ids=["L1", "L11", "nonuniform_L4"])
def test_a_grid_that_does_not_tile_goes_through_the_store(monkeypatch, mesh,
                                                          n):
    monkeypatch.setattr(piecewise, "_STORE", piecewise._Store())
    free = np.random.default_rng(n).standard_normal((mesh.num_intervals, 8,
                                                     2))
    p = PeriodicPiecewisePoly(mesh, 8, free)
    assert not _tiles(p, n)
    # recorded, then built into the store, then read from it
    for read in range(3):
        times, values, deriv = p._on(n, deriv=True)
        assert _same_bits(values, p.eval(times))
        assert _same_bits(deriv, p.eval_deriv(times))
        assert (piecewise._STORE.current[1][n] is None) == (read == 0)
