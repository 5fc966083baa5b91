"""Tests for interpolation node families.

Expected values come from closed forms (Legendre cubic roots, classical
quadrature weights) or are recomputed in-test by an independent method
(bisection root finding, Vandermonde exactness systems), never from the
module under test.
"""

import re

import numpy as np
import pytest

from semdde.errors import InvalidArgumentError
from semdde.nodes import (
    NodeKind,
    gauss_rule,
    gauss_weights,
    interpolation_matrix,
    lebesgue_constant,
    make_nodes,
)

ALL_KINDS = list(NodeKind)
# families whose diff matrices stay well scaled as m grows
SPECTRAL_KINDS = [
    NodeKind.GAUSS_LEGENDRE,
    NodeKind.CHEBYSHEV_GAUSS,
    NodeKind.CHEBYSHEV_LOBATTO,
]


def _legendre_values(n, x):
    """P_n(x) by the three-term recurrence, written out independently."""
    p_prev = np.ones_like(x)
    if n == 0:
        return p_prev
    p = np.asarray(x, dtype=float).copy()
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    return p


def _bisect_legendre_roots(n):
    """All roots of P_n on [-1, 1] by sign-change bisection on a fine grid."""
    grid = np.linspace(-1.0, 1.0, 4001)
    vals = _legendre_values(n, grid)
    roots = []
    for a, b, fa, fb in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
        if fa == 0.0:
            roots.append(a)
            continue
        if fa * fb >= 0.0:
            continue
        for _ in range(80):
            c = 0.5 * (a + b)
            fc = _legendre_values(n, np.array([c]))[0]
            if fa * fc <= 0.0:
                b = c
            else:
                a, fa = c, fc
        roots.append(0.5 * (a + b))
    assert len(roots) == n
    return np.array(roots)


def test_node_kind_from_name_roundtrip():
    for kind in NodeKind:
        assert NodeKind.from_name(kind.value) is kind


def test_node_kind_from_name_rejects_unknown():
    with pytest.raises(InvalidArgumentError):
        NodeKind.from_name("legendre_gauss")


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("m", [0, -2])
def test_make_nodes_rejects_nonpositive_count(kind, m):
    with pytest.raises(InvalidArgumentError):
        make_nodes(kind, m)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("bad, good", [(5.0, 5), (np.float64(5.0), 5),
                                       (True, 1)],
                         ids=["float", "numpy_float", "bool"])
def test_a_count_that_is_not_an_integer_misses_the_cache(kind, bad, good):
    # each equals and hashes like its integer, so a check inside the cache
    # would see it only until that integer is cached
    message = f"^node count must be an integer, got {re.escape(repr(bad))}$"
    with pytest.raises(InvalidArgumentError, match=message):
        make_nodes(kind, bad)
    family = make_nodes(kind, good)
    with pytest.raises(InvalidArgumentError, match=message):
        make_nodes(kind, bad)
    # a numpy integer reaches the same cached family
    assert make_nodes(kind, np.int64(good)) is family


@pytest.mark.parametrize("numpy_first", [False, True],
                         ids=["float_first", "numpy_integer_first"])
def test_gauss_rule_checks_its_count_on_every_call(numpy_first):
    # a numpy integer keys its own cache entry, which 6.0 equals and
    # hashes like: a check inside the cache would depend on call order
    if numpy_first:
        rule = gauss_rule(np.int64(6))
    with pytest.raises(InvalidArgumentError,
                       match="^node count must be an integer, got 6.0$"):
        gauss_rule(6.0)
    if not numpy_first:
        rule = gauss_rule(np.int64(6))
    assert gauss_rule(6) is rule
    for bad in (True, 0):
        with pytest.raises(InvalidArgumentError, match="^node count must"):
            gauss_rule(bad)


def test_gauss_legendre_single_node_is_midpoint():
    fam = make_nodes(NodeKind.GAUSS_LEGENDRE, 1)
    assert fam.nodes.tolist() == [0.5]


def test_one_gauss_legendre_node_is_exact_through_the_general_formulas():
    # the Newton iteration for P_1 and the weight formula give these bits
    fam = make_nodes(NodeKind.GAUSS_LEGENDRE, 1)
    assert fam.nodes.tolist() == [0.5]
    assert fam.bary_weights.tolist() == [1.0]
    assert gauss_weights(fam).tolist() == [1.0]
    nodes, weights = gauss_rule(1)
    assert (nodes.tolist(), weights.tolist()) == ([0.5], [1.0])


def test_make_nodes_rejects_a_kind_that_is_not_a_node_kind():
    with pytest.raises(InvalidArgumentError,
                       match="^unhandled node kind gauss_legendre$"):
        make_nodes("gauss_legendre", 3)


def _unscaled_weights(nodes):
    """1 / prod_{k != j} (x_j - x_k), over the largest magnitude."""
    diff = np.subtract.outer(nodes, nodes)
    np.fill_diagonal(diff, 1.0)
    w = 1.0 / np.prod(diff, axis=1)
    return w / np.max(np.abs(w))


@pytest.mark.parametrize("kind, m", [
    (kind, m) for kind in ALL_KINDS
    for m in (1, 2, 5, 40, 200, 423 if kind == NodeKind.EQUIDISTANT else 516)
], ids=lambda v: getattr(v, "value", v))
def test_weights_are_the_unscaled_product_bitwise_while_it_is_normal(kind, m):
    # scaling every difference by 4 is exact; the unscaled products stay
    # normal up to m = 516 (equidistant: 423)
    fam = make_nodes(kind, m)
    assert fam.bary_weights.tobytes() == _unscaled_weights(fam.nodes).tobytes()


def test_chebyshev_lobatto_degree_600_has_finite_weights():
    # the unscaled products are subnormal or zero from 517 nodes on
    fam = make_nodes(NodeKind.CHEBYSHEV_LOBATTO, 600)
    assert fam.m == 601
    assert np.all(np.isfinite(fam.bary_weights))
    assert np.all(fam.bary_weights != 0.0)
    assert np.all(np.isfinite(fam.diff_matrix))
    # the classical bound (2/pi) ln(n + 1) + 1 for degree n
    assert lebesgue_constant(fam, 6010) < 2.0 / np.pi * np.log(601) + 1.0


@pytest.mark.parametrize("kind, m", [
    (NodeKind.GAUSS_LEGENDRE, 1099), (NodeKind.CHEBYSHEV_GAUSS, 1099),
    (NodeKind.CHEBYSHEV_LOBATTO, 1098), (NodeKind.EQUIDISTANT, 1028),
    (NodeKind.EQUIDISTANT, 1100),
], ids=lambda v: getattr(v, "value", v))
def test_a_count_past_the_finite_range_raises(kind, m):
    with pytest.raises(InvalidArgumentError,
                       match=rf"^{kind.value} nodes: m = {m} is past "):
        make_nodes(kind, m)


@pytest.mark.parametrize("kind, m", [
    (NodeKind.GAUSS_LEGENDRE, 1098), (NodeKind.CHEBYSHEV_LOBATTO, 1097),
    (NodeKind.EQUIDISTANT, 1027),
], ids=lambda v: getattr(v, "value", v))
def test_the_largest_count_in_range_is_finite(kind, m):
    fam = make_nodes(kind, m)
    assert np.all(np.isfinite(fam.diff_matrix))
    assert np.all(np.isfinite(fam.bary_weights) & (fam.bary_weights != 0))


def test_gauss_legendre_three_nodes_closed_form():
    # roots of the degree-3 Legendre polynomial are 0 and +-sqrt(3/5)
    fam = make_nodes(NodeKind.GAUSS_LEGENDRE, 3)
    expected = [0.5 - 0.5 * np.sqrt(0.6), 0.5, 0.5 + 0.5 * np.sqrt(0.6)]
    np.testing.assert_allclose(fam.nodes, expected, rtol=0, atol=1e-15)


@pytest.mark.parametrize("m", [2, 5, 8, 13])
def test_gauss_legendre_matches_bisection_oracle(m):
    fam = make_nodes(NodeKind.GAUSS_LEGENDRE, m)
    oracle = (1.0 + _bisect_legendre_roots(m)) / 2.0
    np.testing.assert_allclose(fam.nodes, oracle, rtol=0, atol=1e-13)


@pytest.mark.parametrize("m", [2, 7, 16, 33, 64])
def test_gauss_legendre_matches_numpy_leggauss(m):
    fam = make_nodes(NodeKind.GAUSS_LEGENDRE, m)
    x_ref, w_ref = np.polynomial.legendre.leggauss(m)
    np.testing.assert_allclose(fam.nodes, (1.0 + x_ref) / 2.0,
                               rtol=0, atol=1e-13)
    np.testing.assert_allclose(gauss_weights(fam), w_ref / 2.0,
                               rtol=0, atol=1e-13)


@pytest.mark.parametrize("m", [1, 4, 9, 25])
def test_chebyshev_gauss_nodes_are_chebyshev_roots(m):
    # T_m vanishes at the mapped nodes
    fam = make_nodes(NodeKind.CHEBYSHEV_GAUSS, m)
    t_m = np.cos(m * np.arccos(2.0 * fam.nodes - 1.0))
    np.testing.assert_allclose(t_m, 0.0, rtol=0, atol=1e-13)


@pytest.mark.parametrize("m", [2, 5, 12])
def test_chebyshev_lobatto_nodes_are_chebyshev_extrema(m):
    fam = make_nodes(NodeKind.CHEBYSHEV_LOBATTO, m)
    assert fam.m == m + 1
    t_m = np.cos(m * np.arccos(2.0 * fam.nodes - 1.0))
    np.testing.assert_allclose(np.abs(t_m), 1.0, rtol=0, atol=1e-12)


def test_chebyshev_lobatto_degree_two():
    fam = make_nodes(NodeKind.CHEBYSHEV_LOBATTO, 2)
    np.testing.assert_allclose(fam.nodes, [0.0, 0.5, 1.0], rtol=0, atol=1e-16)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 21, 40])
def test_nodes_increasing_and_inside_interval(kind, m):
    fam = make_nodes(kind, m)
    assert np.all(np.diff(fam.nodes) > 0)
    assert fam.nodes[0] >= 0.0 and fam.nodes[-1] <= 1.0
    if kind in (NodeKind.GAUSS_LEGENDRE, NodeKind.CHEBYSHEV_GAUSS):
        assert fam.nodes[0] > 0.0 and fam.nodes[-1] < 1.0
    if kind == NodeKind.CHEBYSHEV_LOBATTO:
        assert fam.nodes[0] == 0.0 and fam.nodes[-1] == 1.0


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("m", [1, 2, 3, 6, 17, 40])
def test_nodes_symmetric_about_half(kind, m):
    fam = make_nodes(kind, m)
    np.testing.assert_allclose(fam.nodes + fam.nodes[::-1], 1.0,
                               rtol=0, atol=1e-14)


def test_family_is_immutable():
    fam = make_nodes(NodeKind.GAUSS_LEGENDRE, 4)
    with pytest.raises(Exception):
        fam.m = 5
    with pytest.raises(ValueError):
        fam.nodes[0] = 0.3


@pytest.mark.parametrize("kind", SPECTRAL_KINDS)
def test_diff_matrix_annihilates_constants_and_differentiates_identity(kind):
    for m in range(1, 41):
        fam = make_nodes(kind, m)
        const_err = np.abs(fam.diff_matrix @ np.ones(fam.m)).max()
        assert const_err <= 1e-12, (kind, m, const_err)
        if fam.m >= 2:
            ident_err = np.abs(fam.diff_matrix @ fam.nodes - 1.0).max()
            assert ident_err <= 1e-12, (kind, m, ident_err)


def test_diff_matrix_equidistant_identities_relative_to_scale():
    # Equidistant barycentric weights span ~2^m, so the matrix entries
    # reach ~1e12 by m=40 and absolute tolerances are meaningless; the
    # identities hold to roundoff relative to the entry magnitude.
    for m in range(1, 41):
        fam = make_nodes(NodeKind.EQUIDISTANT, m)
        scale = max(1.0, np.abs(fam.diff_matrix).max())
        const_err = np.abs(fam.diff_matrix @ np.ones(fam.m)).max()
        assert const_err <= 1e-12 * scale, (m, const_err, scale)
        if fam.m >= 2:
            ident_err = np.abs(fam.diff_matrix @ fam.nodes - 1.0).max()
            assert ident_err <= 1e-12 * scale, (m, ident_err, scale)


@pytest.mark.parametrize("kind", SPECTRAL_KINDS)
@pytest.mark.parametrize("m", [2, 5, 10, 20])
def test_diff_matrix_differentiates_polynomials(kind, m):
    rng = np.random.default_rng(2024 + m)
    fam = make_nodes(kind, m)
    coeffs = rng.uniform(-1.0, 1.0, fam.m)  # degree m-1 on the family
    p = np.polynomial.Polynomial(coeffs)
    dp = p.deriv()
    err = np.abs(fam.diff_matrix @ p(fam.nodes) - dp(fam.nodes)).max()
    assert err <= 1e-11 * max(1.0, np.abs(fam.diff_matrix).max())


def test_gauss_weights_small_closed_forms():
    assert gauss_weights(make_nodes(NodeKind.GAUSS_LEGENDRE, 1)).tolist() \
        == [1.0]
    np.testing.assert_allclose(
        gauss_weights(make_nodes(NodeKind.GAUSS_LEGENDRE, 2)), [0.5, 0.5],
        rtol=0, atol=1e-15)


def test_gauss_weights_three_point_exactness_system():
    # independent oracle: solve the Vandermonde exactness system with the
    # module's own nodes, then compare against the closed form 5/18, 8/18
    fam = make_nodes(NodeKind.GAUSS_LEGENDRE, 3)
    vander = np.vander(fam.nodes, 3, increasing=True).T
    moments = np.array([1.0, 1.0 / 2.0, 1.0 / 3.0])
    w_oracle = np.linalg.solve(vander, moments)
    np.testing.assert_allclose(gauss_weights(fam), w_oracle, rtol=0, atol=1e-14)
    np.testing.assert_allclose(w_oracle, [5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0],
                               rtol=0, atol=1e-14)


@pytest.mark.parametrize("m", range(1, 13))
def test_gauss_weights_monomial_exactness(m):
    fam = make_nodes(NodeKind.GAUSS_LEGENDRE, m)
    w = gauss_weights(fam)
    assert np.all(w > 0)
    for k in range(2 * m):
        quad = float(w @ fam.nodes**k)
        assert abs(quad - 1.0 / (k + 1)) <= 1e-13, (m, k)


def test_gauss_weights_reject_non_gauss_family():
    with pytest.raises(InvalidArgumentError):
        gauss_weights(make_nodes(NodeKind.CHEBYSHEV_GAUSS, 4))


def test_interpolation_matrix_hits_nodes_exactly():
    fam = make_nodes(NodeKind.CHEBYSHEV_LOBATTO, 6)
    pts = np.concatenate([[0.25], fam.nodes[[0, 3, 6]], [0.9]])
    mat = interpolation_matrix(fam, pts)
    np.testing.assert_array_equal(mat[1], np.eye(fam.m)[0])
    np.testing.assert_array_equal(mat[2], np.eye(fam.m)[3])
    np.testing.assert_array_equal(mat[3], np.eye(fam.m)[6])


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("m", [1, 4, 12])
def test_interpolation_matrix_partition_of_unity(kind, m):
    fam = make_nodes(kind, m)
    pts = np.linspace(0.0, 1.0, 57)
    mat = interpolation_matrix(fam, pts)
    np.testing.assert_allclose(mat.sum(axis=1), 1.0, rtol=0, atol=1e-13)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("m", [3, 8, 15])
def test_polynomial_reproduction_at_random_points(kind, m):
    rng = np.random.default_rng(99 * m + 7)
    fam = make_nodes(kind, m)
    coeffs = rng.standard_normal(fam.m)  # degree m-1: in the exact range
    p = np.polynomial.Polynomial(coeffs)
    pts = rng.uniform(0.0, 1.0, 200)
    interp = interpolation_matrix(fam, pts) @ p(fam.nodes)
    err = np.abs(interp - p(pts)).max()
    assert err <= 1e-11 * max(1.0, np.abs(coeffs).max())


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_lebesgue_constant_single_node(kind):
    fam = make_nodes(kind, 1)
    assert lebesgue_constant(fam, 101) == pytest.approx(1.0, abs=1e-15)


def test_lebesgue_constant_chebyshev_classical_bound():
    fam = make_nodes(NodeKind.CHEBYSHEV_GAUSS, 10)
    lam = lebesgue_constant(fam, 10001)
    assert lam <= (2.0 / np.pi) * np.log(10.0) + 1.0
    assert lam == pytest.approx(2.4288294823760728, abs=1e-9)


def test_lebesgue_constant_equidistant_growth():
    fam = make_nodes(NodeKind.EQUIDISTANT, 20)
    assert lebesgue_constant(fam, 10001) > 100.0


@pytest.mark.parametrize("kind",
                         [NodeKind.CHEBYSHEV_GAUSS, NodeKind.GAUSS_LEGENDRE])
def test_lebesgue_ratio_strictly_decreasing(kind):
    ratios = [lebesgue_constant(make_nodes(kind, m), 10001) / m
              for m in (4, 8, 16, 32, 64)]
    assert all(a > b for a, b in zip(ratios, ratios[1:])), ratios


def test_lebesgue_constant_nondecreasing_on_nested_grids():
    fam = make_nodes(NodeKind.CHEBYSHEV_GAUSS, 8)
    vals = [lebesgue_constant(fam, s) for s in (101, 201, 401)]
    assert vals[0] <= vals[1] <= vals[2]


def test_lebesgue_constant_rejects_coarse_grid():
    fam = make_nodes(NodeKind.CHEBYSHEV_GAUSS, 12)
    with pytest.raises(InvalidArgumentError):
        lebesgue_constant(fam, 119)


@pytest.mark.parametrize("samples", [5000.0, True, "5000"],
                         ids=["float", "bool", "string"])
def test_lebesgue_constant_takes_an_integer_sample_count(samples):
    fam = make_nodes(NodeKind.CHEBYSHEV_GAUSS, 12)
    with pytest.raises(InvalidArgumentError,
                       match="^samples must be an integer, got "):
        lebesgue_constant(fam, samples)
    assert lebesgue_constant(fam, np.int64(5000)) == \
        lebesgue_constant(fam, 5000)
