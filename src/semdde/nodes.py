"""Interpolation node families on the reference interval [0, 1].

Each family bundles the nodes with their barycentric weights and the
spectral differentiation matrix, which is everything barycentric Lagrange
interpolation needs (Berrut & Trefethen, SIAM Review 46(3), 2004).
``barycentric_terms`` is the one barycentric kernel of the package: the
terms q_j = w_j / (t - x_j) of the second ("true") barycentric formula
sum_j q_j f_j / sum_j q_j, which is forward stable on Chebyshev-type
nodes (Higham, IMA J. Numer. Anal. 24, 2004).  Piecewise evaluation and
integration contract the terms with the values and divide once by their
sum.  ``lagrange_rows`` normalizes the terms into basis rows, for what
needs the basis itself: reference interpolation matrices, the Jacobian
and constraint gradients.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidArgumentError, _checked_int


class NodeKind(enum.Enum):
    GAUSS_LEGENDRE = "gauss_legendre"
    CHEBYSHEV_GAUSS = "chebyshev_gauss"
    CHEBYSHEV_LOBATTO = "chebyshev_lobatto"
    EQUIDISTANT = "equidistant"

    @classmethod
    def from_name(cls, value, name: str = "node kind") -> "NodeKind":
        try:
            return cls(value)
        except ValueError:
            raise InvalidArgumentError(
                f"unknown {name} {value!r}; expected one of "
                f"{[k.value for k in cls]}"
            ) from None


@dataclass(frozen=True)
class NodeFamily:
    """Nodes on [0, 1] with barycentric weights and differentiation matrix.

    ``m`` is the actual node count (``len(nodes)``).  ``diff_matrix`` maps
    values at the nodes to values of the interpolant's derivative at the
    same nodes.
    """

    kind: NodeKind
    m: int
    nodes: np.ndarray
    bary_weights: np.ndarray
    diff_matrix: np.ndarray

    def __post_init__(self):
        for arr in (self.nodes, self.bary_weights, self.diff_matrix):
            arr.flags.writeable = False


def _legendre_value_and_derivative(n: int, x: np.ndarray):
    """Evaluate the Legendre polynomial P_n and P_n' at x in (-1, 1)."""
    p_prev = np.ones_like(x)
    p = x.copy()
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    # P_n'(x) = n (x P_n - P_{n-1}) / (x^2 - 1), valid away from +-1
    dp = n * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


def _gauss_legendre_reference(m: int) -> np.ndarray:
    """Nodes of P_m on [-1, 1], increasing, by Newton iteration.

    Chebyshev-angle initial guesses converge in a handful of iterations;
    the final sweep symmetrizes so that nodes come in exact +-x pairs.
    """
    j = np.arange(1, m + 1)
    x = np.cos(np.pi * (j - 0.25) / (m + 0.5))
    for _ in range(100):
        p, dp = _legendre_value_and_derivative(m, x)
        step = p / dp
        x -= step
        if np.max(np.abs(step)) < 1e-15:
            break
    x = 0.5 * (x - x[::-1])  # exact antisymmetry about 0
    return x[::-1]


def barycentric_weights(nodes: np.ndarray) -> np.ndarray:
    """Barycentric weights w_j = 1 / prod_{k!=j} 4 (x_j - x_k), max-rescaled.

    The factor 4, the inverse capacity of [0, 1] and exact as a power of
    two, keeps the products near 1 (Berrut & Trefethen, section 3); the
    rescaling keeps the weights representable (they only appear in ratios).
    """
    diff = 4.0 * np.subtract.outer(nodes, nodes)
    np.fill_diagonal(diff, 1.0)
    w = 1.0 / np.prod(diff, axis=1)
    return w / np.max(np.abs(w))


def differentiation_matrix(nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Spectral differentiation matrix from barycentric data.

    Off-diagonal entries follow Berrut & Trefethen (9.4); the diagonal is
    the negative row sum, which makes the matrix annihilate constants
    exactly.
    """
    diff = np.subtract.outer(nodes, nodes)
    np.fill_diagonal(diff, 1.0)
    d = (weights[None, :] / weights[:, None]) / diff
    np.fill_diagonal(d, 0.0)
    np.fill_diagonal(d, -np.sum(d, axis=1))
    return d


def make_nodes(kind: NodeKind, m: int) -> NodeFamily:
    """Build a node family on [0, 1].  Families are immutable, so repeated
    requests share one cached instance; ``m`` is checked on every call.

    Parameters
    ----------
    kind : NodeKind
        Node placement rule.
    m : int
        Node count for the open families (Gauss-Legendre, Chebyshev-Gauss,
        equidistant).  For Chebyshev-Lobatto, ``m`` is the polynomial
        degree and the family contains ``m + 1`` nodes including both
        endpoints.  An m beyond 1098 (Lobatto 1097, equidistant 1027) raises.

    Returns
    -------
    NodeFamily
        Strictly increasing nodes, symmetric about 1/2, with barycentric
        weights and differentiation matrix.
    """
    return _make_nodes(kind, _checked_int(m, "node count", 1))


@lru_cache(maxsize=None)
def _make_nodes(kind: NodeKind, m: int) -> NodeFamily:
    if kind == NodeKind.GAUSS_LEGENDRE:
        nodes = (1.0 + _gauss_legendre_reference(m)) / 2.0
    elif kind == NodeKind.CHEBYSHEV_GAUSS:
        j = np.arange(1, m + 1)
        nodes = (1.0 - np.cos((2 * j - 1) * np.pi / (2 * m))) / 2.0
    elif kind == NodeKind.CHEBYSHEV_LOBATTO:
        j = np.arange(m + 1)
        nodes = (1.0 - np.cos(j * np.pi / m)) / 2.0
    elif kind == NodeKind.EQUIDISTANT:
        nodes = np.array([0.5]) if m == 1 else np.linspace(0.0, 1.0, m)
    else:
        raise InvalidArgumentError(f"unhandled node kind {kind}")
    with np.errstate(all="ignore"):  # checked below
        w = barycentric_weights(nodes)
        d = differentiation_matrix(nodes, w)
    if not np.isfinite(d).all():  # so every weight is finite and nonzero
        raise InvalidArgumentError(f"{kind.value} nodes: m = {m} is past "
                                   f"the range of finite barycentric weights")
    return NodeFamily(kind=kind, m=len(nodes), nodes=nodes, bary_weights=w,
                      diff_matrix=d)


def gauss_weights(family: NodeFamily) -> np.ndarray:
    """Gauss-Legendre quadrature weights on [0, 1] for the family's nodes.

    Exact for polynomials up to degree ``2 m - 1``; the weights sum to 1
    (the measure of the interval).
    """
    if family.kind != NodeKind.GAUSS_LEGENDRE:
        raise InvalidArgumentError(
            f"quadrature weights require Gauss-Legendre nodes, got {family.kind}"
        )
    x = 2.0 * family.nodes - 1.0
    _, dp = _legendre_value_and_derivative(family.m, x)
    # weight on [-1,1] is 2 / ((1-x^2) P_m'(x)^2); halve for [0,1]
    return 1.0 / ((1.0 - x * x) * dp * dp)


def gauss_rule(m: int):
    """The m-point Gauss-Legendre rule on [0, 1] as (nodes, weights).

    Exact for polynomials up to degree ``2 m - 1``; cached, and both arrays
    are read-only; ``m`` is checked on every call.
    """
    return _gauss_rule(_checked_int(m, "node count", 1))


@lru_cache(maxsize=None)
def _gauss_rule(m: int):
    family = make_nodes(NodeKind.GAUSS_LEGENDRE, m)
    weights = gauss_weights(family)
    weights.flags.writeable = False
    return family.nodes, weights


def barycentric_terms(points: np.ndarray, node_times: np.ndarray,
                      weights: np.ndarray, out=None) -> np.ndarray:
    """Barycentric terms at each point for its own set of nodes.

    ``points`` has shape (k,); ``node_times`` holds the nodes of each point,
    shape (k, n), or one set shared by all points, shape (n,); ``weights``
    are the family's barycentric weights, which an affine map of the nodes
    changes only by a common factor.  Row i holds q_j = w_j / (t_i - x_j),
    or a unit row where ``points[i]`` equals one of its nodes bitwise, so
    the interpolant at ``points[i]`` is sum_j q_j f_j / sum_j q_j and a
    node hit gives its value exactly.  Each row depends on its own point
    and nodes alone.

    The terms are written into ``out`` (a C-contiguous (k, n) array,
    which may be ``node_times`` itself) or into one fresh array, and no
    other input is changed.  ``out`` is for package-internal use; each
    step works in place and gives the bits of the out-of-place formula.
    """
    ratio = np.subtract(points[:, None], node_times, out=out)
    hit = ratio == 0.0
    any_hit = hit.any()
    if any_hit:
        ratio[hit] = 1.0
    np.divide(weights, ratio, out=ratio)
    if any_hit:
        on_node = np.any(hit, axis=1)
        ratio[on_node] = hit[on_node]
    return ratio


def lagrange_rows(points: np.ndarray, node_times: np.ndarray,
                  weights: np.ndarray) -> np.ndarray:
    """Lagrange basis values at each point for its own set of nodes, in
    one fresh array: the ``barycentric_terms`` of each row over their
    sum, a unit row at a node hit.  The arguments are those of
    ``barycentric_terms``; every reduction runs along a row, so a row
    does not depend on the other rows of the batch.
    """
    terms = barycentric_terms(points, node_times, weights)
    terms /= np.sum(terms, axis=1, keepdims=True)
    return terms


def interpolation_matrix(family: NodeFamily, points: np.ndarray) -> np.ndarray:
    """Matrix mapping values at the family's nodes to values at ``points``.

    Row ``i`` holds the Lagrange basis evaluated at ``points[i]``; rows for
    points that coincide with a node reduce to a unit row.
    """
    points = np.asarray(points, dtype=float)
    return lagrange_rows(points, family.nodes, family.bary_weights)


def lebesgue_constant(family: NodeFamily, samples: int = 10001) -> float:
    """Estimate the Lebesgue constant by dense sampling.

    Maximizes the sum of absolute Lagrange basis values over a uniform
    grid of ``samples`` points in [0, 1]; the estimate is nondecreasing
    under grid refinement with nested grids.

    ``samples`` must be at least ``10 * m`` so the grid resolves the
    oscillation of the basis sum.
    """
    if _checked_int(samples, "samples") < 10 * family.m:
        raise InvalidArgumentError(
            f"samples must be >= 10*m = {10 * family.m}, got {samples}")
    grid = np.linspace(0.0, 1.0, samples)
    basis = interpolation_matrix(family, grid)
    return float(np.max(np.sum(np.abs(basis), axis=1)))
