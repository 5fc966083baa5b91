"""Independent verification of converged states by a fixed-point identity.

A solution of the collocation system also satisfies an integral
reformulation: with w the degree-(m-1) interpolant of the rescaled
right-hand side at the collocation points, the profile must equal

    t  ->  v(0) + integral_0^t w(s) ds - t * integral_0^1 w(s) ds,

the mean of w must vanish, and the affine constraints must hold.  The
first two defects come from the rhs values at ``COLLOCATION`` alone, with
no projection built: a cached integration matrix gives the degree-m
reconstruction at the profile's own nodes, the Gauss sum the mean.  The
rhs queries are answered by ``eval``, a path disjoint from the solver's
residual, so agreement cross-checks both.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .collocation import AffineRow, DiscreteState
from .errors import _checked_fields
from .nodes import NodeKind, gauss_rule, interpolation_matrix, make_nodes
from .piecewise import (COLLOCATION, PeriodicPiecewisePoly,
                        _representation_nodes)
from .problems import DdeProblem, RescaledRhs

DEFAULT_DEFECT_GRID = 2001


@dataclass(frozen=True)
class FixedPointDefect:
    """Deviations of a state from the integral fixed-point identity.

    ``sup_defect_v``: sup over the grid of |v - reconstructed profile|;
    ``defect_v0``: magnitude of the mean of the projected right-hand side;
    ``defect_mu``: max-norm of the affine constraint rows.
    """

    sup_defect_v: float
    defect_v0: float
    defect_mu: float

    def __post_init__(self):
        _checked_fields(self, ("sup_defect_v", "defect_v0", "defect_mu"), 0.0)

    @property
    def max_defect(self) -> float:
        return max(self.sup_defect_v, self.defect_v0, self.defect_mu)


@lru_cache(maxsize=None)
def _integration_matrix(m: int) -> np.ndarray:
    """Q[j, k] = integral_0^{x_j} l_k, shape (m+1, m), with x_j the m+1
    Chebyshev-Lobatto nodes and l_k the Lagrange basis of the m
    Gauss-Legendre nodes on [0, 1]; read-only.  The m-point Gauss rule on
    [0, x_j] integrates each l_k (degree m-1) exactly."""
    quad_nodes, quad_w = gauss_rule(m)
    ends = _representation_nodes(m).nodes
    basis = interpolation_matrix(make_nodes(NodeKind.GAUSS_LEGENDRE, m),
                                 (ends[:, None] * quad_nodes).ravel())
    q = ends[:, None] * np.einsum("q,jqk->jk", quad_w,
                                  basis.reshape(m + 1, m, m))
    q.flags.writeable = False
    return q


def phi_m_defect(state: DiscreteState, prob: DdeProblem,
                 cons: Sequence[AffineRow]) -> FixedPointDefect:
    """Measure how far a state is from the integral fixed-point identity.

    The right-hand side is taken at the collocation set, not projected.
    The integral of its interpolant from each break to the interval's
    Chebyshev-Lobatto nodes comes exactly from the integration matrix,
    which fixes the degree-m reconstruction at the profile's own nodes;
    its integral over [0, 1] is the Gauss sum of the same values.
    ``sup_defect_v`` is the maximum of the profile minus that
    reconstruction over the uniform grid of ``DEFAULT_DEFECT_GRID``
    times.  A state solving the collocation system has defects at
    roundoff level only.
    """
    poly, mu = state.poly, state.mu
    mesh, m = poly.mesh, poly.degree
    w = RescaledRhs(prob)(poly, poly._fixed(COLLOCATION)[0], mu).reshape(
        -1, m, poly.dim)  # (L, m, dim), interval-major like the times
    total = np.einsum("i,q,iqs->s", mesh.lengths, gauss_rule(m)[1], w)
    defect_v0 = np.max(np.abs(total))

    # integral of w from each interval's left break to its Lobatto nodes,
    # shape (L, m+1, dim); node m spans the whole interval
    partial = mesh.lengths[:, None, None] * np.einsum(
        "jk,iks->ijs", _integration_matrix(m), w)
    prefix = np.concatenate([np.zeros((1, poly.dim)),
                             np.cumsum(partial[:-1, m], axis=0)])
    reconstructed = (poly.values[0, 0] + prefix[:, None, :] + partial[:, :m]
                     - poly.node_times[:, :m, None] * total)
    defect = PeriodicPiecewisePoly(mesh, m, poly.free_values - reconstructed)
    sup_defect_v = np.max(np.abs(defect._on(DEFAULT_DEFECT_GRID)[1]))

    defect_mu = max((abs(row.value(poly, mu)) for row in cons), default=0.0)
    return FixedPointDefect(sup_defect_v, defect_v0, defect_mu)
