"""Independent verification of converged states by a fixed-point identity.

A solution of the collocation system also satisfies an integral
reformulation: with w the degree-(m-1) interpolation projection of the
rescaled right-hand side along the profile, the profile must equal

    t  ->  v(0) + integral_0^t w(s) ds - t * integral_0^1 w(s) ds,

the mean of w must vanish, and the affine constraints must hold.  This
module measures all three defects through projection and exact piecewise
quadrature, a computation path disjoint from the solver's residual, so
agreement cross-checks both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .collocation import AffineRow, DiscreteState
from .errors import InvalidArgumentError
from .nodes import gauss_rule
from .piecewise import PiecewiseProjection, project
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
        for name in ("sup_defect_v", "defect_v0", "defect_mu"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative")

    @property
    def max_defect(self) -> float:
        return max(self.sup_defect_v, self.defect_v0, self.defect_mu)


def _prefix_integrals(proj: PiecewiseProjection, times: np.ndarray,
                      ) -> np.ndarray:
    """integral_0^t of the projection at each time in [0, 1]: the whole
    intervals before t plus [t_i, t], each by a Gauss rule that is exact
    for the projection's degree."""
    mesh = proj.mesh
    quad_nodes, quad_w = gauss_rule(proj.node_family.m)

    def from_break(idx, span):
        pts = mesh.breaks[idx, None] + span[:, None] * quad_nodes
        vals = proj.eval(pts.ravel()).reshape(idx.size, quad_nodes.size, -1)
        return span[:, None] * np.einsum("q,kqs->ks", quad_w, vals)

    whole = from_break(np.arange(mesh.num_intervals), mesh.lengths)
    prefix = np.vstack([np.zeros((1, proj.dim)), np.cumsum(whole, axis=0)])
    idx = mesh.interval_index(times)
    return prefix[idx] + from_break(idx, times - mesh.breaks[idx])


def phi_m_defect(state: DiscreteState, prob: DdeProblem,
                 cons: Sequence[AffineRow],
                 grid_points: int = DEFAULT_DEFECT_GRID) -> FixedPointDefect:
    """Measure how far a state is from the integral fixed-point identity.

    The projection of the right-hand side reuses the state's mesh and the
    Gauss-Legendre collocation nodes; the reconstruction integral is
    evaluated exactly per interval, so a state solving the collocation
    system has defects at quadrature-roundoff level only.
    """
    if grid_points < 2:
        raise InvalidArgumentError(
            f"grid_points must be at least 2, got {grid_points}")
    poly = state.poly
    mu = state.mu
    rhs = RescaledRhs(prob)
    w = project(lambda t: rhs(poly, t, mu), poly.mesh, poly.degree)

    total = w.integrate(0.0, 1.0)
    defect_v0 = float(np.max(np.abs(total)))

    grid = np.linspace(0.0, 1.0, grid_points)
    running = _prefix_integrals(w, grid)
    reconstructed = poly.values[0, 0][None, :] + running - grid[:, None] * total
    sup_defect_v = float(np.max(np.abs(poly.eval(grid) - reconstructed)))

    defect_mu = max((abs(row.value(poly, mu)) for row in cons), default=0.0)
    return FixedPointDefect(sup_defect_v=sup_defect_v,
                            defect_v0=defect_v0,
                            defect_mu=float(defect_mu))
