"""Inputs and references shared by the test modules: problems that exist
only to exercise the solver, the Mackey-Glass onset and branch end, the
states the tests start from, and the reference of a grid that tiles a
uniform mesh.  No test module imports another; each imports from here."""

import json
from pathlib import Path

import numpy as np

from semdde.collocation import DiscreteState, resample_state, \
    state_from_document
from semdde.continuation import sd_quadratic_seed
from semdde.errors import InvalidArgumentError
from semdde.nodes import interpolation_matrix
from semdde.piecewise import Mesh, sample_periodic
from semdde.problems import DdeProblem, mackey_glass, sd_quadratic

#: the Mackey-Glass onset: the delay and period at which the equilibrium
#: y = 1 starts to oscillate
TAU_HOPF = np.arccos(-0.25) / np.sqrt(15.0)
PERIOD_HOPF = 2.0 * np.pi / np.sqrt(15.0)

#: the state document of the Mackey-Glass branch end at delay 1, L=11, m=8
MG_BRANCH_END = (Path(__file__).resolve().parents[1] / "perfbench" / "data"
                 / "mg_branch_end.json")


def state_eval_example() -> DdeProblem:
    """The self-referencing rhs y'(t) = y(y(t)); exercises evaluator
    plumbing with state-dependent query points.

    The current state value is used directly as the lag, so it must lie
    in the history window [-1, 0].
    """

    def rhs(e, p):
        now = e(0.0)
        if np.any(now < -1.0) or np.any(now > 0.0):
            raise InvalidArgumentError(
                "state used as a lag must lie in [-1, 0], got values in "
                f"[{float(np.min(now))}, {float(np.max(now))}]")
        return e(now)

    return DdeProblem(
        name="state_eval_example",
        dim=1,
        num_params=0,
        rhs=rhs,
        equilibrium=np.array([0.0]),
    )


def coupled_pair() -> DdeProblem:
    """Two components, each fed by delayed values of both, one lag
    depending on the state: the cross-component blocks of the Jacobian."""

    def rhs(e, p):
        now = e(0.0)
        lag = e(-p[0])
        moving = e(-(0.5 * p[0] + 0.1 * now[:, 1] ** 2))
        return np.stack([
            -now[:, 0] + 2.0 * lag[:, 1] / (1.0 + lag[:, 0] ** 2),
            -now[:, 1] + np.sin(lag[:, 0]) * moving[:, 0]
            + 0.3 * moving[:, 1],
        ], axis=1)

    return DdeProblem(name="coupled_pair", dim=2, num_params=1, rhs=rhs)


def equilibrium_state(tau=0.8, period=1.6, num_intervals=3, degree=4):
    """The Mackey-Glass equilibrium y = 1 as a state at delay ``tau``."""
    mesh = Mesh.uniform(num_intervals)
    poly = sample_periodic(lambda t: np.ones_like(t), mesh, degree)
    return DiscreteState(poly, np.array([period, tau]))


def mackey_glass_case(L, m):
    """Mackey-Glass and its branch end resampled onto (L, m)."""
    doc = json.loads(MG_BRANCH_END.read_text())
    state = resample_state(state_from_document(doc), Mesh.uniform(L), m)
    return mackey_glass(), state


def sd_quadratic_case(L, m):
    """sd_quadratic and its shipped orbit at delay 0.95 resampled onto
    (L, m)."""
    state = resample_state(sd_quadratic_seed(0.95), Mesh.uniform(L), m)
    return sd_quadratic(), state


def coupled_case():
    """``coupled_pair`` and a dim-2 state on L=5, m=6."""
    poly = sample_periodic(
        lambda t: np.stack([np.cos(2 * np.pi * t),
                            0.5 + np.sin(2 * np.pi * t)], axis=-1),
        Mesh.uniform(5), 6)
    return coupled_pair(), DiscreteState(poly, np.array([2.0, 0.7]))


def repeated_query_case():
    """A problem whose queries 0 and 1 ask the same times; moving one
    must leave the other at its recorded value."""
    def rhs(e, p):
        return -e(0.0) * (1.0 + 0.5 * e(0.0)) + 0.2 * e(-p[0])

    poly = sample_periodic(lambda t: 0.5 + 0.3 * np.sin(2 * np.pi * t),
                           Mesh.uniform(4), 6)
    return (DdeProblem(name="repeated_query", dim=1, num_params=1, rhs=rhs),
            DiscreteState(poly, np.array([1.3, 0.4])))


# An n-point grid tiles a uniform mesh of L >= 2 intervals when L divides
# n - 1: it holds its points at the offsets j / per of every interval,
# per = (n - 1) / L, and ``_on`` takes it by its own path.
def tiles_mesh(p, n):
    L = p.mesh.num_intervals
    return L >= 2 and (n - 1) % L == 0 and p.mesh == Mesh.uniform(L)


def tiled_reference(p, n):
    """``(times, values, derivatives)`` on an n-point grid that tiles the
    mesh, one point at a time: point k contracts the basis row of the
    offset j / per, j = (k mod (n - 1)) - idx * per, with the values of
    the interval idx that ``interval_index`` gives it; the points at the
    breaks are ``eval`` and ``eval_deriv``."""
    assert tiles_mesh(p, n)
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
