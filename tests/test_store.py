"""The basis-row store of ``piecewise``: outputs never depend on it.

The store keeps, for the latest discretization, the Lagrange rows of
its fixed time sets (collocation points, uniform grids) and the
Jacobian's differentiation block.  Every output here is compared bit
for bit with a run in which the store keeps nothing, so each request
takes the chunked path of the parent evaluation.
"""

import numpy as np
import pytest

from semdde import piecewise
from semdde.analysis import (
    DEFAULT_ERR_GRID,
    convergence_study,
    err_and_amplitude,
    orbit_amplitude,
)
from semdde.collocation import (
    DiscreteState,
    assemble_jacobian,
    assemble_residual,
    default_constraints,
    newton_solve,
    resample_state,
)
from semdde.continuation import continue_branch
from semdde.nodes import NodeKind, make_nodes
from semdde.oracle import phi_m_defect
from semdde.piecewise import Mesh, PiecewiseProjection, sample_periodic
from semdde.problems import mackey_glass

from test_collocation import (
    _mackey_glass_case,
    _repeated_query_case,
    _sd_quadratic_case,
)


class _KeepsNothing(piecewise._Store):
    def get(self, poly, name, build):
        return None


@pytest.fixture(autouse=True)
def empty_store(monkeypatch):
    """Every test starts from an empty store of its own."""
    monkeypatch.setattr(piecewise, "_STORE", piecewise._Store())


def _with_constraints(make):
    prob, state = make()
    anchor = float(state.poly.eval(0.0)[0])
    return prob, state, default_constraints(prob, state.params,
                                            anchor_value=anchor)


CASES = {
    "mackey_glass_11_8": lambda: _mackey_glass_case(11, 8),
    "sd_quadratic_20_12": lambda: _sd_quadratic_case(20, 12),
    # queries 0 and 1 ask for the collocation points, query 2 is lagged
    "repeated_query": _repeated_query_case,
}


def _outputs(prob, state, cons):
    defect = phi_m_defect(state, prob, cons)
    return [assemble_residual(state, prob, cons),
            assemble_jacobian(state, prob, cons),
            np.array(err_and_amplitude(state, prob)),
            np.array([orbit_amplitude(state), orbit_amplitude(state, 2001)]),
            np.array([defect.sup_defect_v, defect.defect_v0,
                      defect.defect_mu])]


def _same_bits(got, want):
    return all(a.shape == b.shape and a.tobytes() == b.tobytes()
               for a, b in zip(got, want))


@pytest.mark.parametrize("case", list(CASES), ids=list(CASES))
def test_outputs_do_not_depend_on_what_the_store_holds(monkeypatch, case):
    prob, state, cons = _with_constraints(CASES[case])
    with monkeypatch.context() as patch:
        patch.setattr(piecewise, "_STORE", _KeepsNothing())
        want = _outputs(prob, state, cons)
    first = _outputs(prob, state, cons)
    second = _outputs(prob, state, cons)  # builds what the store keeps
    third = _outputs(prob, state, cons)  # reads it
    assert piecewise._STORE.current[1][DEFAULT_ERR_GRID] is not None
    # another mesh and another degree each empty the store
    other = DiscreteState(
        sample_periodic(state.poly.eval, Mesh.uniform(3), 5), state.mu)
    _outputs(prob, other, cons)
    after_mesh = _outputs(prob, state, cons)
    coarser = resample_state(state, state.poly.mesh, state.poly.degree - 1)
    _outputs(prob, coarser, cons)
    after_degree = _outputs(prob, state, cons)
    for got in (first, second, third, after_mesh, after_degree):
        assert _same_bits(got, want)


def test_stored_rows_give_the_values_of_eval_at_node_times():
    _, state = _mackey_glass_case(11, 8)
    poly = state.poly
    times = np.concatenate([poly.node_times.ravel(), [1.0]])
    for _ in range(3):
        values = poly._evaluate(times, "node times")
        assert values.tobytes() == poly.eval(times).tobytes()
    assert piecewise._STORE.current[1]["node times"] is not None
    # a node time returns the stored value bitwise
    assert np.array_equal(values[:-1, 0],
                          poly.values[:, :, 0].ravel())


def _projection_on_the_same_mesh(poly, m):
    family = make_nodes(NodeKind.GAUSS_LEGENDRE, m)
    return PiecewiseProjection(
        poly.mesh, family, poly.eval(poly.mesh.node_times(family.nodes)))


@pytest.mark.parametrize("other", [
    lambda poly: sample_periodic(
        poly.eval, Mesh([0.0, 0.05, 0.3, 0.35, 0.6, 0.65, 0.7, 0.75, 0.8,
                         0.85, 0.9, 1.0]), poly.degree),
    lambda poly: sample_periodic(poly.eval, poly.mesh, poly.degree + 1),
    # as many nodes as the Lobatto family, at other places
    lambda poly: _projection_on_the_same_mesh(poly, poly.degree + 1),
], ids=["same_L_other_breaks", "other_degree", "other_family"])
def test_stored_rows_belong_to_their_discretization(other):
    _, state = _mackey_glass_case(11, 8)
    grid = np.linspace(0.0, 1.0, 2001)
    second = other(state.poly)
    assert second.mesh.num_intervals == 11
    for poly in (state.poly, second):
        for _ in range(2):
            got = poly._evaluate(grid, 2001, deriv=True)
            want = poly.eval_with_deriv(grid)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()


def test_branch_points_do_not_depend_on_what_the_store_holds():
    prob, seed = _mackey_glass_case(11, 8)
    start = newton_solve(seed, prob,
                         default_constraints(prob, seed.params)).state
    p_from = float(start.params[0])

    def branch():
        return [(point.state.flatten().tobytes(), point.err,
                 point.amplitude, point.phi_defect, point.newton_iters)
                for point in continue_branch(start, prob, p_from,
                                             p_from + 0.03, 3)]

    warm = branch()  # the store holds this discretization's rows
    assert piecewise._STORE.current[1][DEFAULT_ERR_GRID] is not None
    piecewise._STORE = piecewise._Store()
    assert branch() == warm


class _Recorder(piecewise._Store):
    """A store that logs the name of every object it builds."""

    def __init__(self):
        super().__init__()
        self.built = []

    def get(self, poly, name, build):
        def logged():
            self.built.append(name)
            return build()

        return super().get(poly, name, logged)


def test_a_grid_asked_for_once_is_never_stored(monkeypatch):
    recorder = _Recorder()
    monkeypatch.setattr(piecewise, "_STORE", recorder)
    _, seed = _mackey_glass_case(11, 8)
    table = convergence_study(mackey_glass(), seed.params, [2], [4, 5, 6],
                              seed=seed)
    assert all(row.completed for row in table.rows)
    # one 10001-point residual and one 2001-point defect grid per cell
    assert DEFAULT_ERR_GRID not in recorder.built
    assert 2001 not in recorder.built
    assert recorder.current[1][DEFAULT_ERR_GRID] is None


def test_the_store_keeps_one_discretization():
    prob, state = _mackey_glass_case(11, 8)
    err_and_amplitude(state, prob)
    assert piecewise._STORE.current[1] == {DEFAULT_ERR_GRID: None}
    err_and_amplitude(state, prob)
    idx, rows = piecewise._STORE.current[1][DEFAULT_ERR_GRID]
    assert idx.shape == (DEFAULT_ERR_GRID,)
    assert rows.shape == (DEFAULT_ERR_GRID, 9)
    _, other = _mackey_glass_case(5, 8)
    err_and_amplitude(other, prob)
    assert piecewise._STORE.current[1] == {DEFAULT_ERR_GRID: None}
