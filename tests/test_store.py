"""The store of ``piecewise``: outputs never depend on it.

The store keeps, for the latest discretization, what its fixed time sets
(collocation points, uniform grids) need, which callers name and
``piecewise`` makes: times, intervals and barycentric terms, or, for a
uniform grid that tiles a uniform mesh, the basis rows of its offsets.
It also keeps the Jacobian's differentiation block.  One rule holds for
all of them: an object is recorded on its first request, built once on
its second and kept from then on, and a request on another
discretization empties the store.  Every output here is compared bit
for bit with a run in which the store keeps nothing, so each request
takes the path of a first request.  The tiling path itself is pinned to
its reference in ``test_piecewise``.
"""

import numpy as np
import pytest

from semdde import piecewise
from semdde.analysis import (
    DEFAULT_ERR_GRID,
    convergence_study,
    err_and_amplitude,
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
from semdde.errors import InvalidArgumentError
from semdde.nodes import NodeKind, interpolation_matrix, make_nodes
from semdde.oracle import phi_m_defect
from semdde.piecewise import COLLOCATION, Mesh, sample_periodic
from semdde.problems import mackey_glass

from support import (
    coupled_case,
    mackey_glass_case,
    repeated_query_case,
    sd_quadratic_case,
    tiled_reference,
    tiles_mesh,
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
    "mackey_glass_11_8": lambda: mackey_glass_case(11, 8),
    "sd_quadratic_20_12": lambda: sd_quadratic_case(20, 12),
    # queries 0 and 1 ask for the collocation points, query 2 is lagged
    "repeated_query": repeated_query_case,
}


def _outputs(prob, state, cons):
    defect = phi_m_defect(state, prob, cons)
    solver = [assemble_residual(state, prob, cons),
              assemble_jacobian(state, prob, cons)]
    dense = err_and_amplitude(state, prob)
    return solver + [
        np.array(dense),
        np.array([dense[1], err_and_amplitude(state, prob, 2001)[1]]),
        np.array([defect.sup_defect_v, defect.defect_v0, defect.defect_mu])]


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
    kept = piecewise._STORE.current[1]
    if tiles_mesh(state.poly, DEFAULT_ERR_GRID):  # L = 20 and 4
        # both dense grids tile the mesh: each keeps the basis rows of its
        # offsets, and the amplitudes are the ranges of the tiling path's
        # values
        for n in (DEFAULT_ERR_GRID, 2001):
            per = (n - 1) // state.poly.mesh.num_intervals
            assert kept[n][4].tobytes() == interpolation_matrix(
                state.poly.node_family, np.arange(per + 1) / per).tobytes()
        assert want[3].tobytes() == np.array(
            [np.ptp(tiled_reference(state.poly, n)[1])
             for n in (DEFAULT_ERR_GRID, 2001)]).tobytes()
    else:
        assert kept[DEFAULT_ERR_GRID] is not None
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


@pytest.mark.parametrize("L", [11, 3])
def test_stored_rows_give_the_values_of_eval_at_node_times(L):
    _, state = mackey_glass_case(L, 8)
    poly = state.poly
    # on L = 11 the 12-point grid is the breaks, node 0 of every interval
    # then 1: it tiles the mesh, and the store keeps the rows of its two
    # offsets.  On L = 3 it keeps its terms, and only its ends are breaks.
    # Either is stored from its second request.
    for _ in range(3):
        times, values = poly._on(12)
        assert values.tobytes() == poly.eval(times).tobytes()
    kept = piecewise._STORE.current[1][12][4]
    assert kept.shape == ((2, 9) if L == 11 else (12, 9))
    # a node time returns the stored value bitwise; t = 1 wraps to 0
    first = np.append(poly.values[:, 0, 0], poly.values[0, 0, 0])
    hits = slice(None) if L == 11 else [0, -1]
    assert np.array_equal(values[hits, 0], first[hits])


@pytest.mark.parametrize("other", [
    lambda poly: sample_periodic(
        poly.eval, Mesh([0.0, 0.05, 0.3, 0.35, 0.6, 0.65, 0.7, 0.75, 0.8,
                         0.85, 0.9, 1.0]), poly.degree),
    lambda poly: sample_periodic(poly.eval, poly.mesh, poly.degree + 1),
], ids=["same_L_other_breaks", "other_degree"])
def test_stored_rows_belong_to_their_discretization(other):
    _, state = mackey_glass_case(11, 8)
    second = other(state.poly)
    assert second.mesh.num_intervals == 11
    for poly in (state.poly, second):
        for _ in range(2):
            times, *got = poly._on(2001, deriv=True)
            want = poly.eval(times), poly.eval_deriv(times)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()


@pytest.mark.parametrize("name", [COLLOCATION, 2, 2001, DEFAULT_ERR_GRID])
def test_a_fixed_set_has_the_times_its_name_says(name):
    _, state = mackey_glass_case(11, 8)
    poly = state.poly
    if name == COLLOCATION:
        want = poly.mesh.node_times(
            make_nodes(NodeKind.GAUSS_LEGENDRE, 8).nodes).ravel()
    else:
        want = np.linspace(0.0, 1.0, name)  # unwrapped: it ends at 1
    # recorded, then built into the store, then read from it
    for _ in range(3):
        times, t, idx, *_ = poly._fixed(name)
        assert times.tobytes() == want.tobytes()
        assert t.tobytes() == (want % 1.0).tobytes()
        assert np.array_equal(idx, poly.mesh.interval_index(t))


@pytest.mark.parametrize("name", [-1, 0, 1])
def test_a_grid_needs_two_points(name):
    _, state = mackey_glass_case(11, 8)
    with pytest.raises(InvalidArgumentError):
        state.poly._fixed(name)
    assert piecewise._STORE.current[1] == {}


def test_a_fixed_set_gives_its_rows_from_the_first_request():
    prob, state, cons = _with_constraints(lambda: mackey_glass_case(11, 8))
    poly = state.poly
    first = poly._collocation_basis()  # terms built, the set only recorded
    assert piecewise._STORE.current[1][COLLOCATION] is None
    second = poly._collocation_basis()  # built into the store
    assert piecewise._STORE.current[1][COLLOCATION] is not None
    want = poly.eval_with_basis(first[0])
    for got in (first, second):
        # values, columns and rows
        assert all(g.tobytes() == w.tobytes()
                   for g, w in zip(got[1:4], want))
    # a Jacobian reads the set once: the first one builds its rows itself
    # and leaves the set recorded, the second stores them, the third
    # reads them
    piecewise._STORE = piecewise._Store()
    jac = assemble_jacobian(state, prob, cons)
    assert piecewise._STORE.current[1][COLLOCATION] is None
    assert assemble_jacobian(state, prob, cons).tobytes() == jac.tobytes()
    assert piecewise._STORE.current[1][COLLOCATION] is not None
    assert assemble_jacobian(state, prob, cons).tobytes() == jac.tobytes()


@pytest.mark.parametrize("case", list(CASES), ids=list(CASES))
def test_the_jacobian_takes_the_derivative_of_on_from_one_read(
        monkeypatch, case):
    _, state = CASES[case]()
    poly = state.poly
    with monkeypatch.context() as patch:
        patch.setattr(piecewise, "_STORE", _KeepsNothing())
        want = poly._on(COLLOCATION, deriv=True)
    # terms built on the first read, then stored, then read from the store
    for read in range(3):
        times, *_, deriv = poly._collocation_basis()
        assert times.tobytes() == want[0].tobytes()
        assert deriv.tobytes() == want[2].tobytes()
        kept = piecewise._STORE.current[1][COLLOCATION]
        assert (kept is None) == (read == 0)


@pytest.mark.parametrize("case", ["mackey_glass_11_8", "sd_quadratic_20_12"])
def test_the_collocation_basis_is_eval_with_basis_and_on_bitwise(
        monkeypatch, case):
    _, state = CASES[case]()
    poly = state.poly
    with monkeypatch.context() as patch:
        patch.setattr(piecewise, "_STORE", _KeepsNothing())
        on = poly._on(COLLOCATION, deriv=True)
        basis = poly.eval_with_basis(on[0])
    want = (on[0],) + basis + (on[2],)
    assert basis[0].tobytes() == on[1].tobytes()
    # the set's first request, its second (which stores it), a stored read
    for _ in range(3):
        got = poly._collocation_basis()
        assert len(got) == len(want)
        assert all(g.shape == w.shape and g.tobytes() == w.tobytes()
                   for g, w in zip(got, want))
    assert piecewise._STORE.current[1][COLLOCATION] is not None


def _break_column_block(poly, n):
    """The differentiation block with each interval's free-value columns
    taken from an evaluation at its left break, as it was built before it
    read them from the free-value layout."""
    mesh = poly.mesh
    L, m, dim = mesh.num_intervals, poly.degree, poly.dim
    rows = np.arange(L * m * dim).reshape(L * m, dim)
    jac = np.zeros((n, n))
    basis = interpolation_matrix(
        poly.node_family, make_nodes(NodeKind.GAUSS_LEGENDRE, m).nodes)
    deriv = np.sum(basis[:, None, :] * poly.node_family.diff_matrix.T,
                   axis=2)
    block = deriv / mesh.lengths[:, None, None]
    cols = poly.eval_with_basis(mesh.breaks[:-1])[1][:, None, :] * dim
    for s in range(dim):
        np.add.at(jac, (rows[:, s].reshape(L, m, 1), cols + s), block)
    return jac


@pytest.mark.parametrize("L", [1, 3])
@pytest.mark.parametrize("make", [
    lambda: mackey_glass_case(11, 8),
    coupled_case,
], ids=["mackey_glass", "coupled_pair"])
def test_the_differentiation_block_reads_the_free_value_layout(make, L):
    def on_mesh():
        prob, state = make()
        return prob, resample_state(state, Mesh.uniform(L),
                                    state.poly.degree)

    prob, state, cons = _with_constraints(on_mesh)
    poly = state.poly
    n = state.flatten().size
    # L = 1: nodes 0 and m share a column, so add.at sums two terms
    assert (poly._columns[0, 0] == poly._columns[0, -1]) == (L == 1)
    for _ in range(2):  # the second Jacobian keeps the block
        assemble_jacobian(state, prob, cons)
    kept = piecewise._STORE.current[1][("jacobian start", poly.dim, n)]
    assert kept.tobytes() == _break_column_block(poly, n).tobytes()


@pytest.mark.parametrize("L", [11, 10])  # 10001 points tile L = 10
def test_branch_points_do_not_depend_on_what_the_store_holds(monkeypatch,
                                                             L):
    prob, seed = mackey_glass_case(L, 8)
    start = newton_solve(seed, prob,
                         default_constraints(prob, seed.params)).state
    p_from = float(start.params[0])

    def branch():
        return [(point.state.flatten().tobytes(), point.err,
                 point.amplitude, point.phi_defect, point.newton_iters)
                for point in continue_branch(start, prob, p_from,
                                             p_from + 0.03, 3)]

    with monkeypatch.context() as patch:
        patch.setattr(piecewise, "_STORE", _KeepsNothing())
        want = branch()
    warm = branch()  # the store holds this discretization's rows
    kept = piecewise._STORE.current[1][DEFAULT_ERR_GRID][4]
    # L = 10 keeps the rows of the 1001 offsets, L = 11 the grid's terms
    assert kept.shape == ((1001, 9) if L == 10 else (DEFAULT_ERR_GRID, 9))
    piecewise._STORE = piecewise._Store()
    assert branch() == warm == want


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


@pytest.mark.parametrize("L", [2, 3])
def test_a_grid_asked_for_once_is_never_stored(monkeypatch, L):
    recorder = _Recorder()
    monkeypatch.setattr(piecewise, "_STORE", recorder)
    _, seed = mackey_glass_case(11, 8)
    table = convergence_study(mackey_glass(), seed.params, [L], [4, 5, 6],
                              seed=seed)
    assert all(row.completed for row in table.rows)
    # one 10001-point residual and one 2001-point defect grid per cell
    assert DEFAULT_ERR_GRID not in recorder.built
    assert 2001 not in recorder.built
    # recorded alike, whether they tile the mesh (L = 2) or not
    assert recorder.current[1][DEFAULT_ERR_GRID] is None
    assert recorder.current[1][2001] is None


def test_the_store_keeps_one_discretization():
    prob, state = mackey_glass_case(11, 8)
    err_and_amplitude(state, prob)
    assert piecewise._STORE.current[1] == {DEFAULT_ERR_GRID: None}
    err_and_amplitude(state, prob)
    times, t, idx, per, terms, sums = piecewise._STORE.current[1][
        DEFAULT_ERR_GRID]
    assert per == 0
    assert times.shape == t.shape == idx.shape == (DEFAULT_ERR_GRID,)
    assert terms.shape == (DEFAULT_ERR_GRID, 9)
    assert sums.shape == (DEFAULT_ERR_GRID,)
    # another discretization empties it, one whose grid tiles its mesh
    # (L = 5) as any other
    for L in (5, 3):
        _, other = mackey_glass_case(L, 8)
        err_and_amplitude(other, prob)
        assert piecewise._STORE.current[1] == {DEFAULT_ERR_GRID: None}


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("deriv", [False, True])
@pytest.mark.parametrize("n", [2001, 10001])
@pytest.mark.parametrize("L", [2, 5, 10, 20])
def test_a_tiling_grid_is_built_once_and_kept(monkeypatch, L, n, deriv, dim):
    recorder = _Recorder()
    monkeypatch.setattr(piecewise, "_STORE", recorder)
    p = sample_periodic(
        lambda t: np.stack([np.sin(2 * np.pi * t),
                            np.exp(np.cos(2 * np.pi * t))][:dim], axis=1),
        Mesh.uniform(L), 9)
    assert tiles_mesh(p, n)
    # recorded, then built into the store, then read from it
    first, second, third = (p._on(n, deriv=deriv) for _ in range(3))
    for got in (second, third):
        assert _same_bits(got, first)
    assert recorder.built == [n]
    # the kept rows are those the first request built per chunk
    per = (n - 1) // L
    offsets = np.arange(per + 1) / per
    chunked = np.concatenate([
        interpolation_matrix(p.node_family, offsets[lo:lo + piecewise._CHUNK])
        for lo in range(0, per + 1, piecewise._CHUNK)])
    assert recorder.current[1][n][3] == per
    assert recorder.current[1][n][4].tobytes() == chunked.tobytes()


def test_a_point_row_is_kept_from_its_second_request():
    prob, state, cons = _with_constraints(lambda: mackey_glass_case(11, 8))
    anchor, poly = cons[0], state.poly
    _, cols, rows = poly.eval_with_basis(np.array([0.0]))
    want = anchor.value(poly, state.mu)  # recorded
    assert piecewise._STORE.current[1][("point", 0.0)] is None
    for _ in range(2):  # built, then kept
        assert anchor.value(poly, state.mu) == want
        kept = piecewise._STORE.current[1][("point", 0.0)]
        assert kept[0].tobytes() == cols[0].tobytes()
        assert kept[1].tobytes() == rows[0].tobytes()
    assert poly._point(0.0) is kept
    # a request on another discretization drops it
    _, other = mackey_glass_case(3, 8)
    anchor.value(other.poly, other.mu)
    assert piecewise._STORE.current[1] == {("point", 0.0): None}


def test_a_terms_set_keeps_its_wrapped_times_and_term_sums():
    _, state = mackey_glass_case(11, 8)
    poly = state.poly
    assert not tiles_mesh(poly, DEFAULT_ERR_GRID)
    # recorded, then built into the store, then read from it
    for _ in range(3):
        times, values, deriv = poly._on(DEFAULT_ERR_GRID, deriv=True)
        assert values.tobytes() == poly.eval(times).tobytes()
        assert deriv.tobytes() == poly.eval_deriv(times).tobytes()
    _, t, _, per, terms, sums = piecewise._STORE.current[1][DEFAULT_ERR_GRID]
    assert per == 0
    assert t.tobytes() == (times % 1.0).tobytes()
    # the sums of the whole set are those ``_interpolate`` takes per chunk
    assert sums.tobytes() == np.concatenate([
        np.einsum("kn->k", terms[lo:lo + piecewise._CHUNK])
        for lo in range(0, DEFAULT_ERR_GRID, piecewise._CHUNK)]).tobytes()


def test_each_jacobian_gets_its_own_start_block():
    prob, state, cons = _with_constraints(lambda: mackey_glass_case(11, 8))
    n = state.flatten().size
    first = assemble_jacobian(state, prob, cons)  # builds its block
    second = assemble_jacobian(state, prob, cons)  # keeps it, then copies
    kept = piecewise._STORE.current[1][("jacobian start", state.poly.dim, n)]
    want, block = second.copy(), kept.copy()
    first[:] = np.nan
    assert second.tobytes() == want.tobytes()
    assert kept.tobytes() == block.tobytes()
    second[:] = np.nan
    assert kept.tobytes() == block.tobytes()
    assert assemble_jacobian(state, prob, cons).tobytes() == want.tobytes()
