"""The package's one real rule, at every entry point that takes a real.

``errors._checked_real`` and ``errors._checked_reals`` decide what a
real number is: numpy's scalars pass, and bools, strings, None, NaN,
infinities and ints beyond the double range do not.  Each site below
hands the library one value in the place of a real; the table checks
that every site refuses the same values, names the argument, and keeps
an accepted value as a Python float or a float array.
"""

import math

import numpy as np
import pytest

from semdde import cli
from semdde.analysis import BernsteinBound, bernstein_bound_fit, \
    convergence_study
from semdde.collocation import (
    AffineRow,
    DiscreteState,
    NewtonSettings,
    default_constraints,
    parameter_pin_row,
    phase_anchor_row,
    state_from_document,
    state_to_document,
    with_parameter,
)
from semdde.continuation import BranchPoint, continue_branch, \
    hopf_initial_guess, mackey_glass_hopf, sd_quadratic_seed
from semdde.errors import CollapseError, ConfigError, InvalidArgumentError, \
    _checked_real, _checked_reals
from semdde.oracle import FixedPointDefect
from semdde.piecewise import Mesh, PeriodicPiecewisePoly, \
    poly_from_document, poly_to_document, sample_periodic
from semdde.problems import DdeProblem, HopfData, mackey_glass, \
    scalar_hopf_point

REFUSED = [True, "1", None, 2**1100, math.nan, math.inf, -math.inf]
ACCEPTED = [np.float32(1), np.float64(1), np.int64(1)]


def _flat_state():
    """A flat orbit: every site that needs a state accepts it, and
    ``continue_branch`` refuses it (CollapseError) only after its
    arguments."""
    poly = sample_periodic(lambda t: np.ones((t.size, 1)), Mesh.uniform(2), 2)
    return DiscreteState(poly, [1.6, 0.5])


def _branch_point(**change):
    fields = dict(parameter=0.5, state=_flat_state(), amplitude=0.1,
                  period=1.6, err=0.0, newton_iters=1, phi_defect=0.0)
    return BranchPoint(**dict(fields, **change))


def _continued(p_from, p_to):
    try:
        continue_branch(_flat_state(), mackey_glass(), p_from, p_to, 1)
    except CollapseError:  # the arguments passed; the start is flat
        return None


def _seed(tau):
    try:
        return sd_quadratic_seed(tau)
    except InvalidArgumentError as exc:  # the rule passed; no seed at 1
        if not str(exc).startswith("no stored seed at delay 1;"):
            raise


def _poly_document(**change):
    doc = poly_to_document(PeriodicPiecewisePoly(Mesh.uniform(1), 1,
                                                 [[[1.0]]]))
    return poly_from_document(dict(doc, **change))


def _state_document(mu):
    doc = state_to_document(_flat_state())
    return state_from_document(dict(doc, mu=mu))


def _problem(equilibrium):
    return DdeProblem("p", 1, 0, lambda e, p: -e(0.0), equilibrium)


def site(id, name, call, kept=None, error=InvalidArgumentError):
    """A table row: the argument's name, the call with a value, the
    value as kept (a float, or an array holding it) and the error."""
    return pytest.param(name, call, kept, error, id=id)


SITES = [
    site("cli_real", "guess.period",
         lambda x: cli.RunConfig.from_document({"guess": {
             "kind": "constant", "values": [1.0], "period": x}}),
         lambda got: got.guess["period"], ConfigError),
    *[site(f"newton_{name}", name, lambda x, n=name: NewtonSettings(**{n: x}),
           lambda got, n=name: getattr(got, n))
      for name in ("tol_residual", "tol_step", "damping_min", "fd_step")],
    site("state_mu", "mu",
         lambda x: DiscreteState(_flat_state().poly, [x, 0.5]),
         lambda got: got.mu),
    site("with_parameter", "value",
         lambda x: with_parameter(_flat_state(), 0, x), lambda got: got.mu),
    site("default_constraints", "params_target",
         lambda x: default_constraints(mackey_glass(), [x]),
         lambda got: -got[1].offset),
    site("affine_mu_coeffs", "mu_coeffs",
         lambda x: AffineRow((), [x, 0.0], 0.0), lambda got: got.mu_coeffs),
    site("affine_time", "time",
         lambda x: AffineRow(((x, 0, 1.0),), [0.0], 0.0),
         lambda got: got.point_terms[0][0]),
    site("affine_coefficient", "coefficient",
         lambda x: AffineRow(((0.0, 0, x),), [0.0], 0.0),
         lambda got: got.point_terms[0][2]),
    site("affine_offset", "offset", lambda x: AffineRow((), [0.0], x),
         lambda got: got.offset),
    site("phase_anchor_row", "anchor_value", lambda x: phase_anchor_row(x, 1),
         lambda got: -got.offset),
    site("parameter_pin_row", "target", lambda x: parameter_pin_row(0, x, 1),
         lambda got: -got.offset),
    site("mesh", "breaks", lambda x: Mesh([0.0, x]), lambda got: got.breaks),
    site("poly_values", "values",
         lambda x: PeriodicPiecewisePoly(Mesh.uniform(1), 1, [[[x]]]),
         lambda got: got.free_values),
    site("integrate_a", "bound a",
         lambda x: _poly_document().integrate(x, 1.0)),
    site("integrate_b", "bound b",
         lambda x: _poly_document().integrate(0.0, x)),
    site("document_breaks", "breaks",
         lambda x: _poly_document(breaks=[0.0, x]),
         lambda got: got.mesh.breaks),
    site("document_values", "values",
         lambda x: _poly_document(values=[[[x], [x]]]),
         lambda got: got.free_values),
    site("document_mu", "mu", lambda x: _state_document([x, 0.5]),
         lambda got: got.mu),
    site("hopf_tau", "tau_hopf", lambda x: HopfData(x, 1.0, [0.0]),
         lambda got: got.tau_hopf),
    site("hopf_omega", "omega", lambda x: HopfData(1.0, x, [0.0]),
         lambda got: got.omega),
    site("hopf_equilibrium", "equilibrium",
         lambda x: HopfData(1.0, 1.0, [x]), lambda got: got.equilibrium),
    site("problem_equilibrium", "equilibrium", lambda x: _problem([x]),
         lambda got: got.equilibrium),
    site("scalar_hopf_alpha", "alpha", lambda x: scalar_hopf_point(x, -2.0)),
    site("scalar_hopf_beta", "beta", lambda x: scalar_hopf_point(0.0, x)),
    site("hopf_amplitude", "amplitude",
         lambda x: hopf_initial_guess(mackey_glass_hopf(), x,
                                      Mesh.uniform(2), 2)),
    site("hopf_offset", "offset",
         lambda x: hopf_initial_guess(mackey_glass_hopf(), 0.0,
                                      Mesh.uniform(2), 2, offset=x)),
    *[site(f"branch_{name}", name, lambda x, n=name: _branch_point(**{n: x}),
           lambda got, n=name: getattr(got, n))
      for name in ("parameter", "amplitude", "period", "err", "phi_defect")],
    site("continue_p_from", "p_from", lambda x: _continued(x, 0.9)),
    site("continue_p_to", "p_to", lambda x: _continued(0.9, x)),
    site("sd_quadratic_seed", "tau", _seed),
    site("bernstein_eta", "eta", lambda x: BernsteinBound(x, 1.0),
         lambda got: got.eta),
    site("bernstein_max_modulus", "max_modulus",
         lambda x: BernsteinBound(1.0, x), lambda got: got.max_modulus),
    site("bernstein_fit", "eta", lambda x: bernstein_bound_fit(np.exp, x),
         lambda got: got.eta),
    site("convergence_params", "params",
         lambda x: convergence_study(mackey_glass(), [x], [1], [2],
                                     seed=_flat_state()),
         lambda got: got.metadata["params"][0]),
    *[site(f"defect_{name}", name,
           lambda x, n=name: FixedPointDefect(**dict(
               dict(sup_defect_v=0.0, defect_v0=0.0, defect_mu=0.0),
               **{n: x})),
           lambda got, n=name: getattr(got, n))
      for name in ("sup_defect_v", "defect_v0", "defect_mu")],
]


@pytest.mark.parametrize("value", REFUSED, ids=[
    "bool", "string", "none", "huge_int", "nan", "inf", "minus_inf"])
@pytest.mark.parametrize("name, call, kept, error", SITES)
def test_every_site_refuses_what_is_not_a_finite_real(name, call, kept,
                                                      error, value):
    with pytest.raises(error) as info:
        call(value)
    assert type(info.value) is error
    assert name in str(info.value)


@pytest.mark.parametrize("value", ACCEPTED, ids=lambda v: type(v).__name__)
@pytest.mark.parametrize("name, call, kept, error", SITES)
def test_every_site_keeps_a_numpy_real_as_a_float(name, call, kept, error,
                                                  value):
    got = call(value)
    if kept is not None:
        kept = kept(got)
        if isinstance(kept, np.ndarray):
            assert kept.dtype == np.float64 and 1.0 in kept
        else:
            assert type(kept) is float and kept == 1.0


@pytest.mark.parametrize("value, minimum, strict, message", [
    (0.0, 0.0, True, "^x must be > 0.0, got 0.0$"),
    (-1e-300, 0.0, False, "^x must be >= 0.0, got -1e-300$"),
])
def test_a_minimum_is_kept(value, minimum, strict, message):
    with pytest.raises(InvalidArgumentError, match=message):
        _checked_real(value, "x", minimum, strict)
    assert _checked_real(minimum, "x", minimum) == minimum


def test_a_numeric_array_is_taken_whole_and_copied():
    ints = np.array([[1, 2]], dtype=np.int64)
    got = _checked_reals(ints, "x")
    assert got.dtype == np.float64 and got.tolist() == [[1.0, 2.0]]
    floats = np.array([0.5])
    assert not np.shares_memory(_checked_reals(floats, "x"), floats)
    for bad in (np.nan, np.inf):
        with pytest.raises(InvalidArgumentError, match="^x must be finite$"):
            _checked_reals(np.array([0.5, bad]), "x")


@pytest.mark.parametrize("value", [np.array([0.5]), [0.5], 0.5],
                         ids=["array", "list", "scalar"])
def test_a_checked_array_is_read_only(value):
    # so no object that keeps one, a problem's equilibrium among them,
    # can be changed behind its own checks
    got = _checked_reals(value, "x")
    assert not got.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        got[...] = 1.0


@pytest.mark.parametrize("value", [[0.5, True], [[0.5], ["1"]], [None],
                                   [[0.5], [0.5, 1.0]], np.array([True])],
                         ids=["bool", "string", "none", "ragged",
                              "bool_array"])
def test_each_entry_of_a_list_passes_the_rule(value):
    # numpy would make [0.5, True] a float array and "1" a number
    with pytest.raises(InvalidArgumentError, match="^each entry of x "):
        _checked_reals(value, "x")
