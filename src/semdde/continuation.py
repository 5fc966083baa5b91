"""Initial guesses at the oscillation onset, and branch tracing.

A problem may declare its onset: the delay and frequency at which its
equilibrium starts to oscillate (``problems.HopfData``, located for a
scalar linearization by ``problems.scalar_hopf_point``).  The onset
seeds a small sinusoidal orbit guess.  Branches are then continued in
the delay by natural-parameter stepping.  Each step's Newton solve
starts from one predictor: the Lagrange extrapolation of the last
``_PREDICTOR_ORBITS`` orbits of the branch.  Near the onset p_h an
orbit's deviation from the equilibrium grows like sqrt(|p - p_h|) and
its period moves linearly in p (the Hopf normal form), so on one side
of a declared onset the free values are extrapolated in
s = sqrt(|p - p_h|), where the branch is analytic, and the period in
p; elsewhere both go in p.  A single orbit takes the onset as its
second node, or is its own prediction without one.  A step whose
solve fails is bisected, and so is one that collapses onto the
equilibrium by ``analysis.checked_amplitude``, the rule every solve in
the package keeps.  Failed steps and stepping stones are logged at
debug level under ``semdde.continuation``.
"""

from __future__ import annotations

import csv
import json
import logging
import math
from dataclasses import dataclass
from importlib import resources
from typing import List, Optional, Sequence

import numpy as np

from .analysis import DEFAULT_ERR_GRID, _refuse_flat_start, \
    checked_amplitude, measured_orbit
from .collocation import (
    DiscreteState,
    NewtonSettings,
    _admissible,
    default_constraints,
    newton_solve,
    state_from_document,
    with_parameter,
)
from .errors import (
    CollapseError,
    FormatVersionError,
    InvalidArgumentError,
    NewtonError,
    StepFailureError,
    _checked_fields,
    _checked_int,
    _checked_real,
)
from .piecewise import Mesh, check_format_version, csv_writer, \
    sample_periodic
from .problems import DdeProblem, HopfData, mackey_glass

log = logging.getLogger("semdde.continuation")

DEFAULT_HOPF_OFFSET = 1e-3
MAX_STEP_BISECTIONS = 6
_PREDICTOR_ORBITS = 6

def mackey_glass_hopf() -> HopfData:
    """Oscillation onset of the Mackey-Glass equation at its equilibrium,
    the onset ``mackey_glass()`` declares."""
    return mackey_glass().onset


def hopf_initial_guess(data: HopfData, amplitude: float, mesh: Mesh,
                       degree: int, *,
                       offset: float = DEFAULT_HOPF_OFFSET) -> DiscreteState:
    """Sinusoidal perturbation of the equilibrium as a solver guess.

    The period is the linear one, 2 pi / omega, and the single problem
    parameter is set to tau_hopf + offset.  Amplitude 0 is allowed and
    yields the equilibrium itself (the solver would then converge to the
    trivial solution, which is sometimes the wanted check).
    """
    amplitude = _checked_real(amplitude, "amplitude", 0.0)
    offset = _checked_real(offset, "offset")
    equilibrium = data.equilibrium

    def profile(t):
        return equilibrium[None, :] + amplitude * np.sin(
            2.0 * np.pi * t)[:, None]

    poly = sample_periodic(profile, mesh, degree)
    return DiscreteState(poly, np.array([data.period,
                                         data.tau_hopf + offset]))


@dataclass(frozen=True)
class BranchPoint:
    """One converged orbit along a branch, built from the
    ``analysis.measured_orbit`` of its solve.

    The stored state meets the solver tolerance; ``err`` is the
    dense-grid equation residual, which also carries the interpolation
    error between collocation points.
    """

    parameter: float
    state: DiscreteState
    amplitude: float
    period: float
    err: float
    newton_iters: int
    phi_defect: float

    def __post_init__(self):
        _checked_fields(self, ("parameter",))
        _checked_fields(self, ("amplitude", "err", "phi_defect"), 0.0)
        _checked_fields(self, ("period",), 0.0, strict=True)


def _extrapolated(nodes: Sequence[float], values: Sequence[np.ndarray],
                  x: float) -> Optional[np.ndarray]:
    """Value at x of the polynomial through (nodes[i], values[i]), or
    None when two nodes coincide.

    Written from the last node: values[-1] plus each other value's
    difference from it times that node's Lagrange weight, so two nodes
    give the secant values[-1] + r (values[-1] - values[0]) bitwise.
    """
    last = len(nodes) - 1
    out = values[last].copy()
    for i in range(last):
        weight = 1.0
        for j, node in enumerate(nodes):
            if j != i:
                if node == nodes[i]:
                    return None
                weight *= (x - node) / (nodes[i] - node)
        out += weight * (values[i] - values[last])
    return out


def _predicted(orbits: Sequence[DiscreteState], onset: Optional[HopfData],
               p_target: float) -> Optional[DiscreteState]:
    """The extrapolation through all of ``orbits`` at p_target, or None
    where there is none or ``DiscreteState`` rejects it."""
    state = orbits[-1]
    free = [orbit.poly.free_values.ravel() for orbit in orbits]
    period = [orbit.mu[:1] for orbit in orbits]
    p_nodes = [float(orbit.params[0]) for orbit in orbits]
    nodes, x = p_nodes, p_target  # of the free values
    offsets = ([p - onset.tau_hopf for p in p_nodes + [p_target]]
               if onset is not None else [])
    if offsets and (all(d > 0.0 for d in offsets)
                    or all(d < 0.0 for d in offsets)):
        *nodes, x = [math.sqrt(abs(d)) for d in offsets]
        if len(orbits) == 1:  # the onset is the second node
            nodes = [0.0] + nodes
            free = [np.broadcast_to(onset.equilibrium,
                                    state.poly.free_values.shape).ravel()
                    ] + free
            p_nodes = [onset.tau_hopf] + p_nodes
            period = [np.array([onset.period])] + period
    with np.errstate(over="ignore", invalid="ignore"):
        free = _extrapolated(nodes, free, x)
        period = _extrapolated(p_nodes, period, p_target)
    if free is None or period is None:
        return None
    return _admissible(state, np.concatenate([free, period,
                                              state.mu[1:]]))


def _predict(orbits: Sequence[DiscreteState], onset: Optional[HopfData],
             p_target: float) -> DiscreteState:
    """The Newton guess at p_target from the last orbits of a branch,
    oldest first: the last ``_PREDICTOR_ORBITS`` of them extrapolated by
    their Lagrange polynomial, at the p[0] stored in each mu.

    When ``onset`` is given and every orbit and p_target lie strictly on
    one side of its delay p_h, the free values are extrapolated in the
    Hopf normal form's variable s = sqrt(|p - p_h|), in which the branch
    is analytic, and the period in p.  A single orbit then takes the
    onset's equilibrium and period as its second node: the orbit's
    deviation from the equilibrium scales with sqrt(r) and its period's
    distance from the onset period with r, r = (p_target - p_h) /
    (p - p_h).  Otherwise both are extrapolated in p, so two orbits give
    the linear secant, and one gives itself.  A prediction with
    coinciding nodes, a non-finite entry or a period <= 0 is retried
    without its oldest orbit; the last orbit itself is the guess of last
    resort.  Other parameters are kept from the last orbit; the caller
    sets p[0] to the target.
    """
    orbits = orbits[-_PREDICTOR_ORBITS:]
    for first in range(len(orbits)):
        guess = _predicted(orbits[first:], onset, p_target)
        if guess is not None:
            return guess
    return orbits[-1]


def continue_branch(start: DiscreteState, prob: DdeProblem, p_from: float,
                    p_to: float, steps: int,
                    settings: NewtonSettings = NewtonSettings(), *,
                    grid_points: int = DEFAULT_ERR_GRID,
                    previous: Sequence[DiscreteState] = (),
                    ) -> List[BranchPoint]:
    """Continue p[0] from p_from to p_to in equal natural-parameter steps.

    Each solve starts from the prediction of the orbit it steps from and
    that orbit's history, at most ``_PREDICTOR_ORBITS`` orbits in all,
    extrapolated at the p[0] stored in each state: in the Hopf normal
    form's variable sqrt(|p - p_h|) for the free values and in p for the
    period when the problem declares an onset p_h that no orbit nor the
    target crosses or touches, otherwise both in p.  An orbit with no
    history starts from the onset prediction (its deviation from the
    equilibrium scaled by sqrt(r) and its period's distance from the
    onset period by r, r = (p_target - p_h) / (p - p_h)), or from
    itself without a usable onset.  A prediction that is not a valid
    state, or has two orbits at one p[0], is tried again without its
    oldest orbit.  A branch point's history is the branch points before
    it (the first has none), a stepping stone's is the history of the
    orbit it was solved from followed by that orbit, and ``start``'s is
    ``previous``, oldest first, each on the same mesh, degree and mu
    layout as ``start``.  So one call over a schedule and one
    call per target, each passed the points before the one it starts
    from, give the same points bitwise.

    A failing step (a Newton error, or a collapse by ``checked_amplitude``:
    the range of the orbit's node values falls below a tenth of that of
    the orbit the step starts from) is split in half, up to
    ``MAX_STEP_BISECTIONS`` nested halvings, with the midpoint orbits used
    as stepping stones only.  Returns one BranchPoint per scheduled value,
    in order.  A flat ``start`` raises CollapseError before any solve.
    """
    steps = _checked_int(steps, "steps", 1)
    grid_points = _checked_int(grid_points, "grid_points", 2)
    p_from, p_to = _checked_real(p_from, "p_from"), _checked_real(p_to, "p_to")
    history = tuple(previous)
    if any(orbit.poly.mesh != start.poly.mesh
           or orbit.poly.free_values.shape != start.poly.free_values.shape
           or orbit.mu.shape != start.mu.shape for orbit in history):
        raise InvalidArgumentError(
            "each previous orbit must have start's mesh, degree and mu "
            "layout")
    points: List[BranchPoint] = []

    def solve_at(p_value, state, history):
        guess = _predict(history + (state,), prob.onset, p_value)
        trial = with_parameter(guess, 0, p_value)
        cons = default_constraints(prob, trial.params)
        result = newton_solve(trial, prob, cons, settings)
        checked_amplitude(result.state, checked_amplitude(state))
        return result, cons

    def advance(p_cur, state, history, p_target, depth):
        try:
            return solve_at(p_target, state, history)
        except NewtonError as exc:
            log.debug("step p=%.6g -> %.6g failed at depth %d: %s",
                      p_cur, p_target, depth,
                      "collapse" if isinstance(exc, CollapseError)
                      else type(exc).__name__)
            if depth >= MAX_STEP_BISECTIONS:
                raise StepFailureError(
                    f"step from p={p_cur:.6g} to p={p_target:.6g} failed "
                    f"after {MAX_STEP_BISECTIONS} bisections: {exc}",
                    points=list(points)) from exc
            p_mid = 0.5 * (p_cur + p_target)
            mid, _ = advance(p_cur, state, history, p_mid, depth + 1)
            log.debug("stepping stone at p=%.6g (depth %d) in %d iterations",
                      p_mid, depth + 1, mid.iterations)
            return advance(p_mid, mid.state, history + (state,), p_target,
                           depth + 1)

    _refuse_flat_start(start)
    state = start
    current_p = p_from
    for target in np.linspace(p_from, p_to, steps + 1)[1:].tolist():
        orbit = measured_orbit(
            lambda: advance(current_p, state, history, target, 0), prob,
            grid_points)
        state = orbit.state
        points.append(BranchPoint(
            target, state, orbit.amplitude, state.period, orbit.err,
            orbit.newton_iters, orbit.phi_defect))
        history = tuple(point.state for point in
                        points[-_PREDICTOR_ORBITS:-1])
        current_p = target
    return points


def sd_quadratic_seed(tau: float) -> DiscreteState:
    """Shipped coarse starting orbit for the state-dependent example.

    Holds profiles at delays 0.95 and 1.1 on a 12-interval degree-5
    mesh.  They were generated once by continuation down from the
    oscillation onset at pi/2, re-converged on a 100-interval degree-6
    mesh, and downsampled back; scripts/make_sd_quadratic_seed.py
    regenerates the file.  Continue from it on a finer mesh: on its own,
    steps from 0.95 down to 0.85 fail below 0.909 (see the README).
    """
    text = resources.files("semdde").joinpath(
        "data/sd_quadratic_seed.json").read_text()
    doc = json.loads(text)
    check_format_version(doc.get("format_version"), "seed file")
    key = f"{_checked_real(tau, 'tau'):g}"
    states = doc["states"]
    if key not in states:
        raise InvalidArgumentError(
            f"no stored seed at delay {key}; available: "
            f"{sorted(states)}")
    return state_from_document(states[key])


BRANCH_CSV_COLUMNS = ("p", "T", "amplitude", "newton_iters", "residual_err",
                      "phi_defect")


def write_branch_csv(points: Sequence[BranchPoint], stream) -> None:
    """One CSV row per branch point, preceded by the format version."""
    csv_writer(stream, BRANCH_CSV_COLUMNS)
    for point in points:
        append_branch_row(point, stream)


def append_branch_row(point: BranchPoint, stream) -> None:
    """Append one point's row to a branch CSV that write_branch_csv began."""
    csv.writer(stream, lineterminator="\n").writerow([
        point.parameter, point.period, point.amplitude, point.newton_iters,
        point.err, point.phi_defect])


def read_branch_csv(stream) -> List[dict]:
    """Parse a branch CSV back into one dict per row.

    The states themselves live in separate solution files; this reads
    the tabular columns only.  Every row is written whole with its line
    end, so a last line without one is a cut-off write and is rejected
    like a short row or a non-numeric cell.
    """
    try:
        lines = stream.readlines()
    except UnicodeDecodeError as exc:
        raise InvalidArgumentError(f"branch CSV is not text: {exc}") from None
    first = lines[0] if lines else ""
    prefix = "# format_version="
    version = first[len(prefix):].strip()
    if not first.startswith(prefix) or not version.isdecimal():
        raise FormatVersionError(
            f"branch CSV must start with '{prefix}<n>', got {first!r}")
    check_format_version(int(version), "branch CSV")
    if not lines[-1].endswith("\n"):
        raise InvalidArgumentError(
            f"branch CSV ends in a partial line {lines[-1]!r}")
    reader = csv.reader(lines[1:])
    header = next(reader, None)
    if header is None or tuple(header) != BRANCH_CSV_COLUMNS:
        raise InvalidArgumentError(
            f"branch CSV needs columns {BRANCH_CSV_COLUMNS}, got {header}")
    rows = []
    for cells in reader:
        try:
            if len(cells) != len(BRANCH_CSV_COLUMNS):
                raise ValueError(f"expected {len(BRANCH_CSV_COLUMNS)} cells")
            raw = dict(zip(BRANCH_CSV_COLUMNS, cells))
            row = {key: float(raw[key]) for key in BRANCH_CSV_COLUMNS}
            row["newton_iters"] = int(raw["newton_iters"])
        except ValueError as exc:
            raise InvalidArgumentError(
                f"bad branch CSV row {cells}: {exc}") from None
        rows.append(row)
    return rows
