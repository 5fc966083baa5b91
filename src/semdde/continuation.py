"""Initial guesses at the oscillation onset, and branch tracing.

A problem may declare its onset: the delay and frequency at which its
equilibrium starts to oscillate (``problems.HopfData``, located for a
scalar linearization by ``problems.scalar_hopf_point``).  The onset
seeds a small sinusoidal orbit guess.  Branches are then continued in
the delay by natural-parameter stepping.  Each step's Newton solve
starts from a secant prediction, the last two orbits extrapolated
linearly in the delay.  Where no valid secant exists, as on the first
step from a Hopf guess, it starts from the Hopf normal form of the
declared onset: the orbit's deviation from the equilibrium grows like
the square root of the distance to the onset delay, and the period
moves linearly in it.  Without an onset it starts from the previous
orbit.  A step whose solve fails is bisected, and so is one that
collapses onto the equilibrium by ``analysis.checked_amplitude``, the
rule every solve in the package keeps.  Failed steps and stepping
stones are logged at debug level under ``semdde.continuation``.
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

from .analysis import _COLLAPSE_FLOOR, DEFAULT_ERR_GRID, checked_amplitude, \
    measured_orbit
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
    _checked_int,
)
from .piecewise import Mesh, check_format_version, csv_writer, \
    sample_periodic
from .problems import DdeProblem, HopfData, mackey_glass

log = logging.getLogger("semdde.continuation")

DEFAULT_HOPF_OFFSET = 1e-3
MAX_STEP_BISECTIONS = 6

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
    if not (math.isfinite(amplitude) and amplitude >= 0.0):
        raise InvalidArgumentError(
            f"amplitude must be nonnegative, got {amplitude}")
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
        if not math.isfinite(self.parameter):
            raise InvalidArgumentError("parameter must be finite")
        if self.amplitude < 0.0 or self.err < 0.0 or self.phi_defect < 0.0:
            raise InvalidArgumentError(
                "amplitude, err and phi_defect must be nonnegative")
        if self.period <= 0.0:
            raise InvalidArgumentError(
                f"period must be positive, got {self.period}")


def _secant_guess(state: DiscreteState, previous: Optional[DiscreteState],
                  p_target: float) -> Optional[DiscreteState]:
    """Linear extrapolation in p[0] of the free values and the period
    through ``previous`` and ``state``, at the p[0] stored in each mu.

    Returns None when there is no predecessor, when the two stored p[0]
    are equal, or when ``DiscreteState`` rejects the prediction (a
    non-finite entry or a period <= 0).  Other parameters are kept from
    ``state``; the caller sets p[0] to the target.
    """
    if previous is None:
        return None
    p_prev = float(previous.params[0])
    p_cur = float(state.params[0])
    if p_prev == p_cur:
        return None
    ratio = (p_target - p_cur) / (p_cur - p_prev)
    cur = state.flatten()
    n_keep = state.poly.free_values.size + 1  # free values and the period
    with np.errstate(over="ignore", invalid="ignore"):
        cur[:n_keep] += ratio * (cur[:n_keep] - previous.flatten()[:n_keep])
    return _admissible(state, cur)


def _onset_guess(state: DiscreteState, onset: Optional[HopfData],
                 p_target: float) -> DiscreteState:
    """Hopf normal-form prediction from ``state`` alone.

    Near the onset p_h the orbit's deviation from the equilibrium grows
    like sqrt(|p - p_h|) and its period moves linearly in p.  With
    r = (p_target - p_h) / (p - p_h), at the p[0] stored in ``state``,
    the free values become y_h + sqrt(r) (y - y_h) and the period
    T_h + r (T - T_h).  Returns ``state`` itself when there is no onset,
    when r is not finite and positive (the target lies on the other side
    of the onset, or ``state`` sits on it), or when ``DiscreteState``
    rejects the prediction.  The caller sets p[0] to the target.
    """
    if onset is None:
        return state
    p_hopf = onset.tau_hopf
    p_cur = float(state.params[0])
    if p_cur == p_hopf:
        return state
    ratio = (p_target - p_hopf) / (p_cur - p_hopf)
    if not (math.isfinite(ratio) and ratio > 0.0):
        return state
    flat = state.flatten()
    n_free = state.poly.free_values.size
    eq = onset.equilibrium
    with np.errstate(over="ignore", invalid="ignore"):
        flat[:n_free] = (eq + math.sqrt(ratio)
                         * (state.poly.free_values - eq)).ravel()
    flat[n_free] = onset.period + ratio * (state.period - onset.period)
    return _admissible(state, flat) or state


def _refuse_flat_start(start: DiscreteState) -> None:
    """CollapseError for a flat start: the equilibrium, with no branch."""
    if checked_amplitude(start) <= _COLLAPSE_FLOOR:
        raise CollapseError(
            f"start's free values range over {checked_amplitude(start):.3e}"
            f", not above the flat-profile floor {_COLLAPSE_FLOOR:g}")


def continue_branch(start: DiscreteState, prob: DdeProblem, p_from: float,
                    p_to: float, steps: int,
                    settings: Optional[NewtonSettings] = None, *,
                    grid_points: int = DEFAULT_ERR_GRID,
                    previous: Optional[DiscreteState] = None,
                    ) -> List[BranchPoint]:
    """Continue p[0] from p_from to p_to in equal natural-parameter steps.

    Each solve starts from a secant prediction: the free values and the
    period of the orbit it steps from, extrapolated linearly in p[0]
    through that orbit's predecessor, at the p[0] stored in each state.
    A branch point's predecessor is the branch point before it (the
    first has none), a stepping stone's is the orbit it was solved from,
    and ``start``'s is ``previous``.  Where there is no usable
    predecessor (none, one at the same p[0], or a prediction that is
    non-finite or has a period <= 0), the solve starts from the onset
    prediction of the problem's declared ``onset``: the orbit's
    deviation from the equilibrium scaled by sqrt(r) and its period's
    distance from the onset period by r, for
    r = (p_target - p_h) / (p - p_h).  It starts from the orbit it steps
    from unchanged when the problem declares no onset, when r is not
    finite and positive, or when that prediction is not a valid state
    either.  So one call over a schedule and one call per target, each
    passed the point before the one it starts from, give the same points
    bitwise.

    A failing step (a Newton error, or a collapse by ``checked_amplitude``:
    the range of the orbit's node values falls below a tenth of that of
    the orbit the step starts from) is split in half, up to
    ``MAX_STEP_BISECTIONS`` nested halvings, with the midpoint orbits used
    as stepping stones only.  Returns one BranchPoint per scheduled value,
    in order.  A flat ``start`` raises CollapseError before any solve.
    """
    steps = _checked_int(steps, "steps", 1)
    grid_points = _checked_int(grid_points, "grid_points", 2)
    if not (math.isfinite(p_from) and math.isfinite(p_to)):
        raise InvalidArgumentError("parameter range must be finite")
    if previous is not None and (
            previous.poly.free_values.shape != start.poly.free_values.shape
            or previous.mu.shape != start.mu.shape):
        raise InvalidArgumentError(
            "previous must have the layout of start's free values and mu")
    if settings is None:
        settings = NewtonSettings()
    points: List[BranchPoint] = []

    def solve_at(p_value, state, predecessor):
        guess = (_secant_guess(state, predecessor, p_value)
                 or _onset_guess(state, prob.onset, p_value))
        trial = with_parameter(guess, 0, p_value)
        cons = default_constraints(prob, trial.params)
        result = newton_solve(trial, prob, cons, settings)
        checked_amplitude(result.state, checked_amplitude(state))
        return result, cons

    def advance(p_cur, state, predecessor, p_target, depth):
        try:
            return solve_at(p_target, state, predecessor)
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
            mid, _ = advance(p_cur, state, predecessor, p_mid, depth + 1)
            log.debug("stepping stone at p=%.6g (depth %d) in %d iterations",
                      p_mid, depth + 1, mid.iterations)
            return advance(p_mid, mid.state, state, p_target, depth + 1)

    _refuse_flat_start(start)
    state = start
    current_p = p_from
    for target in np.linspace(p_from, p_to, steps + 1)[1:]:
        target = float(target)
        orbit = measured_orbit(
            lambda: advance(current_p, state, previous, target, 0), prob,
            grid_points)
        state = orbit.state
        points.append(BranchPoint(
            target, state, orbit.amplitude, state.period, orbit.err,
            orbit.newton_iters, orbit.phi_defect))
        previous = points[-2].state if len(points) > 1 else None
        current_p = target
    return points


def sd_quadratic_seed(tau: float) -> DiscreteState:
    """Shipped coarse starting orbit for the state-dependent example.

    Holds profiles at delays 0.95 and 1.1 on a 12-interval degree-5
    mesh.  They were generated once by continuation down from the
    oscillation onset at pi/2, re-converged on a 100-interval degree-6
    mesh, and downsampled back; scripts/make_sd_quadratic_seed.py
    regenerates the file.
    """
    text = resources.files("semdde").joinpath(
        "data/sd_quadratic_seed.json").read_text()
    doc = json.loads(text)
    check_format_version(doc.get("format_version"), "seed file")
    key = f"{tau:g}"
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
