"""Hopf-point location, sinusoidal initial guesses, and branch tracing.

A scalar delay equation y'(t) = alpha y(t) + beta y(t - tau) crosses
into oscillation where the characteristic equation has a root i omega;
the crossing delay and frequency seed a small sinusoidal orbit guess.
Branches are then continued in the delay by natural-parameter stepping,
re-solving each step from the previous orbit and bisecting the step on
Newton failure.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from importlib import resources
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .analysis import (
    DEFAULT_ERR_GRID,
    orbit_amplitude,
    residual_err,
)
from .collocation import (
    DiscreteState,
    NewtonSettings,
    default_constraints,
    newton_solve,
    state_from_document,
    with_parameter,
)
from .errors import (
    FormatVersionError,
    InvalidArgumentError,
    NewtonError,
    NoHopfError,
    StepFailureError,
)
from .oracle import phi_m_defect
from .piecewise import FORMAT_VERSION, Mesh, check_format_version, \
    sample_periodic
from .problems import MACKEY_GLASS_A, MACKEY_GLASS_B, MACKEY_GLASS_C, \
    DdeProblem

DEFAULT_HOPF_OFFSET = 1e-3
MAX_STEP_BISECTIONS = 6

#: a step whose orbit amplitude drops below this fraction of the
#: previous one has fallen off the branch onto the equilibrium, which
#: also solves the system; treated like a Newton failure
_COLLAPSE_RATIO = 0.1
_COLLAPSE_FLOOR = 1e-8


@dataclass(frozen=True)
class HopfData:
    """Delay, angular frequency, and equilibrium at an oscillation onset."""

    tau_hopf: float
    omega: float
    equilibrium: np.ndarray

    def __post_init__(self):
        if not (math.isfinite(self.tau_hopf) and self.tau_hopf > 0.0):
            raise InvalidArgumentError(
                f"tau_hopf must be positive, got {self.tau_hopf}")
        if not (math.isfinite(self.omega) and self.omega > 0.0):
            raise InvalidArgumentError(
                f"omega must be positive, got {self.omega}")
        eq = np.asarray(self.equilibrium, dtype=float).copy()
        if eq.ndim != 1 or not np.all(np.isfinite(eq)):
            raise InvalidArgumentError("equilibrium must be a finite vector")
        eq.flags.writeable = False
        object.__setattr__(self, "equilibrium", eq)

    @property
    def period(self) -> float:
        return 2.0 * math.pi / self.omega


def scalar_hopf_point(alpha: float, beta: float) -> Tuple[float, float]:
    """Smallest delay where alpha y + beta y(t - tau) starts oscillating.

    Returns (tau, omega) with omega = sqrt(beta^2 - alpha^2); tau solves
    cos(omega tau) = -alpha/beta on the quarter-plane branch fixed by
    the sign of beta, located by bisection to well below 1e-10.
    """
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        raise InvalidArgumentError("alpha and beta must be finite")
    if abs(beta) <= abs(alpha):
        raise NoHopfError(
            f"characteristic roots never reach the imaginary axis for "
            f"|beta| = {abs(beta)} <= |alpha| = {abs(alpha)}")
    omega = math.sqrt(beta * beta - alpha * alpha)
    target = -alpha / beta
    # the imaginary part fixes the sign of sin(omega tau) to -sign(beta)
    lo, hi = (0.0, math.pi) if beta < 0.0 else (math.pi, 2.0 * math.pi)
    f_lo = math.cos(lo) - target
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        f_mid = math.cos(mid) - target
        if f_mid == 0.0:
            lo = hi = mid
            break
        if (f_lo < 0.0) != (f_mid < 0.0):
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi) / omega, omega


def mackey_glass_hopf() -> HopfData:
    """Oscillation onset of the Mackey-Glass equation at its equilibrium.

    At the equilibrium value 1 the feedback slope is
    b (1 + (1 - c)) / 4, so the linearization is the scalar delay
    equation with alpha = a and beta = b (2 - c) / 4.
    """
    equilibrium = 1.0
    feedback_slope = (1.0 + (1.0 - MACKEY_GLASS_C)) / 4.0
    tau, omega = scalar_hopf_point(MACKEY_GLASS_A,
                                   MACKEY_GLASS_B * feedback_slope)
    return HopfData(tau_hopf=tau, omega=omega,
                    equilibrium=np.array([equilibrium]))


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


class _BranchCollapse(Exception):
    """Converged, but onto a different (lower-amplitude) solution."""


@dataclass(frozen=True)
class BranchPoint:
    """One converged orbit along a branch.

    Construction happens right after the Newton solve, so the stored
    state meets the solver tolerance at storage time; ``err`` is the
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


def continue_branch(start: DiscreteState, prob: DdeProblem, p_from: float,
                    p_to: float, steps: int,
                    settings: Optional[NewtonSettings] = None, *,
                    param_index: int = 0,
                    max_bisections: int = MAX_STEP_BISECTIONS,
                    grid_points: int = DEFAULT_ERR_GRID,
                    ) -> List[BranchPoint]:
    """Natural-parameter continuation from p_from to p_to in equal steps.

    Each scheduled parameter value is solved with the previous orbit as
    the guess; a failing step is split in half, up to ``max_bisections``
    nested halvings, with the midpoint orbits used as stepping stones
    only.  Returns one BranchPoint per scheduled value, in order.
    """
    if steps < 1:
        raise InvalidArgumentError(f"steps must be >= 1, got {steps}")
    if not (math.isfinite(p_from) and math.isfinite(p_to)):
        raise InvalidArgumentError("parameter range must be finite")
    if settings is None:
        settings = NewtonSettings()
    points: List[BranchPoint] = []

    def solve_at(p_value, guess):
        trial = with_parameter(guess, param_index, p_value)
        cons = default_constraints(prob, trial.params)
        result = newton_solve(trial, prob, cons, settings)
        before = orbit_amplitude(guess, 2001)
        after = orbit_amplitude(result.state, 2001)
        if before > _COLLAPSE_FLOOR and after < _COLLAPSE_RATIO * before:
            raise _BranchCollapse(
                f"orbit amplitude fell from {before:.3e} to {after:.3e} "
                f"at p={p_value:.6g}; converged to the trivial solution")
        return result, cons

    def advance(p_cur, state_cur, p_target, depth):
        try:
            return solve_at(p_target, state_cur)
        except (NewtonError, _BranchCollapse) as exc:
            if depth >= max_bisections:
                raise StepFailureError(
                    f"step from p={p_cur:.6g} to p={p_target:.6g} failed "
                    f"after {max_bisections} bisections: {exc}",
                    last_good=points[-1] if points else None,
                    points=list(points)) from exc
            p_mid = 0.5 * (p_cur + p_target)
            mid_result, _ = advance(p_cur, state_cur, p_mid, depth + 1)
            return advance(p_mid, mid_result.state, p_target, depth + 1)

    current = start
    current_p = p_from
    for target in np.linspace(p_from, p_to, steps + 1)[1:]:
        target = float(target)
        result, cons = advance(current_p, current, target, 0)
        state = result.state
        points.append(BranchPoint(
            parameter=target,
            state=state,
            amplitude=orbit_amplitude(state, grid_points),
            period=state.period,
            err=residual_err(state, prob, grid_points),
            newton_iters=result.iterations,
            phi_defect=phi_m_defect(state, prob, cons).max_defect,
        ))
        current = state
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
    stream.write(f"# format_version={FORMAT_VERSION}\n")
    csv.writer(stream, lineterminator="\n").writerow(BRANCH_CSV_COLUMNS)
    for point in points:
        append_branch_row(point, stream)


def append_branch_row(point: BranchPoint, stream) -> None:
    """Append one point's row to a branch CSV that write_branch_csv began."""
    csv.writer(stream, lineterminator="\n").writerow([
        repr(point.parameter), repr(point.period), repr(point.amplitude),
        point.newton_iters, repr(point.err), repr(point.phi_defect)])


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
