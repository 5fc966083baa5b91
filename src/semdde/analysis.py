"""Post-hoc diagnostics for computed orbits.

Four tools live here: the measured orbit (the dense-grid residual,
amplitude and fixed-point defect of every orbit the package reports),
convergence tables over mesh size and degree, the ellipse-based
interpolation error bound for analytic functions, and the circle-map
diagnostic whose unstable periodic points flag likely non-analyticity.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from .collocation import (
    DiscreteState,
    NewtonSettings,
    _equation_rows,
    default_constraints,
    newton_solve,
    resample_state,
)
from .errors import (
    AnalyticityViolationError,
    CollapseError,
    InvalidArgumentError,
    NewtonError,
    _checked_fields,
    _checked_int,
    _checked_real,
    _checked_reals,
    _is_integer,
)
from .nodes import NodeKind
from .oracle import phi_m_defect
from .piecewise import FORMAT_VERSION, Mesh, _wrap_time, csv_writer
from .problems import DdeProblem

log = logging.getLogger("semdde.analysis")

DEFAULT_ERR_GRID = 10001

PLATEAU_FACTOR = 100.0  # see ConvergenceTable.slopes

#: relative slack when comparing an interior ring maximum against the
#: ellipse boundary maximum; an analytic function obeys the maximum
#: principle exactly, so anything beyond roundoff signals a pole inside
_MAX_PRINCIPLE_SLACK = 1e-8


_COLLAPSE_RATIO = 0.1
_COLLAPSE_FLOOR = 1e-8


def checked_amplitude(state: DiscreteState,
                      before: Optional[float] = None) -> float:
    """Range of ``state``'s free values, the profile at its representation
    nodes: the amplitude of the package's one collapse rule.

    ``before`` is the same measure of the orbit the solve of ``state``
    started from.  Raises CollapseError when the solve has fallen onto
    the equilibrium, which also solves the system: ``before`` is above
    the floor of a flat profile and the amplitude is below a tenth of it.
    """
    after = float(np.ptp(state.poly.free_values))
    if (before is not None and before > _COLLAPSE_FLOOR
            and after < _COLLAPSE_RATIO * before):
        raise CollapseError(
            f"orbit amplitude fell from {before:.3e} to {after:.3e}; "
            f"converged to the trivial solution")
    return after


def err_and_amplitude(state: DiscreteState, prob: DdeProblem,
                      grid_points: int = DEFAULT_ERR_GRID,
                      ) -> Tuple[float, float]:
    """``(err, amplitude)`` on a uniform grid over one period, from one
    pass of rows: the max-norm residual |y'(t)/T - G(y(t + (.)/T), p)|
    of the delay equation in rescaled time, and the profile's range."""
    rows, values = _equation_rows(state, prob, grid_points)
    return (float(np.max(np.abs(rows)) / state.period),
            float(np.max(values) - np.min(values)))


@dataclass(frozen=True)
class MeasuredOrbit:
    """A solved orbit with its report: ``err_and_amplitude``, the largest
    ``phi_m_defect`` and ``seconds``, the times of the solve, of ``err``
    and of ``phi_defect``."""

    state: DiscreteState
    newton_iters: int
    err: float
    amplitude: float
    phi_defect: float
    seconds: Tuple[float, float, float]


def measured_orbit(solve: Callable, prob: DdeProblem,
                   grid_points: int = DEFAULT_ERR_GRID) -> MeasuredOrbit:
    """Call ``solve()``, which returns ``(NewtonResult, constraints)``,
    and measure its orbit: the one path by which ``solve``, each branch
    point and each convergence cell are reported."""
    times = [perf_counter()]
    result, cons = solve()
    times.append(perf_counter())
    err, amplitude = err_and_amplitude(result.state, prob, grid_points)
    times.append(perf_counter())
    defect = phi_m_defect(result.state, prob, cons).max_defect
    times.append(perf_counter())
    return MeasuredOrbit(result.state, result.iterations, err, amplitude,
                         defect, tuple(np.diff(times).tolist()))


def _solve_resampled(guess: DiscreteState, prob: DdeProblem, mesh: Mesh,
                     degree: int, params, settings: NewtonSettings):
    """``guess`` resampled onto ``mesh`` and ``degree`` and solved at
    ``params`` (its own if empty) from its own period, under the
    collapse rule: the ``(NewtonResult, constraints)`` of one orbit."""
    init = resample_state(guess, mesh, degree)
    if len(params):
        init = DiscreteState(init.poly, np.append(init.period, params))
    cons = default_constraints(prob, init.params)
    result = newton_solve(init, prob, cons, settings)
    checked_amplitude(result.state, checked_amplitude(init))
    return result, cons


@dataclass(frozen=True)
class ConvergenceCell:
    """One (mesh size, degree) entry of a convergence study.

    Failed cells carry the failure message and NaN diagnostics; they are
    kept so the table records which corner of the plan broke.
    """

    num_intervals: int
    degree: int
    err: float
    phi_defect: float
    newton_iters: int
    wall_time: float
    failure: Optional[str] = None

    @property
    def completed(self) -> bool:
        return self.failure is None


@dataclass(frozen=True)
class ConvergenceTable:
    rows: Tuple[ConvergenceCell, ...]
    metadata: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        object.__setattr__(self, "metadata", dict(self.metadata))
        seen = set()
        for row in self.rows:
            key = (row.num_intervals, row.degree)
            if key in seen:
                raise InvalidArgumentError(
                    f"duplicate cell for L={key[0]}, m={key[1]}")
            seen.add(key)
            if row.completed and not row.err >= 0.0:
                raise InvalidArgumentError(
                    f"completed cell L={key[0]}, m={key[1]} has err "
                    f"{row.err}")

    def completed_rows(self) -> Tuple[ConvergenceCell, ...]:
        return tuple(row for row in self.rows if row.completed)

    def slopes(self) -> Dict[int, float]:
        """Least-squares slope of ln(err) vs degree for each mesh size.

        Cells within PLATEAU_FACTOR of a column's floor sit on the
        roundoff plateau and are excluded from the fit.  The floor is
        the column's smallest err, at least machine epsilon; it is set
        by the conditioning of the dense derivative evaluation, so it
        can sit orders of magnitude above epsilon itself.  Mesh sizes
        with fewer than two remaining cells are omitted.
        """
        out: Dict[int, float] = {}
        for L in sorted({row.num_intervals for row in self.rows}):
            column = [row for row in self.completed_rows()
                      if row.num_intervals == L]
            if not column:
                continue
            floor = max(min(row.err for row in column),
                        np.finfo(float).eps)
            cells = [row for row in column
                     if row.err > PLATEAU_FACTOR * floor]
            if len(cells) < 2:
                continue
            degrees = np.array([row.degree for row in cells], dtype=float)
            log_err = np.log([row.err for row in cells])
            out[L] = float(np.polyfit(degrees, log_err, 1)[0])
        return out


def _checked_plan(L_list: Sequence[int], m_list: Sequence[int]):
    """The mesh sizes and degrees of a table as lists of ints, each
    nonempty and without repeats, the sizes >= 1 and the degrees >= 2."""
    plan = list(L_list), list(m_list)
    for name, values, least in zip(("mesh sizes", "degrees"), plan, (1, 2)):
        if not all(map(_is_integer, values)):
            raise InvalidArgumentError(f"{name} must be integers, got {values}")
        if not values or min(values) < least or len(set(values)) < len(values):
            raise InvalidArgumentError(
                f"{name} must be distinct, >= {least} and nonempty, got "
                f"{values}")
    return [[int(v) for v in values] for values in plan]


def convergence_study(prob: DdeProblem, params, L_list: Sequence[int],
                      m_list: Sequence[int],
                      settings: Optional[NewtonSettings] = None, *,
                      seed: DiscreteState,
                      grid_points: int = DEFAULT_ERR_GRID,
                      ) -> ConvergenceTable:
    """Converge the orbit on every (L, m) pair and tabulate diagnostics.

    Each mesh size starts from ``seed`` re-sampled; within a mesh size
    the cells warm-start from the nearest previously completed cell.
    Newton failures are recorded in the table rather than raised, a
    solve that collapses onto the equilibrium (``checked_amplitude``)
    among them.  A repeated mesh size or degree, and a ``grid_points``
    that is not an integer >= 2, are rejected before the first solve.
    Each cell is logged at debug level under ``semdde.analysis``.
    """
    L_list, m_list = _checked_plan(L_list, m_list)
    grid_points = _checked_int(grid_points, "grid_points", 2)
    params = np.atleast_1d(_checked_reals(params, "params"))
    if settings is None:
        settings = NewtonSettings()
    default_constraints(prob, params)  # a wrong count fails before a cell

    rows = []
    for L in L_list:
        mesh = Mesh.uniform(L)
        warm = seed
        for m in m_list:
            start = perf_counter()
            try:
                orbit = measured_orbit(lambda: _solve_resampled(
                    warm, prob, mesh, m, params, settings), prob, grid_points)
                rows.append(ConvergenceCell(
                    L, m, orbit.err, orbit.phi_defect, orbit.newton_iters,
                    perf_counter() - start))
                warm = orbit.state
                log.debug("cell L=%d m=%d: %d iterations, err %.3e", L, m,
                          orbit.newton_iters, orbit.err)
            except NewtonError as exc:
                rows.append(ConvergenceCell(
                    num_intervals=L, degree=m, err=float("nan"),
                    phi_defect=float("nan"), newton_iters=-1,
                    wall_time=perf_counter() - start,
                    failure=f"{type(exc).__name__}: {exc}"))
                log.debug("cell L=%d m=%d failed: %s", L, m,
                          rows[-1].failure)
    metadata = {
        "problem": prob.name,
        "params": [float(v) for v in params],
        "node_kind": NodeKind.GAUSS_LEGENDRE.value,
        "grid_points": grid_points,
    }
    return ConvergenceTable(tuple(rows), metadata)


CONVERGENCE_CSV_COLUMNS = ("num_intervals", "degree", "err", "phi_defect",
                           "newton_iters", "failure")


def write_convergence_csv(table: ConvergenceTable, stream) -> None:
    """Write the table as CSV with a format-version comment line.

    Wall times are left out so the data file is byte-identical across
    runs; timing belongs in a separate metadata file.
    """
    csv_writer(stream, CONVERGENCE_CSV_COLUMNS).writerows(
        [getattr(row, name) for name in CONVERGENCE_CSV_COLUMNS]
        for row in table.rows)


def convergence_table_document(table: ConvergenceTable) -> dict:
    """JSON-ready document of the table, without wall times."""
    return {
        "format_version": FORMAT_VERSION,
        "metadata": dict(table.metadata),
        "rows": [{name: getattr(row, name)
                  for name in CONVERGENCE_CSV_COLUMNS}
                 for row in table.rows],
    }


@dataclass(frozen=True)
class BernsteinBound:
    """Geometric interpolation error bound for an analytic function.

    ``eta`` is the logarithm of the ellipse shape factor and
    ``max_modulus`` the maximum of |f| on that ellipse; the bound on the
    degree-m interpolation error is 4 max_modulus e^(-eta m)/(e^eta - 1),
    strictly decreasing in m.
    """

    eta: float
    max_modulus: float

    def __post_init__(self):
        _checked_fields(self, ("eta", "max_modulus"), 0.0, strict=True)

    def bound(self, m):
        m = np.asarray(m, dtype=float)
        value = 4.0 * self.max_modulus * np.exp(-self.eta * m) \
            / np.expm1(self.eta)
        return float(value) if value.ndim == 0 else value


def _ellipse_points(eta: float, samples: int) -> np.ndarray:
    """Ellipse with foci 0 and 1 and shape factor e^eta, as complex points."""
    theta = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
    w = np.cos(theta) * np.cosh(eta) + 1j * np.sin(theta) * np.sinh(eta)
    return 0.5 * (w + 1.0)


def bernstein_bound_fit(f: Callable, eta: float,
                        samples: int = 1024) -> BernsteinBound:
    """Estimate the max modulus of f on the ellipse and return the bound.

    ``f`` must accept complex arrays.  Rings at fractions of ``eta``
    (including the real interval itself) are sampled as well: a larger
    maximum on an inner ring than on the boundary contradicts the
    maximum principle, so a singularity must sit inside the ellipse and
    the requested bound does not apply.
    """
    eta = _checked_real(eta, "eta", 0.0, strict=True)
    samples = _checked_int(samples, "samples", 16)
    ring_max = []
    for fraction in (0.0, 0.25, 0.5, 0.75, 1.0):
        if fraction == 0.0:
            points = np.linspace(0.0, 1.0, samples).astype(complex)
        else:
            points = _ellipse_points(fraction * eta, samples)
        values = np.asarray(f(points))
        if not np.all(np.isfinite(values)):
            raise AnalyticityViolationError(
                f"f is not finite on the ellipse ring at {fraction} eta")
        ring_max.append(float(np.max(np.abs(values))))
    boundary = ring_max[-1]
    for fraction, inner in zip((0.0, 0.25, 0.5, 0.75), ring_max[:-1]):
        if inner > boundary * (1.0 + _MAX_PRINCIPLE_SLACK):
            raise AnalyticityViolationError(
                f"|f| on the ring at {fraction} eta exceeds the boundary "
                f"maximum ({inner:.3e} > {boundary:.3e}); f cannot be "
                f"analytic inside the ellipse")
    return BernsteinBound(eta=eta, max_modulus=boundary)


@dataclass(frozen=True)
class PeriodicPointSet:
    """Isolated fixed points of one iterate of the circle map."""

    iterate: int
    points: np.ndarray
    derivatives: np.ndarray
    unstable: np.ndarray

    def __post_init__(self):
        for name in ("points", "derivatives", "unstable"):
            arr = np.asarray(getattr(self, name))
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class CircleMapResult:
    """Sampled iterates plus located periodic points.

    ``kind`` is "generic" for a nonconstant displacement; a constant
    displacement makes every point periodic, reported as "identity"
    (integer shift) or "rotation" (fractional shift) with no isolated
    points listed.
    """

    kind: str
    times: np.ndarray
    iterates: np.ndarray
    periodic_points: Tuple[PeriodicPointSet, ...]
    shift: Optional[float] = None

    def __post_init__(self):
        for name in ("times", "iterates"):
            arr = np.asarray(getattr(self, name), dtype=float).copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "periodic_points",
                           tuple(self.periodic_points))


def _lift_iterate(r: Callable, t, k: int):
    """k-fold application of t -> t - r(t mod 1) without taking mod."""
    x = np.asarray(t, dtype=float)
    for _ in range(k):
        x = x - r(_wrap_time(x))
    return x


def _bisect_roots(fn: Callable, lo: np.ndarray, hi: np.ndarray,
                  f_lo: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Bisect all brackets together; ``fn(t, which)`` gives the function
    of brackets ``which`` at times t.  Per bracket: halve while hi - lo >
    tol, return a midpoint where fn is 0, else the last midpoint."""
    roots = np.empty_like(lo)
    which = np.arange(lo.size)
    while True:
        wide = hi - lo > tol
        roots[which[~wide]] = 0.5 * (lo + hi)[~wide]
        which, lo, hi, f_lo = which[wide], lo[wide], hi[wide], f_lo[wide]
        if not which.size:
            return roots
        mid = 0.5 * (lo + hi)
        f_mid = fn(mid, which)
        left = (f_lo < 0.0) != (f_mid < 0.0)
        hi = np.where(left, mid, hi)
        lo, f_lo = np.where(left, lo, mid), np.where(left, f_lo, f_mid)
        hit = f_mid == 0.0
        roots[which[hit]] = mid[hit]
        which, lo, hi, f_lo = which[~hit], lo[~hit], hi[~hit], f_lo[~hit]


def _merge_close(points, tol: float = 1e-8):
    """Sort mod-1 points and collapse clusters, including across t=0."""
    if not points:
        return []
    pts = sorted(p - math.floor(p) for p in points)
    merged = [pts[0]]
    for p in pts[1:]:
        if p - merged[-1] > tol:
            merged.append(p)
    if len(merged) > 1 and merged[0] + 1.0 - merged[-1] <= tol:
        merged.pop()
    return merged


def circle_map_analysis(r: Callable, k_max: int, grid: int,
                        ) -> CircleMapResult:
    """Iterate t -> t - r(t) mod 1 and locate periodic points.

    Fixed points of the k-th iterate are zeros of the lifted iterate
    displacement minus an integer, found by sign changes on the grid and
    refined by bisecting all of an iterate's brackets together;
    stability is the lifted derivative by centered differences, unstable
    when its magnitude exceeds 1.  ``r`` must map times to an array of
    their shape and be elementwise (its value at t does not depend on
    the rest of the batch); the points then equal, bitwise, those of a
    bisection of one bracket at a time.
    """
    k_max = _checked_int(k_max, "k_max", 1)
    grid = _checked_int(grid, "grid", 1000)
    times = np.linspace(0.0, 1.0, grid, endpoint=False)

    lifts = []
    x = times
    for _ in range(k_max):
        lag = r(_wrap_time(x))
        if np.shape(lag) != times.shape:
            raise InvalidArgumentError(f"r gave shape {np.shape(lag)} for "
                                       f"times of shape {times.shape}")
        if not np.all(np.isfinite(lag)):
            raise InvalidArgumentError("r gave a value that is not finite")
        x = x - lag
        lifts.append(x)
    iterates = np.array([_wrap_time(x) for x in lifts])

    base_disp = lifts[0] - times
    if float(np.max(base_disp) - np.min(base_disp)) <= 1e-9:
        shift = float(np.mean(base_disp))
        kind = "identity" if abs(shift - round(shift)) <= 1e-9 else "rotation"
        return CircleMapResult(kind=kind, times=times, iterates=iterates,
                               periodic_points=(), shift=shift)

    point_sets = []
    spacing = 1.0 / grid
    step = 1e-6
    for k in range(1, k_max + 1):
        disp = np.append(lifts[k - 1] - times, lifts[k - 1][0] - times[0])
        n = np.arange(math.floor(disp.min()), math.ceil(disp.max()) + 1)
        h = disp - n[:, None]  # one row per integer shift n
        roots = times[np.nonzero(h[:, :-1] == 0.0)[1]].tolist()
        row, i = np.nonzero((h[:, :-1] != 0.0) & (h[:, 1:] != 0.0)
                            & ((h[:, :-1] < 0.0) != (h[:, 1:] < 0.0)))
        if i.size:
            roots += _bisect_roots(
                lambda t, which: _lift_iterate(r, t, k) - t - n[row[which]],
                times[i], times[i] + spacing, h[row, i]).tolist()
        points = np.array(_merge_close(roots))
        derivs = np.zeros(0)
        if points.size:
            derivs = (_lift_iterate(r, points + step, k)
                      - _lift_iterate(r, points - step, k)) / (2.0 * step)
        point_sets.append(PeriodicPointSet(
            iterate=k, points=points, derivatives=derivs,
            unstable=np.abs(derivs) > 1.0))
    return CircleMapResult(kind="generic", times=times, iterates=iterates,
                           periodic_points=tuple(point_sets))


def orbit_lag_map(state: DiscreteState, lag: Callable) -> Callable:
    """Delay-to-circle-map bridge for a computed orbit.

    ``lag`` maps (profile values, params) to the unscaled delay; the
    returned function divides by the period, matching the unit-period
    profile, so r(t) = lag(y(t), p)/T feeds circle_map_analysis.
    """
    def r(t):
        values = state.poly.eval(np.asarray(t, dtype=float))
        return np.asarray(lag(values, state.params), dtype=float) \
            / state.period
    return r


def write_circle_map_csv(result: CircleMapResult, stream) -> None:
    """Sampled iterates as CSV columns t, g1, g2, ... for plotting."""
    header = ["t"] + [f"g{k}" for k in range(1, len(result.iterates) + 1)]
    csv_writer(stream, header).writerows(
        np.column_stack([result.times, result.iterates.T]).tolist())
