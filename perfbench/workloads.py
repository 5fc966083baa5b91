"""The benchmark workloads: inputs from a seed, ops, and output checks.

Every workload is closed-loop in one process: an op starts when the
previous one has returned.  A workload's ``ops`` generator yields the
ops of one pass over its plan and receives whether each op returned, so
ops that need an earlier result stop the pass when it is missing.  Each
op's ``check`` turns its result into one status per planned orbit (or
per non-orbit op): "ok", "failed" (no result) or "wrong" (a result that
fails its check), paired with the orbit's wall time when it is an orbit.

Seed 0 reproduces the inputs of tests/test_acceptance.py exactly.  Other
seeds shift continuous inputs (delays, the Hopf amplitude) by a bounded
amount, never the (L, m) plans.  Shifts are at least half their scale,
so every non-default seed costs about the same number of Newton steps.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Tuple

import numpy as np

from semdde import analysis, collocation, continuation, oracle, piecewise, \
    problems

#: every converged orbit must pass the fixed-point oracle at 100x the
#: Newton tolerance, the guarantee tests/test_acceptance.py states
DEFECT_BOUND = 100.0 * collocation.NewtonSettings().tol_residual

HERE = Path(__file__).resolve().parent
MG_BRANCH_END = HERE / "data" / "mg_branch_end.json"

Status = Tuple[str, Optional[float]]


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object, float], List[Status]]
    #: set when the op runs in a child process; its whole time then
    #: belongs to this layer
    child_layer: Optional[str] = None
    #: set when the op's orbit times are equal shares of its wall time
    #: rather than each orbit's own
    shares: bool = False


def seed_shifts(seed: int, count: int) -> np.ndarray:
    """Signed shifts in [-1, -0.5] U [0.5, 1]; all zero for seed 0."""
    if seed == 0:
        return np.zeros(count)
    u = np.random.default_rng(seed).uniform(-1.0, 1.0, count)
    return np.sign(u) * (0.5 + 0.5 * np.abs(u))


def _orbit_status(defect: float) -> str:
    return "ok" if defect <= DEFECT_BOUND else "wrong"


def _cell_statuses(rows) -> List[Status]:
    return [(_orbit_status(row.phi_defect) if row.completed else "failed",
             row.wall_time) for row in rows]


class MgBranch:
    """Why: the acceptance branch.  A Hopf guess on (L=11, m=8), one
    Newton solve, then one continue_branch call of 20 natural-parameter
    steps out to delay 1, as the README and the acceptance fixture call
    it, so a predictor inside continue_branch can use earlier points.
    With n = 90 unknowns the time goes to Newton iterations,
    finite-difference Jacobians and step bisections; diagnostics are a
    small share.  continue_branch returns its points together, so each
    point is given the branch's mean time per point."""

    name = "mg_branch"
    steps = 20
    plan_size = 1 + steps

    def __init__(self, seed: int, workdir: Path):
        shift = seed_shifts(seed, 2)
        self.prob = problems.mackey_glass()
        self.guess = continuation.hopf_initial_guess(
            continuation.mackey_glass_hopf(), 0.01 * (1.0 + 0.1 * shift[0]),
            piecewise.Mesh.uniform(11), 8)
        self.cons = collocation.default_constraints(self.prob,
                                                    self.guess.params)
        self.p_to = 1.0 + 0.01 * shift[1]

    def ops(self):
        box = {}

        def solve():
            box["start"] = collocation.newton_solve(
                self.guess, self.prob, self.cons).state
            return box["start"]

        def check_solve(state, wall):
            defect = oracle.phi_m_defect(state, self.prob,
                                         self.cons).max_defect
            return [(_orbit_status(defect), wall)]

        if not (yield Op("hopf_solve", solve, check_solve)):
            return
        p_from = float(box["start"].params[0])

        def branch():
            return continuation.continue_branch(
                box["start"], self.prob, p_from, self.p_to, self.steps)

        def check_branch(points, wall):
            targets = np.linspace(p_from, self.p_to, self.steps + 1)[1:]
            return [(_orbit_status(point.phi_defect)
                     if point.parameter == target else "wrong",
                     wall / len(points))
                    for point, target in zip(points, targets)]

        yield Op("branch", branch, check_branch, shares=True)


class MgConvergence:
    """Why: the acceptance table.  L in {1, 2, 5, 11}, m = 4..40 from the
    mg_branch end state, 148 cells with n up to 441.  Most cells take
    0-3 Newton iterations, so dense-grid diagnostics (piecewise
    evaluation, analysis, oracle) are a large share.  At the parent
    commit the L=5 column raises InvalidArgumentError in resample_state;
    it stays in the plan and its 37 cells count as failed."""

    name = "mg_convergence"
    mesh_sizes = (1, 2, 5, 11)
    degrees = tuple(range(4, 41))
    plan_size = len(mesh_sizes) * len(degrees)

    def __init__(self, seed: int, workdir: Path):
        self.prob = problems.mackey_glass()
        # the seed orbit stays the stored branch end; other seeds move
        # the delay the table is solved at
        self.seed_state = collocation.state_from_document(
            json.loads(MG_BRANCH_END.read_text()))
        self.params = [float(self.seed_state.params[0])
                       + 0.002 * seed_shifts(seed, 1)[0]]

    def ops(self):
        for size in self.mesh_sizes:
            def column(size=size):
                return analysis.convergence_study(
                    self.prob, self.params, [size], list(self.degrees),
                    seed=self.seed_state)

            yield Op(f"column_L{size}", column,
                     lambda table, wall: _cell_statuses(table.rows))


def _sdq_lag(y, p):
    return p[0] + y[..., 0] + y[..., 0] ** 2


class SdqDiagnostics:
    """Why: the state-dependent problem.  sd_quadratic tables at delays
    0.95 and 1.1 on L in {10, 20}, m in {4, ..., 12}, the fine (20, 12)
    re-solve and the circle map (k=5, 4000 points).  Lag queries scatter
    across intervals, there is no continuation, and n reaches 241, so a
    Jacobian or sparsity change shows here whether it also holds for a
    state-dependent delay."""

    name = "sdq_diagnostics"
    mesh_sizes = (10, 20)
    degrees = (4, 6, 8, 10, 12)
    plan_size = 2 * len(mesh_sizes) * len(degrees) + 2

    def __init__(self, seed: int, workdir: Path):
        shift = seed_shifts(seed, 2)
        self.prob = problems.sd_quadratic()
        self.seeds = {tau: continuation.sd_quadratic_seed(tau)
                      for tau in (0.95, 1.1)}
        self.taus = {0.95: 0.95 + 0.004 * shift[0],
                     1.1: 1.1 + 0.004 * shift[1]}
        tau = self.taus[0.95]
        self.fine_cons = collocation.default_constraints(self.prob, [tau])
        self.fine_guess = collocation.with_parameter(
            collocation.resample_state(self.seeds[0.95],
                                       piecewise.Mesh.uniform(20), 12),
            0, tau)

    def ops(self):
        for key, tau in self.taus.items():
            def table(key=key, tau=tau):
                return analysis.convergence_study(
                    self.prob, [tau], list(self.mesh_sizes),
                    list(self.degrees), seed=self.seeds[key])

            yield Op(f"table_tau{key:g}", table,
                     lambda table, wall: _cell_statuses(table.rows))

        box = {}

        def fine():
            box["state"] = collocation.newton_solve(
                self.fine_guess, self.prob, self.fine_cons).state
            return box["state"]

        def check_fine(state, wall):
            defect = oracle.phi_m_defect(state, self.prob,
                                         self.fine_cons).max_defect
            return [(_orbit_status(defect), wall)]

        if not (yield Op("fine_solve", fine, check_fine)):
            return

        def circle():
            lag = analysis.orbit_lag_map(box["state"], _sdq_lag)
            return analysis.circle_map_analysis(lag, 5, 4000)

        def check_circle(result, wall):
            fifth = [pts for pts in result.periodic_points
                     if pts.iterate == 5]
            ok = (result.kind == "generic" and len(fifth) == 1
                  and int(np.sum(fifth[0].unstable)) == 5)
            return [("ok" if ok else "wrong", None)]

        yield Op("circle_map", circle, check_circle)


def _wait(cmd, env, log_path: Path):
    """Run a command to completion; returns (exit code, wall, max RSS)."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                env=env)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss of a reaped child covers its own waited-for children
    return proc.returncode, wall, usage.ru_maxrss


class CliConvergence:
    """Why: the only workload through the command line.  A `semdde
    convergence --jobs 2` subprocess on the sd_quadratic delay-0.95
    config pays interpreter start-up, the process pool and CSV/JSON
    output.  Its two columns cost unequal time, so the slower column
    sets the wall time."""

    name = "cli_convergence"
    mesh_sizes = (10, 20)
    degrees = (4, 6, 8, 10, 12)
    jobs = 2
    plan_size = len(mesh_sizes) * len(degrees)
    outputs = ("convergence.csv", "convergence.json")

    def __init__(self, seed: int, workdir: Path):
        tau = 0.95 + 0.004 * seed_shifts(seed, 1)[0]
        self.workdir = workdir
        seed_path = workdir / "seed.json"
        seed_state = collocation.with_parameter(
            continuation.sd_quadratic_seed(0.95), 0, tau)
        seed_path.write_text(json.dumps(
            collocation.state_to_document(seed_state)))
        self.config = workdir / "config.json"
        self.config.write_text(json.dumps({
            "problem": "sd_quadratic", "params": [tau],
            "mesh_list": list(self.mesh_sizes),
            "degree": list(self.degrees),
            "guess": {"kind": "file", "path": str(seed_path)},
        }))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(Path(piecewise.__file__).parents[1])
        self.reference = None
        self.stats = []  # (startup_s, worker_busy_s, column_imbalance)
        self.peak_rss_kb = 0

    def _command(self, out_dir: Path, jobs: int):
        return [sys.executable, "-m", "semdde.cli", "convergence",
                "--config", str(self.config), "--out", str(out_dir),
                "--jobs", str(jobs)]

    def make_reference(self) -> None:
        """Serial run whose data files every parallel run must equal."""
        out = self.workdir / "reference"
        code, _, _ = _wait(self._command(out, 1), self.env,
                           self.workdir / "reference.log")
        if code != 0:
            raise RuntimeError(f"reference run exited with {code}")
        self.reference = {name: (out / name).read_bytes()
                          for name in self.outputs}

    def ops(self):
        out = self.workdir / "parallel"

        def run():
            code, wall, rss = _wait(self._command(out, self.jobs), self.env,
                                    self.workdir / "parallel.log")
            self.peak_rss_kb = max(self.peak_rss_kb, rss)
            if code != 0:
                raise RuntimeError(f"semdde convergence exited with {code}")
            return wall

        yield Op("cli_convergence", run, self._check, child_layer="cli")

    def _check(self, wall, _op_wall):
        out = self.workdir / "parallel"
        meta = json.loads((out / "metadata.json").read_text())
        rows = json.loads((out / "convergence.json").read_text())["rows"]
        times = [cell["wall_time"] for cell in meta["cell_wall_times"]]
        columns = {}
        for cell in meta["cell_wall_times"]:
            columns.setdefault(cell["num_intervals"], 0.0)
            columns[cell["num_intervals"]] += cell["wall_time"]
        sums = list(columns.values())
        self.stats.append((wall - meta["wall_time"], sum(sums),
                           max(sums) / (sum(sums) / len(sums))))
        same = all((out / name).read_bytes() == self.reference[name]
                   for name in self.outputs)
        statuses = []
        for row, time_s in zip(rows, times):
            if row["failure"] is not None:
                statuses.append(("failed", time_s))
            elif not same:
                statuses.append(("wrong", time_s))
            else:
                statuses.append((_orbit_status(row["phi_defect"]), time_s))
        return statuses


WORKLOADS = {cls.name: cls for cls in (MgBranch, MgConvergence,
                                       SdqDiagnostics, CliConvergence)}
