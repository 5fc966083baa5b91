"""Command-line front end: configure, run, and export every experiment.

One JSON config file drives each subcommand; all results land in an
output directory as CSV and JSON with a format_version stamp.  Data
files contain no timestamps, so two runs of the same config are
byte-identical; wall-clock times go to a separate metadata file.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Optional, Tuple

import numpy as np

from .analysis import (
    ConvergenceCell,
    ConvergenceTable,
    circle_map_analysis,
    convergence_study,
    convergence_table_document,
    orbit_amplitude,
    orbit_lag_map,
    residual_err,
    write_circle_map_csv,
    write_convergence_csv,
)
from .collocation import (
    DiscreteState,
    NewtonSettings,
    default_constraints,
    newton_solve,
    state_from_document,
    state_to_document,
)
from .continuation import (
    BRANCH_CSV_COLUMNS,
    continue_branch,
    hopf_initial_guess,
    mackey_glass_hopf,
    read_branch_csv,
    sd_quadratic_seed,
)
from .errors import (
    ConfigError,
    FormatVersionError,
    InvalidArgumentError,
    SemDdeError,
    StepFailureError,
)
from .nodes import NodeKind, lebesgue_constant, make_nodes
from .oracle import phi_m_defect
from .piecewise import FORMAT_VERSION, Mesh, check_format_version, \
    sample_periodic
from .problems import get_problem

log = logging.getLogger("semdde.cli")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_FAILURE = 2

_NEWTON_KEYS = {"tol_residual", "tol_step", "max_iter", "damping_min",
                "fd_step"}
_GUESS_KINDS = {"hopf", "file", "constant", "seed"}

#: delay of each shipped problem as a function of the profile value;
#: feeds the circle-map diagnostic
_DELAY_LAGS = {
    "mackey_glass": lambda y, p: np.broadcast_to(
        p[0], np.shape(y[..., 0])).astype(float),
    "sd_quadratic": lambda y, p: p[0] + y[..., 0] + y[..., 0] ** 2,
}


@dataclass(frozen=True)
class RunConfig:
    """Parsed JSON configuration shared by all subcommands.

    Each command reads the fields it needs and rejects configs missing
    them.  Everything is value-based, so a config plus the package
    version pins the outputs exactly.
    """

    problem: Optional[str] = None
    node_kind: NodeKind = NodeKind.GAUSS_LEGENDRE
    mesh: Optional[Mesh] = None
    mesh_list: Optional[Tuple[int, ...]] = None
    degree: Tuple[int, ...] = ()
    params: Tuple[float, ...] = ()
    newton: NewtonSettings = field(default_factory=NewtonSettings)
    out_dir: Optional[str] = None
    grid: int = 10001
    guess: Optional[dict] = None
    p_to: Optional[float] = None
    steps: Optional[int] = None
    resume: bool = False
    k_max: int = 5
    solution: Optional[str] = None
    samples: int = 10001

    @classmethod
    def from_document(cls, doc) -> "RunConfig":
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        known = set(cls.__dataclass_fields__)
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(
                f"unknown config keys {sorted(unknown)}; known keys are "
                f"{sorted(known)}")
        values = {}
        if "problem" in doc:
            values["problem"] = str(doc["problem"])
        if "node_kind" in doc:
            values["node_kind"] = NodeKind.from_name(doc["node_kind"])
        if "mesh" in doc:
            mesh = doc["mesh"]
            values["mesh"] = Mesh.uniform(mesh) if isinstance(mesh, int) \
                else Mesh(mesh)
        if "mesh_list" in doc:
            sizes = doc["mesh_list"]
            if not isinstance(sizes, list) or not sizes or \
                    not all(isinstance(v, int) and v >= 1 for v in sizes):
                raise ConfigError("mesh_list must be a list of sizes >= 1")
            values["mesh_list"] = tuple(sizes)
        if "degree" in doc:
            degree = doc["degree"]
            if isinstance(degree, int):
                degree = [degree]
            if not isinstance(degree, list) or not degree or \
                    not all(isinstance(v, int) and v >= 1 for v in degree):
                raise ConfigError(
                    "degree must be an int or a list of ints >= 1")
            values["degree"] = tuple(degree)
        if "params" in doc:
            params = doc["params"]
            if isinstance(params, (int, float)):
                params = [params]
            values["params"] = tuple(float(v) for v in params)
        if "newton" in doc:
            sub = doc["newton"]
            if not isinstance(sub, dict) or set(sub) - _NEWTON_KEYS:
                raise ConfigError(
                    f"newton settings accept keys {sorted(_NEWTON_KEYS)}")
            values["newton"] = NewtonSettings(**sub)
        if "out_dir" in doc:
            values["out_dir"] = str(doc["out_dir"])
        if "grid" in doc:
            values["grid"] = int(doc["grid"])
        if "guess" in doc:
            guess = doc["guess"]
            if not isinstance(guess, dict) or \
                    guess.get("kind") not in _GUESS_KINDS:
                raise ConfigError(
                    f"guess must be an object with kind in "
                    f"{sorted(_GUESS_KINDS)}")
            values["guess"] = dict(guess)
        if "p_to" in doc:
            values["p_to"] = float(doc["p_to"])
        if "steps" in doc:
            steps = doc["steps"]
            if not isinstance(steps, int) or steps < 1:
                raise ConfigError(
                    f"steps must be a positive int, got {steps!r}")
            values["steps"] = steps
        if "resume" in doc:
            values["resume"] = bool(doc["resume"])
        if "k_max" in doc:
            values["k_max"] = int(doc["k_max"])
        if "solution" in doc:
            values["solution"] = str(doc["solution"])
        if "samples" in doc:
            values["samples"] = int(doc["samples"])
        return cls(**values)


def _require(value, name: str):
    if value is None or (isinstance(value, tuple) and not value):
        raise ConfigError(f"this command needs the config key {name!r}")
    return value


def _single_degree(cfg: RunConfig) -> int:
    degree = _require(cfg.degree, "degree")
    if len(degree) != 1:
        raise ConfigError("this command needs a single degree")
    return degree[0]


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _write_metadata(out_dir: Path, command: str, wall_time: float,
                    extra: Optional[dict] = None) -> None:
    doc = {"format_version": FORMAT_VERSION, "command": command,
           "wall_time": wall_time}
    if extra:
        doc.update(extra)
    _write_json(out_dir / "metadata.json", doc)


def _load_state(path: str) -> DiscreteState:
    with open(path) as handle:
        return state_from_document(json.load(handle))


def _initial_state(cfg: RunConfig) -> DiscreteState:
    guess = _require(cfg.guess, "guess")
    kind = guess["kind"]
    if kind == "hopf":
        if cfg.problem != "mackey_glass":
            raise ConfigError(
                "the hopf guess is wired for mackey_glass; supply a file "
                "or constant guess instead")
        extras = set(guess) - {"kind", "amplitude", "offset"}
        if extras:
            raise ConfigError(f"unknown hopf guess keys {sorted(extras)}")
        return hopf_initial_guess(
            mackey_glass_hopf(), float(guess.get("amplitude", 0.01)),
            _require(cfg.mesh, "mesh"), _single_degree(cfg),
            offset=float(guess.get("offset", 1e-3)))
    if kind == "file":
        return _load_state(_require(guess.get("path"), "guess.path"))
    if kind == "seed":
        if cfg.problem != "sd_quadratic":
            raise ConfigError("the shipped seed belongs to sd_quadratic")
        return sd_quadratic_seed(_require(cfg.params, "params")[0])
    values = np.atleast_1d(np.asarray(
        _require(guess.get("values"), "guess.values"), dtype=float))
    period = float(_require(guess.get("period"), "guess.period"))
    params = _require(cfg.params, "params")
    poly = sample_periodic(
        lambda t: np.broadcast_to(values, (t.size, values.size)).copy(),
        _require(cfg.mesh, "mesh"), _single_degree(cfg))
    return DiscreteState(poly, np.concatenate([[period], params]))


def cmd_solve(cfg: RunConfig, out_dir: Path) -> int:
    prob = get_problem(_require(cfg.problem, "problem"))
    start = perf_counter()
    init = _initial_state(cfg)
    cons = default_constraints(prob, init.params)
    result = newton_solve(init, prob, cons, cfg.newton, cfg.node_kind)
    state = result.state
    err = residual_err(state, prob, cfg.grid)
    defect = phi_m_defect(state, prob, cons, kind=cfg.node_kind).max_defect
    log.info("solved %s in %d iterations, err %.3e", prob.name,
             result.iterations, err)
    _write_json(out_dir / "solution.json", state_to_document(state))
    _write_json(out_dir / "result.json", {
        "format_version": FORMAT_VERSION,
        "problem": prob.name,
        "p": state.params.tolist(),
        "T": state.period,
        "amplitude": orbit_amplitude(state, cfg.grid),
        "err": err,
        "phi_defect": defect,
        "iterations": result.iterations,
    })
    _write_metadata(out_dir, "solve", perf_counter() - start)
    print(f"wrote {out_dir / 'solution.json'}")
    return EXIT_OK


def _point_path(out_dir: Path, index: int) -> Path:
    return out_dir / f"point_{index:04d}.json"


def _write_branch_rows(handle, done_rows, points) -> None:
    """Stored rows (dicts) first, then fresh branch points, one format."""
    handle.write(f"# format_version={FORMAT_VERSION}\n")
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(BRANCH_CSV_COLUMNS)
    for row in done_rows:
        writer.writerow([repr(row["p"]), repr(row["T"]),
                         repr(row["amplitude"]), row["newton_iters"],
                         repr(row["residual_err"]), repr(row["phi_defect"])])
    for point in points:
        writer.writerow([repr(point.parameter), repr(point.period),
                         repr(point.amplitude), point.newton_iters,
                         repr(point.err), repr(point.phi_defect)])


def cmd_continue(cfg: RunConfig, out_dir: Path) -> int:
    prob = get_problem(_require(cfg.problem, "problem"))
    p_to = _require(cfg.p_to, "p_to")
    steps = _require(cfg.steps, "steps")
    start_time = perf_counter()

    if cfg.resume:
        schedule_path = out_dir / "schedule.json"
        csv_path = out_dir / "branch.csv"
        if not schedule_path.exists() or not csv_path.exists():
            raise ConfigError(
                f"resume needs schedule.json and branch.csv in {out_dir}")
        with open(schedule_path) as handle:
            sched = json.load(handle)
        check_format_version(sched.get("format_version"), "schedule.json")
        if sched.get("p_to") != p_to or sched.get("steps") != steps:
            raise ConfigError(
                "schedule.json disagrees with the config: stored "
                f"p_to={sched.get('p_to')} steps={sched.get('steps')}, "
                f"config p_to={p_to} steps={steps}")
        targets = [float(v) for v in sched["targets"]]
        with open(csv_path) as handle:
            done_rows = read_branch_csv(handle)
        if not done_rows:
            raise ConfigError(
                "resume requested but the stored branch has no points; "
                "rerun without resume")
        if len(done_rows) > len(targets):
            raise ConfigError(
                f"branch.csv holds {len(done_rows)} rows but the schedule "
                f"has only {len(targets)} targets")
        state = _load_state(str(_point_path(out_dir, len(done_rows) - 1)))
        p_cur = targets[len(done_rows) - 1]
        remaining = targets[len(done_rows):]
        log.info("resuming after %d stored points at p=%.6g",
                 len(done_rows), p_cur)
    else:
        init = _initial_state(cfg)
        cons = default_constraints(prob, init.params)
        state = newton_solve(init, prob, cons, cfg.newton,
                             cfg.node_kind).state
        p_cur = float(state.params[0])
        targets = [float(v) for v in np.linspace(p_cur, p_to, steps + 1)[1:]]
        remaining = targets
        done_rows = []
        _write_json(out_dir / "schedule.json", {
            "format_version": FORMAT_VERSION, "p_start": p_cur,
            "p_to": float(p_to), "steps": steps, "targets": targets})

    # One scheduled target per call so an interrupted run leaves every
    # completed point on disk for resume.
    points = []
    failure = None
    for target in remaining:
        try:
            step = continue_branch(state, prob, p_cur, target, 1,
                                   cfg.newton, kind=cfg.node_kind,
                                   grid_points=cfg.grid)
        except StepFailureError as exc:
            failure = exc
            break
        point = step[-1]
        _write_json(_point_path(out_dir, len(done_rows) + len(points)),
                    state_to_document(point.state))
        points.append(point)
        state = point.state
        p_cur = target
        log.info("branch point p=%.6g T=%.6g amplitude=%.3e",
                 point.parameter, point.period, point.amplitude)

    with open(out_dir / "branch.csv", "w") as handle:
        _write_branch_rows(handle, done_rows, points)
    _write_metadata(out_dir, "continue", perf_counter() - start_time,
                    {"new_points": len(points)})
    if failure is not None:
        _emit_error(failure)
        return EXIT_FAILURE
    print(f"wrote {out_dir / 'branch.csv'} "
          f"({len(done_rows) + len(points)} points)")
    return EXIT_OK


def _convergence_chain(problem_name, params, num_intervals, m_list,
                       settings_doc, kind_name, grid, seed_doc):
    """Worker for one mesh-size column; primitives only, so it pickles."""
    prob = get_problem(problem_name)
    seed = state_from_document(seed_doc)
    table = convergence_study(
        prob, params, [num_intervals], list(m_list),
        NewtonSettings(**settings_doc), seed=seed,
        kind=NodeKind.from_name(kind_name), grid_points=grid)
    return [asdict(row) for row in table.rows]


def _convergence_seed(cfg: RunConfig) -> DiscreteState:
    guess = _require(cfg.guess, "guess")
    kind = guess.get("kind")
    if kind == "file":
        return _load_state(_require(guess.get("path"), "guess.path"))
    if kind == "seed":
        return sd_quadratic_seed(_require(cfg.params, "params")[0])
    raise ConfigError(
        "convergence needs a converged orbit as seed: guess kind 'file' "
        "or 'seed'")


def cmd_convergence(cfg: RunConfig, out_dir: Path, jobs: int) -> int:
    prob = get_problem(_require(cfg.problem, "problem"))
    sizes = _require(cfg.mesh_list, "mesh_list")
    degrees = _require(cfg.degree, "degree")
    params = _require(cfg.params, "params")
    seed = _convergence_seed(cfg)
    start = perf_counter()
    if jobs <= 1:
        table = convergence_study(
            prob, list(params), list(sizes), list(degrees), cfg.newton,
            seed=seed, kind=cfg.node_kind, grid_points=cfg.grid)
    else:
        seed_doc = state_to_document(seed)
        settings_doc = asdict(cfg.newton)
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [
                pool.submit(_convergence_chain, prob.name, list(params),
                            size, list(degrees), settings_doc,
                            cfg.node_kind.value, cfg.grid, seed_doc)
                for size in sizes
            ]
            rows = [ConvergenceCell(**row)
                    for future in futures for row in future.result()]
        table = ConvergenceTable(tuple(rows), {
            "problem": prob.name,
            "params": [float(v) for v in params],
            "node_kind": cfg.node_kind.value,
            "grid_points": cfg.grid,
        })
    with open(out_dir / "convergence.csv", "w") as handle:
        write_convergence_csv(table, handle)
    _write_json(out_dir / "convergence.json",
                convergence_table_document(table))
    _write_metadata(out_dir, "convergence", perf_counter() - start, {
        "cell_wall_times": [
            {"num_intervals": row.num_intervals, "degree": row.degree,
             "wall_time": row.wall_time} for row in table.rows
        ],
    })
    log.info("fitted slopes: %s", table.slopes())
    print(f"wrote {out_dir / 'convergence.csv'} ({len(table.rows)} cells)")
    return EXIT_OK


def cmd_circle_map(cfg: RunConfig, out_dir: Path) -> int:
    prob_name = _require(cfg.problem, "problem")
    if prob_name not in _DELAY_LAGS:
        raise ConfigError(
            f"no delay map registered for {prob_name!r}; available: "
            f"{sorted(_DELAY_LAGS)}")
    state = _load_state(_require(cfg.solution, "solution"))
    start = perf_counter()
    lag = orbit_lag_map(state, _DELAY_LAGS[prob_name])
    result = circle_map_analysis(lag, cfg.k_max, cfg.grid)
    with open(out_dir / "circle_map.csv", "w") as handle:
        write_circle_map_csv(result, handle)
    _write_json(out_dir / "circle_result.json", {
        "format_version": FORMAT_VERSION,
        "kind": result.kind,
        "shift": result.shift,
        "periodic_points": [
            {
                "iterate": pts.iterate,
                "points": pts.points.tolist(),
                "derivatives": pts.derivatives.tolist(),
                "unstable": [bool(u) for u in pts.unstable],
            }
            for pts in result.periodic_points
        ],
    })
    _write_metadata(out_dir, "circle-map", perf_counter() - start)
    print(f"wrote {out_dir / 'circle_map.csv'} (kind {result.kind})")
    return EXIT_OK


def cmd_nodes(cfg: RunConfig, out_dir: Path) -> int:
    degrees = _require(cfg.degree, "degree")
    start = perf_counter()
    with open(out_dir / "nodes.csv", "w") as handle:
        handle.write(f"# format_version={FORMAT_VERSION}\n")
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["kind", "m", "index", "node", "bary_weight"])
        for m in degrees:
            family = make_nodes(cfg.node_kind, m)
            for i, (node, weight) in enumerate(
                    zip(family.nodes, family.bary_weights)):
                writer.writerow([cfg.node_kind.value, m, i,
                                 repr(float(node)), repr(float(weight))])
    with open(out_dir / "lebesgue.csv", "w") as handle:
        handle.write(f"# format_version={FORMAT_VERSION}\n")
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["kind", "m", "samples", "lebesgue_constant"])
        for m in degrees:
            value = lebesgue_constant(make_nodes(cfg.node_kind, m),
                                      cfg.samples)
            writer.writerow([cfg.node_kind.value, m, cfg.samples,
                             repr(value)])
    _write_metadata(out_dir, "nodes", perf_counter() - start)
    print(f"wrote {out_dir / 'nodes.csv'}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semdde",
        description="periodic orbits of delay equations by piecewise "
                    "polynomial collocation")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("solve", "converge one periodic orbit"),
            ("continue", "trace a branch in the problem parameter"),
            ("convergence", "tabulate err over mesh sizes and degrees"),
            ("circle-map", "delay circle-map diagnostic of a solution"),
            ("nodes", "dump node and Lebesgue-constant tables")):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True,
                         help="path to the JSON run configuration")
        cmd.add_argument("--out", help="output directory (overrides the "
                                       "config's out_dir)")
        cmd.add_argument("--grid", type=int,
                         help="dense-grid size (overrides the config)")
        cmd.add_argument("--jobs", type=int, default=1,
                         help="worker processes for convergence columns")
    return parser


def _configure_logging() -> None:
    level_name = os.environ.get("SEMDDE_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO,
              "debug": logging.DEBUG}
    if level_name not in levels:
        raise ConfigError(
            f"SEMDDE_LOG must be one of {sorted(levels)}, got "
            f"{level_name!r}")
    logging.basicConfig(level=levels[level_name],
                        format="%(levelname)s %(name)s: %(message)s",
                        force=True)


def _emit_error(exc: Exception) -> None:
    doc = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    print(json.dumps(doc), file=sys.stderr)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _configure_logging()
        with open(args.config) as handle:
            cfg = RunConfig.from_document(json.load(handle))
        if args.grid is not None:
            if args.grid < 2:
                raise ConfigError(f"--grid must be >= 2, got {args.grid}")
            fields = {name: getattr(cfg, name)
                      for name in cfg.__dataclass_fields__}
            cfg = RunConfig(**{**fields, "grid": args.grid})
        out_dir = Path(args.out or cfg.out_dir or ".")
        out_dir.mkdir(parents=True, exist_ok=True)
    except (SemDdeError, OSError, ValueError, TypeError) as exc:
        _emit_error(exc)
        return EXIT_CONFIG

    try:
        if args.command == "solve":
            return cmd_solve(cfg, out_dir)
        if args.command == "continue":
            return cmd_continue(cfg, out_dir)
        if args.command == "convergence":
            return cmd_convergence(cfg, out_dir, args.jobs)
        if args.command == "circle-map":
            return cmd_circle_map(cfg, out_dir)
        return cmd_nodes(cfg, out_dir)
    except (ConfigError, FormatVersionError, InvalidArgumentError,
            OSError) as exc:
        _emit_error(exc)
        return EXIT_CONFIG
    except SemDdeError as exc:
        _emit_error(exc)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
