"""Command-line front end: configure, run, and export every experiment.

One JSON config file drives each subcommand; all results land in an
output directory as CSV and JSON with a format_version stamp.  Data
files contain no timestamps, so two runs of the same config are
byte-identical; wall-clock times go to a separate metadata file.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import os
import pickle
import sys
from dataclasses import dataclass, field, fields
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Optional, Tuple

import numpy as np

from .analysis import (
    DEFAULT_ERR_GRID,
    ConvergenceTable,
    _checked_plan,
    _solve_resampled,
    circle_map_analysis,
    convergence_study,
    convergence_table_document,
    measured_orbit,
    orbit_lag_map,
    write_circle_map_csv,
    write_convergence_csv,
)
from .collocation import (
    DiscreteState,
    NewtonSettings,
    state_from_document,
    state_to_document,
)
from .continuation import (
    DEFAULT_HOPF_OFFSET,
    _PREDICTOR_ORBITS,
    _refuse_flat_start,
    append_branch_row,
    continue_branch,
    hopf_initial_guess,
    read_branch_csv,
    sd_quadratic_seed,
    write_branch_csv,
)
from .errors import (
    ConfigError,
    FormatVersionError,
    InvalidArgumentError,
    SemDdeError,
    StepFailureError,
    _checked_int,
    _checked_real,
)
from .nodes import NodeKind, lebesgue_constant, make_nodes
from .piecewise import FORMAT_VERSION, Mesh, check_format_version, \
    csv_writer, sample_periodic
from .problems import DdeProblem, get_problem

log = logging.getLogger("semdde.cli")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_FAILURE = 2


def _parsed(parse, value, name: str):
    """``parse(value, name)``, a library rule's refusal of the value
    raised again as ConfigError with the same message."""
    try:
        return parse(value, name)
    except InvalidArgumentError as exc:
        raise ConfigError(str(exc)) from None


def _read_json(path, error):
    """The document in the JSON file ``path``, or ``error`` if invalid."""
    try:
        return json.loads(Path(path).read_text())
    except ValueError as exc:  # invalid JSON or text encoding
        raise error(f"{path} is not valid JSON: {exc}") from None


_count = partial(_checked_int, minimum=1)


def _items(parse, value, name: str) -> tuple:
    """A value or a nonempty list of values, each checked by parse."""
    values = value if isinstance(value, list) else [value]
    if not values:
        raise ConfigError(f"{name} must not be empty")
    return tuple(parse(v, name) for v in values)


def _flag(value, name: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false, got {value!r}")
    return value


def _string(value, name: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be a string, got {value!r}")
    return value


def _mesh(value, name: str) -> Mesh:
    return Mesh(value) if isinstance(value, list) \
        else Mesh.uniform(_count(value, name))


#: the keys of each guess kind besides "kind", each with its default and
#: parser; a key whose default is None is required (no parser takes None)
_GUESSES = {
    "hopf": {"amplitude": (0.01, _checked_real),
             "offset": (DEFAULT_HOPF_OFFSET, _checked_real)},
    "file": {"path": (None, _string)},
    "constant": {"values": (None, partial(_items, _checked_real)),
                 "period": (None, _checked_real)},
    "seed": {},
}


def _guess(doc, name: str) -> dict:
    """Checked guess with every value converted and defaults filled in."""
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if kind not in _GUESSES:
        raise ConfigError(
            f"{name} must be an object with kind in {sorted(_GUESSES)}")
    keys = _GUESSES[kind]
    extras = set(doc) - set(keys) - {"kind"}
    if extras:
        raise ConfigError(f"unknown {kind} {name} keys {sorted(extras)}")
    return dict(kind=kind, **{
        key: parse(doc.get(key, default), f"{name}.{key}")
        for key, (default, parse) in keys.items()})


def _newton(doc, name: str) -> NewtonSettings:
    """Newton settings; NewtonSettings checks each value."""
    keys = sorted(f.name for f in fields(NewtonSettings))
    if not isinstance(doc, dict) or set(doc) - set(keys):
        raise ConfigError(f"{name} settings accept keys {keys}")
    return NewtonSettings(**doc)


def _schedule_targets(path: Path, p_to: float, steps: int) -> list:
    """The targets of a stored schedule that matches the config."""
    sched = _read_json(path, ConfigError)
    if not isinstance(sched, dict):
        raise ConfigError(f"{path} must hold a JSON object")
    check_format_version(sched.get("format_version"), "schedule.json")
    # the config's own rules first, since True == 1 == 1.0
    stored = (_parsed(_checked_real, sched.get("p_to"), "schedule.json p_to"),
              _parsed(_count, sched.get("steps"), "schedule.json steps"))
    if stored != (p_to, steps):
        raise ConfigError(
            "schedule.json disagrees with the config: stored "
            f"p_to={sched.get('p_to')} steps={sched.get('steps')}, "
            f"config p_to={p_to} steps={steps}")
    targets = sched.get("targets")
    if not isinstance(targets, list) or len(targets) != steps:
        raise ConfigError(
            f"schedule.json targets must be a list of {steps} numbers, "
            f"got {targets!r}")
    return [_parsed(_checked_real, v, "schedule.json targets")
            for v in targets]


def _key(default, parse):
    """A config key with its default and the parser of its JSON value,
    called as parse(value, key name)."""
    return field(default=default, metadata={"parse": parse})


@dataclass(frozen=True)
class RunConfig:
    """Parsed JSON configuration shared by all subcommands.

    Each command reads the fields it needs and rejects configs missing
    them.  Everything is value-based, so a config plus the package
    version pins the outputs exactly.  ``node_kind`` selects the node
    family of the ``nodes`` tables; collocation always uses
    Gauss-Legendre nodes.
    """

    problem: Optional[str] = _key(None, _string)
    node_kind: NodeKind = _key(NodeKind.GAUSS_LEGENDRE, NodeKind.from_name)
    mesh: Optional[Mesh] = _key(None, _mesh)
    mesh_list: Optional[Tuple[int, ...]] = _key(None, partial(_items, _count))
    degree: Tuple[int, ...] = _key((), partial(_items, _count))
    params: Tuple[float, ...] = _key((), partial(_items, _checked_real))
    newton: NewtonSettings = _key(NewtonSettings(), _newton)
    out_dir: Optional[str] = _key(None, _string)
    grid: int = _key(DEFAULT_ERR_GRID, partial(_checked_int, minimum=2))
    guess: Optional[dict] = _key(None, _guess)
    p_to: Optional[float] = _key(None, _checked_real)
    steps: Optional[int] = _key(None, _count)
    resume: bool = _key(False, _flag)
    k_max: int = _key(5, _count)
    solution: Optional[str] = _key(None, _string)
    samples: int = _key(10001, _count)

    @classmethod
    def from_document(cls, doc, **overrides) -> "RunConfig":
        """The config of a JSON document, with each override that is not
        None in place of its key's value, so both pass the same parser."""
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        doc = dict(doc, **{key: value for key, value in overrides.items()
                           if value is not None})
        parsers = {f.name: f.metadata["parse"] for f in fields(cls)}
        unknown = set(doc) - set(parsers)
        if unknown:
            raise ConfigError(
                f"unknown config keys {sorted(unknown)}; known keys are "
                f"{sorted(parsers)}")
        return cls(**{key: _parsed(parse, doc[key], key)
                      for key, parse in parsers.items() if key in doc})


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


def _load_state(path, prob: DdeProblem) -> DiscreteState:
    """The orbit stored at ``path``, refused (InvalidArgumentError) unless
    its dimension and parameter count are the problem's; a refusal of its
    document keeps its type and gets the path in front of its message."""
    doc = _read_json(path, InvalidArgumentError)
    try:
        state = state_from_document(doc)
    except (InvalidArgumentError, FormatVersionError) as exc:
        raise type(exc)(f"{path}: {exc}") from None
    if (state.poly.dim, state.params.size) != (prob.dim, prob.num_params):
        raise InvalidArgumentError(
            f"{path} holds an orbit of dimension {state.poly.dim} "
            f"with {state.params.size} params; {prob.name} needs "
            f"{prob.dim} with {prob.num_params}")
    return state


def _initial_state(cfg: RunConfig) -> DiscreteState:
    guess = _require(cfg.guess, "guess")
    kind = guess["kind"]
    prob = get_problem(_require(cfg.problem, "problem"))
    if kind == "hopf":
        if prob.onset is None:
            raise ConfigError(
                f"problem {cfg.problem!r} declares no onset for the hopf "
                f"guess; supply a file or constant guess instead")
        return hopf_initial_guess(
            prob.onset, guess["amplitude"],
            _require(cfg.mesh, "mesh"), _single_degree(cfg),
            offset=guess["offset"])
    if kind == "file":
        return _load_state(guess["path"], prob)
    if kind == "seed":
        if cfg.problem != "sd_quadratic":
            raise ConfigError("the shipped seed belongs to sd_quadratic")
        return sd_quadratic_seed(_require(cfg.params, "params")[0])
    params = _require(cfg.params, "params")
    poly = sample_periodic(
        lambda t: np.tile(guess["values"], (t.size, 1)),
        _require(cfg.mesh, "mesh"), _single_degree(cfg))
    return DiscreteState(poly, np.array((guess["period"],) + params))


def _first_orbit(cfg: RunConfig, prob: DdeProblem):
    """The configured guess solved, for ``measured_orbit``; a collapse
    onto the equilibrium from a guess that is not flat raises
    CollapseError.  Every guess is resampled onto the configured mesh
    and degree (each defaulting to the guess's own) and solved at the
    configured params, if any, from its own period, as a convergence
    cell is (``analysis._solve_resampled``)."""
    init = _initial_state(cfg)
    if cfg.guess["kind"] == "hopf" and cfg.params:
        raise ConfigError("the onset and a hopf guess's offset set p; "
                          "remove params")
    return _solve_resampled(
        init, prob, init.poly.mesh if cfg.mesh is None else cfg.mesh,
        _single_degree(cfg) if cfg.degree else init.poly.degree, cfg.params,
        cfg.newton)


def cmd_solve(cfg: RunConfig, out_dir: Path) -> Tuple[int, dict]:
    prob = get_problem(_require(cfg.problem, "problem"))
    orbit = measured_orbit(lambda: _first_orbit(cfg, prob), prob, cfg.grid)
    log.info("solved %s in %d iterations, err %.3e", prob.name,
             orbit.newton_iters, orbit.err)
    _write_json(out_dir / "solution.json", state_to_document(orbit.state))
    _write_json(out_dir / "result.json", {
        "format_version": FORMAT_VERSION,
        "problem": prob.name,
        "p": orbit.state.params.tolist(),
        "T": orbit.state.period,
        "amplitude": orbit.amplitude,
        "err": orbit.err,
        "phi_defect": orbit.phi_defect,
        "iterations": orbit.newton_iters,
    })
    print(f"wrote {out_dir / 'solution.json'}")
    return EXIT_OK, dict(zip(("newton_s", "residual_err_s", "phi_defect_s"),
                             orbit.seconds))


def _point_path(out_dir: Path, index: int) -> Path:
    return out_dir / f"point_{index:04d}.json"


def cmd_continue(cfg: RunConfig, out_dir: Path) -> Tuple[int, dict]:
    prob = get_problem(_require(cfg.problem, "problem"))
    p_to = _require(cfg.p_to, "p_to")
    steps = _require(cfg.steps, "steps")
    csv_path = out_dir / "branch.csv"

    if cfg.resume:
        schedule_path = out_dir / "schedule.json"
        if not schedule_path.exists() or not csv_path.exists():
            raise ConfigError(
                f"resume needs schedule.json and branch.csv in {out_dir}")
        targets = _schedule_targets(schedule_path, p_to, steps)
        with open(csv_path) as handle:
            stored = [row["p"] for row in read_branch_csv(handle)]
        if not stored:
            raise ConfigError(
                "resume requested but the stored branch has no points; "
                "rerun without resume")
        if stored != targets[:len(stored)]:
            raise ConfigError(
                f"branch.csv holds p={stored}, which is not the start of "
                f"the schedule's targets {targets}")
        done = len(stored)
        *previous, state = [
            _load_state(_point_path(out_dir, i), prob)
            for i in range(max(done - _PREDICTOR_ORBITS, 0), done)]
        p_cur = targets[done - 1]
        log.info("resuming after %d stored points at p=%.6g", done, p_cur)
    else:
        state = _first_orbit(cfg, prob)[0].state
        _refuse_flat_start(state)
        previous = []
        p_cur = float(state.params[0])
        targets = [float(v) for v in np.linspace(p_cur, p_to, steps + 1)[1:]]
        done = 0
        _write_json(out_dir / "schedule.json", {
            "format_version": FORMAT_VERSION, "p_start": p_cur,
            "p_to": float(p_to), "steps": steps, "targets": targets})
        with open(csv_path, "w") as handle:
            write_branch_csv([], handle)

    # One scheduled target per call, and each row flushed right after its
    # point file, so an interrupted run leaves a branch.csv whose rows
    # are exactly the completed points; resume continues from there.
    # Each call is passed the stored points before the one it starts
    # from, the history continue_branch's predictor uses over a schedule,
    # so the points equal one continue_branch call's.
    first_new = done
    failure = None
    with open(csv_path, "a") as handle:
        for target in targets[done:]:
            try:
                point = continue_branch(
                    state, prob, p_cur, target, 1, cfg.newton,
                    grid_points=cfg.grid, previous=previous)[-1]
            except StepFailureError as exc:
                failure = exc
                break
            _write_json(_point_path(out_dir, done),
                        state_to_document(point.state))
            append_branch_row(point, handle)
            handle.flush()
            done += 1
            if done > 1:
                previous = (previous + [state])[1 - _PREDICTOR_ORBITS:]
            state, p_cur = point.state, target
            log.info("branch point p=%.6g T=%.6g amplitude=%.3e",
                     point.parameter, point.period, point.amplitude)

    extra = {"new_points": done - first_new}
    if failure is not None:
        _emit_error(failure)
        return EXIT_FAILURE, extra
    print(f"wrote {csv_path} ({done} points)")
    return EXIT_OK, extra


def _map_columns(column, sizes: tuple, jobs: int) -> list:
    """``[column(L) for L in sizes]`` on W = min(jobs, len(sizes))
    processes, this one and W - 1 forked children, worker w computing
    sizes w, w + W, ...  Each child pickles its tables, or the exception
    it raised, to its own pipe; one that ends without either raises
    SemDdeError.  Every child is reaped, and killed first if this
    process fails before it is."""
    width = min(jobs, len(sizes))
    children = []  # (worker, pid, read end of its pipe), not yet reaped
    try:
        for worker in range(1, width):
            read, write = os.pipe()
            sys.stdout.flush()  # the child inherits unwritten buffers
            sys.stderr.flush()
            pid = os.fork()
            if pid == 0:  # the child: send, then exit without cleanup
                try:
                    try:
                        result = [column(L) for L in sizes[worker::width]]
                    except Exception as exc:  # raised again by the parent
                        result = exc
                    try:
                        payload = pickle.dumps(result)
                    except Exception:  # e.g. one holding a local object
                        payload = pickle.dumps(SemDdeError(repr(result)))
                    with open(write, "wb") as pipe:
                        pipe.write(payload)
                    os._exit(0)
                finally:  # reached only if the above raised
                    os._exit(1)
            os.close(write)
            children.append((worker, pid, open(read, "rb")))
        shares = [[column(L) for L in sizes[::width]]]
        while children:
            worker, pid, pipe = children[0]
            with pipe:
                payload = pipe.read()
            status = os.waitpid(pid, 0)[1]
            children.pop(0)
            if status != 0:
                raise SemDdeError(
                    f"the worker of mesh sizes {list(sizes[worker::width])} "
                    f"ended without a result (wait status {status})")
            shares.append(pickle.loads(payload))
            if isinstance(shares[-1], Exception):
                raise shares[-1]
    finally:
        for _, pid, pipe in children:
            os.kill(pid, 9)  # SIGKILL, without importing signal at start
            os.waitpid(pid, 0)
            pipe.close()
    return [shares[i % width][i // width] for i in range(len(sizes))]


def cmd_convergence(cfg: RunConfig, out_dir: Path,
                    jobs: int) -> Tuple[int, dict]:
    """The (L, m) table by mesh-size columns (``_map_columns``); each
    restarts from the seed, so the data files are the same for any jobs."""
    _parsed(_count, jobs, "--jobs")
    # resolve the problem and check the plan here, so a bad name or a
    # repeated mesh size or degree fails before any column starts
    prob = get_problem(_require(cfg.problem, "problem"))
    sizes = _require(cfg.mesh_list, "mesh_list")
    _checked_plan(sizes, _require(cfg.degree, "degree"))
    _require(cfg.params, "params")
    if _require(cfg.guess, "guess")["kind"] not in ("file", "seed"):
        raise ConfigError(
            "convergence needs a converged orbit as seed: guess kind 'file' "
            "or 'seed'")
    seed = _initial_state(cfg)
    tables = _map_columns(lambda L: convergence_study(
        prob, cfg.params, [L], cfg.degree, cfg.newton, seed=seed,
        grid_points=cfg.grid), sizes, jobs)
    table = ConvergenceTable(
        tuple(row for part in tables for row in part.rows),
        tables[0].metadata)
    with open(out_dir / "convergence.csv", "w") as handle:
        write_convergence_csv(table, handle)
    _write_json(out_dir / "convergence.json",
                convergence_table_document(table))
    log.info("fitted slopes: %s", table.slopes())
    print(f"wrote {out_dir / 'convergence.csv'} ({len(table.rows)} cells)")
    return EXIT_OK, {"cell_wall_times": [
        {"num_intervals": row.num_intervals, "degree": row.degree,
         "wall_time": row.wall_time} for row in table.rows]}


def cmd_circle_map(cfg: RunConfig, out_dir: Path) -> Tuple[int, dict]:
    prob = get_problem(_require(cfg.problem, "problem"))
    if prob.lag is None:
        raise ConfigError(f"problem {prob.name!r} declares no delay map")
    state = _load_state(_require(cfg.solution, "solution"), prob)
    lag = orbit_lag_map(state, prob.lag)
    result = circle_map_analysis(lag, cfg.k_max, cfg.grid)
    with open(out_dir / "circle_map.csv", "w") as handle:
        write_circle_map_csv(result, handle)
    _write_json(out_dir / "circle_result.json", {
        "format_version": FORMAT_VERSION,
        "kind": result.kind,
        "shift": result.shift,
        "periodic_points": [
            {"iterate": pts.iterate, "points": pts.points.tolist(),
             "derivatives": pts.derivatives.tolist(),
             "unstable": [bool(u) for u in pts.unstable]}
            for pts in result.periodic_points],
    })
    print(f"wrote {out_dir / 'circle_map.csv'} (kind {result.kind})")
    return EXIT_OK, {}


def cmd_nodes(cfg: RunConfig, out_dir: Path) -> Tuple[int, dict]:
    kind = cfg.node_kind.value
    degrees = _require(cfg.degree, "degree")  # all checked before writing
    families = [make_nodes(cfg.node_kind, m) for m in degrees]
    constants = [lebesgue_constant(f, cfg.samples) for f in families]
    with open(out_dir / "nodes.csv", "w") as handle:
        writer = csv_writer(handle,
                            ["kind", "m", "index", "node", "bary_weight"])
        for m, family in zip(degrees, families):
            for i, pair in enumerate(zip(family.nodes.tolist(),
                                         family.bary_weights.tolist())):
                writer.writerow([kind, m, i, *pair])
    with open(out_dir / "lebesgue.csv", "w") as handle:
        writer = csv_writer(handle,
                            ["kind", "m", "samples", "lebesgue_constant"])
        for m, value in zip(degrees, constants):
            writer.writerow([kind, m, cfg.samples, value])
    print(f"wrote {out_dir / 'nodes.csv'}")
    return EXIT_OK, {}


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
    sub.choices["convergence"].add_argument(
        "--jobs", type=int, default=1,
        help="processes for columns, at most one each, this one included")
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
        cfg = RunConfig.from_document(_read_json(args.config, ConfigError),
                                      out_dir=args.out, grid=args.grid)
        if (args.command in ("solve", "continue", "convergence")
                and cfg.node_kind != NodeKind.GAUSS_LEGENDRE):
            raise ConfigError(
                f"{args.command} always collocates at gauss_legendre nodes; "
                f"node_kind {cfg.node_kind.value!r} is for the nodes command")
        out_dir = Path(cfg.out_dir or ".")
        out_dir.mkdir(parents=True, exist_ok=True)
        command = {"solve": cmd_solve, "continue": cmd_continue,
                   "convergence": lambda *a: cmd_convergence(*a, args.jobs),
                   "circle-map": cmd_circle_map, "nodes": cmd_nodes}
        start = perf_counter()
        code, extra = command[args.command](cfg, out_dir)
        _write_json(out_dir / "metadata.json", {
            "format_version": FORMAT_VERSION, "command": args.command,
            "wall_time": perf_counter() - start, **extra})
        return code
    # InvalidArgumentError is a ValueError: bad input, wherever it is found
    except (ConfigError, FormatVersionError, OSError, ValueError,
            TypeError) as exc:
        _emit_error(exc)
        return EXIT_CONFIG
    except SemDdeError as exc:
        _emit_error(exc)
        return EXIT_FAILURE


def run() -> None:
    """The program: ``main`` on the command line, then exit with its code.

    The heap the imports built is frozen first, so forked children share
    its pages and the collector skips it at shutdown; every file the
    command writes is closed before ``main`` returns.
    """
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
