"""Print one sha256 per acceptance input and per command-line run, to
show that a change keeps every output bitwise.

The inputs are those of tests/test_acceptance.py, built from the library
alone: the Mackey-Glass branch (Hopf guess on L=11, m=8, then 20 steps
out to delay 1), the (L, m) table seeded from the branch end, both
sd_quadratic tables, the fine (20, 12) re-solve at delay 0.95 and the
circle map of that orbit (k=5, 4000 points).  Each digest covers the
states, periods, err, phi_defect, Newton iterations and failure messages
of its input, or the circle map's iterates and periodic points.

The command-line runs go through ``python -m semdde.cli`` into a
temporary directory: ``solve`` of Mackey-Glass from its Hopf guess on
(11, 8), a 3-step ``continue`` from the same guess, ``convergence
--jobs 2`` of sd_quadratic on L in {10, 20} seeded from the shipped
orbit at delay 0.95, ``solve`` of that orbit on (20, 12),
``circle-map`` of both solved orbits, ``nodes`` of each node family
at degrees 1, 2, 5, 16 and 40 with 5000 samples, and ``convergence
--jobs 2`` of Mackey-Glass on L in {1, 2, 5}, m in {4, 6}, seeded from
the solved orbit, so that the calling process computes two columns (L =
1 and 5) and its forked child one.  Each digest covers the names and
bytes of the data files a run writes; ``metadata.json``, which holds
wall-clock times, is left out.

A seed other than 0 shifts the continuous inputs (Hopf amplitude,
delays) by a bounded amount and keeps every (L, m) plan, with the shifts
the benchmark in perfbench/ uses for the same seed.  Run from the
repository root, once on each checkout to compare:

    PYTHONPATH=src python3 scripts/output_digest.py --seed 0

With ``--dump DIR`` the script also writes ``DIR/<name>.json`` for each
digest: a JSON list of the items it hashes in order, each a string or a
(nested) list of floats, which round-trip exactly.  So two checkouts
whose digests differ can be compared number by number.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

import semdde  # noqa: E402
from semdde import analysis, collocation, continuation, piecewise, \
    problems  # noqa: E402


def _shifts(seed: int, count: int) -> np.ndarray:
    """Signed shifts in [-1, -0.5] U [0.5, 1]; all zero for seed 0."""
    if seed == 0:
        return np.zeros(count)
    u = np.random.default_rng(seed).uniform(-1.0, 1.0, count)
    return np.sign(u) * (0.5 + 0.5 * np.abs(u))


class _Digest:
    def __init__(self):
        self._hash = hashlib.sha256()
        self.items = []  # what was hashed, JSON-ready

    def add(self, *items) -> "_Digest":
        for item in items:
            if isinstance(item, str):
                data = item.encode()
                self.items.append(item)
            else:
                array = np.ascontiguousarray(item, dtype=float)
                data = array.tobytes()
                self.items.append(array.tolist())
            self._hash.update(len(data).to_bytes(8, "little") + data)
        return self

    def state(self, state) -> "_Digest":
        return self.add(state.flatten(), state.period)

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def _table_digest(table) -> _Digest:
    digest = _Digest()
    for row in table.rows:
        digest.add(row.num_intervals, row.degree, row.err, row.phi_defect,
                   row.newton_iters, row.failure or "")
    return digest


def digests(seed: int) -> dict:
    """Input name -> digest of its outputs."""
    out = {}
    shift = _shifts(seed, 2)

    prob = problems.mackey_glass()
    guess = continuation.hopf_initial_guess(
        continuation.mackey_glass_hopf(), 0.01 * (1.0 + 0.1 * shift[0]),
        piecewise.Mesh.uniform(11), 8)
    cons = collocation.default_constraints(prob, guess.params)
    start = collocation.newton_solve(guess, prob, cons)
    points = continuation.continue_branch(
        start.state, prob, float(start.state.params[0]),
        1.0 + 0.01 * shift[1], 20)
    digest = _Digest().state(start.state).add(start.iterations)
    for point in points:
        digest.state(point.state).add(point.parameter, point.amplitude,
                                      point.period, point.err,
                                      point.newton_iters, point.phi_defect)
    out["mg_branch"] = digest

    end = points[-1].state
    delay = float(end.params[0]) + 0.002 * _shifts(seed, 1)[0]
    out["mg_table"] = _table_digest(analysis.convergence_study(
        prob, [delay], [1, 2, 5, 11], list(range(4, 41)), seed=end))

    sdq = problems.sd_quadratic()
    seeds = {tau: continuation.sd_quadratic_seed(tau) for tau in (0.95, 1.1)}
    taus = {0.95: 0.95 + 0.004 * shift[0], 1.1: 1.1 + 0.004 * shift[1]}
    for key, tau in taus.items():
        out[f"sdq_table_{key:g}"] = _table_digest(analysis.convergence_study(
            sdq, [tau], [10, 20], [4, 6, 8, 10, 12], seed=seeds[key]))

    fine_cons = collocation.default_constraints(sdq, [taus[0.95]])
    fine = collocation.newton_solve(collocation.with_parameter(
        collocation.resample_state(seeds[0.95], piecewise.Mesh.uniform(20),
                                   12), 0, taus[0.95]), sdq, fine_cons)
    out["sdq_fine"] = _Digest().state(fine.state).add(fine.iterations)

    circle = analysis.circle_map_analysis(
        analysis.orbit_lag_map(fine.state, sdq.lag), 5, 4000)
    digest = _Digest().add(circle.kind, circle.times, circle.iterates)
    for pts in circle.periodic_points:
        digest.add(pts.iterate, pts.points, pts.derivatives,
                   pts.unstable.astype(float))
    out["circle_map"] = digest
    return out


def _run_cli(work: Path, name: str, command: str, config: dict,
             *options: str) -> Path:
    """Run one subcommand with ``config`` into ``work / name``."""
    out_dir = work / name
    config_path = work / f"{name}.json"
    config_path.write_text(json.dumps(config))
    env = dict(os.environ)
    # the CLI process imports the package this script imported
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(semdde.__file__).resolve().parents[1]),
        env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-m", "semdde.cli", command, "--config",
                    str(config_path), "--out", str(out_dir), *options],
                   check=True, env=env, stdout=subprocess.DEVNULL)
    return out_dir


def _files_digest(out_dir: Path) -> _Digest:
    digest = _Digest()
    for path in sorted(out_dir.iterdir()):
        if path.name != "metadata.json":
            digest.add(path.name, path.read_text())
    return digest


def cli_digests(seed: int) -> dict:
    """Command-line run name -> digest of the data files it writes."""
    shift = _shifts(seed, 2)
    hopf = {"problem": "mackey_glass", "mesh": 11, "degree": 8,
            "guess": {"kind": "hopf",
                      "amplitude": 0.01 * (1.0 + 0.1 * shift[0])}}
    tau = 0.95 + 0.004 * shift[0]
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        seed_path = work / "sdq_seed.json"
        seed_path.write_text(json.dumps(collocation.state_to_document(
            collocation.with_parameter(continuation.sd_quadratic_seed(0.95),
                                       0, tau))))
        sdq = {"problem": "sd_quadratic", "params": [tau],
               "guess": {"kind": "file", "path": str(seed_path)}}
        runs = {
            "cli_solve": ("solve", hopf),
            "cli_continue": ("continue", dict(
                hopf, p_to=0.6 + 0.01 * shift[1], steps=3)),
            "cli_convergence": ("convergence", dict(
                sdq, mesh_list=[10, 20], degree=[4, 6, 8, 10, 12]),
                "--jobs", "2"),
            "cli_solve_sdq": ("solve", dict(sdq, mesh=20, degree=12)),
        }
        for name, (command, config, *options) in runs.items():
            out[name] = _files_digest(
                _run_cli(work, name, command, config, *options))
        for solved, problem in (("cli_solve", "mackey_glass"),
                                ("cli_solve_sdq", "sd_quadratic")):
            name = f"cli_circle_map_{problem}"
            out[name] = _files_digest(_run_cli(
                work, name, "circle-map",
                {"problem": problem, "k_max": 5, "grid": 4000,
                 "solution": str(work / solved / "solution.json")}))
        for kind in semdde.NodeKind:
            name = f"cli_nodes_{kind.value}"
            out[name] = _files_digest(_run_cli(
                work, name, "nodes",
                {"node_kind": kind.value, "degree": [1, 2, 5, 16, 40],
                 "samples": 5000}))
        solved = json.loads((work / "cli_solve" / "result.json").read_text())
        out["cli_convergence_mg"] = _files_digest(_run_cli(
            work, "cli_convergence_mg", "convergence",
            {"problem": "mackey_glass", "params": solved["p"],
             "mesh_list": [1, 2, 5], "degree": [4, 6],
             "guess": {"kind": "file",
                       "path": str(work / "cli_solve" / "solution.json")}},
            "--jobs", "2"))
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dump", type=Path, metavar="DIR",
                        help="also write each digest's hashed items as "
                             "DIR/<name>.json")
    args = parser.parse_args()
    if args.dump:
        args.dump.mkdir(parents=True, exist_ok=True)
    for name, digest in {**digests(args.seed),
                         **cli_digests(args.seed)}.items():
        print(f"{name} {digest.hexdigest()}")
        if args.dump:
            (args.dump / f"{name}.json").write_text(json.dumps(digest.items))


if __name__ == "__main__":
    main()
