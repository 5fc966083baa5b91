"""Print one sha256 per acceptance input and per command-line run, to
show that a change keeps every output bitwise.

The inputs are those of tests/test_acceptance.py, built from the library
alone: the Mackey-Glass branch (Hopf guess on L=11, m=8, then 20 steps
out to delay 1), the same guess on L=10, m=8, where the 10001- and
2001-point grids tile the mesh, and 5 steps of the first quarter of that
way (``mg_branch_tiling``), the (L, m) table seeded from the branch end, both
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
whose digests differ can be compared number by number:

    python3 scripts/output_digest.py --compare DUMP_A DUMP_B

prints, for each convergence table (the in-process tables and the
``convergence.csv`` of the command-line runs), how many cells moved
their err or phi_defect, the largest relative move, the cells with err
>= 1e-10 that moved by more than 1e-6 relative, whether the largest
phi_defect, the Newton iteration counts and the failures match; and for
every other digest whether its items are the same.
"""

import argparse
import csv
import hashlib
import json
import math
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


def _branch(prob, amplitude: float, L: int, p_end: float, steps: int,
            parts: int = 1):
    """``(digest, points)`` of the Mackey-Glass Hopf guess on (L, 8),
    solved, then continued in ``steps`` steps over the first 1 / parts
    of the way to p_end."""
    guess = continuation.hopf_initial_guess(
        continuation.mackey_glass_hopf(), amplitude,
        piecewise.Mesh.uniform(L), 8)
    cons = collocation.default_constraints(prob, guess.params)
    start = collocation.newton_solve(guess, prob, cons)
    p_from = float(start.state.params[0])
    points = continuation.continue_branch(
        start.state, prob, p_from,
        p_end if parts == 1 else p_from + (p_end - p_from) / parts, steps)
    digest = _Digest().state(start.state).add(start.iterations)
    for point in points:
        digest.state(point.state).add(point.parameter, point.amplitude,
                                      point.period, point.err,
                                      point.newton_iters, point.phi_defect)
    return digest, points


def digests(seed: int) -> dict:
    """Input name -> digest of its outputs."""
    out = {}
    shift = _shifts(seed, 2)

    prob = problems.mackey_glass()
    amplitude, p_end = 0.01 * (1.0 + 0.1 * shift[0]), 1.0 + 0.01 * shift[1]
    out["mg_branch"], points = _branch(prob, amplitude, 11, p_end, 20)
    # (10, 8): both dense grids tile the mesh, and every branch point asks
    # for them again; the first quarter of the same schedule
    out["mg_branch_tiling"], _ = _branch(prob, amplitude, 10, p_end, 5, 4)

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


#: the items ``_table_digest`` hashes per cell: L, m, err, phi_defect and
#: Newton iterations, each dumped as a one-element list, and the failure
#: message ("" for none)
_CELL_ITEMS = 6


def _table_rows(items):
    """The cells of a dumped convergence table, each ``(L, m, err,
    phi_defect, newton_iters, failure)``, or None for another digest."""
    if "convergence.csv" in items[::2]:  # a command-line run's files
        text = items[items.index("convergence.csv") + 1]
        reader = csv.reader(line for line in text.splitlines()
                            if not line.startswith("#"))
        next(reader)  # the header
        return [(int(L), int(m), float(err or "nan"),
                 float(phi or "nan"), iters, failure)
                for L, m, err, phi, iters, failure in reader]
    cells = [items[i:i + _CELL_ITEMS]
             for i in range(0, len(items), _CELL_ITEMS)]
    if not cells or any(
            len(cell) != _CELL_ITEMS or not isinstance(cell[5], str)
            or not all(isinstance(x, list) and len(x) == 1
                       for x in cell[:5])
            for cell in cells):
        return None
    return [(int(cell[0][0]), int(cell[1][0]), cell[2][0], cell[3][0],
             int(cell[4][0]), cell[5]) for cell in cells]


def _moved(a: float, b: float) -> float:
    """Relative move from a to b: 0 when equal (NaN included)."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(b - a) / abs(a) if a != 0.0 else math.inf


def _compare_tables(old, new) -> str:
    if [cell[:2] for cell in old] != [cell[:2] for cell in new]:
        return "the (L, m) plans differ"
    moves = [(_moved(a[2], b[2]), _moved(a[3], b[3])) for a, b in
             zip(old, new)]
    largest = max(max(pair) for pair in moves)
    big = [f"({a[0]}, {a[1]}) {err:.1e}" for a, (err, _) in zip(old, moves)
           if a[2] >= 1e-10 and err > 1e-6]
    phi_max = [max((cell[3] for cell in table if not math.isnan(cell[3])),
                   default=math.nan) for table in (old, new)]

    def same(k):
        return "same" if [a[k] for a in old] == [b[k] for b in new] \
            else "DIFFER"

    return (f"{len(old)} cells; err moved in "
            f"{sum(err > 0 for err, _ in moves)}, phi_defect in "
            f"{sum(phi > 0 for _, phi in moves)}; largest relative move "
            f"{largest:.2e}; err >= 1e-10 moved > 1e-6 relative: "
            f"{', '.join(big) or 'none'}; largest phi_defect "
            f"{'same' if _moved(*phi_max) == 0.0 else 'DIFFERS'} "
            f"({phi_max[0]:.3e} -> {phi_max[1]:.3e}); newton_iters "
            f"{same(4)}; failures {same(5)}")


def compare(dump_a: Path, dump_b: Path) -> None:
    """Print, digest by digest, how the dump in ``dump_b`` differs from
    the one in ``dump_a``."""
    names = sorted({path.stem for path in dump_a.glob("*.json")}
                   | {path.stem for path in dump_b.glob("*.json")})
    for name in names:
        paths = [dump / f"{name}.json" for dump in (dump_a, dump_b)]
        if not all(path.exists() for path in paths):
            print(f"{name}: only in "
                  f"{dump_a if paths[0].exists() else dump_b}")
            continue
        old, new = (json.loads(path.read_text()) for path in paths)
        rows = [_table_rows(items) for items in (old, new)]
        if old == new:
            print(f"{name}: same")
        elif None not in rows:
            print(f"{name}: {_compare_tables(*rows)}")
        else:
            print(f"{name}: differs")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dump", type=Path, metavar="DIR",
                        help="also write each digest's hashed items as "
                             "DIR/<name>.json")
    parser.add_argument("--compare", type=Path, nargs=2,
                        metavar=("DUMP_A", "DUMP_B"),
                        help="compare two --dump directories instead")
    args = parser.parse_args()
    if args.compare:
        compare(*args.compare)
        return
    if args.dump:
        args.dump.mkdir(parents=True, exist_ok=True)
    for name, digest in {**digests(args.seed),
                         **cli_digests(args.seed)}.items():
        print(f"{name} {digest.hexdigest()}")
        if args.dump:
            (args.dump / f"{name}.json").write_text(json.dumps(digest.items))


if __name__ == "__main__":
    main()
