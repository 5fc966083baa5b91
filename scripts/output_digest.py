"""Print one sha256 per acceptance input, to show that a change keeps
every output bitwise.

The inputs are those of tests/test_acceptance.py, built from the library
alone: the Mackey-Glass branch (Hopf guess on L=11, m=8, then 20 steps
out to delay 1), the (L, m) table seeded from the branch end, both
sd_quadratic tables, the fine (20, 12) re-solve at delay 0.95 and the
circle map of that orbit (k=5, 4000 points).  Each digest covers the
states, periods, err, phi_defect, Newton iterations and failure messages
of its input, or the circle map's iterates and periodic points.  A seed
other than 0 shifts the continuous inputs (Hopf amplitude, delays) by a
bounded amount and keeps every (L, m) plan, with the shifts the
benchmark in perfbench/ uses for the same seed.  Run from the repository
root, once on each checkout to compare:

    PYTHONPATH=src python3 scripts/output_digest.py --seed 0
"""

import argparse
import hashlib
import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

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

    def add(self, *items) -> "_Digest":
        for item in items:
            if isinstance(item, str):
                data = item.encode()
            else:
                data = np.ascontiguousarray(item, dtype=float).tobytes()
            self._hash.update(len(data).to_bytes(8, "little") + data)
        return self

    def state(self, state) -> "_Digest":
        return self.add(state.flatten(), state.period)

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def _table_digest(table) -> str:
    digest = _Digest()
    for row in table.rows:
        digest.add(row.num_intervals, row.degree, row.err, row.phi_defect,
                   row.newton_iters, row.failure or "")
    return digest.hexdigest()


def _lag(y, p):
    return p[0] + y[..., 0] + y[..., 0] ** 2


def digests(seed: int) -> dict:
    """Input name -> sha256 of its outputs."""
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
    out["mg_branch"] = digest.hexdigest()

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
    out["sdq_fine"] = _Digest().state(fine.state).add(
        fine.iterations).hexdigest()

    circle = analysis.circle_map_analysis(
        analysis.orbit_lag_map(fine.state, _lag), 5, 4000)
    digest = _Digest().add(circle.kind, circle.times, circle.iterates)
    for pts in circle.periodic_points:
        digest.add(pts.iterate, pts.points, pts.derivatives,
                   pts.unstable.astype(float))
    out["circle_map"] = digest.hexdigest()
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    for name, value in digests(args.seed).items():
        print(f"{name} {value}")


if __name__ == "__main__":
    main()
