"""Regenerate the shipped starting orbits for the state-dependent example.

Traces the branch of the quadratic-delay problem down from its
oscillation onset at delay pi/2, re-converges the orbits at delays 0.95
and 1.1 on a fine 100-interval degree-6 mesh, downsamples them to the
coarse 12-interval degree-5 mesh, and writes
src/semdde/data/sd_quadratic_seed.json.  Also re-checks that the circle
map of the 0.95 orbit has five unstable fixed points of its fifth
iterate before writing anything.
"""

import json
import sys
from pathlib import Path

import numpy as np

from semdde.analysis import circle_map_analysis, err_and_amplitude, \
    orbit_lag_map
from semdde.collocation import (
    default_constraints,
    newton_solve,
    resample_state,
    state_to_document,
)
from semdde.continuation import continue_branch, hopf_initial_guess
from semdde.piecewise import FORMAT_VERSION, Mesh
from semdde.problems import sd_quadratic

COARSE_L, COARSE_M = 12, 5
FINE_L, FINE_M = 100, 6
TARGETS = (1.1, 0.95)


def main() -> int:
    prob = sd_quadratic()
    onset = prob.onset
    tau_hopf = onset.tau_hopf
    print(f"onset: tau={tau_hopf:.12f} (pi/2={np.pi / 2:.12f}), "
          f"omega={onset.omega}")

    # the branch is subcritical: orbits exist below the onset delay and
    # small-amplitude guesses fall back to the equilibrium, so start a
    # finite distance down with a finite amplitude
    mesh = Mesh.uniform(COARSE_L)
    guess = hopf_initial_guess(onset, 0.2, mesh, COARSE_M,
                               offset=1.55 - tau_hopf)
    cons = default_constraints(prob, guess.params)
    start = newton_solve(guess, prob, cons).state
    print(f"start orbit at tau={guess.params[0]:.6f}, T={start.period:.6f}")

    refined = {}
    coarse = {}
    current, current_p = start, float(guess.params[0])
    for target in TARGETS:
        branch = continue_branch(current, prob, current_p, target, 20)
        current, current_p = branch[-1].state, target
        print(f"tau={target}: coarse T={current.period:.6f} "
              f"amp={branch[-1].amplitude:.4f} err={branch[-1].err:.2e}")
        fine_init = resample_state(current, Mesh.uniform(FINE_L), FINE_M)
        fine_cons = default_constraints(prob, fine_init.params)
        fine = newton_solve(fine_init, prob, fine_cons).state
        print(f"  fine T={fine.period:.9f} "
              f"err={err_and_amplitude(fine, prob)[0]:.2e}")
        refined[target] = fine
        coarse[target] = resample_state(fine, mesh, COARSE_M)

    lag = orbit_lag_map(refined[0.95], prob.lag)
    result = circle_map_analysis(lag, 5, 4000)
    fifth = result.periodic_points[4]
    unstable = int(np.sum(fifth.unstable))
    print(f"fifth iterate at tau=0.95: {fifth.points.size} isolated fixed "
          f"points, {unstable} unstable, at {np.round(fifth.points, 4)}")
    print(f"  derivatives {np.round(fifth.derivatives, 3)}")
    if unstable != 5:
        print("expected 5 unstable fixed points; not writing the seed file")
        return 1

    out = Path(__file__).resolve().parents[1] \
        / "src" / "semdde" / "data" / "sd_quadratic_seed.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "format_version": FORMAT_VERSION,
        "states": {f"{tau:g}": state_to_document(coarse[tau])
                   for tau in TARGETS},
    }
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
