"""Regenerate data/mg_branch_end.json, the orbit that seeds mg_convergence.

It is the last point of the mg_branch workload at seed 0, which is the
Mackey-Glass branch of tests/test_acceptance.py (Hopf guess on L=11,
m=8, 20 steps out to delay 1).  Run from the repository root:

    python3 perfbench/make_mg_branch_end.py
"""

import json
import os
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from semdde.collocation import state_to_document  # noqa: E402
from workloads import MG_BRANCH_END, MgBranch  # noqa: E402


def main() -> None:
    ops = MgBranch(0, None).ops()
    op = next(ops)
    try:
        while True:
            value = op.run()
            op = ops.send(True)
    except StopIteration:
        pass
    end = value[-1]
    MG_BRANCH_END.write_text(
        json.dumps(state_to_document(end.state), indent=2) + "\n")
    print(f"wrote {MG_BRANCH_END} (delay {end.parameter})")


if __name__ == "__main__":
    main()
