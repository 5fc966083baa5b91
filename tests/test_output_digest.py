"""Smoke test of ``scripts/output_digest.py``, the check that a change
keeps every output bitwise: it runs and prints one digest per input and
per command-line run, in order.  The hash values are not pinned here; a
change compares them against its parent's run of the same script."""

import os
import re
import subprocess
import sys
from pathlib import Path

import semdde

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "output_digest.py"

DIGEST_NAMES = [
    "mg_branch", "mg_branch_tiling", "mg_table", "sdq_table_0.95",
    "sdq_table_1.1", "sdq_fine", "circle_map", "cli_solve",
    "cli_continue", "cli_convergence", "cli_solve_sdq",
    "cli_circle_map_mackey_glass", "cli_circle_map_sd_quadratic",
    "cli_nodes_gauss_legendre", "cli_nodes_chebyshev_gauss",
    "cli_nodes_chebyshev_lobatto", "cli_nodes_equidistant",
    "cli_convergence_mg",
]


def test_the_digest_script_prints_every_digest_in_order():
    package_root = os.path.dirname(os.path.dirname(semdde.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(SCRIPT), "--seed", "0"],
                          capture_output=True, text=True, env=env,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(" ")[0] for line in lines] == DIGEST_NAMES
    assert all(re.fullmatch(r"\S+ [0-9a-f]{64}", line) for line in lines)
