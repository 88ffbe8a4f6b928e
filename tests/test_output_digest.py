"""tools/output_digest.py, on which every bit-for-bit claim about vfie's
outputs rests: two runs print the same sha256 of every family."""

import os
import re
import subprocess
import sys

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "output_digest.py")
FAMILIES = [
    "assemble.A", "assemble.rhs", "solve.coeffs", "grid.points", "grid.weights", "grid.h",
    "evaluate_solution_many", "evaluate_solution_many.near_nodes",
    "evaluate_solution_many.branches", "evaluate_solution", "max_error", "self_check",
    "run_sweep.records", "inverse", "cli.bench",
]


def digest_lines():
    """The family lines of one run of the tool, with one BLAS thread."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, TOOL], capture_output=True, text=True, env=env,
                          timeout=300, check=True)
    return done.stdout.splitlines()


def test_two_runs_give_the_same_digest_of_every_family():
    first, second = digest_lines(), digest_lines()
    assert first == second
    families = [re.fullmatch(r"(\S+) ([0-9a-f]{64})", line) for line in first]
    assert all(families), first
    assert [m.group(1) for m in families] == FAMILIES
