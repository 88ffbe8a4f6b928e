"""Regenerate references.json: the error of every (example, method, N) the
benchmark solves, on the 4096-point grid and over the dense reference set
of accuracy.py.

    python3 perfbench/make_references.py

Run it only on a commit whose accuracy is the intended reference; the
benchmark's accuracy gate compares every later commit against this file.
Takes about a minute on one core.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

import vfie  # noqa: E402
from accuracy import REFERENCES, reference_points  # noqa: E402
from workloads import EVAL_POINTS, REFERENCE_CONFIGS  # noqa: E402

CHUNK = 4096


def sup_error(sol, exact):
    iv = sol.grid.iv
    pts = reference_points(iv.a, iv.b)
    worst = 0.0
    for lo in range(0, len(pts), CHUNK):
        ts = pts[lo:lo + CHUNK]
        got = vfie.evaluate_solution_many(sol, ts)
        want = np.array([exact(float(t)) for t in ts])
        worst = max(worst, float(np.max(np.abs(got - want))))
    return worst


def main():
    entries = []
    for example, method, N in REFERENCE_CONFIGS:
        ex = vfie.builtin(example)
        sol = vfie.solve(ex.problem, method, N)
        grid = vfie.max_error(sol, ex.exact, EVAL_POINTS)
        err = sup_error(sol, ex.exact)
        entries.append({"example": example, "method": method.value, "N": N,
                        "grid_error": grid, "sup_error": err})
        print(f"example {example} {method.value:15s} N={N:4d} grid error {grid:.6e} "
              f"sup error {err:.6e}", flush=True)
    with open(REFERENCES, "w") as fh:
        json.dump({"reference_set": "accuracy.reference_points", "references": entries},
                  fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
