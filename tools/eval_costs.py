"""Per-N costs of evaluating a solution, on one BLAS thread:

    python3 tools/eval_costs.py [ROOT] [--n-list 4,8,16,32,64,128,256,512] [--repeats 5]

ROOT is the source checkout whose ./src is imported (default: the one
holding this script), so that two checkouts can be set side by side.
For each N, example 2 is solved once by de-new, and three costs are
timed: the interpolant build (`approximate` on the grid and the nodal
values, best of 15), one `evaluate_solution_many` call on 4096 seeded
random points (best of 25) and one `evaluate_solution` point query (a
pass over 200 seeded random points, per point, best of 9).  The rounds
run over every N in turn, --repeats times, and each cost keeps its
lowest time over the rounds, so that a slow phase of a shared host falls
on all N alike.  The result is a Markdown table, one row per N.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

N_LIST = (4, 8, 16, 32, 64, 128, 256, 512)
CALL_POINTS = 4096
QUERY_POINTS = 200


def best_time(f, count):
    """The lowest of `count` wall times of f(), in seconds."""
    best = float("inf")
    for _ in range(count):
        start = time.perf_counter()
        f()
        best = min(best, time.perf_counter() - start)
    return best


def costs(vfie, sol, rng):
    """(build ms, call ms, query us) of one round for the solution `sol`."""
    iv = sol.grid.iv
    calls = rng.uniform(iv.a, iv.b, CALL_POINTS)
    queries = rng.uniform(iv.a, iv.b, QUERY_POINTS).tolist()

    def query_pass():
        for t in queries:
            vfie.evaluate_solution(sol, t)

    return (best_time(lambda: vfie.approximate(sol.grid, sol.coeffs), 15) * 1e3,
            best_time(lambda: vfie.evaluate_solution_many(sol, calls), 25) * 1e3,
            best_time(query_pass, 9) / QUERY_POINTS * 1e6)


def table(vfie, n_list, repeats):
    """{N: (build ms, call ms, query us)}, each the lowest over `repeats`
    rounds over every N."""
    problem = vfie.builtin(2).problem
    solutions = {N: vfie.solve(problem, vfie.Method.NEW_DE, N) for N in n_list}
    best = {N: (float("inf"),) * 3 for N in n_list}
    for _ in range(repeats):
        for N in n_list:
            row = costs(vfie, solutions[N], np.random.default_rng(N))
            best[N] = tuple(map(min, best[N], row))
    return best


def n_list(text):
    """The N values of --n-list, comma-separated integers."""
    return [int(n) for n in text.split(",")]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root", nargs="?",
                        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        help="root of the source checkout to import (default: this one)")
    parser.add_argument("--n-list", type=n_list, default=",".join(map(str, N_LIST)),
                        help="comma-separated N values (default: %(default)s)")
    parser.add_argument("--repeats", type=int, default=5, help="rounds over every N (default: 5)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    return args


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    sys.path.insert(0, os.path.join(os.path.abspath(args.root), "src"))
    import vfie

    print(f"vfie from {os.path.dirname(vfie.__file__)}", file=sys.stderr)
    print("| N | build, ms | call, ms | query, us |")
    print("|---|---|---|---|")
    for N, (build, call, query) in table(vfie, args.n_list, args.repeats).items():
        print(f"| {N} | {build:.3f} | {call:.3f} | {query:.2f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
