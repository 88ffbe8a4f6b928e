"""Print one sha256 per family of vfie outputs, so that two checkouts can be
compared bit for bit:

    python3 tools/output_digest.py > change.txt
    python3 tools/output_digest.py /path/to/other/checkout > parent.txt
    diff parent.txt change.txt

The optional argument is the root of the source checkout whose ./src is
imported (default: the checkout holding this script).  A checkout from
before the assemblers returned their grid, and so `assemble_new` every
method, is digested with its own copy of this script instead:
`python3 /path/to/other/checkout/tools/output_digest.py`.  BLAS is pinned
to one thread before numpy is imported, because the coefficients of a
solve differ in their last bits between BLAS thread counts.

Families: A and rhs of `assemble_new` for every method; the coefficients
of `solve`; the grid's points, weights and h; `evaluate_solution_many` on
4096 equispaced, 1000 seeded random, the nodal and the endpoint points,
and, as a family of its own, on the float neighbours and the +-1e-13
neighbours of every node, and, as another, on one shuffled batch that
takes every branch of evaluation: the nodes, some of them twice, some
node neighbours, off-node points with an integral u = x/h, random points
and the endpoints;
`evaluate_solution` on some of those points; on the SE grids (se-new and
se-shamloo), as `evaluate_solution.beyond_table`, both calls on points
whose cell k = rint(x/h) lies beyond the Taylor table, |k| > N + K:
t = 5e-324, 1e-300, 1e-200, 1e-100 and the image of x = -(N + K + 3/4)h;
`max_error`; `self_check` of
both examples; h and max_error of each record of `run_sweep` over
N = 4, 16, 64 with 4096 error points; `inverse` on random points, the
endpoints and offsets L*10^k from each end, for every transform on two
intervals; and, as `cli.bench`, the stdout of `vfie bench --method all
--eval-points 4096 --self-check --fit` on each example, its --out path
replaced by a fixed token, with that run's CSV less its elapsed_seconds
column.  Both examples, all four methods, N = 4, 16, 64, 128, 256.
`condition_hint` is left out: it is an estimate whose last digits depend
on the BLAS thread count.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402

from integral_u import integral_u_points  # noqa: E402

N_LIST = (4, 16, 64, 128, 256)
SWEEP_N_LIST = (4, 16, 64)


class Digests:
    """One running sha256 per family, fed in a fixed order."""

    def __init__(self):
        self._hashes = {}

    def add(self, family, values):
        arr = np.ascontiguousarray(np.asarray(values, dtype=float))
        h = self._hashes.setdefault(family, hashlib.sha256())
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())

    def add_text(self, family, text):
        h = self._hashes.setdefault(family, hashlib.sha256())
        h.update(repr(len(text)).encode())
        h.update(text.encode())

    def lines(self):
        return [f"{family} {h.hexdigest()}" for family, h in self._hashes.items()]


def configurations(vfie):
    """(example, method, N) in a fixed order."""
    for example_id in (1, 2):
        for method in vfie.Method:
            for N in N_LIST:
                yield example_id, method, N


def solver_families(vfie, out):
    for example_id, method, N in configurations(vfie):
        example = vfie.builtin(example_id)
        A, rhs, _ = vfie.assemble_new(example.problem, method, N)
        out.add("assemble.A", A)
        out.add("assemble.rhs", rhs)
        sol = vfie.solve(example.problem, method, N)
        out.add("solve.coeffs", sol.coeffs)
        grid = sol.grid
        out.add("grid.points", grid.points)
        out.add("grid.weights", grid.weights)
        out.add("grid.h", [grid.h])
        iv = grid.iv
        rng = np.random.default_rng(1000 * example_id + N)
        randoms = rng.uniform(iv.a, iv.b, 1000)
        endpoints = np.array([iv.a, iv.b, iv.a])
        for ts in (np.linspace(iv.a, iv.b, 4096), randoms, grid.points, endpoints):
            out.add("evaluate_solution_many", vfie.evaluate_solution_many(sol, ts))
        p = grid.points
        near = np.concatenate([np.nextafter(p, -np.inf), np.nextafter(p, np.inf),
                               p - 1e-13, p + 1e-13])
        near = near[(near >= iv.a) & (near <= iv.b)]
        out.add("evaluate_solution_many.near_nodes", vfie.evaluate_solution_many(sol, near))
        branches = np.concatenate([p, p[::7], near[::5], integral_u_points(vfie.inverse, grid),
                                   randoms[:200], endpoints])
        shuffled = np.random.default_rng(N).permutation(branches)
        out.add("evaluate_solution_many.branches", vfie.evaluate_solution_many(sol, shuffled))
        singles = np.concatenate([randoms[:24], grid.points[::max(1, grid.n // 24)], endpoints])
        out.add("evaluate_solution", [vfie.evaluate_solution(sol, float(t)) for t in singles])
        if grid.kind is vfie.TransformKind.SE:
            edge = N + vfie.approx._MARGIN
            beyond = np.array([5e-324, 1e-300, 1e-200, 1e-100,
                               vfie.forward(grid.kind, iv, -(edge + 0.75) * grid.h)])
            out.add("evaluate_solution.beyond_table", vfie.evaluate_solution_many(sol, beyond))
            out.add("evaluate_solution.beyond_table",
                    [vfie.evaluate_solution(sol, t) for t in beyond.tolist()])
        out.add("max_error", [vfie.max_error(sol, example.exact, 4096)])
    for example_id in (1, 2):
        out.add("self_check", [vfie.self_check(vfie.builtin(example_id))])
        for method in vfie.Method:
            records = vfie.run_sweep(example_id, method, SWEEP_N_LIST, 4096)
            out.add("run_sweep.records", [(r.h, r.max_error) for r in records])


def inverse_family(vfie, out):
    rng = np.random.default_rng(7)
    for kind in vfie.TransformKind:
        for a, b in ((0.0, 1.0), (-3.0, 7.5)):
            iv = vfie.Interval(a, b)
            offsets = (b - a) * 10.0 ** np.arange(-20.0, 0.0, 0.25)
            ts = np.concatenate([rng.uniform(a, b, 3500), [a, b], a + offsets, b - offsets])
            out.add("inverse", vfie.inverse(kind, iv, ts))


def cli_bench_family(vfie, out):
    for example_id in (1, 2):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "sweep.csv")
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = vfie.cli.main(["bench", "--example", str(example_id), "--method", "all",
                                      "--eval-points", "4096", "--out", path,
                                      "--self-check", "--fit"])
            out.add_text("cli.bench", f"exit {code}\n" + stdout.getvalue().replace(path, "<OUT>"))
            with open(path, newline="") as fh:
                rows = [line.split(",") for line in fh.read().split("\n")]
        drop = rows[0].index("elapsed_seconds")
        out.add_text("cli.bench", "\n".join(",".join(r[:drop] + r[drop + 1:]) for r in rows))


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    root = argv[0] if argv else os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(os.path.abspath(root), "src"))
    import vfie.cli

    print(f"vfie from {os.path.dirname(vfie.__file__)}", file=sys.stderr)
    out = Digests()
    solver_families(vfie, out)
    inverse_family(vfie, out)
    cli_bench_family(vfie, out)
    print("\n".join(out.lines()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
