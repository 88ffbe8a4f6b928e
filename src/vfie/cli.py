"""Command-line front end: `vfie bench` and `vfie solve`.

Exit codes: 0 success, 2 usage error, 3 numerical failure (a singular
collocation matrix or a failed self-check), 4 I/O error.

A ValueError from the library, `AssemblyError` included, is a usage
error.  `vfie bench` reads `--n-list` and `--eval-points` through the
sweep's own rules (each N an integer >= 1, strictly increasing; an
integer of at least 2 evaluation points), and `vfie solve` refuses an
`--at` outside [a, b], NaN included, so a bad value exits with code 2
before any work; `vfie bench` writes its CSV (`emit_csv`) only after
every sweep has run.
"""

import argparse
import sys

from .bench import (
    DEFAULT_N_LIST,
    _EVAL_POINTS_RULE,
    FitError,
    _check_n_list,
    _rate_model,
    builtin,
    emit_csv,
    fit_rate,
    run_sweep,
    self_check,
)
from .solver import SingularMatrixError, evaluate_solution, solve
from .transforms import Method, _check_point, _integer

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

SELF_CHECK_TOL = 1e-8


def _argument(parse, what, check):
    """An argparse type that reads the text with `parse` and refuses what
    `check`, the library's own rule, refuses: either ValueError is a usage
    error, raised before any work."""
    def convert(text):
        try:
            value = parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not {what}: {text!r}")
        try:
            return check(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))
    return convert


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vfie",
        description="Sinc-collocation solvers for linear Volterra-Fredholm "
                    "integral equations of the second kind.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser("bench", help="run a convergence sweep and emit CSV")
    bench.add_argument("--example", type=int, choices=(1, 2), required=True,
                       help="built-in example id")
    bench.add_argument("--method", required=True,
                       choices=[m.value for m in Method] + ["all"],
                       help="solver flavour, or 'all'")
    bench.add_argument("--n-list", default=DEFAULT_N_LIST,
                       type=_argument(lambda text: [int(part) for part in text.split(",")],
                                      "a comma-separated integer list", _check_n_list),
                       metavar="N1,N2,...",
                       help="strictly increasing truncation indices "
                            f"(default {','.join(map(str, DEFAULT_N_LIST))})")
    bench.add_argument("--eval-points", default=4096,
                       type=_argument(int, "an integer", lambda M: _integer(M, *_EVAL_POINTS_RULE)),
                       help="equispaced error-grid size (default 4096)")
    bench.add_argument("--out", required=True, help="CSV destination path")
    bench.add_argument("--self-check", action="store_true",
                       help="verify the exact solution satisfies the equation first")
    bench.add_argument("--fit", action="store_true",
                       help="print decay-rate regressions after the sweep")

    solve_cmd = sub.add_parser("solve", help="solve once and print the value at a point")
    solve_cmd.add_argument("--example", type=int, choices=(1, 2), required=True)
    solve_cmd.add_argument("--method", required=True,
                           choices=[m.value for m in Method])
    solve_cmd.add_argument("--n", type=int, required=True, help="truncation index N")
    solve_cmd.add_argument("--at", type=float, required=True,
                           help="evaluation point t in [a, b]")
    return parser


def _run_bench(args) -> int:
    example = builtin(args.example)
    if args.self_check:
        worst = self_check(example)
        print(f"self-check example {args.example}: max residual {worst:.3e}")
        if not worst <= SELF_CHECK_TOL:
            print(f"vfie: self-check failed (residual above {SELF_CHECK_TOL:g})",
                  file=sys.stderr)
            return EXIT_NUMERICAL
    methods = list(Method) if args.method == "all" else [Method(args.method)]
    records = []
    for method in methods:
        records.extend(run_sweep(args.example, method, args.n_list, args.eval_points))
    emit_csv(records, args.out)
    print(f"wrote {len(records)} records to {args.out}")
    if args.fit:
        for method in methods:
            subset = [r for r in records if r.method is method]
            try:
                slope, r_squared = fit_rate(subset)
            except FitError as exc:
                print(f"{method.value}: fit unavailable ({exc})")
                continue
            print(f"{method.value}: {_rate_model(method)}-model slope {slope:.4f} "
                  f"(r^2 {r_squared:.4f})")
    return EXIT_OK


def _run_solve(args) -> int:
    example = builtin(args.example)
    _check_point(example.problem.iv, args.at)
    sol = solve(example.problem, Method(args.method), args.n)
    print(repr(evaluate_solution(sol, args.at)))
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "bench":
            return _run_bench(args)
        return _run_solve(args)
    except SingularMatrixError as exc:
        print(f"vfie: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"vfie: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"vfie: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
