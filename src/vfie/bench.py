"""Built-in benchmark equations and the sweep / regression harness."""

import math
import operator
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import beta

from .solver import (DiscreteSolution, Problem, _residual, _sample, evaluate_solution_many,
                     grid_for, solve)
from .transforms import Interval, Method, TransformKind, _integer

__all__ = [
    "BuiltinExample",
    "SweepRecord",
    "FitError",
    "builtin",
    "max_error",
    "run_sweep",
    "emit_csv",
    "fit_rate",
    "self_check",
]

DEFAULT_N_LIST = (4, 8, 16, 24, 32, 48, 64, 96, 128)
CSV_HEADER = "method,example,N,h,max_error,elapsed_seconds"

# Records at or below this are indistinguishable from double-precision
# saturation and are excluded from rate regressions.
SATURATION_FLOOR = 1e-13


class FitError(ValueError):
    """Too few pre-saturation records to regress a decay rate."""


@dataclass(frozen=True)
class BuiltinExample:
    """One built-in equation together with its known exact solution.

    `exact` is always called with one Python float per call, whatever the
    problem's protocol: by `max_error` once per evaluation point per call,
    by `run_sweep` once per evaluation point per sweep and by `self_check`
    once per point it needs."""

    problem: Problem
    exact: Callable[[float], float]


@dataclass(frozen=True)
class SweepRecord:
    """One solved (method, N) pair of a convergence sweep.  `elapsed_seconds`
    covers the solve and the error evaluation, not the sweep's one sampling
    of the exact solution."""

    method: Method
    example: int
    N: int
    h: float
    max_error: float
    elapsed_seconds: float


# t·s in C: the bits of a Python `t * s`, without its frame on each of 2n² calls per assembly.
_kernel_ts = operator.mul


def _g1(t):
    return (2.0 / 3.0) * t - (1.0 / 3.0) * t ** 4


def _u1(t):
    return t


def _k1_power(t, s):
    # s^(t + 1/2) on [0, 1] as one pow on the exact t, a correctly rounded
    # sqrt and one product: within a few ulp, where exp((t + 1/2) log s)
    # scales the rounding of log s by (t + 1/2)|log s|, about 1e3 at the
    # tanh-sinh nodes near 0.  No guard is needed at s = 0, which de-new's
    # nodes reach (4 at N = 96, 11 at N = 128): 0.0 ** t * 0.0 is 0.0 for
    # every t >= 0, t = 0 included.  Like the other callables of example 2
    # it takes arrays, where numpy's power may differ from the scalar pow
    # by an ulp or two.
    return s ** t * np.sqrt(s)


def _k2_power(t, s):
    return (1.0 - s) ** t


def _g2(t):
    return np.sqrt(t) - t ** (t + 2.0) / (t + 2.0) - beta(1.5, t + 1.0)


def _u2(t):
    return math.sqrt(t)


def builtin(example_id: int) -> BuiltinExample:
    """The two built-in benchmark equations, both on [0, 1].

    1: k1 = k2 = t s (operator.mul, called one point at a time),
       g = (2/3) t - (1/3) t^4, solution u(t) = t;
       smooth everywhere, alpha = 1.
    2: k1 = s^(t+1/2), computed as s^t sqrt(s) to within a few ulp,
       k2 = (1-s)^t, g = sqrt(t) - t^(t+2)/(t+2) - B(3/2, t+1), with B
       from scipy.special.beta, solution u(t) = sqrt(t);
       square-root behaviour at the left endpoint, alpha = 1/2.
       Its k1, k2 and g take arrays (`Problem.vectorized`); the exact
       solution is scalar.
    Both use strip half-widths 3.14 (tanh map) and 1.57 (tanh-sinh map).

    Against mpmath, example 2's k1 is within 1.8 ulp on every node pair of
    the de-new and se-new grids at N = 64, called on Python floats (libm's
    pow) and on arrays (numpy's power) alike.  Over the
    grids of `vfie bench --method all` at the default N list, 4.7 % of
    example 2's k1, k2 and g samples on arrays differ from those on
    floats, by at most 2 ulp.
    """
    iv = Interval(0.0, 1.0)
    if example_id == 1:
        problem = Problem(iv=iv, k1=_kernel_ts, k2=_kernel_ts, g=_g1,
                          alpha=1.0, d_se=3.14, d_de=1.57)
        return BuiltinExample(problem=problem, exact=_u1)
    if example_id == 2:
        problem = Problem(iv=iv, k1=_k1_power, k2=_k2_power, g=_g2,
                          alpha=0.5, d_se=3.14, d_de=1.57, vectorized=True)
        return BuiltinExample(problem=problem, exact=_u2)
    raise ValueError(f"unknown example id {example_id} (choose 1 or 2)")


# the name and lower bound of `_integer`'s rule for the error-grid size,
# whose grid holds both endpoints
_EVAL_POINTS_RULE = ("the number of evaluation points", 2)


def _exact_on_grid(exact, iv: Interval, M: int):
    """The M equispaced error points of iv, endpoints included, and `exact` there."""
    ts = np.linspace(iv.a, iv.b, _integer(M, *_EVAL_POINTS_RULE))
    return ts, _sample(exact, "u", ts)


def _sup_error(sol: DiscreteSolution, ts, exact_values) -> float:
    """max |u(t) - u_N(t)| over the points ts, given u's values there."""
    return float(np.max(np.abs(exact_values - evaluate_solution_many(sol, ts))))


def max_error(sol: DiscreteSolution, exact, M: int) -> float:
    """Largest pointwise deviation from `exact` over M equispaced points,
    endpoints included.  `exact` is sampled like the kernels, one Python
    float at a time, so a bad value of it raises AssemblyError."""
    return _sup_error(sol, *_exact_on_grid(exact, sol.grid.iv, M))


def _check_n_list(n_list):
    """The sweep's N list as Python ints: nonempty, each N as `solve` takes
    it, strictly increasing."""
    n_list = [_integer(N, "N", 1) for N in n_list]
    if not n_list:
        raise ValueError("n_list must be nonempty")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError(f"n_list must be strictly increasing, got {n_list}")
    return n_list


def run_sweep(example_id: int, method: Method, n_list, eval_points: int = 4096):
    """Solve the example at each N of the (strictly increasing) list and
    measure the sup error on the evaluation grid; one record per N.

    The exact solution is sampled once per call, on the one grid of
    `eval_points` points that every record shares, before the first solve,
    so a bad value of it is refused before any kernel call.  A record's
    `elapsed_seconds` covers its solve and its error evaluation, not that
    sampling."""
    n_list = _check_n_list(n_list)
    example = builtin(example_id)
    ts, exact_values = _exact_on_grid(example.exact, example.problem.iv, eval_points)
    records = []
    for N in n_list:
        start = time.perf_counter()
        sol = solve(example.problem, method, N)
        err = _sup_error(sol, ts, exact_values)
        elapsed = time.perf_counter() - start
        records.append(SweepRecord(method=method, example=example_id, N=N,
                                   h=sol.grid.h, max_error=err,
                                   elapsed_seconds=elapsed))
    return records


def emit_csv(records, path) -> None:
    """Write sweep records as CSV.

    Format contract: header `method,example,N,h,max_error,elapsed_seconds`,
    LF line endings, max_error in scientific notation with 15 significant
    digits, h and elapsed_seconds in shortest round-trip form.
    `path` names the file to write.
    """
    lines = [CSV_HEADER]
    for r in records:
        lines.append(
            f"{r.method.value},{r.example},{r.N},{r.h!r},"
            f"{r.max_error:.14e},{r.elapsed_seconds!r}"
        )
    text = "\n".join(lines) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _rate_model(method: Method) -> str:
    """The decay model fitted to a method's sweep, the one the paper proves for
    its transform: "se" for the tanh methods, "de" for the tanh-sinh ones."""
    return "se" if method.transform is TransformKind.SE else "de"


def fit_rate(records):
    """Least-squares decay rate of one method's sweep: returns (slope, r_squared).

    The model follows from the records' method.  "se" fits
    log(err) - (1/2) log(N) against sqrt(N): a clean C sqrt(N) exp(-c sqrt(N))
    decay recovers slope -c exactly.  "de" fits log(err) against 1/h, which
    under the de-new mesh rule equals N/log(2 d N / alpha) (and the analogous
    ratio for the baseline rule), so exp(-c N / log(...)) decay shows slope -c.
    Records of more than one method raise ValueError.  Only finite errors
    above the saturation floor (1e-13) are used; with fewer than four,
    FitError is raised.  `vfie bench --fit` prints this fit for each method.
    """
    methods = {r.method for r in records}
    if len(methods) > 1:
        raise ValueError(f"records of one method expected, got {sorted(m.value for m in methods)}")
    usable = [r for r in records if SATURATION_FLOOR < r.max_error < math.inf]
    if len(usable) < 4:
        raise FitError(
            f"need at least 4 finite records above {SATURATION_FLOOR:g}, have {len(usable)}"
        )
    if _rate_model(usable[0].method) == "se":
        xs = np.array([math.sqrt(r.N) for r in usable])
        ys = np.array([math.log(r.max_error) - 0.5 * math.log(r.N) for r in usable])
    else:
        xs = np.array([1.0 / r.h for r in usable])
        ys = np.array([math.log(r.max_error) for r in usable])
    design = np.vstack([xs, np.ones_like(xs)]).T
    coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
    fitted = design @ coef
    ss_res = float(((ys - fitted) ** 2).sum())
    ss_tot = float(((ys - ys.mean()) ** 2).sum())
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(coef[0]), r_squared


def self_check(example: BuiltinExample) -> float:
    """Largest residual of the exact solution substituted into the
    discretized equation (tanh-sinh rules at index 48) over 33 equispaced
    probe points.  Validates the transcription of k1, k2 and g; anything
    above ~1e-8 indicates a broken example definition.  k1, k2 and g are
    called by the problem's protocol on the 33 probe points, the exact
    solution one point per call; a non-finite value of any of them raises
    AssemblyError.
    """
    problem = example.problem
    iv = problem.iv
    grid = grid_for(problem, Method.NEW_DE, 48)
    residual = _residual(problem, grid, example.exact, np.linspace(iv.a, iv.b, 33))
    return float(np.max(np.abs(residual)))
