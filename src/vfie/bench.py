"""Built-in benchmark equations and the sweep / regression harness."""

import math
import time
from dataclasses import dataclass
from enum import Enum, unique
from typing import Callable

import numpy as np

from .approx import build_grid, indefinite, quadrature
from .solver import DiscreteSolution, Problem, evaluate_solution_many, solve
from .special import beta
from .transforms import Interval, Method

__all__ = [
    "BuiltinExample",
    "SweepRecord",
    "RateModel",
    "FitError",
    "builtin",
    "max_error",
    "run_sweep",
    "emit_csv",
    "fit_rate",
    "self_check",
    "DEFAULT_N_LIST",
    "CSV_HEADER",
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
    """One built-in equation together with its known exact solution."""

    id: int
    problem: Problem
    exact: Callable[[float], float]


@dataclass(frozen=True)
class SweepRecord:
    """One solved (method, N) pair of a convergence sweep."""

    method: Method
    example: int
    N: int
    h: float
    max_error: float
    elapsed_seconds: float


def _kernel_ts(t, s):
    return t * s


def _g1(t):
    return (2.0 / 3.0) * t - (1.0 / 3.0) * t ** 4


def _u1(t):
    return t


def _k1_power(t, s):
    # s^(t + 1/2) on [0, 1]; the exp/log form keeps pow away from the
    # s = 0 corner (sample points are interior, but the de-johnogbonna
    # baseline evaluates the first argument at the endpoints).
    if s == 0.0:
        return 0.0
    return math.exp((t + 0.5) * math.log(s))


def _k2_power(t, s):
    return (1.0 - s) ** t


def _g2(t):
    return math.sqrt(t) - t ** (t + 2.0) / (t + 2.0) - beta(1.5, t + 1.0)


def _u2(t):
    return math.sqrt(t)


def builtin(example_id: int) -> BuiltinExample:
    """The two built-in benchmark equations, both on [0, 1].

    1: k1 = k2 = t s, g = (2/3) t - (1/3) t^4, solution u(t) = t;
       smooth everywhere, alpha = 1.
    2: k1 = s^(t+1/2), k2 = (1-s)^t,
       g = sqrt(t) - t^(t+2)/(t+2) - B(3/2, t+1), solution u(t) = sqrt(t);
       square-root behaviour at the left endpoint, alpha = 1/2.
    Both use strip half-widths 3.14 (tanh map) and 1.57 (tanh-sinh map).
    """
    iv = Interval(0.0, 1.0)
    if example_id == 1:
        problem = Problem(iv=iv, k1=_kernel_ts, k2=_kernel_ts, g=_g1,
                          alpha=1.0, d_se=3.14, d_de=1.57)
        return BuiltinExample(id=1, problem=problem, exact=_u1)
    if example_id == 2:
        problem = Problem(iv=iv, k1=_k1_power, k2=_k2_power, g=_g2,
                          alpha=0.5, d_se=3.14, d_de=1.57)
        return BuiltinExample(id=2, problem=problem, exact=_u2)
    raise ValueError(f"unknown example id {example_id} (choose 1 or 2)")


def max_error(sol: DiscreteSolution, exact, M: int) -> float:
    """Largest pointwise deviation from `exact` over M equispaced points,
    endpoints included."""
    if M < 2:
        raise ValueError(f"need at least 2 evaluation points, got {M}")
    iv = sol.grid.iv
    ts = np.linspace(iv.a, iv.b, M)
    approx_vals = evaluate_solution_many(sol, ts)
    exact_vals = np.array([exact(t) for t in ts])
    return float(np.max(np.abs(exact_vals - approx_vals)))


def run_sweep(example_id: int, method: Method, n_list, eval_points: int = 4096,
              parametric_baseline: bool = False):
    """Solve the example at each N of the (strictly increasing) list and
    measure the sup error on the evaluation grid; one record per N."""
    n_list = list(n_list)
    if not n_list:
        raise ValueError("n_list must be nonempty")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError(f"n_list must be strictly increasing, got {n_list}")
    example = builtin(example_id)
    records = []
    for N in n_list:
        start = time.perf_counter()
        sol = solve(example.problem, method, N, parametric_baseline)
        err = max_error(sol, example.exact, eval_points)
        elapsed = time.perf_counter() - start
        records.append(SweepRecord(method=method, example=example_id, N=N,
                                   h=sol.grid.h, max_error=err,
                                   elapsed_seconds=elapsed))
    return records


def emit_csv(records, destination) -> None:
    """Write sweep records as CSV.

    Format contract: header `method,example,N,h,max_error,elapsed_seconds`,
    LF line endings, max_error in scientific notation with 15 significant
    digits, h and elapsed_seconds in shortest round-trip form.
    `destination` is a path or an open text file.
    """
    lines = [CSV_HEADER]
    for r in records:
        lines.append(
            f"{r.method.value},{r.example},{r.N},{r.h!r},"
            f"{r.max_error:.14e},{r.elapsed_seconds!r}"
        )
    text = "\n".join(lines) + "\n"
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        with open(destination, "w", newline="") as fh:
            fh.write(text)


@unique
class RateModel(Enum):
    """Decay model for fit_rate.

    SE_ROOT_EXP fits log(err) - (1/2) log(N) against sqrt(N): a clean
    C sqrt(N) exp(-c sqrt(N)) decay recovers slope -c exactly.
    DE_ALMOST_EXP fits log(err) against 1/h, which under the de-new mesh
    rule equals N/log(2 d N / alpha) (and the analogous ratio for the
    baseline rules), so exp(-c N / log(...)) decay shows slope -c.
    """

    SE_ROOT_EXP = "se"
    DE_ALMOST_EXP = "de"


def fit_rate(records, model: RateModel):
    """Least-squares decay rate of a sweep: returns (slope, r_squared).

    Records at or below the saturation floor (1e-13) are excluded; at
    least four usable records are required.
    """
    usable = [r for r in records if r.max_error > SATURATION_FLOOR]
    if len(usable) < 4:
        raise FitError(
            f"need at least 4 records above {SATURATION_FLOOR:g}, have {len(usable)}"
        )
    if model is RateModel.SE_ROOT_EXP:
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


def self_check(example: BuiltinExample, n_probe: int = 33, N: int = 48) -> float:
    """Largest residual of the exact solution substituted into the
    discretized equation (tanh-sinh rules at index N) over equispaced
    probe points.  Validates the transcription of k1, k2 and g; anything
    above ~1e-8 indicates a broken example definition.
    """
    problem = example.problem
    iv = problem.iv
    u = example.exact
    grid = build_grid(iv, Method.NEW_DE, problem.alpha, problem.d_de, N)
    worst = 0.0
    for t in np.linspace(iv.a, iv.b, n_probe):
        running = indefinite(grid, lambda s: problem.k1(t, s) * u(s), t)
        full = quadrature(grid, lambda s: problem.k2(t, s) * u(s))
        residual = u(t) - running - full - problem.g(t)
        worst = max(worst, abs(residual))
    return worst
