"""Collocation solvers for the linear second-kind Volterra-Fredholm equation

    u(t) - int_a^t k1(t,s) u(s) ds - int_a^b k2(t,s) u(s) ds = g(t).

Four flavours.  The boundary-corrected methods (se-new, de-new) collocate
a sinc interpolant whose coefficients are the solution values at the
nodes, so their matrix is simply I - V - K.  The two original variants
(se-shamloo, de-johnogbonna) keep the boundary hats as separate basis
columns, which puts transformed entries in the first and last columns
(and, for de-johnogbonna, moves the extreme collocation rows onto the
interval endpoints, where its kernels and right-hand side must therefore
be evaluable).
"""

import itertools
import math
import os
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from .approx import (
    GeneralizedInterpolant,
    SincGrid,
    approximate,
    build_grid,
    evaluate_many,
)
from .basis import _boundary_pair, _running_integral
from .transforms import Interval, Method, TransformKind, _check_mesh_args

__all__ = [
    "Problem",
    "DiscreteSolution",
    "AssemblyError",
    "SingularMatrixError",
    "ConditioningWarning",
    "grid_for",
    "assemble_new",
    "assemble_shamloo",
    "assemble_johnogbonna",
    "solve_linear",
    "solve",
    "evaluate_solution",
    "evaluate_solution_many",
]

# rcond below this is treated as numerically singular (warning channel).
RCOND_FLOOR = 100.0 * np.finfo(float).eps

# n x n float64 arrays alive at once during assembly plus LU: J, k1, k2,
# E, V, K, two product temporaries, then A and its LU copy.
_PEAK_ARRAYS = 8


class AssemblyError(ValueError):
    """A kernel or right-hand side returned a non-finite value during assembly."""


class SingularMatrixError(RuntimeError):
    """The collocation matrix factorized with an exactly zero pivot."""


class ConditioningWarning(RuntimeWarning):
    """The collocation matrix is numerically singular or nearly so."""


@dataclass(frozen=True)
class Problem:
    """Equation data: running kernel k1, full-interval kernel k2, right-hand
    side g, endpoint regularity exponent alpha, and the strip half-widths
    used by the mesh rules of the tanh (d_se) and tanh-sinh (d_de) maps."""

    iv: Interval
    k1: Callable[[float, float], float]
    k2: Callable[[float, float], float]
    g: Callable[[float], float]
    alpha: float
    d_se: float
    d_de: float

    def __post_init__(self):
        _check_mesh_args(TransformKind.SE, self.alpha, self.d_se)
        _check_mesh_args(TransformKind.DE, self.alpha, self.d_de)


@dataclass(frozen=True, eq=False)
class DiscreteSolution:
    """Solved collocation system: coefficients c_{-N}..c_N over `grid`.

    For se-new/de-new the coefficients are the solution values at the grid
    points; the original variants lack that property.  `condition_hint` is
    the LAPACK reciprocal condition estimate of the collocation matrix in
    the infinity norm.
    """

    method: Method
    grid: SincGrid
    coeffs: np.ndarray
    condition_hint: float

    def __post_init__(self):
        self.coeffs.setflags(write=False)


def grid_for(problem: Problem, method: Method, N: int,
             parametric_baseline: bool = False) -> SincGrid:
    """The grid `solve` uses for this method: the method's transform with
    the matching strip half-width from the problem."""
    d = problem.d_se if method.transform is TransformKind.SE else problem.d_de
    return build_grid(problem.iv, method, problem.alpha, d, N, parametric_baseline)


def assemble_new(problem: Problem, method: Method, N: int):
    """Collocation system (A, rhs) of a boundary-corrected method:
    A = I - V - K with V_ij = k1(t_i,t_j) w_j J_{i-j} and
    K_ij = k2(t_i,t_j) w_j h, rhs_i = g(t_i)."""
    if method.is_original:
        raise ValueError(f"assemble_new handles se-new/de-new, got {method.value}")
    return _assemble(problem, method, N)


def assemble_shamloo(problem: Problem, N: int):
    """Collocation system of the original tanh-map variant.

    Interior columns look like the boundary-corrected system; the first
    and last columns carry the discrete operators applied to the boundary
    hats, because the hats are kept as explicit basis functions.
    """
    return _assemble(problem, Method.SHAMLOO_SE, N)


def assemble_johnogbonna(problem: Problem, N: int, parametric_baseline: bool = False):
    """Collocation system of the original half-argument tanh-sinh variant.

    Its extreme collocation points sit on t = a and t = b themselves (the
    interior ones are the transform nodes), so k1, k2 and g must be
    evaluable at the endpoints; the running-integral factors degenerate
    there to 0 (first row) and h (last row).
    """
    return _assemble(problem, Method.JOHN_OGBONNA_DE, N, parametric_baseline)


def _assemble(problem, method, N, parametric_baseline=False):
    """A = E - V - K and rhs for any method.

    V_ij = k1(t_i,s_j) w_j J_{i-j} and K_ij = k2(t_i,s_j) w_j h over the
    collocation points t_i and nodes s_j, with E the identity.  The
    original variants keep the boundary hats as their first and last basis
    functions: those columns of E hold the hats at the collocation points,
    and those of V and K the operators applied to the hats sampled at the
    nodes.  Those row sums keep the naive loops' product order, which holds
    them within 1 ulp of the loops; a matrix product does not.
    de-johnogbonna collocates its end rows at a and b, where J is 0 and h.
    An N whose dense system cannot fit in physical memory is refused before
    any kernel call; where the memory size cannot be read, nothing is refused.
    """
    n = 2 * N + 1
    need = _PEAK_ARRAYS * 8 * n * n
    try:
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf, or no such name
        have = 0
    if 0 < have < need:
        raise ValueError(f"N={N} gives a dense order-{n} system: assembly and LU need about "
                         f"{need:.3g} bytes, above the {have:.3g} bytes of physical memory")
    grid = grid_for(problem, method, N, parametric_baseline)
    pts, w, h = grid.points, grid.weights, grid.h
    coll = pts
    jmat = _offset_matrix(grid.mesh.N, h)
    if method is Method.JOHN_OGBONNA_DE:
        coll = pts.copy()
        coll[0], coll[-1] = grid.iv.a, grid.iv.b
        jmat[0, :] = 0.0
        jmat[-1, :] = h
    k1 = _sample(problem.k1, "k1", coll, pts)
    k2 = _sample(problem.k2, "k2", coll, pts)
    E = np.eye(n)
    V = k1 * w[None, :] * jmat
    K = k2 * w[None, :] * h
    if method.is_original:
        E[:, 0], E[:, -1] = _boundary_pair(grid.iv, coll)
        for col, hat in zip((0, -1), _boundary_pair(grid.iv, pts)):
            V[:, col] = (k1 * hat[None, :] * w[None, :] * jmat).sum(axis=1)
            K[:, col] = (k2 * hat[None, :] * w[None, :]).sum(axis=1) * h
    return E - V - K, _sample(problem.g, "g", coll)


def _offset_matrix(N, h):
    """J(j,h)(ih) depends on i - j only: one J value per diagonal offset
    m = -2N..2N, taken at the exact integer offset."""
    table = _running_integral(h, np.arange(-2 * N, 2 * N + 1))
    return scipy.linalg.toeplitz(table[2 * N:], table[2 * N::-1])


def _sample(func, name, *axes):
    """func at every point of the grid spanned by the axes, called once per
    point in row-major order with the axes' elements as arguments."""
    shape = tuple(len(axis) for axis in axes)
    calls = itertools.starmap(func, itertools.product(*axes))
    vals = np.fromiter(calls, dtype=float, count=math.prod(shape)).reshape(shape)
    if not np.all(np.isfinite(vals)):
        idx = tuple(np.argwhere(~np.isfinite(vals))[0])
        args = ", ".join(repr(axis[i]) for axis, i in zip(axes, idx))
        raise AssemblyError(f"{name}({args}) returned {vals[idx]} during assembly")
    return vals


def solve_linear(A, rhs):
    """Solve A c = rhs by LU with partial pivoting.

    Returns (c, rcond) where rcond is the LAPACK reciprocal condition
    estimate taken from the factorization.  An exactly zero pivot raises
    SingularMatrixError.
    """
    A = np.asarray(A, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square, got shape {A.shape}")
    if rhs.shape != (A.shape[0],):
        raise ValueError(f"rhs shape {rhs.shape} does not match order {A.shape[0]}")
    anorm = np.linalg.norm(A, np.inf)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(A)
    if np.any(np.diag(lu) == 0.0):
        raise SingularMatrixError(
            f"exactly singular pivot in order-{A.shape[0]} collocation matrix"
        )
    rcond, info = scipy.linalg.lapack.dgecon(lu, anorm, norm="I")
    if info != 0:
        raise RuntimeError(f"dgecon failed with info={info}")
    c = scipy.linalg.lu_solve((lu, piv), rhs)
    return c, float(rcond)


def solve(problem: Problem, method: Method, N: int,
          parametric_baseline: bool = False) -> DiscreteSolution:
    """Assemble and solve the collocation system of `method` at index N.

    A numerically singular system (rcond below 100 eps) is reported
    through ConditioningWarning rather than raised: invertibility is only
    guaranteed for N large enough, and sweeps should report, not crash.
    """
    if method is Method.SHAMLOO_SE:
        A, rhs = assemble_shamloo(problem, N)
    elif method is Method.JOHN_OGBONNA_DE:
        A, rhs = assemble_johnogbonna(problem, N, parametric_baseline)
    else:
        A, rhs = assemble_new(problem, method, N)
    coeffs, rcond = solve_linear(A, rhs)
    if rcond < RCOND_FLOOR:
        warnings.warn(
            f"collocation matrix of {method.value} at N={N} is numerically "
            f"singular (rcond={rcond:.3e}); solution may be unreliable",
            ConditioningWarning,
            stacklevel=2,
        )
    grid = grid_for(problem, method, N, parametric_baseline)
    return DiscreteSolution(method=method, grid=grid, coeffs=coeffs, condition_hint=rcond)


def evaluate_solution(sol: DiscreteSolution, t: float) -> float:
    """Approximate solution value at one point of [a, b]."""
    return float(evaluate_solution_many(sol, np.array([float(t)]))[0])


def evaluate_solution_many(sol: DiscreteSolution, ts) -> np.ndarray:
    """Approximate solution values on an array of points in [a, b].

    se-new/de-new evaluate the boundary-corrected interpolant through the
    coefficients (so nodal values reproduce c_i exactly); the original
    variants use their hat-plus-interior-cardinal expansion, for which the
    nodal values are a genuine sum, not c_i: an interpolant with boundary
    values c_-N, c_N, the interior c_j as cardinal coefficients, and those
    three-term sums as its nodal samples.
    """
    grid, c = sol.grid, sol.coeffs
    if not sol.method.is_original:
        return evaluate_many(approximate(grid, c), ts)
    cardinal = c.copy()
    cardinal[[0, -1]] = 0.0
    wa, wb = _boundary_pair(grid.iv, grid.points)
    interp = GeneralizedInterpolant(grid=grid, samples=c[0] * wa + c[-1] * wb + cardinal,
                                    boundary_left=float(c[0]), boundary_right=float(c[-1]),
                                    coeffs=cardinal)
    return evaluate_many(interp, ts)
