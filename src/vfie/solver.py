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
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg
from scipy.special import sici

from .approx import (
    GeneralizedInterpolant,
    SincGrid,
    _boundary_pair,
    _evaluate_point,
    approximate,
    build_grid,
    evaluate_many,
)
from .transforms import (Interval, Method, TransformKind, _check_mesh_args, _integer, _real,
                         _vector, inverse)

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

# n x n float64 arrays alive at once in a solve.  Assembly holds J, the k1
# and k2 samples (scaled in place into V and K), A and, for the original
# variants, one scratch buffer for the hat columns, plus sampling and ufunc
# temporaries below n^2/4: tracemalloc measures a peak of 5.16 n^2 doubles
# at N = 128 on either built-in example.  A vectorized kernel's result and
# temporaries (two n^2 arrays for example 2's k1) are freed before A is
# made, so they add to J and k1 alone.  solve_linear holds fewer: A and |A|
# for the infinity norm, then A and the LU copy.
_PEAK_ARRAYS = 6


class AssemblyError(ValueError):
    """A kernel, the right-hand side or, in `self_check` and `max_error`, the
    exact solution returned a non-finite or non-real value, or an array of
    the wrong shape, or raised an ArithmeticError, TypeError or ValueError,
    when sampled.

    The message names the callable and, for a non-finite value, the point
    of the first one in row-major order, e.g. `k1(0.5, 0.9) returned nan`;
    for an array result, the point of its first non-finite entry.  A
    scalar call that raises (ZeroDivisionError from 1.0 / t at t = 0,
    OverflowError from 10.0 ** 400, the math domain error of
    math.log(0.0)) or returns a value that float() refuses, such as a
    complex (TypeError), is named at the first such point in the same
    order, e.g. `g(0.0) raised ZeroDivisionError('float division by
    zero')`, chained to the original exception.  That point is found by
    calling again from the start, so only a failing call makes those
    extra calls.  A vectorized callable that raises is named without a
    point, e.g. `k1 raised TypeError(...)`, which is how a math.*-only
    kernel on a vectorized problem is refused; an array result of a dtype
    `_real` refuses (complex, bool, string, object), of another dimension
    or of a shape that does not broadcast reads `k1's result is refused:
    ...`.  It is a ValueError, so `vfie bench` and `vfie solve` exit with
    code 2 on it, and `vfie bench` writes no CSV.
    """


class SingularMatrixError(RuntimeError):
    """The collocation matrix factorized with an exactly zero pivot."""


class ConditioningWarning(RuntimeWarning):
    """The collocation matrix is numerically singular or nearly so."""


@dataclass(frozen=True)
class Problem:
    """Equation data: running kernel k1, full-interval kernel k2, right-hand
    side g, endpoint regularity exponent alpha, and the strip half-widths
    used by the mesh rules of the tanh (d_se) and tanh-sinh (d_de) maps.

    By default k1, k2 and g are called with Python floats (elements of the
    point arrays, taken with tolist()), one point per call: k1(t, s) and
    k2(t, s) once per (collocation point, node) pair in row-major order
    (collocation point outer, node inner), g(t) once per collocation point,
    so 2n^2 + n calls per assembly for n = 2N + 1.  With `vectorized=True`,
    which the caller declares and nothing probes, each is called once, on
    read-only float64 arrays: k1 and k2 on the points t as shape (m, 1)
    and the nodes s as shape (1, n), g on the points as shape (m,), under
    np.errstate(all="ignore"), so that an overflow or a NaN is refused as
    a non-finite value rather than turned into a numpy warning; the result
    must be real, a scalar or of the sample's dimension (2 for k1 and k2,
    1 for g), and broadcast to (m, n) or (m,), so a constant is taken and a
    length-n vector from k1 or k2 is refused rather than spread across the
    rows.  m is n in assembly and 33, the probe points, in `self_check`,
    which calls k1, k2 and g by the same protocol.  Example 2 of `builtin`
    is vectorized; example 1 is not.  Either way a non-finite or non-real
    value, an ArithmeticError (such as ZeroDivisionError or
    OverflowError), a TypeError or a ValueError (such as a math domain
    error), and on arrays a result of another dimension or shape, raises
    AssemblyError, whose docstring gives the messages.  The field is
    interim: once sampling chooses the protocol by probing a callable with
    one array call, it goes.

    alpha, d_se and d_de are stored as Python floats
    (`transforms._check_mesh_args`); alpha outside (0, 1], d_se outside
    (0, pi) and d_de outside (0, pi/2) raise ValueError.  An iv that is
    not an `Interval` and a vectorized that is not a bool raise TypeError
    naming the field ("expected bool vectorized, got str"): a string such
    as "no" would select the array protocol, and a tuple would fail inside
    the transforms.
    """

    iv: Interval
    k1: Callable[[float, float], float]
    k2: Callable[[float, float], float]
    g: Callable[[float], float]
    alpha: float
    d_se: float
    d_de: float
    vectorized: bool = False

    def __post_init__(self):
        for name, kind in (("iv", Interval), ("vectorized", bool)):
            if not isinstance(value := getattr(self, name), kind):
                raise TypeError(f"expected {kind.__name__} {name}, got {type(value).__name__}")
        alpha, d_se = _check_mesh_args(TransformKind.SE, self.alpha, self.d_se)
        _, d_de = _check_mesh_args(TransformKind.DE, alpha, self.d_de)
        for name, value in (("alpha", alpha), ("d_se", d_se), ("d_de", d_de)):
            object.__setattr__(self, name, value)


@dataclass(frozen=True, eq=False)
class DiscreteSolution:
    """Solved collocation system: coefficients c_{-N}..c_N over `grid`.

    For se-new/de-new the coefficients are the solution values at the grid
    points; the original variants lack that property.  `condition_hint` is
    the LAPACK reciprocal condition estimate of the collocation matrix in
    the infinity norm; `solve_linear` says how far its digits reproduce.
    The solution builds its interpolant once, when it is made, and every
    `evaluate_solution(_many)` call reuses it.
    """

    method: Method
    grid: SincGrid
    coeffs: np.ndarray
    condition_hint: float
    _interp: GeneralizedInterpolant = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _vector(self.coeffs, self.grid.n, "coeffs"))
        object.__setattr__(self, "_interp", _interpolant(self.method, self.grid, self.coeffs))


def _interpolant(method, grid, c):
    """The interpolant a solution evaluates, built once per solution.

    se-new/de-new interpolate the coefficients themselves, so nodal values
    reproduce c_i exactly.  The original variants use their
    hat-plus-interior-cardinal expansion, whose nodal values are a genuine
    sum, not c_i: an interpolant with boundary values c_-N, c_N, the
    interior c_j as cardinal coefficients, and those three-term sums as its
    nodal samples.
    """
    if not method.is_original:
        return approximate(grid, c)
    cardinal = c.copy()
    cardinal[[0, -1]] = 0.0
    wa, wb = _boundary_pair(grid.iv, grid.points)
    return GeneralizedInterpolant(grid=grid, samples=c[0] * wa + c[-1] * wb + cardinal,
                                  boundary_left=c[0], boundary_right=c[-1],
                                  coeffs=cardinal)


def grid_for(problem: Problem, method: Method, N: int) -> SincGrid:
    """The grid `solve` uses for this method: the method's transform with
    the matching strip half-width from the problem.

    An N whose dense system cannot fit in physical memory is refused here,
    so `solve` refuses it before any kernel call: assembly plus LU hold at
    most `_PEAK_ARRAYS`, six, n x n float64 arrays at once, and if those
    48 n^2 bytes, computed in exact integers, exceed the machine's
    physical memory, a ValueError names N, n and the estimate (`vfie
    solve` exits with code 2).  Where the memory size cannot be
    read (no os.sysconf, or no SC_PHYS_PAGES on the platform), nothing is
    refused.
    """
    n = 2 * _integer(N, "N", 1) + 1
    need = _PEAK_ARRAYS * 8 * n * n
    try:
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf, or no such name
        have = 0
    if 0 < have < need:
        raise ValueError(f"N={N} gives a dense order-{n} system: assembly and LU need about "
                         f"{need:.3g} bytes, above the {have:.3g} bytes of physical memory")
    d = problem.d_se if method.transform is TransformKind.SE else problem.d_de
    return build_grid(problem.iv, method, problem.alpha, d, N)


def assemble_new(problem: Problem, method: Method, N: int):
    """Collocation system (A, rhs, grid) of any method on its `grid_for` grid;
    for se-new/de-new A = I - V - K with V_ij = k1(t_i,t_j) w_j J_{i-j},
    K_ij = k2(t_i,t_j) w_j h and rhs_i = g(t_i)."""
    return _assemble(problem, method, N)


def assemble_shamloo(problem: Problem, N: int):
    """Collocation system (A, rhs, grid) of the original tanh-map variant.

    Interior columns look like the boundary-corrected system; the first
    and last columns carry the discrete operators applied to the boundary
    hats, because the hats are kept as explicit basis functions.
    """
    return _assemble(problem, Method.SHAMLOO_SE, N)


def assemble_johnogbonna(problem: Problem, N: int):
    """Collocation system (A, rhs, grid) of the original half-argument tanh-sinh variant.

    Its extreme collocation points sit on t = a and t = b themselves (the
    interior ones are the transform nodes), so k1, k2 and g must be
    evaluable at the endpoints; the running-integral factors degenerate
    there to 0 (first row) and h (last row).
    """
    return _assemble(problem, Method.JOHN_OGBONNA_DE, N)


def _assemble(problem, method, N):
    """A = E - V - K, rhs and the grid for any method, A built in place.

    V_ij = k1(t_i,s_j) w_j J_{i-j} and K_ij = k2(t_i,s_j) w_j h over the
    collocation points t_i and nodes s_j, with E the identity.  The
    original variants keep the boundary hats as their first and last basis
    functions: those columns of E hold the hats at the collocation points,
    and those of V and K the operators applied to the hats sampled at the
    nodes.  Those row sums keep the naive loops' product order, which holds
    them within 1 ulp of the loops; a matrix product does not.  They are
    formed first, in one scratch buffer, because V and K then overwrite
    the k1 and k2 samples.  The in-place scaling and subtraction make the
    same operations in the same order as the whole-array E - V - K, so A
    is bitwise the same.
    de-johnogbonna collocates its end rows at a and b, where J is 0 and h.
    `grid_for` makes the size refusal before any kernel call.
    """
    grid = grid_for(problem, method, N)
    pts, w, h, n = grid.points, grid.weights, grid.h, grid.n
    coll = pts
    jmat = _offset_matrix(grid.mesh.N, h)
    if method is Method.JOHN_OGBONNA_DE:
        coll = pts.copy()
        coll[0], coll[-1] = grid.iv.a, grid.iv.b
        jmat[0, :] = 0.0
        jmat[-1, :] = h
    k1 = _sample(problem.k1, "k1", coll, pts, vectorized=problem.vectorized)
    k2 = _sample(problem.k2, "k2", coll, pts, vectorized=problem.vectorized)
    A = np.eye(n)
    hat_columns = []
    if method.is_original:
        A[:, 0], A[:, -1] = _boundary_pair(grid.iv, coll)
        scratch = np.empty((n, n))
        for hat in _boundary_pair(grid.iv, pts):
            np.multiply(k1, hat, out=scratch)
            scratch *= w
            scratch *= jmat
            v = scratch.sum(axis=1)
            np.multiply(k2, hat, out=scratch)
            scratch *= w
            hat_columns.append((v, scratch.sum(axis=1) * h))
    V, K = k1, k2  # scaled in place: the samples are not needed again
    V *= w
    V *= jmat
    K *= w
    K *= h
    for col, (v, k) in zip((0, -1), hat_columns):
        V[:, col], K[:, col] = v, k
    A -= V
    A -= K
    return A, _sample(problem.g, "g", coll, vectorized=problem.vectorized), grid


def _offset_matrix(N, h):
    """J(j,h)(ih) depends on i - j only: one J value per diagonal offset
    m = -2N..2N, taken at the exact integer offset."""
    table = _running_integral(h, np.arange(-2 * N, 2 * N + 1))
    return scipy.linalg.toeplitz(table[2 * N:], table[2 * N::-1])


def _running_integral(h, r):
    """J(j,h)(x) = h (1/2 + Si(pi r)/pi) at the offset r = x/h - j, the
    running integral of S(j,h) from -inf, with Si from scipy.special.sici;
    r may be an array.  Si(+-inf) =
    +-pi/2 gives the limits h and 0 exactly, and the value stays inside
    [-0.1 h, 1.1 h] (the overshoot of Si is Si(pi) ~ 1.852)."""
    return h * (0.5 + sici(math.pi * r)[0] / math.pi)


def _residual(problem, grid, u, ts):
    """r(t) = u(t) - sum_j k1(t,s_j) u(s_j) w_j J(x(t)/h - j)
    - h sum_j k2(t,s_j) u(s_j) w_j - g(t) at the points ts, with x(t) the
    preimage of t: the equation with u substituted and its two integrals
    replaced by the rules assembly uses.  Every callable is sampled by
    `_sample` as assembly samples it (u, the exact solution, one point per
    call), so a bad value raises AssemblyError."""
    j = np.arange(-grid.mesh.N, grid.mesh.N + 1)[:, None]
    x = inverse(grid.kind, grid.iv, ts)[:, None, None]
    u_nodes = _sample(u, "u", grid.points)
    vec = problem.vectorized
    # each probe's sums are 1 x n by n x 1 products, that is vector dot
    # products; a matrix-vector product sums in another order and moves
    # self_check's maximum by an ulp
    k1u = _sample(problem.k1, "k1", ts, grid.points, vectorized=vec)[:, None, :] * u_nodes
    k2u = _sample(problem.k2, "k2", ts, grid.points, vectorized=vec)[:, None, :] * u_nodes
    running = (k1u * grid.weights @ _running_integral(grid.h, x / grid.h - j)).ravel()
    full = grid.h * (k2u @ grid.weights).ravel()
    return _sample(u, "u", ts) - running - full - _sample(problem.g, "g", ts, vectorized=vec)


def _sample(func, name, *axes, vectorized=False):
    """func at every point of the grid spanned by the axes, as a new
    float64 array.  By default func is called once per point in row-major
    order, with the axes' elements as Python floats; a `vectorized` func
    is called once, by `_sample_arrays`.

    A non-finite value, a value float() refuses (such as a complex), or an
    ArithmeticError, TypeError or ValueError raised by func becomes an
    AssemblyError naming func and, for a non-finite value or a raising
    scalar call, the first such point; a raising point is found by
    walking the grid again, so only a failing call pays for it.  min and
    max carry a NaN and show an infinity without an n x n mask on the
    success path.
    """
    shape = tuple(len(axis) for axis in axes)
    if vectorized:
        vals = _sample_arrays(func, name, axes, shape)
    else:
        lists = [axis.tolist() for axis in axes]
        calls = itertools.starmap(func, itertools.product(*lists))
        try:
            vals = np.fromiter(calls, dtype=float, count=math.prod(shape)).reshape(shape)
        except (ArithmeticError, TypeError, ValueError) as exc:
            for args in itertools.product(*lists):
                try:
                    float(func(*args))
                except (ArithmeticError, TypeError, ValueError):
                    raise AssemblyError(f"{_call(name, args)} raised {exc!r}") from exc
            raise AssemblyError(f"{name} raised {exc!r}") from exc
    if not (math.isfinite(vals.min()) and math.isfinite(vals.max())):
        idx = tuple(np.argwhere(~np.isfinite(vals))[0])
        args = [float(axis[i]) for axis, i in zip(axes, idx)]
        raise AssemblyError(f"{_call(name, args)} returned {vals[idx]}")
    return vals


def _sample_arrays(func, name, axes, shape):
    """func called once on the axes as np.ix_ gives them, read-only views
    of shapes (m, 1) and (1, n) for two axes, its result copied into a new
    array of `shape`.  numpy's floating-point warnings are off during the
    call, so that the finiteness check decides.  A dtype `_real` refuses,
    a result that is neither a scalar nor of `shape`'s dimension, and a
    shape that does not broadcast to `shape` become AssemblyErrors; the
    dimension rule keeps a length-n vector from spreading across the rows
    of a square sample as if it followed the nodes."""
    views = np.ix_(*axes)
    for view in views:
        view.flags.writeable = False
    try:
        with np.errstate(all="ignore"):
            out = func(*views)
    except (ArithmeticError, TypeError, ValueError) as exc:
        raise AssemblyError(f"{name} raised {exc!r}") from exc
    vals = np.empty(shape)
    try:
        out = _real(out)
        if out.ndim not in (0, len(shape)):
            raise ValueError(f"a result of shape {out.shape} cannot broadcast to {shape} "
                             f"along the axes: it must be a scalar or {len(shape)}-d")
        np.copyto(vals, out)
    except (TypeError, ValueError) as exc:
        raise AssemblyError(f"{name}'s result is refused: {exc}") from exc
    return vals


def _call(name, args):
    return f"{name}({', '.join(map(repr, args))})"


def solve_linear(A, rhs):
    """Solve A c = rhs by LU with partial pivoting (LAPACK's dgesv, which
    leaves A and rhs unchanged).  Returns (c, rcond) where rcond is the
    LAPACK reciprocal condition estimate (dgecon) taken from the LU factors
    that dgesv returns.  An exactly zero pivot raises SingularMatrixError.
    A NaN or inf in A or rhs raises ValueError, and so does a finite A
    whose infinity norm (largest absolute row sum) overflows.

    c, A and the LU factors are bitwise reproducible for a fixed BLAS
    thread count, not across thread counts, and the last digits of rcond
    are not reproducible even for a fixed count, although the LU factors
    and the norm are: pin the thread count (as perfbench/run.py and
    tools/output_digest.py do) when comparing outputs bit for bit, and
    compare rcond to a few ulp."""
    A = _real(A)
    rhs = _real(rhs)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square, got shape {A.shape}")
    if rhs.shape != (A.shape[0],):
        raise ValueError(f"rhs shape {rhs.shape} does not match order {A.shape[0]}")
    anorm = np.linalg.norm(A, np.inf)
    if not (math.isfinite(anorm) and np.isfinite(rhs).all()):
        raise ValueError(f"A, rhs and the infinity norm of A ({anorm}) must be finite")
    lu, _, c, info = scipy.linalg.lapack.dgesv(A, rhs)
    if info > 0:
        raise SingularMatrixError(f"exactly singular pivot in order-{len(A)} collocation matrix")
    rcond, info = scipy.linalg.lapack.dgecon(lu, anorm, norm="I")
    if info != 0:
        raise RuntimeError(f"dgecon failed with info={info}")
    return c, float(rcond)


def solve(problem: Problem, method: Method, N: int) -> DiscreteSolution:
    """Assemble and solve the collocation system of any `method` at index
    N, on the one grid that assembly (`assemble_new`) builds and returns.

    Assembly builds that grid before any kernel call, so every refusal of
    the arguments comes before any kernel call, and the solution carries
    the grid.  A numerically singular system (rcond below 100 eps) is
    reported through ConditioningWarning rather than raised: invertibility
    is only guaranteed for N large enough, and sweeps should report, not
    crash.
    """
    A, rhs, grid = assemble_new(problem, method, N)
    coeffs, rcond = solve_linear(A, rhs)
    if rcond < RCOND_FLOOR:
        warnings.warn(
            f"collocation matrix of {method.value} at N={N} is numerically "
            f"singular (rcond={rcond:.3e}); solution may be unreliable",
            ConditioningWarning,
            stacklevel=2,
        )
    return DiscreteSolution(method=method, grid=grid, coeffs=coeffs, condition_hint=rcond)


def evaluate_solution(sol: DiscreteSolution, t: float) -> float:
    """Approximate solution value at one point of [a, b], as a float,
    bitwise the value at t of any `evaluate_solution_many` batch that
    holds t, computed on Python floats (`approx._evaluate_point`).  An
    array t, even of one element, raises ValueError naming its shape.
    `vfie solve --at` prints this value."""
    return _evaluate_point(sol._interp, t)


def evaluate_solution_many(sol: DiscreteSolution, ts) -> np.ndarray:
    """Approximate solution values on a scalar or 1-D array of points in
    [a, b], as a 1-D array, from the interpolant the solution built once;
    points of any other shape raise ValueError naming the shape."""
    return evaluate_many(sol._interp, ts)
