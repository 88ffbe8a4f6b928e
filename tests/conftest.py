"""Shared fixtures and oracle helpers.

The scalar oracles below are independent transcriptions of formulas the
program computes in array form: the cardinal sinc S(j,h), the boundary
hats and interval membership.  Tests compare the program against them, so
they do not call the code they check.  `evaluate` is the single-point
form of `evaluate_many`.  `dense_sinc_evaluate` is the interpolant by the
direct formula, one np.sinc per (point, node), which `evaluate_many`
replaced with a barycentric sum.  `subtract_evaluate` is that barycentric
sum by the same row rule, the near window summed by np.add.reduce plus
the far field by Horner over the interpolant's table (the full row
beyond the table), times sin(pi r)/pi, but on all points at once, with
u - j from a broadcast subtraction, the window's coefficients gathered
and the signed coefficients built per call, and with the epilogue that
the O(1) per-point one replaced: `k % 2`, `np.interp` and
`searchsorted` on every point.
`expression_assemble` is the collocation system written as whole-array
products, the form that assembly in place replaced.  `naive_assemble_new`
and `naive_assemble_original` build it entry by entry from the scalar
transforms, hats and Si; `naive_assemble` picks the naive one by method.
All three take k1, k2 and g from `sample_problem`, which calls them by the
problem's protocol as the solver does: one Python float per call, or one
call per callable on arrays for a vectorized problem.
`quadrature` and `indefinite` are the Sinc quadrature and indefinite
integration of one function, one scalar call per node; with two closures
per probe they give the residual that `solver._residual` computes in
array form.  `quad_si` is Si by adaptive quadrature of sin(t)/t, and
`SI_PI` is Si(pi) to 40 digits.
`load_tool` imports a script of tools/.
"""

import importlib.util
import math
import os
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad
from scipy.special import sici

from vfie import (
    Method,
    TransformKind,
    derivative,
    evaluate_many,
    forward,
    grid_for,
    inverse,
    select_h,
)
from vfie.approx import _NEAR
from vfie.solver import _offset_matrix, _running_integral

_NODE_TOL = 1e-15
_TAYLOR_CUTOFF = 1e-4

SI_PI = 1.8519370519824661703610533701579913633076  # Si(pi), 40-digit reference


@pytest.fixture
def rng():
    return np.random.default_rng(20240613)


def load_tool(name):
    """The module tools/<name>.py, which is not on the import path."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "tools", f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def assert_ulp_close(got, want, ulps=1):
    """Per-entry agreement within `ulps` spacings of the larger magnitude."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    assert got.shape == want.shape
    tol = ulps * np.spacing(np.maximum(np.abs(got), np.abs(want)))
    diff = np.abs(got - want)
    assert np.all(diff <= tol), (
        f"max deviation {diff.max():.3e} exceeds {ulps} ulp "
        f"(worst entry index {np.unravel_index(diff.argmax(), diff.shape)})"
    )


def sinc_S(j: int, h: float, x: float) -> float:
    """S(j,h)(x) = sin(pi(x - jh)/h) / (pi(x - jh)/h), with value 1 at x = jh.

    Grid alignment is decided by comparing the offset r = (x - jh)/h
    against the nearest integer (tolerance scaled by |x/h|), so the
    Kronecker property S(j,h)(ih) = delta_ij holds exactly instead of
    relying on sin() landing on a zero.  Accepts +-inf (limit 0).
    """
    if not h > 0.0:
        raise ValueError(f"h must be positive, got {h}")
    if math.isnan(x):
        return math.nan
    if math.isinf(x):
        return 0.0
    r = (x - j * h) / h
    nearest = round(r)
    # rounding of x and of j*h both feed r, so the snap window scales with
    # the larger of the two offsets
    if abs(r - nearest) < _NODE_TOL * max(1.0, abs(x / h), abs(j)):
        return 1.0 if nearest == 0 else 0.0
    y = math.pi * r
    if abs(y) < _TAYLOR_CUTOFF:
        yy = y * y
        return 1.0 - yy / 6.0 + yy * yy / 120.0
    return math.sin(y) / y


def contains(iv, t) -> bool:
    """t lies in the closed interval [a, b]."""
    return iv.a <= t <= iv.b


def omega_a(iv, t: float) -> float:
    """Left boundary hat (b - t)/(b - a): 1 at a, 0 at b."""
    assert contains(iv, t), t
    return (iv.b - t) / (iv.b - iv.a)


def omega_b(iv, t: float) -> float:
    """Right boundary hat (t - a)/(b - a): 0 at a, 1 at b."""
    assert contains(iv, t), t
    return (t - iv.a) / (iv.b - iv.a)


def evaluate(interp, t: float) -> float:
    """Interpolant value at one point of [a, b]."""
    return float(evaluate_many(interp, np.array([float(t)]))[0])


def dense_sinc_evaluate(interp, ts):
    """Interpolant values on a 1-D array of points by the direct formula:
    the hats plus sum_j c_j sinc(x/h - j), with the cardinal terms zeroed
    at the endpoints and the stored sample returned at interior nodes."""
    grid = interp.grid
    a, b = grid.iv.a, grid.iv.b
    ts = np.asarray(ts, dtype=float)
    xs = inverse(grid.kind, grid.iv, ts)
    with np.errstate(invalid="ignore"):  # sinc(+-inf) is NaN; those rows are zeroed next
        rows = np.sinc(xs[:, None] / grid.h - np.arange(-grid.mesh.N, grid.mesh.N + 1))
    rows[np.isinf(xs)] = 0.0
    out = (interp.boundary_left * ((b - ts) / (b - a))
           + interp.boundary_right * ((ts - a) / (b - a)) + rows @ interp.coeffs)
    idx = np.minimum(np.searchsorted(grid.points, ts), grid.n - 1)
    hit = (grid.points[idx] == ts) & (ts > a) & (ts < b)
    return np.where(hit, interp.samples[idx], out)


def subtract_evaluate(interp, ts):
    """Interpolant values on a 1-D array of points by the row rule of
    `evaluate_many`, on all points at once: for |k| <= N + K the near
    window's entries (-1)^j c_j 2^-e/(u - j), j = k - K..k + K, with u - j
    from np.subtract on u and j and the coefficients zero beyond -N..N,
    summed by np.add.reduce, plus Horner in -r over the far-field table
    taken from the interpolant; beyond the table and at u = +-inf, the
    full row.  The epilogue is the one that the O(1) per-point one
    replaced: `k % 2`, `np.interp` and `searchsorted` on every point."""
    grid = interp.grid
    ts = np.asarray(ts, dtype=float)
    N = grid.mesh.N
    j = np.arange(-N, N + 1)
    signed = np.where(j % 2, -1.0, 1.0) * np.ldexp(interp.coeffs, -interp._exponent)
    u = inverse(grid.kind, grid.iv, ts) / grid.h
    k = np.rint(u)
    inside = np.abs(k) <= N + _NEAR
    ki = np.where(inside, k, 0.0).astype(int)
    window = ki[:, None] + np.arange(-_NEAR, _NEAR + 1)
    near = np.where(np.abs(window) <= N, signed[np.clip(window, -N, N) + N], 0.0)
    far = interp._far[:, ki + N + _NEAR]
    with np.errstate(invalid="ignore", divide="ignore"):
        r = u - k
        near_sums = np.add.reduce(np.divide(near, np.subtract(u[:, None], window)), axis=-1)
        horner = far[-1]
        for p in range(far.shape[0] - 2, -1, -1):
            horner = horner * -r + far[p]
        row_sums = np.add.reduce(np.divide(signed, np.subtract(u[:, None], j)), axis=-1)
        sums = np.where(inside, near_sums + horner, row_sums)
        cardinal = np.where(k % 2, -sums, sums) * (np.sin(np.pi * r) / np.pi)
    cardinal = np.ldexp(cardinal, interp._exponent)
    on_k = np.interp(k, j, interp.coeffs, left=0.0, right=0.0)
    cardinal = np.where((r == 0) | np.isinf(u), on_k, cardinal)
    a, b = grid.iv.a, grid.iv.b
    out = (interp.boundary_left * ((b - ts) / (b - a))
           + interp.boundary_right * ((ts - a) / (b - a)) + cardinal)
    idx = np.minimum(np.searchsorted(grid.points, ts), grid.n - 1)
    hit = (grid.points[idx] == ts) & (ts > a) & (ts < b)
    return np.where(hit, interp.samples[idx], out)


def expression_assemble(problem, method, N):
    """(A, rhs) of any method as E - V - K from whole-array products, with
    the original variants' hat columns as (k1 * hat * w * J).sum(axis=1)
    and (k2 * hat * w).sum(axis=1) * h.  Grid and J come from the program
    and the kernels are sampled point by point, so this checks how
    assembly combines them, bit for bit."""
    grid = grid_for(problem, method, N)
    pts, w, h, n, iv = grid.points, grid.weights, grid.h, grid.n, grid.iv
    coll = pts.copy()
    jmat = _offset_matrix(N, h)
    if method is Method.JOHN_OGBONNA_DE:
        coll[0], coll[-1] = iv.a, iv.b
        jmat[0, :] = 0.0
        jmat[-1, :] = h
    k1, k2, g = sample_problem(problem, coll.tolist(), pts.tolist())
    E = np.eye(n)
    V = k1 * w[None, :] * jmat
    K = k2 * w[None, :] * h
    if method.is_original:
        E[:, 0] = [omega_a(iv, t) for t in coll.tolist()]
        E[:, -1] = [omega_b(iv, t) for t in coll.tolist()]
        for col, hat_at in ((0, omega_a), (-1, omega_b)):
            hat = np.array([hat_at(iv, s) for s in pts.tolist()])
            V[:, col] = (k1 * hat[None, :] * w[None, :] * jmat).sum(axis=1)
            K[:, col] = (k2 * hat[None, :] * w[None, :]).sum(axis=1) * h
    return E - V - K, g


def sample_problem(problem, coll, pts):
    """(k1, k2, g) of the problem at the collocation points `coll` and the
    nodes `pts` (lists of floats), sampled the way the solver samples it:
    a scalar problem one Python-float call per point, a vectorized one
    with one call per callable on float64 arrays of shapes (m, 1), (1, n)
    and (m,)."""
    if problem.vectorized:
        t, s = np.array(coll), np.array(pts)
        shape = (t.size, s.size)
        return (np.broadcast_to(problem.k1(t[:, None], s[None, :]), shape),
                np.broadcast_to(problem.k2(t[:, None], s[None, :]), shape),
                np.broadcast_to(problem.g(t), t.shape))
    return (np.array([[problem.k1(t, s) for s in pts] for t in coll], dtype=float),
            np.array([[problem.k2(t, s) for s in pts] for t in coll], dtype=float),
            np.array([problem.g(t) for t in coll], dtype=float))


def quadrature(grid, f) -> float:
    """h * sum_j f(t_j) psi'(jh): the transformed trapezoid rule for the
    integral of f over (a, b), f called with one Python float at a time."""
    vals = np.array([f(t) for t in grid.points.tolist()], dtype=float)
    return grid.h * float(vals @ grid.weights)


def indefinite(grid, f, t: float) -> float:
    """sum_j f(t_j) psi'(jh) J(j,h)(x), x the preimage of t: the running
    integral of f from a to t.  0 at t = a, and `quadrature` at t = b."""
    x = inverse(grid.kind, grid.iv, t)
    N = grid.mesh.N
    vals = np.array([f(s) for s in grid.points.tolist()], dtype=float)
    jrow = _running_integral(grid.h, (x - np.arange(-N, N + 1) * grid.h) / grid.h)
    return float((vals * grid.weights) @ jrow)


def quad_si(x):
    """Brute-force oracle: adaptive quadrature of sin(t)/t over [0, x]."""
    with warnings.catch_warnings():
        # pushing quad to 1e-15 trips its roundoff heuristic; the returned
        # error estimate is what we actually gate on
        warnings.simplefilter("ignore", IntegrationWarning)
        val, err = quad(lambda t: math.sin(t) / t if t != 0.0 else 1.0, 0.0, x,
                        limit=300, epsabs=1e-15, epsrel=1e-14)
    assert err < 1e-12
    return val


def naive_assemble(problem, method, N):
    """(A, rhs) of `method` from the naive double loops."""
    if method.is_original:
        return naive_assemble_original(problem, method, N)
    return naive_assemble_new(problem, method, N)


def naive_j_at_node(h, offset):
    # J(j,h)(ih): the argument pi (ih - jh)/h is the exact integer multiple
    # pi (i - j), so transcribe it that way (J has a 0.5 - 0.59 cancellation
    # that would otherwise amplify a 1-ulp argument wobble)
    return h * (0.5 + sici(math.pi * offset)[0] / math.pi)


def naive_assemble_new(problem, method, N):
    """Either boundary-corrected variant: I - V - K entry by entry."""
    kind = method.transform
    d = problem.d_se if kind is TransformKind.SE else problem.d_de
    h = select_h(method, problem.alpha, d, N)
    iv = problem.iv
    n = 2 * N + 1
    pts = [forward(kind, iv, j * h) for j in range(-N, N + 1)]
    k1, k2, g = sample_problem(problem, pts, pts)
    A = np.zeros((n, n))
    rhs = np.zeros(n)
    for i in range(-N, N + 1):
        rhs[i + N] = g[i + N]
        for j in range(-N, N + 1):
            wj = derivative(kind, iv, j * h)
            v = k1[i + N, j + N] * wj * naive_j_at_node(h, i - j)
            k = k2[i + N, j + N] * wj * h
            A[i + N, j + N] = (1.0 if i == j else 0.0) - v - k
    return A, rhs


def naive_assemble_original(problem, method, N):
    """Either original variant: hats kept as explicit basis columns; for the
    half-argument tanh-sinh variant the extreme collocation rows sit on the
    endpoints, where the running-integral factor degenerates to 0 / h."""
    kind = method.transform
    d = problem.d_se if kind is TransformKind.SE else problem.d_de
    h = select_h(method, problem.alpha, d, N)
    iv = problem.iv
    n = 2 * N + 1
    pts = [forward(kind, iv, j * h) for j in range(-N, N + 1)]
    wts = [derivative(kind, iv, j * h) for j in range(-N, N + 1)]
    endpoint_rows = method is Method.JOHN_OGBONNA_DE
    coll = list(pts)
    if endpoint_rows:
        coll[0], coll[-1] = iv.a, iv.b
    k1, k2, g = sample_problem(problem, coll, pts)
    A = np.zeros((n, n))
    rhs = np.zeros(n)
    for i in range(-N, N + 1):
        ti = coll[i + N]
        if endpoint_rows and i == -N:
            jfac = lambda l: 0.0  # running integral from a to a
        elif endpoint_rows and i == N:
            jfac = lambda l: h    # full-interval limit of J
        else:
            jfac = lambda l, i=i: naive_j_at_node(h, i - l)
        rhs[i + N] = g[i + N]
        for j in range(-N, N + 1):
            if j in (-N, N):
                hat = omega_a if j == -N else omega_b
                e = hat(iv, ti)
                v = 0.0
                kacc = 0.0
                for l in range(-N, N + 1):
                    sl, wl = pts[l + N], wts[l + N]
                    v += k1[i + N, l + N] * hat(iv, sl) * wl * jfac(l)
                    kacc += k2[i + N, l + N] * hat(iv, sl) * wl
                k = kacc * h
            else:
                e = 1.0 if i == j else 0.0
                wj = wts[j + N]
                v = k1[i + N, j + N] * wj * jfac(j)
                k = k2[i + N, j + N] * wj * h
            if endpoint_rows and i in (-N, N):
                # identity rows of the endpoint-collocated variant
                e = 1.0 if i == j else 0.0
            A[i + N, j + N] = e - v - k
    return A, rhs
