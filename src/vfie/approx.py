"""Interval-based sinc machinery: grids, boundary-corrected interpolation,
quadrature, and indefinite integration.

A `SincGrid` caches the node images and Jacobian weights shared by the
three operations.  The interpolant augments plain cardinal interpolation
with the two boundary hats so functions with nonzero endpoint values are
handled; its cardinal coefficients are the samples minus the boundary
part, which is what makes it reproduce the samples at the nodes.
"""

from dataclasses import dataclass

import numpy as np

from . import transforms
from .basis import sinc_J
from .transforms import Interval, MeshParams, Method, TransformKind

__all__ = [
    "SincGrid",
    "GeneralizedInterpolant",
    "build_grid",
    "approximate",
    "evaluate",
    "evaluate_many",
    "quadrature",
    "indefinite",
]


@dataclass(frozen=True, eq=False)
class SincGrid:
    """Transform node images t_j = psi(j h) and weights psi'(j h), j = -N..N.

    Immutable after construction; safe to share across threads.
    """

    kind: TransformKind
    iv: Interval
    mesh: MeshParams
    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        n = self.mesh.n
        if self.points.shape != (n,) or self.weights.shape != (n,):
            raise ValueError(f"points and weights must have length {n}")
        self.points.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def n(self) -> int:
        return self.mesh.n

    @property
    def h(self) -> float:
        return self.mesh.h


def build_grid(kind: TransformKind, iv: Interval, method: Method, alpha: float,
               d: float, N: int, parametric_baseline: bool = False) -> SincGrid:
    """Grid for `method` on `iv`: h from the method's selection rule, node
    images and weights from the requested transform."""
    h = transforms.select_h(method, alpha, d, N, parametric_baseline)
    mesh = MeshParams.for_kind(kind, N=N, h=h, alpha=alpha, d=d)
    xs = np.arange(-N, N + 1) * h
    points = transforms.forward(kind, iv, xs)
    weights = transforms.derivative(kind, iv, xs)
    return SincGrid(kind=kind, iv=iv, mesh=mesh, points=points, weights=weights)


@dataclass(frozen=True, eq=False)
class GeneralizedInterpolant:
    """Sinc interpolant with linear boundary correction.

    `coeffs` holds the cardinal coefficients after the boundary part is
    subtracted; evaluation at grid node i therefore returns samples[i]
    exactly, and evaluation at a/b returns the first/last sample.
    """

    grid: SincGrid
    samples: np.ndarray
    boundary_left: float
    boundary_right: float
    coeffs: np.ndarray

    def __post_init__(self):
        self.samples.setflags(write=False)
        self.coeffs.setflags(write=False)


def approximate(grid: SincGrid, samples) -> GeneralizedInterpolant:
    """Interpolant through `samples` taken at the grid points."""
    samples = np.array(samples, dtype=float)
    if samples.shape != (grid.n,):
        raise ValueError(f"expected {grid.n} samples, got shape {samples.shape}")
    bl = float(samples[0])
    br = float(samples[-1])
    wa, wb = _boundary_pair(grid.iv, grid.points)
    coeffs = samples - bl * wa - br * wb
    return GeneralizedInterpolant(grid=grid, samples=samples,
                                  boundary_left=bl, boundary_right=br, coeffs=coeffs)


def evaluate(interp: GeneralizedInterpolant, t: float) -> float:
    """Interpolant value at one point of [a, b]."""
    return float(evaluate_many(interp, np.array([float(t)]))[0])


def evaluate_many(interp: GeneralizedInterpolant, ts) -> np.ndarray:
    """Interpolant values on an array of points in [a, b].

    Points that are bitwise equal to an interior grid point short-circuit
    to the stored sample; the endpoints map to x = -inf/+inf, where the
    cardinal terms vanish and only the boundary hats survive.
    """
    grid = interp.grid
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    xs = transforms.inverse(grid.kind, grid.iv, ts)
    wa, wb = _boundary_pair(grid.iv, ts)
    rows = _cardinal_rows(grid.mesh.N, grid.h, xs)
    out = interp.boundary_left * wa + interp.boundary_right * wb + rows @ interp.coeffs
    node = _exact_node_indices(grid.points, ts, grid.iv)
    hit = node >= 0
    if np.any(hit):
        out[hit] = interp.samples[node[hit]]
    return out


def quadrature(grid: SincGrid, f) -> float:
    """h * sum_j f(t_j) psi'(jh): the transformed trapezoid rule for the
    integral of f over (a, b).

    f is only ever sampled at the grid points, which lie inside the open
    interval (up to floating-point saturation at extreme nodes), so
    endpoint-singular integrands are admissible at moderate N.
    """
    vals = np.array([f(t) for t in grid.points], dtype=float)
    return grid.h * float(vals @ grid.weights)


def indefinite(grid: SincGrid, f, t: float) -> float:
    """Approximation of the running integral of f from a to t.

    At t = a every J factor vanishes, giving 0; at t = b every J factor
    equals h and the rule collapses to `quadrature`.
    """
    x = transforms.inverse(grid.kind, grid.iv, t)
    N = grid.mesh.N
    vals = np.array([f(s) for s in grid.points], dtype=float)
    jrow = sinc_J(np.arange(-N, N + 1), grid.h, x)
    return float((vals * grid.weights) @ jrow)


def _boundary_pair(iv, ts):
    w = iv.b - iv.a
    return (iv.b - ts) / w, (ts - iv.a) / w


def _cardinal_rows(N, h, xs):
    """Matrix of S(j,h)(x) over j = -N..N, one row per x; zero rows at +-inf."""
    rows = np.zeros((len(xs), 2 * N + 1))
    finite = np.isfinite(xs)
    if np.any(finite):
        r = xs[finite, None] / h - np.arange(-N, N + 1)[None, :]
        rows[finite] = np.sinc(r)
    return rows


def _exact_node_indices(points, ts, iv):
    """Index of the grid point bitwise equal to each t (interior points
    only), or -1.  Endpoint hits are left to the +-inf path."""
    idx = np.searchsorted(points, ts)
    idx = np.clip(idx, 0, len(points) - 1)
    hit = (points[idx] == ts) & (ts > iv.a) & (ts < iv.b)
    return np.where(hit, idx, -1)
