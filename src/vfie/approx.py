"""Interval-based sinc machinery: grids, boundary-corrected interpolation,
quadrature, and indefinite integration.

A `SincGrid` caches the node images and Jacobian weights shared by the
three operations.  The interpolant augments plain cardinal interpolation
with the two boundary hats so functions with nonzero endpoint values are
handled; its cardinal coefficients are the samples minus the boundary
part, which is what makes it reproduce the samples at the nodes.
`approximate` builds it from the samples at the nodes, and
`evaluate_many` evaluates it on a scalar or a 1-D array of points.
"""

from dataclasses import dataclass

import numpy as np

from . import transforms
from .basis import _boundary_pair, sinc_J
from .transforms import Interval, MeshParams, Method, TransformKind

__all__ = [
    "SincGrid",
    "GeneralizedInterpolant",
    "build_grid",
    "approximate",
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


def build_grid(iv: Interval, method: Method, alpha: float, d: float, N: int,
               parametric_baseline: bool = False) -> SincGrid:
    """Grid for `method` on `iv`: h from the method's selection rule, node
    images and weights from the method's transform."""
    kind = method.transform
    h = transforms.select_h(method, alpha, d, N, parametric_baseline)
    xs = np.arange(-N, N + 1) * h
    return SincGrid(kind=kind, iv=iv, mesh=MeshParams(N=N, h=h),
                    points=transforms.forward(kind, iv, xs),
                    weights=transforms.derivative(kind, iv, xs))


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


def evaluate_many(interp: GeneralizedInterpolant, ts) -> np.ndarray:
    """Interpolant values on a scalar or 1-D array of points in [a, b].

    Points that are bitwise equal to an interior grid point short-circuit
    to the stored sample; the endpoints map to x = -inf/+inf, where the
    cardinal terms vanish and only the boundary hats survive.
    """
    grid = interp.grid
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if ts.ndim > 1:
        raise ValueError(f"points must be a scalar or a 1-D array, got shape {ts.shape}")
    xs = transforms.inverse(grid.kind, grid.iv, ts)
    wa, wb = _boundary_pair(grid.iv, ts)
    with np.errstate(invalid="ignore"):  # sinc(+-inf) is NaN; those rows are zeroed next
        rows = np.sinc(xs[:, None] / grid.h - np.arange(-grid.mesh.N, grid.mesh.N + 1))
    rows[np.isinf(xs)] = 0.0
    out = interp.boundary_left * wa + interp.boundary_right * wb + rows @ interp.coeffs
    idx = np.minimum(np.searchsorted(grid.points, ts), grid.n - 1)
    hit = (grid.points[idx] == ts) & (ts > grid.iv.a) & (ts < grid.iv.b)
    return np.where(hit, interp.samples[idx], out)


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
