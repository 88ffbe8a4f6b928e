"""Interval-based sinc machinery: grids and boundary-corrected interpolation.

A `SincGrid` caches the node images and Jacobian weights that assembly
and interpolation share.  The interpolant augments plain cardinal
interpolation with the two boundary hats so functions with nonzero
endpoint values are handled; its cardinal coefficients are the samples
minus the boundary part, which is what makes it reproduce the samples at
the nodes.  `approximate` builds it from the samples at the nodes, and
`evaluate_many` evaluates it on a scalar or a 1-D array of points.

The cardinal sum is evaluated in classic barycentric form (Richardson
and Trefethen, "A sinc function analogue of Chebfun", SISC 33, 2011),
which needs one sine per point instead of one per (point, node).  With
u = x/h, k = rint(u) and r = u - k, which is exact in floating point,

    sum_j c_j sinc(u - j) = (-1)^k sin(pi r)/pi sum_j (-1)^j c_j/(u - j),

because sin(pi (u - j)) = (-1)^(j+k) sin(pi r).  Reducing the argument
to r keeps sin(pi u) accurate for large |u|.  Each row of entries is
summed by `np.add.reduce`, numpy's pairwise sum, in the same order for a
row of a block as for a lone row, so a value depends on its point alone.

The entry at j = k is c_k/r, and |r| can be as small as 2^-1074, so the
signed coefficients are stored times 2^-e, a power of two that takes the
largest below 2^-51: no entry reaches 2^1023 and no sum overflows, for
any finite coefficients.  The product of a sum and sin(pi r)/pi is
scaled back by 2^e; a power of two scales exactly unless a result is
subnormal.  These constants are built once, with the interpolant, and so
is the 2 x n factor [1; -j]: a block's differences u - j are the BLAS
product [u, 1] [1; -j], whose two products per entry are exact, so its
one rounding is that of their sum, bitwise u - j in any summation order,
on the +-inf rows too.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import transforms
from .transforms import Interval, MeshParams, Method, TransformKind, _vector

__all__ = [
    "SincGrid",
    "GeneralizedInterpolant",
    "build_grid",
    "approximate",
    "evaluate_many",
]

# points per block of evaluate_many, whose one buffer per call (256 x 513
# at N = 256, 1 MB) every block reuses; it bounds memory, not the values
_BLOCK = 256


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
        for name in ("points", "weights"):
            object.__setattr__(self, name, _vector(getattr(self, name), self.mesh.n, name))

    @property
    def n(self) -> int:
        return self.mesh.n

    @property
    def h(self) -> float:
        return self.mesh.h


def build_grid(iv: Interval, method: Method, alpha: float, d: float, N: int) -> SincGrid:
    """Grid for `method` on `iv`: h from the method's selection rule, node
    images and weights from the method's transform."""
    kind = method.transform
    h = transforms.select_h(method, alpha, d, N)
    xs = np.arange(-N, N + 1) * h
    return SincGrid(kind=kind, iv=iv, mesh=MeshParams(N=N, h=h),
                    points=transforms.forward(kind, iv, xs),
                    weights=transforms.derivative(kind, iv, xs))


def _boundary_pair(iv, ts):
    """Both boundary hats at ts (a scalar or an array), unchecked: the left
    hat (b - t)/(b - a), 1 at a and 0 at b, and the right hat (t - a)/(b - a)."""
    w = iv.b - iv.a
    return (iv.b - ts) / w, (ts - iv.a) / w


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
    # per-solution constants of evaluate_many: the signed coefficients
    # (-1)^j c_j times 2^-e, e, and the 2 x n factor [1; -j], j = -N..N
    _signed: np.ndarray = field(init=False, repr=False)
    _exponent: int = field(init=False, repr=False)
    _right: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n, N = self.grid.n, self.grid.mesh.N
        samples = _vector(self.samples, n, "samples")
        coeffs = _vector(self.coeffs, n, "coeffs")
        # (-1)^j c_j times 2^-e, which takes the largest below 2^-51
        exponent = max(math.frexp(np.abs(coeffs).max())[1] + 51, 0)
        signed = np.ldexp(coeffs, -exponent)
        signed[(N + 1) % 2::2] *= -1.0  # j = -N + i is odd for these i
        right = np.stack([np.ones(n), -np.arange(-N, N + 1, dtype=float)])
        signed.setflags(write=False)
        right.setflags(write=False)
        for name, value in (("samples", samples), ("coeffs", coeffs), ("_signed", signed),
                            ("_exponent", exponent), ("_right", right)):
            object.__setattr__(self, name, value)


def approximate(grid: SincGrid, samples) -> GeneralizedInterpolant:
    """Interpolant through `samples` taken at the grid points."""
    samples = _vector(samples, grid.n, "samples")
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
    cardinal terms vanish and only the boundary hats survive.  Elsewhere
    the cardinal part is the barycentric sum of the module docstring,
    its entries formed `_BLOCK` points at a time; where u = x/h is an
    integer k it is c_k for |k| <= N and 0 beyond.

    The work per point after the sums is O(1): the parity of k is read
    from k/2, and only the rows with r = 0 or u = +-inf take c_k, by index.
    The node test brackets t by the candidate c = k + N (clipped to
    [1, n - 2]): if points[c - 1] < t < points[c + 1], no node other than
    points[c] can equal t, so t is a node exactly when points[c] == t, and
    c is then the leftmost such index.  Only the points outside their
    bracket (the endpoints, duplicated node values, and points whose u is
    off by a node) are looked up with `searchsorted`.
    """
    grid = interp.grid
    N = grid.mesh.N
    ts = np.atleast_1d(transforms._real(ts))
    if ts.ndim > 1:
        raise ValueError(f"points must be a scalar or a 1-D array, got shape {ts.shape}")
    u = transforms.inverse(grid.kind, grid.iv, ts) / grid.h
    k = np.rint(u)
    sums = np.empty_like(u)
    rows = min(u.size, _BLOCK)
    block = np.empty((rows, grid.n))
    pairs = np.ones((rows, 2))  # a block's rows [u, 1]
    # r is NaN on the +-inf rows, and c_k/r is x/0 where r = 0; both
    # kinds of row are replaced below
    with np.errstate(invalid="ignore", divide="ignore"):
        r = u - k
        for s in range(0, u.size, _BLOCK):
            blk = slice(s, s + _BLOCK)
            m = block[:min(_BLOCK, u.size - s)]
            pairs[:len(m), 0] = u[blk]
            np.matmul(pairs[:len(m)], interp._right, out=m)  # u*1 + 1*(-j): u - j, rounded once
            np.divide(interp._signed, m, out=m)
            np.add.reduce(m, axis=-1, out=sums[blk])
        half = 0.5 * k
        # k is odd where k/2 is not integral, never at k = +-inf; a
        # negation is exact, so where it is taken does not change the bits
        cardinal = np.where(half != np.floor(half), -sums, sums) * (np.sin(np.pi * r) / np.pi)
        np.ldexp(cardinal, interp._exponent, out=cardinal)
    # at an integral u only S(k, h) is nonzero; at u = +-inf none is
    special = np.flatnonzero((r == 0) | np.isinf(u))
    if special.size:
        ks = k[special]
        on_k = interp.coeffs[np.clip(ks, -N, N).astype(np.intp) + N]
        cardinal[special] = np.where(np.abs(ks) <= N, on_k, 0.0)
    wa, wb = _boundary_pair(grid.iv, ts)
    out = interp.boundary_left * wa + interp.boundary_right * wb + cardinal
    p = grid.points
    c = np.clip(k + (N - 1), 0, grid.n - 3).astype(np.intp)  # the candidate minus 1
    bracketed = (p[:-2][c] < ts) & (ts < p[2:][c])
    hit = np.flatnonzero(bracketed & (p[1:-1][c] == ts))
    out[hit] = interp.samples[c[hit] + 1]
    if not bracketed.all():
        rest = np.flatnonzero(~bracketed)
        tr = ts[rest]
        idx = np.minimum(np.searchsorted(p, tr), grid.n - 1)
        on = np.flatnonzero((p[idx] == tr) & (tr > grid.iv.a) & (tr < grid.iv.b))
        out[rest[on]] = interp.samples[idx[on]]
    return out


def _evaluate_point(interp: GeneralizedInterpolant, t) -> float:
    """`evaluate_many` at one point, bitwise, on Python floats.

    A one-element array would pay numpy's per-call cost some 45 times.
    Here every step whose IEEE result numpy shares is done on Python
    floats: the preimage's quotient (`transforms._inverse_point`), u = x/h,
    k = round(u), which rounds half to even like np.rint, r = u - k, the
    sign, pi r, the division by pi, the scaling by 2^e and the hats.  What
    might round differently stays numpy's: the log, arcsinh and sine, and
    the row of entries with its `np.add.reduce`, the pairwise sum a block
    row gets.
    """
    grid = interp.grid
    if not isinstance(t, float):
        t = transforms._real(t)
        if t.ndim:
            raise ValueError(f"t must be a scalar, got shape {t.shape}")
    t = float(t)
    u = transforms._inverse_point(grid.kind, grid.iv, t) / grid.h
    if grid.iv.a < t < grid.iv.b:
        i = grid.points.searchsorted(t)
        if i < grid.n and grid.points[i] == t:
            return float(interp.samples[i])
    if math.isinf(u):
        cardinal = 0.0
    else:
        k = round(u)
        r = u - k
        if r == 0.0:
            N = grid.mesh.N
            cardinal = float(interp.coeffs[k + N]) if -N <= k <= N else 0.0
        else:
            row = interp._right[1] + u  # u + (-j) is u - j, bitwise
            np.divide(interp._signed, row, out=row)
            s = float(np.add.reduce(row))
            scaled = (-s if k % 2 else s) * (float(np.sin(np.pi * r)) / math.pi)
            try:
                cardinal = math.ldexp(scaled, interp._exponent)
            except OverflowError:  # the value itself is beyond the doubles
                cardinal = math.copysign(math.inf, scaled)
    wa, wb = _boundary_pair(grid.iv, t)
    return float(interp.boundary_left * wa + interp.boundary_right * wb + cardinal)
