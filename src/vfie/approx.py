"""Interval-based sinc machinery: grids and boundary-corrected interpolation.

A `SincGrid` caches the node images and Jacobian weights that assembly
and interpolation share.  The interpolant augments plain cardinal
interpolation with the two boundary hats so functions with nonzero
endpoint values are handled; its cardinal coefficients are the samples
minus the boundary part, which is what makes it reproduce the samples at
the nodes.  `approximate` builds it from the samples at the nodes.
`_evaluate_point` evaluates it at one point, on Python floats, and is the
complete rule.  `evaluate_many`, on a scalar or a 1-D array of points,
vectorizes that rule for the regular rows (k in the table below, r not 0,
the point inside its node bracket) and for the nodes that their bracket
finds, and hands every other point to it.

The cardinal sum is evaluated in classic barycentric form (Richardson
and Trefethen, "A sinc function analogue of Chebfun", SISC 33, 2011),
which needs one sine per point instead of one per (point, node).  With
u = x/h, k = rint(u) and r = u - k, which is exact in floating point,

    sum_j c_j sinc(u - j) = (-1)^k sin(pi r)/pi sum_j (-1)^j c_j/(u - j),

because sin(pi (u - j)) = (-1)^(j+k) sin(pi r).  Reducing the argument
to r keeps sin(pi u) accurate for large |u|: without it, sin(pi u) at |u|
in the hundreds loses up to 2.5e-12 on example 2.

The sum over j is split at k.  With a_j = (-1)^j c_j 2^-e (the scaling is
below) and m = k - j, the entries of the near window |m| <= K are summed
as they are, and the far field is a smooth function of r, because
1/(u - j) = 1/(m + r) = sum_p (-r)^p/m^(p+1):

    sum_j a_j/(u - j) = sum_{|m|<=K} a_j/(u - j) + sum_{p<P} (-r)^p C_p[k] + R,
    C_p[k] = sum_{|k-j|>K} a_j/(k - j)^(p+1).

This is the single-level form of the fast algorithms for Cauchy sums
(Dutt, Gu and Rokhlin, "Fast algorithms for polynomial interpolation,
integration and differentiation", SINUM 33, 1996): one local expansion
per integer k replaces the n - (2K + 1) far divides of a point.

What P terms leave of 1/(m + r) is (-r/m)^P/(m + r), largest at
|r| = 1/2, and |m| >= K + 1 on both sides of k, so

    |R| <= max|a| sum_{m>K} 2^-P m^-P (1/(m - 1/2) + 1/(m + 1/2))
        <= 2 max|a| 2^-P (K + 1/2)^-P/(P - 1) = 2 max|a| (2K + 1)^-P/(P - 1),

by 1/(m + 1/2) <= 1/(m - 1/2) <= 1/(K + 1/2) and, m^-P being convex,
sum_{m>K} m^-P <= the integral of x^-P from K + 1/2.  K is 8, and P is
the least count for which the bound is at most 2^-53 max|a|: P = 13,
where it is 1.7e-17 max|a|, under a quarter of an ulp of the largest
|a_j|.  K = 4, 6 and 12 (P = 16, 14 and 11) cost the same within a
shared host's noise.

Each interpolant builds, once, the zero-padded near windows of a and
the table C[k, p] for k = -N - K..N + K: row k of the windows of the
padded a_j, of width 4N + 2K + 1, times the powers (1/m)^(p+1), in one
BLAS product (0.1 ms at N = 64, 1.0 ms at N = 256, one thread).  A
table entry is off by at most gamma_(4N + 2K + 1 + 2P) times the sum of
its terms' magnitudes (Higham, "Accuracy and Stability of Numerical
Algorithms", 3.1): its powers carry at most 2p + 1 roundings, and its
product is a dot product in some order.  A point then costs 2K + 1
entries and P Horner steps whatever N is: a call on 4096 points takes
about 0.51 ms at every N, where the full rows took 0.37 ms at N = 4,
1.7 ms at N = 128 and 3.4 ms at N = 256 (best of 25, one thread; the
table per N is in CHANGES.md).  The rows beyond the table, |k| > N + K
(t = 1e-300 on an SE grid, say), are left to the point path, which sums
their full row of n entries, as every row was summed before.

A row's entries, each u - j rounded once, are summed by `np.add.reduce`,
numpy's pairwise sum, in the same order for a row of a block as for a
lone row, and the Horner sum in -r is added to that, so a value depends
on its point alone: `evaluate_solution` and every batch of
`evaluate_solution_many` that holds t give the same bits at t.
Pairwise summation also has the smaller error bound, O(eps log n)
against O(eps n) for a sum in order (Higham, 4.2).  The values lie
within 3.4e-16 of the direct formula (the full rows: 4.4e-16) on 4096
equispaced, 16384 random and the node-neighbour points, both examples,
all methods, N = 4..256.

The entry at j = k is c_k/r, and |r| can be as small as 2^-1074 (next to
the midpoint of [0, 1] it is about 1.4e-16), so the signed coefficients
are stored times 2^-e, a power of two that takes the largest below
2^-51: no entry reaches 2^1023, the other entries of a row stay below
2^-50, and no sum overflows, for any finite coefficients.  The product
of a sum and sin(pi r)/pi is scaled back by 2^e; a power of two scales
exactly unless a result is subnormal, so the values are those of the
unscaled sum.  Samples of 1e300 on an N = 16 grid give finite values
next to 0.5, within 1e-15 x 1e300 of the direct formula, where an
unscaled row overflows.  These constants are built once, with the
interpolant.  In the window, u - j = r - o with o = j - k is exact in
real arithmetic (r is exact), so it is rounded once, to the same bits,
as the point path's difference r - o and as a block's BLAS product
[r, 1] [1; -o], whose two products per entry are exact.  Beyond the
table the point path takes u - j as one difference.  No row sum goes
through the BLAS.

The arrays an interpolant builds are read-only, and each `evaluate_many`
call works in buffers of its own, reused by every block of the call (at
most 512 windows), so concurrent evaluations of one interpolant share
nothing they write.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import transforms
from .transforms import Interval, MeshParams, Method, TransformKind, _vector

__all__ = [
    "SincGrid",
    "GeneralizedInterpolant",
    "build_grid",
    "approximate",
    "evaluate_many",
]

# points per block of evaluate_many's near windows, whose buffers
# (512 x 17, 70 KB) every block of a call reuses and which stay below
# glibc's 128 KB mmap threshold, and so are not fresh zero-filled pages
# on every call; it bounds memory, not the values
_WINDOW_BLOCK = 512
# the half-width K of the exact near window, and the number P of terms
# of the far field: the least P whose remainder bound (module docstring)
# is at most 2^-53
_NEAR = 8
_TERMS = next(P for P in itertools.count(2) if 2 * (2 * _NEAR + 1) ** -P / (P - 1) <= 2**-53)
# the window's 2 x (2K + 1) factor [1; -o], o = -K..K, so that
# [r, 1] [1; -o] is r - o
_OFFSETS = np.arange(-_NEAR, _NEAR + 1, dtype=float)
_OFFSETS.setflags(write=False)
_WINDOW = np.stack([np.ones(_OFFSETS.size), -_OFFSETS])
_WINDOW.setflags(write=False)


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
    # per-solution constants of evaluation: the signed coefficients
    # a_j = (-1)^j c_j times 2^-e, j = -N..N, e, and for k = -N - K..N + K
    # the near windows a_(k-K..k+K), zero beyond -N..N, in row k + N + K,
    # and the far-field table C[k, p] in column k + N + K of row p < P
    _signed: np.ndarray = field(init=False, repr=False)
    _exponent: int = field(init=False, repr=False)
    _near: np.ndarray = field(init=False, repr=False)
    _far: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n, N = self.grid.n, self.grid.mesh.N
        samples = _vector(self.samples, n, "samples")
        coeffs = _vector(self.coeffs, n, "coeffs")
        # (-1)^j c_j times 2^-e, which takes the largest below 2^-51
        exponent = max(math.frexp(np.abs(coeffs).max())[1] + 51, 0)
        signed = np.ldexp(coeffs, -exponent)
        signed[(N + 1) % 2::2] *= -1.0  # j = -N + i is odd for these i
        near, far = _tables(signed, N)
        for value in (signed, near, far):
            value.setflags(write=False)
        for name, value in (("samples", samples), ("coeffs", coeffs), ("_signed", signed),
                            ("_exponent", exponent), ("_near", near), ("_far", far)):
            object.__setattr__(self, name, value)


def _tables(signed, N):
    """The near windows and the far-field table C of the signed
    coefficients a_j, from one matrix: row k + N + K, k = -N - K..N + K,
    of the windows of the zero-padded a_j holds in column l the a_j at
    m = k - j = 2N + K - l.  Columns 2N..2N + 2K are the near window of k,
    and C[k, p] is the row times (1/m)^(p + 1), by repeated products,
    where |m| > K: one BLAS product for every k and p."""
    width = 4 * N + 2 * _NEAR + 1
    pad = 2 * (N + _NEAR)
    padded = np.zeros(signed.size + 2 * pad)
    padded[pad:pad + signed.size] = signed
    windows = sliding_window_view(padded, width).copy()
    m = (2 * N + _NEAR) - np.arange(width, dtype=float)
    powers = np.empty((_TERMS, width))
    powers[0] = 1.0 / np.where(np.abs(m) > _NEAR, m, np.inf)  # 0 in the window
    for p in range(1, _TERMS):
        np.multiply(powers[p - 1], powers[0], out=powers[p])
    return windows[:, 2 * N:2 * (N + _NEAR) + 1].copy(), powers @ windows.T


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

    This is `_evaluate_point` vectorized for the regular rows, and the
    point path itself for the rest.  A row is regular when its k is in the
    far-field table, |k| <= N + K, its r is not 0 and its point lies
    inside its node bracket (below).  Its cardinal part is the barycentric
    sum of the module docstring: the near window's 2K + 1 entries,
    `_WINDOW_BLOCK` points at a time, plus Horner in -r over the table;
    the parity of k is read from k/2.  The boundary hats are added to it.

    The node test brackets t by the candidate c = k + N (clipped to
    [1, n - 2]): if points[c - 1] < t < points[c + 1], no node other than
    points[c] can equal t, so t is a node exactly when points[c] == t, and
    c is then the leftmost such index, the one `searchsorted` gives; such
    a point takes the stored sample.  Every other point that is not
    regular gets its value from `_evaluate_point`: the endpoints (u =
    +-inf), an integral u off the nodes, the rows beyond the table (t =
    1e-300 on an SE grid, say), duplicated node values (example 2's se-new
    grid at N = 256 has 4) and points near b whose u is off by a node.
    The sweep's error grids have 186 such points in 294,912, and uniform
    points at N = 256 none.  Each costs a point query, 5 to 7 us, where a
    vectorized row costs about 0.1 us: 4096 points all beyond the table of
    an SE grid take about 22 ms at N = 64 and 29 ms at N = 512 (one BLAS
    thread on a shared 2-vCPU host).

    The result is a 1-D array; points of any other shape raise ValueError
    naming the shape.
    """
    grid = interp.grid
    N = grid.mesh.N
    ts = np.atleast_1d(transforms._real(ts))
    if ts.ndim > 1:
        raise ValueError(f"points must be a scalar or a 1-D array, got shape {ts.shape}")
    u = transforms.inverse(grid.kind, grid.iv, ts) / grid.h
    k = np.rint(u)
    # r is NaN on the +-inf rows, an entry is x/0 where r = 0, and the rows
    # beyond the table take the window of k clipped to it: all three kinds
    # are handed to the point path below
    with np.errstate(invalid="ignore", divide="ignore"):
        r = u - k
        sums = _window_sums(interp, r, np.clip(k, -N - _NEAR, N + _NEAR))
        half = 0.5 * k
        # k is odd where k/2 is not integral; a negation is exact, so
        # where it is taken does not change the bits
        cardinal = np.where(half != np.floor(half), -sums, sums) * (np.sin(np.pi * r) / np.pi)
        np.ldexp(cardinal, interp._exponent, out=cardinal)
    wa, wb = _boundary_pair(grid.iv, ts)
    out = interp.boundary_left * wa + interp.boundary_right * wb + cardinal
    p = grid.points
    c = np.clip(k + (N - 1), 0, grid.n - 3).astype(np.intp)  # the candidate minus 1
    bracketed = (p[:-2][c] < ts) & (ts < p[2:][c])
    hit = bracketed & (p[1:-1][c] == ts)
    out[hit] = interp.samples[c[hit] + 1]
    irregular = np.flatnonzero(~hit & (~bracketed | (r == 0) | (np.abs(k) > N + _NEAR)))
    out[irregular] = [_evaluate_point(interp, t) for t in ts[irregular].tolist()]
    return out


def _window_sums(interp, r, k):
    """sum_j a_j/(u - j) at u = k + r for k in the table, |k| <= N + K:
    the near window's entries, each u - j rounded once, summed by
    `np.add.reduce`, plus the far field by Horner in -r over the table's
    column of k (whose indices are valid, so the gathers need no check)."""
    column = (k + (interp.grid.mesh.N + _NEAR)).astype(np.intp)
    sums = np.empty_like(r)
    size = min(r.size, _WINDOW_BLOCK)
    entries = np.empty((size, _OFFSETS.size))
    near = np.empty_like(entries)
    pairs = np.ones((size, 2))  # a block's rows [r, 1]
    for s in range(0, r.size, _WINDOW_BLOCK):
        blk = slice(s, s + _WINDOW_BLOCK)
        m = min(_WINDOW_BLOCK, r.size - s)
        pairs[:m, 0] = r[blk]
        np.matmul(pairs[:m], _WINDOW, out=entries[:m])  # r*1 + 1*(-o): u - j, rounded once
        np.take(interp._near, column[blk], axis=0, out=near[:m], mode="clip")
        np.divide(near[:m], entries[:m], out=entries[:m])
        np.add.reduce(entries[:m], axis=-1, out=sums[blk])
    minus_r = -r
    far = interp._far
    horner = far[-1].take(column)
    term = np.empty_like(r)
    for p in range(_TERMS - 2, -1, -1):
        horner *= minus_r
        horner += np.take(far[p], column, out=term, mode="clip")
    sums += horner
    return sums


def _evaluate_point(interp: GeneralizedInterpolant, t) -> float:
    """The interpolant at one point, on Python floats: the complete rule.

    `evaluate_many` vectorizes it for its regular rows and bracketed
    nodes and calls it for every other point, and the tests hold the two
    equal bit for bit.  At a and b only the hats are left; at an integral
    u off the nodes the cardinal part is c_k (0 beyond -N..N); a row
    beyond the table sums its full row of n entries, u - j each rounded
    once; every other row is the near window plus Horner over the table.

    A one-element array would pay numpy's per-call cost some 45 times;
    this path takes about a seventh of that time.  Here every step whose
    IEEE result numpy shares is done on Python floats: the domain check,
    the preimage's quotient (`transforms._inverse_point`), u = x/h,
    k = round(u), which rounds half to even like np.rint, r = u - k, the
    Horner sum in -r over the table's column of k (a product, then a sum,
    each rounded once, as numpy's in-place steps are), the sign, pi r,
    the division by pi, the scaling by 2^e (math.ldexp, exact like
    np.ldexp) and the hats.  What might round differently stays numpy's:
    the log, arcsinh and sine, and the row of entries (the near window,
    or the full row beyond the table) with its `np.add.reduce`, the
    pairwise sum a block row gets.  At a and b, u is -inf and +inf, taken
    without a warning.  The node snap is one `searchsorted` per point,
    which costs no measurable time here.
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
        N = grid.mesh.N
        if r == 0.0:
            cardinal = float(interp.coeffs[k + N]) if -N <= k <= N else 0.0
        else:
            if abs(k) <= N + _NEAR:
                row = r - _OFFSETS  # r - o is u - j, bitwise
                np.divide(interp._near[k + N + _NEAR], row, out=row)
                far = interp._far[:, k + N + _NEAR].tolist()
                horner, minus_r = far[-1], -r
                for c in reversed(far[:-1]):
                    horner = horner * minus_r + c
                s = float(np.add.reduce(row)) + horner
            else:
                row = u - np.arange(-N, N + 1, dtype=float)
                np.divide(interp._signed, row, out=row)
                s = float(np.add.reduce(row))
            scaled = (-s if k % 2 else s) * (float(np.sin(np.pi * r)) / math.pi)
            try:
                cardinal = math.ldexp(scaled, interp._exponent)
            except OverflowError:  # the value itself is beyond the doubles
                cardinal = math.copysign(math.inf, scaled)
    wa, wb = _boundary_pair(grid.iv, t)
    return float(interp.boundary_left * wa + interp.boundary_right * wb + cardinal)
