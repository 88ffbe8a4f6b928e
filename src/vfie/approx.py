"""Interval-based sinc machinery: grids and boundary-corrected interpolation.

A `SincGrid` caches the node images and Jacobian weights that assembly
and interpolation share.  The interpolant augments plain cardinal
interpolation with the two boundary hats so functions with nonzero
endpoint values are handled; its cardinal coefficients are the samples
minus the boundary part, which is what makes it reproduce the samples at
the nodes.  `approximate` builds it from the samples at the nodes.
`_evaluate_point` evaluates it at one point, on Python floats, and is the
complete rule.  `evaluate_many`, on a scalar or a 1-D array of points,
vectorizes that rule for the regular rows (k in the table below, the
point inside its node bracket) and for the nodes that their bracket
finds, and hands every other point to it.

The cardinal sum is evaluated by one Taylor polynomial per integer cell.
With u = x/h, k = rint(u) and r = u - k, which is exact in floating point
and has |r| <= 1/2, the sum is an entire function of r:

    sum_j c_j sinc(u - j) = sum_p r^p sum_j c_j s_p(k - j),

where s_p(m) = sinc^(p)(m)/p! is the p-th Taylor coefficient of sinc at
m.  Each interpolant builds, once, the table T[k, p] = sum_j c^_j
s_p(k - j) for k = -N - K..N + K (K = 8) and p < P, with c^_j = c_j 2^-e
(the scaling is below), and a row's cardinal part is 2^e times the
Horner sum of its P coefficients in r: no divide and no sine.  As s_0(m)
is [m = 0], T[k, 0] is c^_k itself, and an integral u off the nodes
gives c_k (0 beyond -N..N) like any other row.

From sinc(x) = 1/2 int_(-1)^1 e^(i pi x t) dt, |sinc^(p)(x)| <= pi^p/(p + 1)
and, after one integration by parts, <= 2 pi^(p-1)/|x| (Stenger,
"Numerical Methods Based on Sinc and Analytic Functions", 1993).  With
|m| = |k - j| <= M = 2N + K, sum_(m=1)^M 1/m <= 1 + ln M and consecutive
(pi/2)^p/p! falling by at least pi/(2P + 2), what P terms leave is

    |R| <= max|c^| sum_(p>=P) 2^-p sum_m |s_p(m)|
        <= max|c^| (pi/2)^P/P! (1/(P + 1) + 4 (1 + ln M)/pi)/(1 - pi/(2P + 2)).

P is the least count for which this is at most 2^-53 max|c^| on every
grid whose indices are exact doubles, N < 2^53: P = 23, where it is
6.6e-17 max|c^| (1.2e-17 at N = 256).  Grids up to N = 8 would do with
22, and none from N = 16 on.

The table is built from w_p(m) = (-1)^m s_p(m), the Taylor coefficients
of sin(pi r)/(pi (m + r)): as sinc(m + r) = (-1)^m sin(pi r)/(pi (m + r)),
w_p(m) = sum_(q<p) sigma_(p-q) (-1)^q/m^(q+1), with sigma_l those of
sin(pi r)/pi.  The sum is a product of powers of -1/m with a constant
matrix, and stable where p <= pi|m|, its terms growing with l = p - q.
Where p > pi|m|, which takes |m| <= 7, the constant rows `_NEAR` run
m w_p + w_(p-1) = sigma_p downwards instead.  Each w_p(m) is then within
6 u of its value, u = 2^-53 (5.3 u at most for |m| <= 1032).  With the
signed coefficients a_j = (-1)^j c^_j, T[k, p] = (-1)^k sum_j a_j
w_p(k - j): one dot product of n nonzero terms, within gamma_(n + 6)
times the sum of the terms' magnitudes (Higham, "Accuracy and Stability
of Numerical Algorithms", 3.1).  The sums over j are 32 table rows at a
time times one Toeplitz matrix of a, so no matrix of all n + 2K rows is
made: a build takes about 0.04 ms at N = 4, 0.11 ms at N = 64, 0.6 ms at
N = 256 and 1.7 ms at N = 512 (one BLAS thread; the table per N is in
CHANGES.md).

A regular row then costs a gather of P coefficients and P - 1 Horner
steps whatever N is: a call on 4096 points takes about 0.30 ms at every
N, where the near window plus a far-field table it replaced took 0.51 to
0.56 ms, and a point query about 4.1 us against 6.6 us.  The values lie
within 3.3e-16 of the direct formula (the replaced rule: 4.4e-16) on
4096 equispaced, 16384 random and the node-neighbour points, both
examples, all methods, N = 4..256.  Each Horner step is a product, then
a sum, each rounded once, in the same order for a point of any block as
for a lone point, so a value depends on its point alone:
`evaluate_solution` and every batch of `evaluate_solution_many` that
holds t give the same bits at t.

The rows beyond the table, |k| > N + K (t = 1e-300 on an SE grid, say),
are left to the point path, which sums their full barycentric row
(Richardson and Trefethen, "A sinc function analogue of Chebfun", SISC
33, 2011): (-1)^k sin(pi r)/pi sum_j a_j/(u - j), each u - j rounded
once and summed by `np.add.reduce`.

The coefficients are stored times 2^-e, a power of two that takes the
largest below 2^-51, so that no table entry, a sum of n terms each at
most 1.7 max|c^| (|s_p(m)| <= pi^p/((p + 1) p!) <= 1.7), and no Horner
sum comes near 2^1023, for any finite coefficients.  A value is scaled
back by 2^e, exactly unless it is subnormal, so the values are those of
the unscaled sums; a value beyond the doubles is inf on both paths.

The arrays an interpolant builds are read-only, and each `evaluate_many`
call works in buffers of its own, reused by every block of the call (at
most 2048 points), so concurrent evaluations of one interpolant share
nothing they write.
"""

import itertools
import math
from dataclasses import dataclass, field
from decimal import Decimal, localcontext

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

# points per block of evaluate_many, whose gathered table rows
# (2048 x P x 8 B, 377 KB) every block of a call reuses; it bounds
# memory, not the values
_BLOCK = 2048
# the margin K of the Taylor table, whose rows are k = -N - K..N + K
_MARGIN = 8
# table rows per matrix product of the table's build
_CHUNK = 32


def _remainder_bound(P, N):
    """What P Taylor terms leave of a cardinal sum on 2N + 1 nodes at
    most, per unit of max|c^_j| (module docstring)."""
    return ((math.pi / 2) ** P / math.factorial(P) / (1 - math.pi / (2 * P + 2))
            * (1 / (P + 1) + 4 / math.pi * (1 + math.log(2 * N + _MARGIN))))


# the number P of Taylor terms: the least whose bound is at most 2^-53 on
# every grid whose indices are exact doubles, N < 2^53
_TERMS = next(P for P in itertools.count(2) if _remainder_bound(P, 2**53) <= 2**-53)


def _sine_series(count):
    """sigma_l = (-1)^((l-1)/2) pi^(l-1)/l! for odd l and 0 for even l,
    l < count, the Taylor coefficients of sin(pi r)/pi, each rounded once
    from 40 digits."""
    with localcontext() as ctx:
        ctx.prec = 40
        return [float((-1) ** (l // 2) * Decimal("3.141592653589793238462643383279502884197") ** (l - 1)
                      / math.factorial(l)) if l % 2 else 0.0 for l in range(count)]


def _downward_rows(sigma):
    """w_p(m) = (-1)^m s_p(m) for |m| <= (P - 1)/pi, in row m + that bound,
    from m w_p + w_(p-1) = sigma_p run downwards from w = 0 past the last
    sigma_l, and the entries where that is stable, p >= pi|m|."""
    m = np.arange(-int((_TERMS - 1) / math.pi), int((_TERMS - 1) / math.pi) + 1.0)
    rows, w = np.empty((m.size, len(sigma))), np.zeros(m.size)
    for p in range(len(sigma) - 1, 0, -1):
        w = rows[:, p - 1] = sigma[p] - m * w
    return rows[:, :_TERMS].copy(), np.arange(_TERMS) >= math.pi * np.abs(m)[:, None]


_SIGMA = _sine_series(_TERMS + 64)
# w_p(m) = -sum_(q<p) sigma_(p-q) x^(q+1), x = -1/m, is the powers x^(q+1)
# times this matrix, -sigma_(p-q) in row q and column p - 1; the sum is
# stable where p <= pi|m|, and `_NEAR` holds w_p(m) where it is not
_FAR = np.array([[-_SIGMA[p - q] if q < p else 0.0 for p in range(1, _TERMS)]
                 for q in range(_TERMS - 1)])
_NEAR, _STABLE = _downward_rows(_SIGMA)
for _constant in (_FAR, _NEAR, _STABLE):
    _constant.setflags(write=False)


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
    # per-solution constants of evaluation: the scale exponent e, the
    # signed coefficients a_j = (-1)^j c_j 2^-e, j = -N..N, and the Taylor
    # table T[k, p] in column k + N + K of row p
    _signed: np.ndarray = field(init=False, repr=False)
    _exponent: int = field(init=False, repr=False)
    _taylor: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n, N = self.grid.n, self.grid.mesh.N
        samples = _vector(self.samples, n, "samples")
        coeffs = _vector(self.coeffs, n, "coeffs")
        # (-1)^j c_j times 2^-e, which takes the largest below 2^-51
        exponent = max(math.frexp(np.abs(coeffs).max())[1] + 51, 0)
        signed = np.ldexp(coeffs, -exponent)
        signed[(N + 1) % 2::2] *= -1.0  # j = -N + i is odd for these i
        signed.setflags(write=False)
        for name, value in (("samples", samples), ("coeffs", coeffs), ("_signed", signed),
                            ("_exponent", exponent), ("_taylor", _table(signed, N))):
            object.__setattr__(self, name, value)


def _table(signed, N):
    """T[k, p] = sum_j c^_j s_p(k - j), k = -N - K..N + K, p < P, in column
    k + N + K of row p, from the signed coefficients a_j = (-1)^j c^_j:
    the P entries of k are (-1)^k sum_j a_j w_(k-j), each w_m a row of the
    P values w_p(m) (`_FAR`, `_NEAR`).  The sums over j are products of one
    Toeplitz matrix of a with `_CHUNK` rows of w at a time, so no matrix of
    all n + 2K rows is made."""
    n, M, rows = signed.size, 2 * N + _MARGIN, signed.size + 2 * _MARGIN
    m = np.arange(-M, M + 1.0)
    x = np.divide(-1.0, m, out=np.zeros_like(m), where=m != 0)
    w = np.zeros((m.size, _TERMS))  # row m + M is w_m
    w[:, 1:] = np.multiply.accumulate(np.broadcast_to(x, (_TERMS - 1, m.size)), axis=0).T @ _FAR
    np.copyto(w[M - _NEAR.shape[0] // 2:M + _NEAR.shape[0] // 2 + 1], _NEAR, where=_STABLE)
    # row b of the Toeplitz matrix holds a_j, j = N..-N, from column b on:
    # in a flat array, row b of width n + _CHUNK starts b entries after
    # row b of width n + _CHUNK - 1
    flat = np.zeros(_CHUNK * (n + _CHUNK))
    flat.reshape(_CHUNK, -1)[:, :n] = signed[::-1]
    toeplitz = flat[:_CHUNK * (n + _CHUNK - 1)].reshape(_CHUNK, -1)
    table = np.empty((rows, _TERMS))
    for s in range(0, rows, _CHUNK):
        q = min(_CHUNK, rows - s)
        np.matmul(toeplitz[:q, :q + n - 1], w[s:s + q + n - 1], out=table[s:s + q])
    table[(N + _MARGIN + 1) % 2::2] *= -1.0  # the rows of odd k
    table = np.ascontiguousarray(table.T)
    table.setflags(write=False)
    return table


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
    Taylor table, |k| <= N + K, and its point lies inside its node bracket
    (below).  Its cardinal part is the Horner sum in r of the module
    docstring, `_BLOCK` points at a time: one `take` gathers the P
    coefficients of each point's k, and in-place numpy products and sums
    run Horner over them; the sum is scaled by 2^e, and the boundary hats
    are added to it.

    The node test brackets t by the candidate c = k + N (clipped to
    [1, n - 2]): if points[c - 1] < t < points[c + 1], no node other than
    points[c] can equal t, so t is a node exactly when points[c] == t, and
    c is then the leftmost such index, the one `searchsorted` gives; such
    a point takes the stored sample.  Every other point that is not
    regular gets its value from `_evaluate_point`: the endpoints (u =
    +-inf), the rows beyond the table (t = 1e-300 on an SE grid, say),
    duplicated node values (example 2's se-new grid at N = 256 has 4) and
    points near b whose u is off by a node.  The sweep's error grids have
    186 such points in 294,912, and uniform points at N = 256 none.  Each
    costs a point query, 4 to 7 us, where a vectorized row costs about
    0.07 us.

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
    # r is NaN at u = +-inf, and the rows beyond the table take the row of
    # k clipped to it: both kinds are handed to the point path below
    with np.errstate(invalid="ignore"):
        r = u - k
    cardinal = _taylor_sums(interp._taylor, (np.clip(k, -N - _MARGIN, N + _MARGIN)
                                             + (N + _MARGIN)).astype(np.intp), r)
    np.ldexp(cardinal, interp._exponent, out=cardinal)
    wa, wb = _boundary_pair(grid.iv, ts)
    out = interp.boundary_left * wa + interp.boundary_right * wb + cardinal
    p = grid.points
    c = np.clip(k + (N - 1), 0, grid.n - 3).astype(np.intp)  # the candidate minus 1
    bracketed = (p[:-2][c] < ts) & (ts < p[2:][c])
    hit = bracketed & (p[1:-1][c] == ts)
    out[hit] = interp.samples[c[hit] + 1]
    irregular = np.flatnonzero(~hit & (~bracketed | (np.abs(k) > N + _MARGIN)))
    out[irregular] = [_evaluate_point(interp, t) for t in ts[irregular].tolist()]
    return out


def _taylor_sums(table, column, r):
    """sum_p T[k, p] r^p at each point, by Horner in r over the P
    coefficients in its column of the table, gathered `_BLOCK` points at
    a time."""
    out = np.empty_like(r)
    coeffs = np.empty((_TERMS, min(r.size, _BLOCK)))
    for s in range(0, r.size, _BLOCK):
        horner, x = out[s:s + _BLOCK], r[s:s + _BLOCK]
        gathered = np.take(table, column[s:s + _BLOCK], axis=1, out=coeffs[:, :x.size], mode="clip")
        horner[...] = gathered[-1]
        for row in gathered[-2::-1]:
            horner *= x
            horner += row
    return out


def _evaluate_point(interp: GeneralizedInterpolant, t) -> float:
    """The interpolant at one point, on Python floats: the complete rule.

    `evaluate_many` vectorizes it for its regular rows and bracketed
    nodes and calls it for every other point, and the tests hold the two
    equal bit for bit.  At a and b only the hats are left; a row in the
    table is the Horner sum in r over its P coefficients; a row beyond
    the table sums its full barycentric row of n entries, u - j each
    rounded once.

    A one-element array would pay numpy's per-call cost some 45 times;
    this path takes about a seventh of that time.  Here every step whose
    IEEE result numpy shares is done on Python floats: the domain check,
    the preimage's quotient (`transforms._inverse_point`), u = x/h,
    k = round(u), which rounds half to even like np.rint, r = u - k, the
    Horner sum over the table's column of k (a product, then a sum, each
    rounded once, as numpy's in-place steps are), the scaling by 2^e
    (math.ldexp, exact like np.ldexp) and the hats.  What might round
    differently stays numpy's: the log and arcsinh, and beyond the table
    the sine and the row of entries with its `np.add.reduce`, the pairwise
    sum.  At a and b, u is -inf and +inf, taken without a warning.  The
    node snap is one `searchsorted` per point, which costs no measurable
    time here.
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
    N = grid.mesh.N
    if math.isinf(u):
        cardinal = 0.0
    else:
        k = round(u)
        r = u - k
        if abs(k) <= N + _MARGIN:
            coeffs = interp._taylor[:, k + N + _MARGIN].tolist()
            s = coeffs.pop()
            for c in reversed(coeffs):
                s = s * r + c
        else:
            row = u - np.arange(-N, N + 1, dtype=float)
            np.divide(interp._signed, row, out=row)
            s = float(np.add.reduce(row))
            s = (-s if k % 2 else s) * (float(np.sin(np.pi * r)) / math.pi)
        try:
            cardinal = math.ldexp(s, interp._exponent)
        except OverflowError:  # the value itself is beyond the doubles
            cardinal = math.copysign(math.inf, s)
    wa, wb = _boundary_pair(grid.iv, t)
    return float(interp.boundary_left * wa + interp.boundary_right * wb + cardinal)
