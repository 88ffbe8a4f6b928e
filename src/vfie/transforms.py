"""Conformal maps from the real line onto a finite interval (a, b).

Three variants: the tanh map, with single-exponential decay of the
Jacobian towards the endpoints; the tanh-of-sinh map, with
double-exponential decay; and the half-argument variant of the latter
used by the de-johnogbonna baseline.  Mesh-size selection lives here as
well, since each of the four solver flavours is a (transform, h-rule)
pair.  `forward`, `inverse` and `derivative` take arrays as well as
scalars; a scalar argument gives a float, bitwise equal to the matching
array element.

Each argument rule of the package is one helper here, whose docstring
states it: `_integer` for counts, `_vector` for stored arrays,
`_check_point` for points in [a, b] and `_real` for real values.
"""

import math
import numbers
import sys
from dataclasses import dataclass
from enum import Enum, unique

import numpy as np

__all__ = [
    "TransformKind",
    "Method",
    "Interval",
    "MeshParams",
    "strip_limit",
    "forward",
    "inverse",
    "derivative",
    "select_h",
]


@unique
class TransformKind(Enum):
    """Which change of variables maps the real axis onto (a, b)."""

    SE = "se"
    DE = "de"
    JO_DE = "jo-de"


@unique
class Method(Enum):
    """The four collocation flavours the solver knows about.

    The values double as the CLI spellings.
    """

    NEW_SE = "se-new"
    NEW_DE = "de-new"
    SHAMLOO_SE = "se-shamloo"
    JOHN_OGBONNA_DE = "de-johnogbonna"

    @property
    def transform(self) -> "TransformKind":
        return _METHOD_TRANSFORM[self]

    @property
    def is_original(self) -> bool:
        """True for the two fixed-mesh baseline variants."""
        return self in (Method.SHAMLOO_SE, Method.JOHN_OGBONNA_DE)


_METHOD_TRANSFORM = {
    Method.NEW_SE: TransformKind.SE,
    Method.NEW_DE: TransformKind.DE,
    Method.SHAMLOO_SE: TransformKind.SE,
    Method.JOHN_OGBONNA_DE: TransformKind.JO_DE,
}

# Inner scale factor applied to sinh(x) by the two double-exponential maps.
_DE_SCALE = {TransformKind.DE: 0.5 * math.pi, TransformKind.JO_DE: 0.25 * math.pi}

# sinh overflows past ~710; the maps are fully saturated long before that.
_SINH_OVERFLOW = 700.0

# The smallest normal double; inverse's quotient below it has lost bits.
_TINY = sys.float_info.min


@dataclass(frozen=True)
class Interval:
    """A finite interval [a, b] with a < b and a finite length b - a.

    Endpoints that `_real` refuses (a bool, a string, a complex) raise
    TypeError naming the endpoint.  Infinite or NaN endpoints, a >= b and
    endpoints whose length b - a overflows, such as [-1e308, 1e308], raise
    ValueError naming both.
    """

    a: float
    b: float

    def __post_init__(self):
        a, b = float(_real(self.a, "endpoint a")), float(_real(self.b, "endpoint b"))
        # b - a is not finite for an infinite or NaN endpoint either
        if not math.isfinite(b - a):
            raise ValueError(f"interval endpoints and length must be finite, got [{self.a}, {self.b}]")
        if not a < b:
            raise ValueError(f"interval needs a < b, got [{self.a}, {self.b}]")

    @property
    def length(self) -> float:
        return self.b - self.a


def strip_limit(kind: TransformKind) -> float:
    """Exclusive upper bound for the strip half-width d of a transform."""
    return math.pi if kind is TransformKind.SE else 0.5 * math.pi


@dataclass(frozen=True)
class MeshParams:
    """Mesh data: truncation index N and mesh size h.

    N goes through `_integer`; an h that `_real` refuses raises TypeError
    naming h, and an h that is not positive and finite ValueError.
    """

    N: int
    h: float

    def __post_init__(self):
        object.__setattr__(self, "N", _integer(self.N, "N", 1))
        if not 0.0 < _real(self.h, "h") < math.inf:
            raise ValueError(f"h must be positive and finite, got {self.h}")

    @property
    def n(self) -> int:
        """Number of mesh nodes, 2N + 1."""
        return 2 * self.N + 1


def forward(kind: TransformKind, iv: Interval, x):
    """Image of x under the transform; strictly increasing, with
    forward(-inf) = a and forward(+inf) = b.  Accepts an array; a scalar
    argument gives a float.

    With v the tanh argument and e = exp(-2|v|), the distance to the
    nearer endpoint is L e/(1 + e): t = a + that distance for v < 0 and
    b - it otherwise.  Near a the node therefore keeps its relative
    precision instead of rounding onto a; near b it still rounds onto b
    once the distance drops below half an ulp of b.

    For the nodes x = jh on [0, 1]: a node reaches a only when the
    distance underflows, past |jh| ~ 6.2 for de-new's map and 6.9 for
    de-johnogbonna's, never in practice for the tanh map (on an interval
    that does not start at 0, once the distance drops below half an ulp of
    a); it reaches b past |jh| ~ 37 for the tanh map, 3.2 for de-new's and
    3.9 for de-johnogbonna's.  Past |jh| ~ 6.1 (de-new) or 6.8
    (de-johnogbonna) the Jacobian weights underflow to 0 as well
    (`derivative`).  Sums and solves remain well behaved, since the
    affected terms vanish, but the nodal values at collided points are
    represented by a single double, and integrands that blow up at the
    endpoints can overflow there at large N.
    """
    x = _real(x)
    if kind is TransformKind.SE:
        v = 0.5 * x
    else:
        v = _DE_SCALE[kind] * np.sinh(np.clip(x, -_SINH_OVERFLOW, _SINH_OVERFLOW))
    e = np.exp(-2.0 * np.abs(v))
    offset = iv.length * e / (1.0 + e)
    return _scalar_or_array(np.where(v < 0.0, iv.a + offset, iv.b - offset))


def inverse(kind: TransformKind, iv: Interval, t):
    """Preimage of t in [a, b]; -inf at t = a and +inf at t = b.  Accepts
    an array; a scalar argument gives a float.

    The inner argument is formed as log((t - a)/(b - t)), which is the
    tanh inverse rearranged to avoid the cancellation the naive atanh
    form suffers near the endpoints.  On an array, this is vectorized for
    the points whose quotient is a normal double, q >= the smallest
    normal and q < inf; every other point goes to `_inverse_point`, in
    index order, which owns the special cases: the endpoints, a point
    outside [a, b] or NaN, which it refuses, and a quotient that lost
    bits.
    """
    t = _real(t)
    if t.ndim == 0:
        return _inverse_point(kind, iv, float(t))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        q = (t - iv.a) / (iv.b - t)
        r = np.log(q)
    if kind is not TransformKind.SE:
        r = np.arcsinh(0.5 * r / _DE_SCALE[kind])
    special = np.flatnonzero(~((q >= _TINY) & (q < np.inf)))
    r[special] = [_inverse_point(kind, iv, x) for x in t[special].tolist()]
    return r


def _inverse_point(kind, iv, t: float) -> float:
    """`inverse` at one Python float, bitwise equal to the array path, and
    the one owner of its special cases.

    The arithmetic is done on Python floats, which round like numpy's; the
    log and arcsinh stay numpy's, whose bits Python's math module need not
    match.  The preimage is -inf at t = a and +inf at t = b (where Python's
    division would raise), taken without the log's divide warning, and
    `_check_point` refuses every other t outside (a, b); a point inside
    does not call it.  Where the quotient (t - a)/(b - t) is subnormal
    (its bits partly lost, t = 1e-20 on [0, 1e300]), underflows to 0
    (t = 5e-324 on [0, 1e300]) or overflows to inf (t = 0 on
    [-1e300, 1e-300]) although a < t < b, the log is split into
    log(t - a) - log(b - t), which is finite and keeps the bits the
    quotient lost: -1435.2156 for the tanh map at t = 5e-324 on
    [0, 1e300], and at t = 1e-20 there, where the quotient is about 1e-320
    with some 11 bits left, a log that the quotient's would miss by about
    1e-4.
    """
    a, b = iv.a, iv.b
    if a < t < b:
        q = (t - a) / (b - t)
        r = (float(np.log(q)) if _TINY <= q < math.inf
             else float(np.log(t - a)) - float(np.log(b - t)))
    else:
        _check_point(iv, t)
        r = -math.inf if t == a else math.inf
    if kind is not TransformKind.SE:
        r = float(np.arcsinh(0.5 * r / _DE_SCALE[kind]))
    return r


def _check_point(iv, t: float) -> None:
    """Refuse one point t outside [a, b], NaN and +-inf included, with one
    ValueError message for `evaluate_solution(_many)`, `inverse` and
    `vfie solve --at`."""
    if not iv.a <= t <= iv.b:
        raise ValueError(f"t = {t} lies outside [{iv.a}, {iv.b}]")


def derivative(kind: TransformKind, iv: Interval, x):
    """Jacobian dt/dx of the forward map; positive, and permitted to
    underflow to 0 for large |x|.  Accepts an array; a scalar argument
    gives a float."""
    ax = np.abs(_real(x))  # the Jacobian is even
    w = iv.length
    if kind is TransformKind.SE:
        e = np.exp(-ax)  # (1/4) sech^2(x/2) = e / (1 + e)^2
        return _scalar_or_array(w * e / ((1.0 + e) * (1.0 + e)))
    c = _DE_SCALE[kind]
    ax = np.minimum(ax, _SINH_OVERFLOW)
    with np.errstate(over="ignore"):  # cosh(u)^2 -> inf takes the Jacobian to 0
        ch = np.cosh(c * np.sinh(ax))
        return _scalar_or_array(w * 0.5 * c * np.cosh(ax) / (ch * ch))


def _real(x, what="values"):
    """x as float64, as np.asarray(x, dtype=float) gives it, for an integer
    or float dtype only.  Any other raises TypeError naming `what`: a
    complex, where numpy would drop the imaginary part with a
    ComplexWarning, a string such as '0.5', which numpy would parse as a
    number, a bool such as True, which it would take as 1.0, and an object.
    The scalar parameters pass through it under their own names in
    `Interval` (endpoint a and b), `MeshParams` (h) and
    `_check_mesh_args` (alpha and d of `select_h` and `Problem`), and
    points, samples and matrices, as "values", in
    `evaluate_solution(_many)`, `evaluate_many`,
    `forward`/`inverse`/`derivative`, `approximate`, the constructors of
    `SincGrid`, `GeneralizedInterpolant` and `DiscreteSolution` (through
    `_vector`, and for the boundary values of `GeneralizedInterpolant`
    directly) and `solve_linear`."""
    x = np.asarray(x)
    if x.dtype.kind not in "iuf":
        raise TypeError(f"expected real {what}, got dtype {x.dtype}")
    return x.astype(float, copy=False)


def _vector(values, n, what):
    """values as a read-only float64 copy of shape (n,), never the caller's
    array, which stays writeable; a list is taken as well.  A dtype that
    `_real` refuses raises TypeError, any other shape a ValueError naming
    `what` and both shapes.  The points and weights of a `SincGrid`, the
    samples and coefficients of a `GeneralizedInterpolant` or `approximate`
    and the coefficients of a `DiscreteSolution` are stored through it,
    with n = 2N + 1."""
    v = _real(values).copy()
    if v.shape != (n,):
        raise ValueError(f"{what} must have shape ({n},), got {v.shape}")
    v.setflags(write=False)
    return v


def _integer(value, name, low):
    """value as a Python int >= low: numpy integers pass, and give bitwise
    the results of Python ints, since the value is kept as a Python int;
    floats are refused even when integral (8.0), and so is a bool, with a
    ValueError naming the count.  The counts are N >= 1 and the number of
    error points, `run_sweep`'s eval_points and `max_error`'s M, >= 2."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return int(value)


def _scalar_or_array(values):
    """A float for a 0-d result (every argument was a scalar), else the array."""
    return float(values) if np.ndim(values) == 0 else values


def select_h(method: Method, alpha: float, d: float, N: int) -> float:
    """Mesh size for one solver flavour at truncation index N.

    se-new uses sqrt(pi d / (alpha N)) and de-new uses log(2 d N / alpha)/N.
    The baselines use their fixed published rules, pi/sqrt(N) and
    log(pi N)/N.  Every rule checks alpha and d against the method's
    transform, the fixed ones included.
    """
    N = _integer(N, "N", 1)
    _check_mesh_args(method.transform, alpha, d)
    if method is Method.NEW_SE:
        return math.sqrt(math.pi * d / (alpha * N))
    if method is Method.NEW_DE:
        arg = 2.0 * d * N / alpha
        if arg <= 1.0:
            raise ValueError(f"mesh rule log({arg:g})/N is nonpositive; increase N or d")
        return math.log(arg) / N
    if method is Method.SHAMLOO_SE:
        return math.pi / math.sqrt(N)
    return math.log(math.pi * N) / N


def _check_mesh_args(kind, alpha, d):
    """The one alpha/d check: alpha in (0, 1] and d in (0, strip_limit(kind)),
    each a value that `_real` takes (a bool, a string or a complex raises
    its TypeError, naming alpha, or d and the transform)."""
    if not 0.0 < _real(alpha, "alpha") <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    limit = strip_limit(kind)
    if not 0.0 < _real(d, f"d for the {kind.value} transform") < limit:
        raise ValueError(f"d must lie in (0, {limit:g}) for the {kind.value} transform, got {d}")
