"""Conformal maps from the real line onto a finite interval (a, b).

Three variants: the tanh map, with single-exponential decay of the
Jacobian towards the endpoints; the tanh-of-sinh map, with
double-exponential decay; and the half-argument variant of the latter
used by the de-johnogbonna baseline.  Mesh-size selection lives here as
well, since each of the four solver flavours is a (transform, h-rule)
pair.
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
    """A finite interval [a, b] with a < b and a finite length b - a."""

    a: float
    b: float

    def __post_init__(self):
        # b - a is not finite for an infinite or NaN endpoint either
        if not math.isfinite(self.b - self.a):
            raise ValueError(f"interval endpoints and length must be finite, got [{self.a}, {self.b}]")
        if not self.a < self.b:
            raise ValueError(f"interval needs a < b, got [{self.a}, {self.b}]")

    @property
    def length(self) -> float:
        return self.b - self.a


def strip_limit(kind: TransformKind) -> float:
    """Exclusive upper bound for the strip half-width d of a transform."""
    return math.pi if kind is TransformKind.SE else 0.5 * math.pi


@dataclass(frozen=True)
class MeshParams:
    """Mesh data: truncation index N and mesh size h."""

    N: int
    h: float

    def __post_init__(self):
        object.__setattr__(self, "N", _integer(self.N, "N", 1))
        if not self.h > 0.0:
            raise ValueError(f"h must be positive, got {self.h}")

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
    form suffers near the endpoints.  Where that quotient is subnormal
    (its bits partly lost, t = 1e-20 on [0, 1e300]), underflows to 0 or
    overflows to inf although a < t < b (t = 5e-324 on [0, 1e300]), the
    log is split into log(t - a) - log(b - t), which is finite and keeps
    the bits the quotient lost.
    """
    t = _real(t)
    if t.ndim == 0:
        return _inverse_point(kind, iv, float(t))
    inside = (t >= iv.a) & (t <= iv.b)
    if not inside.all():
        _check_point(iv, t[~inside][0])  # raises for the first point outside
    with np.errstate(divide="ignore", over="ignore"):
        q = (t - iv.a) / (iv.b - t)
        r = np.log(q)
    # q is 0 or inf at the endpoints; inside (a, b) it is subnormal, 0 or
    # inf only where it has lost bits to underflow or has overflowed
    edge = np.flatnonzero((q < _TINY) | (q == np.inf))
    if edge.size:
        te = t[edge]
        wide = (te > iv.a) & (te < iv.b)
        r[edge[wide]] = np.log(te[wide] - iv.a) - np.log(iv.b - te[wide])
    if kind is not TransformKind.SE:
        r = np.arcsinh(0.5 * r / _DE_SCALE[kind])
    return r


def _inverse_point(kind, iv, t: float) -> float:
    """`inverse` at one Python float, bitwise equal to the array path.

    The arithmetic is done on Python floats, which round like numpy's; the
    log and arcsinh stay numpy's, whose bits Python's math module need not
    match.  The preimage is -inf at t = a and +inf at t = b (where Python's
    division would raise), taken without the log's divide warning.  Where
    the quotient (t - a)/(b - t) is subnormal, 0 or inf in between, the
    log is split as in the array path.
    """
    _check_point(iv, t)
    a, b = iv.a, iv.b
    if t == a or t == b:
        r = -math.inf if t == a else math.inf
    else:
        q = (t - a) / (b - t)
        if q < _TINY or q == math.inf:
            r = float(np.log(t - a)) - float(np.log(b - t))
        else:
            r = float(np.log(q))
    if kind is not TransformKind.SE:
        r = float(np.arcsinh(0.5 * r / _DE_SCALE[kind]))
    return r


def _check_point(iv, t: float) -> None:
    """Refuse one point t outside [a, b], NaN included."""
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


def _real(x):
    """x as float64, as np.asarray(x, dtype=float) gives it, for an integer
    or float dtype only.  Any other raises TypeError: a complex, where numpy
    would drop the imaginary part with a warning, a string, which numpy
    would parse as a number, a bool and an object."""
    x = np.asarray(x)
    if x.dtype.kind not in "iuf":
        raise TypeError(f"expected real values, got dtype {x.dtype}")
    return x.astype(float, copy=False)


def _vector(values, n, what):
    """values as a read-only float64 copy of shape (n,), never the caller's
    array: a complex dtype raises TypeError, as in `_real`, any other
    shape ValueError."""
    v = _real(values).copy()
    if v.shape != (n,):
        raise ValueError(f"{what} must have shape ({n},), got {v.shape}")
    v.setflags(write=False)
    return v


def _integer(value, name, low):
    """value as a Python int >= low: numpy integers pass, floats are refused
    even when integral (8.0), and so is a bool."""
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
    """The one alpha/d check: alpha in (0, 1] and d in (0, strip_limit(kind))."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    limit = strip_limit(kind)
    if not 0.0 < d < limit:
        raise ValueError(f"d must lie in (0, {limit:g}) for the {kind.value} transform, got {d}")
