"""Conformal maps from the real line onto a finite interval (a, b).

Three variants: the tanh map, with single-exponential decay of the
Jacobian towards the endpoints; the tanh-of-sinh map, with
double-exponential decay; and the half-argument variant of the latter
used by the de-johnogbonna baseline.  Mesh-size selection lives here as
well, since each of the four solver flavours is a (transform, h-rule)
pair.
"""

import math
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


@dataclass(frozen=True)
class Interval:
    """A finite interval [a, b] with a < b."""

    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError(f"interval endpoints must be finite, got [{self.a}, {self.b}]")
        if not self.a < self.b:
            raise ValueError(f"interval needs a < b, got [{self.a}, {self.b}]")

    @property
    def length(self) -> float:
        return self.b - self.a

    def contains(self, t: float) -> bool:
        return self.a <= t <= self.b


def strip_limit(kind: TransformKind) -> float:
    """Exclusive upper bound for the strip half-width d of a transform."""
    return math.pi if kind is TransformKind.SE else 0.5 * math.pi


@dataclass(frozen=True)
class MeshParams:
    """Mesh data: truncation index N and mesh size h."""

    N: int
    h: float

    def __post_init__(self):
        if self.N < 1:
            raise ValueError(f"N must be >= 1, got {self.N}")
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
    x = np.asarray(x, dtype=float)
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
    form suffers near the endpoints.
    """
    t = np.asarray(t, dtype=float)
    inside = (t >= iv.a) & (t <= iv.b)
    if not np.all(inside):
        raise ValueError(f"t = {t[~inside][0]} lies outside [{iv.a}, {iv.b}]")
    with np.errstate(divide="ignore"):
        r = np.log((t - iv.a) / (iv.b - t))
    if kind is TransformKind.DE:
        r = np.arcsinh(r / math.pi)
    elif kind is TransformKind.JO_DE:
        r = np.arcsinh(2.0 * r / math.pi)
    return _scalar_or_array(r)


def derivative(kind: TransformKind, iv: Interval, x):
    """Jacobian dt/dx of the forward map; positive, and permitted to
    underflow to 0 for large |x|.  Accepts an array; a scalar argument
    gives a float."""
    ax = np.abs(np.asarray(x, dtype=float))  # the Jacobian is even
    w = iv.length
    if kind is TransformKind.SE:
        e = np.exp(-ax)  # (1/4) sech^2(x/2) = e / (1 + e)^2
        return _scalar_or_array(w * e / ((1.0 + e) * (1.0 + e)))
    c = _DE_SCALE[kind]
    ax = np.minimum(ax, _SINH_OVERFLOW)
    with np.errstate(over="ignore"):  # cosh(u)^2 -> inf takes the Jacobian to 0
        ch = np.cosh(c * np.sinh(ax))
        return _scalar_or_array(w * 0.5 * c * np.cosh(ax) / (ch * ch))


def _scalar_or_array(values):
    """A float for a 0-d result (every argument was a scalar), else the array."""
    return float(values) if np.ndim(values) == 0 else values


def select_h(method: Method, alpha: float, d: float, N: int,
             parametric_baseline: bool = False) -> float:
    """Mesh size for one solver flavour at truncation index N.

    se-new uses sqrt(pi d / (alpha N)) and de-new uses log(2 d N / alpha)/N.
    The baselines default to their fixed published rules, pi/sqrt(N) and
    log(pi N)/N; `parametric_baseline=True` switches the de-johnogbonna
    baseline to its (alpha, d)-dependent rule log(4 d N / alpha)/N.
    Every rule checks alpha and d against the method's transform, the
    fixed ones included.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    _check_mesh_args(method.transform, alpha, d)
    if method is Method.NEW_SE:
        return math.sqrt(math.pi * d / (alpha * N))
    if method is Method.NEW_DE:
        return _log_rule(2.0 * d * N / alpha, N)
    if method is Method.SHAMLOO_SE:
        return math.pi / math.sqrt(N)
    if parametric_baseline:
        return _log_rule(4.0 * d * N / alpha, N)
    return math.log(math.pi * N) / N


def _log_rule(arg, N):
    if arg <= 1.0:
        raise ValueError(f"mesh rule log({arg:g})/N is nonpositive; increase N or d")
    return math.log(arg) / N


def _check_mesh_args(kind, alpha, d):
    """The one alpha/d check: alpha in (0, 1] and d in (0, strip_limit(kind))."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    limit = strip_limit(kind)
    if not 0.0 < d < limit:
        raise ValueError(f"d must lie in (0, {limit:g}) for the {kind.value} transform, got {d}")
