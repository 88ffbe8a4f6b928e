"""Cardinal sinc basis, its running integral, and the boundary hat pair."""

import math

import numpy as np
from scipy.special import sici

from .transforms import Interval, _scalar_or_array

__all__ = ["sinc_S", "sinc_J", "omega_a", "omega_b"]

_NODE_TOL = 1e-15
_TAYLOR_CUTOFF = 1e-4


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


def sinc_J(j, h: float, x):
    """J(j,h)(x) = h (1/2 + Si(pi(x - jh)/h) / pi), the running integral of
    S(j,h) from -inf.  j and x broadcast as arrays; scalars give a float.

    Limits are 0 at -inf and h at +inf, so downstream evaluation at the
    interval endpoints needs no special casing.  The value stays inside
    [-0.1 h, 1.1 h] (the overshoot of Si is Si(pi) ~ 1.852).
    """
    if not h > 0.0:
        raise ValueError(f"h must be positive, got {h}")
    r = (np.asarray(x, dtype=float) - np.multiply(j, h)) / h
    return _scalar_or_array(_running_integral(h, r))


def _running_integral(h, r):
    """J at the offset r = (x - jh)/h, i.e. h (1/2 + Si(pi r)/pi); r may be
    an array.  Si(+-inf) = +-pi/2 gives the limits h and 0 exactly."""
    return h * (0.5 + sici(math.pi * r)[0] / math.pi)


def omega_a(iv: Interval, t: float) -> float:
    """Left boundary hat (b - t)/(b - a): 1 at a, 0 at b."""
    _check_inside(iv, t)
    return (iv.b - t) / (iv.b - iv.a)


def omega_b(iv: Interval, t: float) -> float:
    """Right boundary hat (t - a)/(b - a): 0 at a, 1 at b."""
    _check_inside(iv, t)
    return (t - iv.a) / (iv.b - iv.a)


def _check_inside(iv, t):
    if not iv.contains(t):
        raise ValueError(f"t = {t} lies outside [{iv.a}, {iv.b}]")
