"""The running integral of the cardinal sinc basis and the boundary hat pair.

`sinc_J` is the factor of the Volterra part of every collocation matrix;
the two hats (b - t)/(b - a) and (t - a)/(b - a) carry the endpoint values
of the interpolant and the extra basis columns of the original variants.
"""

import math

import numpy as np
from scipy.special import sici

from .transforms import _scalar_or_array

__all__ = ["sinc_J"]


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


def _boundary_pair(iv, ts):
    """Both boundary hats at ts (a scalar or an array), unchecked: the left
    hat (b - t)/(b - a), 1 at a and 0 at b, and the right hat (t - a)/(b - a)."""
    w = iv.b - iv.a
    return (iv.b - ts) / w, (ts - iv.a) / w
