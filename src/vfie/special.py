"""Scalar special functions: the sine integral and the (log-)beta family.

The sine integral and the beta function come from `scipy.special`.
Everything here is plain double-precision arithmetic with no shared state,
so all functions are safe to call from any number of threads.
"""

import math

import scipy.special

__all__ = ["sine_integral", "log_gamma", "beta"]


def sine_integral(x: float) -> float:
    """Si(x) = integral of sin(t)/t over [0, x] (`scipy.special.sici`).

    Odd, with limits +-pi/2 at +-inf; NaN propagates.
    """
    return float(scipy.special.sici(x)[0])


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0 (delegates to the platform lgamma)."""
    if not x > 0.0:
        raise ValueError(f"log_gamma is defined for x > 0, got {x}")
    return math.lgamma(x)


def beta(p: float, q: float) -> float:
    """Euler beta B(p, q) = Gamma(p)Gamma(q)/Gamma(p+q) (`scipy.special.beta`)."""
    if not (p > 0.0 and q > 0.0):
        raise ValueError(f"beta requires positive arguments, got ({p}, {q})")
    return float(scipy.special.beta(p, q))
