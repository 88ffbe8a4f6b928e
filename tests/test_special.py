"""Oracles for the two special functions the program takes from scipy:
the sine integral Si in `solver._running_integral` (`scipy.special.sici`)
and the beta function in example 2's right-hand side (`scipy.special.beta`).
"""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad
from scipy.special import beta, sici

# High-precision references (40-digit evaluation of the defining integral).
SI_REFERENCE = {
    1.0: 0.9460830703671830149413533138231796578123,
    50.0: 1.5516170724859358947279855948604768702769,
    1e4: 1.5708915453859619157223696748119829376928,
    1e6: 1.5707953900431190814622082011440286365853,
}
SI_PI = 1.8519370519824661703610533701579913633076


def sine_integral(x):
    """Si(x) as the solver computes it."""
    return sici(x)[0]


def quad_si(x):
    """Brute-force oracle: adaptive quadrature of sin(t)/t over [0, x]."""
    with warnings.catch_warnings():
        # pushing quad to 1e-15 trips its roundoff heuristic; the returned
        # error estimate is what we actually gate on
        warnings.simplefilter("ignore", IntegrationWarning)
        val, err = quad(lambda t: math.sin(t) / t if t != 0.0 else 1.0, 0.0, x,
                        limit=300, epsabs=1e-15, epsrel=1e-14)
    assert err < 1e-12
    return val


def test_si_zero_is_exact():
    assert sine_integral(0.0) == 0.0
    assert sine_integral(-0.0) == 0.0


def test_si_at_one():
    assert sine_integral(1.0) == pytest.approx(SI_REFERENCE[1.0], rel=1e-15)


@pytest.mark.parametrize("x", sorted(SI_REFERENCE))
def test_si_reference_points(x):
    assert sine_integral(x) == pytest.approx(SI_REFERENCE[x], rel=1e-14)


def test_si_large_argument_absolute_error():
    # beyond 1e4 the contract is absolute: |err| <= 1e-13
    assert abs(sine_integral(1e6) - SI_REFERENCE[1e6]) <= 1e-13


@pytest.mark.parametrize("x", [0.5, 3.0, 50.0])
def test_si_oddness_is_exact(x):
    assert sine_integral(-x) == -sine_integral(x)


def test_si_oddness_random(rng):
    for x in rng.uniform(0.0, 100.0, size=200):
        assert sine_integral(-x) == -sine_integral(x)


def test_si_matches_quadrature_oracle():
    xs = np.linspace(-20.0, 20.0, 200)
    for x in xs:
        assert abs(sine_integral(x) - quad_si(x)) <= 1e-13


def test_si_asymptote_envelope():
    for x in np.linspace(10.0, 2000.0, 150):
        assert abs(sine_integral(x) - 0.5 * math.pi) <= 1.1 / x


def test_si_monotone_on_first_arch():
    xs = np.linspace(0.0, math.pi, 200)
    vals = [sine_integral(x) for x in xs]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_si_infinity_limits():
    assert sine_integral(math.inf) == pytest.approx(0.5 * math.pi, rel=1e-15)
    assert sine_integral(-math.inf) == pytest.approx(-0.5 * math.pi, rel=1e-15)


def test_si_nan_propagates():
    assert math.isnan(sine_integral(math.nan))


def test_si_regime_crossover_is_smooth():
    # series (|x| <= 4) and continued fraction (|x| > 4) must agree at the
    # seam to full precision
    below = sine_integral(math.nextafter(4.0, 0.0))
    above = sine_integral(math.nextafter(4.0, 8.0))
    assert abs(above - below) <= 2e-15  # each regime is good to ~5e-16 rel
    for x in (3.999999, 4.0, 4.000001):
        assert sine_integral(x) == pytest.approx(quad_si(x), abs=1e-14)


def test_beta_trivial():
    assert beta(1.0, 1.0) == pytest.approx(1.0, rel=1e-14)


def test_beta_closed_forms():
    assert beta(1.5, 2.0) == pytest.approx(4.0 / 15.0, rel=1e-12)
    assert beta(2.0, 3.0) == pytest.approx(1.0 / 12.0, rel=1e-12)


def test_beta_symmetry(rng):
    for _ in range(200):
        p, q = rng.uniform(0.05, 30.0, size=2)
        bp, bq = beta(p, q), beta(q, p)
        assert abs(bp - bq) <= 2e-15 * abs(bp)
