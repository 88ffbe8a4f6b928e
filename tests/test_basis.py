import math

import numpy as np
import pytest

from conftest import sinc_S
from vfie import Interval
from vfie.approx import _boundary_pair
from vfie.solver import _running_integral

UNIT = Interval(0.0, 1.0)
SI_PI = 1.8519370519824661703610533701579913633076  # Si(pi), 40-digit reference


def test_S_node_values():
    assert sinc_S(0, 1.0, 0.0) == 1.0
    assert sinc_S(3, 0.5, 1.0) == 0.0  # x/h = 2, an off-index grid node
    assert sinc_S(0, 1.0, 0.5) == pytest.approx(2.0 / math.pi, rel=1e-15)


def test_S_cardinality_exact(rng):
    for _ in range(50):
        j = int(rng.integers(-40, 41))
        h = float(rng.uniform(0.01, 3.0))
        for i in range(-50, 51):
            expected = 1.0 if i == j else 0.0
            assert sinc_S(j, h, i * h) == expected


def test_S_limits_and_nan():
    assert sinc_S(0, 1.0, math.inf) == 0.0
    assert sinc_S(5, 0.3, -math.inf) == 0.0
    assert math.isnan(sinc_S(0, 1.0, math.nan))
    with pytest.raises(ValueError):
        sinc_S(0, 0.0, 1.0)


def test_S_near_node_taylor_branch():
    # just off the node the Taylor fallback must join the sin form smoothly
    x = 1e-5
    y = math.pi * x
    assert sinc_S(0, 1.0, x) == pytest.approx(1.0 - y * y / 6.0, abs=1e-15)
    x = 5e-5  # still below the 1e-4 cutoff in y = pi r
    direct = math.sin(math.pi * x) / (math.pi * x)
    assert sinc_S(0, 1.0, x) == pytest.approx(direct, rel=1e-14)


def J(j, h, x):
    """J(j,h)(x), the running integral at the offset (x - jh)/h."""
    return _running_integral(h, (x - j * h) / h)


def test_J_values():
    assert J(0, 1.0, 0.0) == 0.5
    assert J(0, 1.0, math.inf) == 1.0
    assert J(0, 1.0, -math.inf) == 0.0
    # offset of one mesh step: h (1/2 + Si(pi)/pi)
    expected = 0.25 * (0.5 + SI_PI / math.pi)
    assert J(0, 0.25, 0.25) == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(0.2723724680590209, rel=1e-13)
    assert math.isnan(J(0, 1.0, math.nan))


def test_J_array_calls_equal_scalar_calls():
    h = 0.3
    js = np.arange(-20, 21)
    xs = np.concatenate([np.linspace(-20.0, 20.0, 1001), [math.inf, -math.inf]])
    got = J(js[:, None], h, xs[None, :])
    scalar = [[J(int(j), h, float(x)) for x in xs] for j in js]
    assert np.array_equal(got, np.array(scalar))
    assert np.array_equal(got[:, -2:], np.tile([h, 0.0], (len(js), 1)))


def test_J_bound_and_range(rng):
    for _ in range(100):
        j = int(rng.integers(-20, 21))
        h = float(rng.uniform(0.01, 2.5))
        xs = rng.uniform(j * h - 20.0 * h, j * h + 20.0 * h, size=100)
        vals = np.array([J(j, h, x) for x in xs])
        assert np.all(np.abs(vals) <= 1.1 * h)
        assert np.all(vals >= -0.1 * h)
        assert np.all(vals <= 1.1 * h)


def test_J_reflection_identity(rng):
    # J(j,h)(2jh - x) + J(j,h)(x) = h, by oddness of Si
    for _ in range(200):
        j = int(rng.integers(-10, 11))
        h = float(rng.uniform(0.05, 2.0))
        x = float(rng.uniform(j * h - 15.0 * h, j * h + 15.0 * h))
        total = J(j, h, 2 * j * h - x) + J(j, h, x)
        assert total == pytest.approx(h, rel=5e-16)


def test_omega_values():
    assert _boundary_pair(UNIT, 0.0) == (1.0, 0.0)
    assert _boundary_pair(UNIT, 1.0) == (0.0, 1.0)
    assert _boundary_pair(UNIT, 0.25)[1] == 0.25
    assert _boundary_pair(Interval(2.0, 6.0), 5.0)[0] == 0.25


def test_omega_partition_unit_exact(rng):
    wa, wb = _boundary_pair(UNIT, rng.uniform(0.0, 1.0, size=2000))
    assert np.all(wa + wb == 1.0)


def test_omega_partition_general(rng):
    # general intervals round each hat once; the sum stays within 1 ulp of 1
    for _ in range(2000):
        a = rng.uniform(-10.0, 5.0)
        b = a + rng.uniform(0.5, 8.0)
        wa, wb = _boundary_pair(Interval(a, b), rng.uniform(a, b))
        assert abs(wa + wb - 1.0) <= np.spacing(1.0)
