import math
import re

import numpy as np
import pytest

from conftest import contains
from vfie import transforms
from vfie import (
    Interval,
    MeshParams,
    Method,
    TransformKind,
    build_grid,
    derivative,
    forward,
    inverse,
    select_h,
    strip_limit,
)

UNIT = Interval(0.0, 1.0)
ALL_KINDS = list(TransformKind)


def random_interval(rng):
    a = rng.uniform(-10.0, 9.0)
    b = a + rng.uniform(0.2, 10.0 - max(a, 0.0))
    return Interval(a, min(b, 10.0))


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)
    with pytest.raises(ValueError):
        Interval(0.0, math.inf)
    assert Interval(-1.0, 2.0).length == 3.0
    # the endpoints go through _real, which refuses a bool (False and True
    # would be taken as 0 and 1), a string and a complex, naming the
    # endpoint (a first, when both are refused)
    for a, b, name in ((False, True, "a"), (0.0, True, "b"), ("0", 1.0, "a"), (0.0, 1j, "b")):
        with pytest.raises(TypeError, match=f"expected real endpoint {name}, got dtype"):
            Interval(a, b)
    # an array endpoint, even of one element, is refused by name as well
    for a, b, name, shape in ((np.array([0.0]), 1.0, "a", (1,)),
                              (0.0, np.ones((1, 1)), "b", (1, 1))):
        with pytest.raises(ValueError,
                           match=re.escape(f"endpoint {name} must be a scalar, got shape {shape}")):
            Interval(a, b)
    # any real scalar is stored as its Python float, the bits of its value
    for a, b in ((np.float32(0.1), np.float16(2.5)), (np.int64(-3), 2), (np.array(-1), 1.0)):
        iv = Interval(a, b)
        assert type(iv.a) is float and type(iv.b) is float
        assert (iv.a, iv.b) == (float(a), float(b))


def test_interval_refuses_an_overflowing_length():
    # b - a overflows to inf; a length just below the largest double is kept
    for a, b in ((-1e308, 1e308), (-1.7e308, 1e307)):
        with pytest.raises(ValueError, match=re.escape(f"[{a}, {b}]")):
            Interval(a, b)
    iv = Interval(-8e307, 8e307)
    assert iv.length == 1.6e308
    assert np.isfinite(build_grid(iv, Method.NEW_SE, 1.0, 3.14, 4).points).all()


@pytest.mark.parametrize("N", [8.0, 8.5, np.float64(8.0), True],
                         ids=["8.0", "8.5", "float64", "bool"])
def test_non_integral_n_is_refused(N):
    message = f"N must be an integer, got {N!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        select_h(Method.NEW_DE, 1.0, 1.57, N)
    with pytest.raises(ValueError, match=re.escape(message)):
        MeshParams(N=N, h=0.5)
    with pytest.raises(ValueError, match=re.escape(message)):
        build_grid(UNIT, Method.NEW_SE, 1.0, 3.14, N)


def test_mesh_params_validation():
    assert MeshParams(N=4, h=0.5).n == 9
    assert MeshParams(N=np.int64(4), h=0.5).n == 9
    assert type(MeshParams(N=np.int64(4), h=0.5).N) is int
    with pytest.raises(ValueError):
        MeshParams(N=0, h=0.5)
    with pytest.raises(ValueError):
        MeshParams(N=4, h=-0.5)
    for h in (math.inf, math.nan):
        with pytest.raises(ValueError, match=re.escape(f"h must be positive and finite, got {h}")):
            MeshParams(N=4, h=h)
    for h in (True, "0.5", 0.5j):
        with pytest.raises(TypeError, match="expected real h, got dtype"):
            MeshParams(N=4, h=h)
    with pytest.raises(ValueError, match=re.escape("h must be a scalar, got shape (1,)")):
        MeshParams(N=4, h=np.array([0.1]))
    for h in (np.float32(0.1), np.int64(1), np.array(0.5)):
        mesh = MeshParams(N=4, h=h)
        assert type(mesh.h) is float and mesh.h == float(h)
    # alpha and d are checked by select_h, against the method's transform
    with pytest.raises(ValueError):
        select_h(Method.NEW_SE, 1.5, 1.0, 4)
    # d range depends on the transform: < pi for SE, < pi/2 for DE flavours
    select_h(Method.NEW_SE, 1.0, 3.1, 4)
    select_h(Method.SHAMLOO_SE, 1.0, 3.14, 4)
    with pytest.raises(ValueError):
        select_h(Method.NEW_DE, 1.0, 3.1, 4)
    with pytest.raises(ValueError):
        select_h(Method.JOHN_OGBONNA_DE, 1.0, 1.6, 4)
    select_h(Method.NEW_DE, 1.0, 1.57, 4)
    # alpha and d go through _real, in the same check, which names them
    for alpha, d, name in ((True, 1.0, "alpha"), (1.0, True, "d for the se transform"),
                           ("1", 1.0, "alpha"), (1.0, "1", "d for the se transform"),
                           (1.0 + 0j, 1.0, "alpha")):
        with pytest.raises(TypeError, match=f"expected real {name}, got dtype"):
            select_h(Method.NEW_SE, alpha, d, 4)
    with pytest.raises(TypeError, match="expected real d for the jo-de transform, got dtype"):
        select_h(Method.JOHN_OGBONNA_DE, 1.0, "1", 4)
    # and an array, even of one element, raises ValueError naming it
    for alpha, d, name in ((np.array([1.0]), 1.0, "alpha"),
                           (1.0, np.array([1.0]), "d for the se transform")):
        with pytest.raises(ValueError, match=re.escape(f"{name} must be a scalar, got shape (1,)")):
            select_h(Method.NEW_SE, alpha, d, 4)


def test_strip_limits():
    assert strip_limit(TransformKind.SE) == math.pi
    assert strip_limit(TransformKind.DE) == 0.5 * math.pi
    assert strip_limit(TransformKind.JO_DE) == 0.5 * math.pi


def test_method_properties():
    assert Method.NEW_SE.transform is TransformKind.SE
    assert Method.NEW_DE.transform is TransformKind.DE
    assert Method.SHAMLOO_SE.transform is TransformKind.SE
    assert Method.JOHN_OGBONNA_DE.transform is TransformKind.JO_DE
    assert not Method.NEW_SE.is_original
    assert Method.SHAMLOO_SE.is_original


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_forward_midpoint(kind):
    assert forward(kind, UNIT, 0.0) == 0.5


def test_forward_saturation_and_limits():
    assert forward(TransformKind.SE, UNIT, math.inf) == 1.0
    assert forward(TransformKind.SE, UNIT, -math.inf) == 0.0
    assert forward(TransformKind.DE, UNIT, math.inf) == 1.0
    assert forward(TransformKind.DE, UNIT, 1e6) == 1.0
    assert forward(TransformKind.SE, UNIT, 800.0) == 1.0
    # clamped, never outside
    for kind in ALL_KINDS:
        for x in (-50.0, -5.0, 0.3, 5.0, 50.0):
            assert contains(UNIT, forward(kind, UNIT, x))


def test_inverse_trivial():
    assert inverse(TransformKind.SE, UNIT, 0.5) == 0.0
    assert inverse(TransformKind.SE, UNIT, 0.0) == -math.inf
    assert inverse(TransformKind.DE, UNIT, 1.0) == math.inf
    with pytest.raises(ValueError):
        inverse(TransformKind.SE, UNIT, 1.5)
    with pytest.raises(ValueError):
        inverse(TransformKind.DE, UNIT, -0.1)


def test_inverse_round_trip_spot():
    t = forward(TransformKind.DE, UNIT, 1.3)
    assert inverse(TransformKind.DE, UNIT, t) == pytest.approx(1.3, abs=1e-12)


def test_round_trip_se(rng):
    for _ in range(400):
        iv = random_interval(rng)
        x = rng.uniform(-3.0, 3.0)
        t = forward(TransformKind.SE, iv, x)
        assert abs(inverse(TransformKind.SE, iv, t) - x) <= 1e-11


@pytest.mark.parametrize("kind", [TransformKind.DE, TransformKind.JO_DE])
def test_round_trip_de(kind, rng):
    # The double-exponential maps compress so hard that a double holding t
    # pins x to no better than ~|dx/dt| * ulp(t); on |a|,|b| <= 10 that
    # intrinsic bound passes 1e-11 only up to |x| ~ 2, and grows to ~1e-7
    # by |x| = 2.5 for the steeper map.  Bounds below match those regimes.
    for _ in range(400):
        iv = random_interval(rng)
        x = rng.uniform(-2.0, 2.0)
        t = forward(kind, iv, x)
        assert abs(inverse(kind, iv, t) - x) <= 1e-11
    for _ in range(400):
        iv = random_interval(rng)
        x = rng.uniform(-2.5, 2.5)
        t = forward(kind, iv, x)
        assert abs(inverse(kind, iv, t) - x) <= 1e-7


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_forward_monotone(kind):
    xs = np.linspace(-3.0, 3.0, 301)
    ts = [forward(kind, UNIT, x) for x in xs]
    assert all(b > a for a, b in zip(ts, ts[1:]))
    # nondecreasing out to saturation
    xs = np.linspace(-20.0, 20.0, 401)
    ts = [forward(kind, UNIT, x) for x in xs]
    assert all(b >= a for a, b in zip(ts, ts[1:]))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_array_calls_equal_scalar_calls(kind):
    # the naive assembly oracle calls the transforms point by point, so the
    # array path must round exactly like the scalar one
    iv = Interval(-2.0, 3.5)
    xs = np.concatenate([np.linspace(-40.0, 40.0, 8001),
                         [math.inf, -math.inf, 0.0, 700.0, -710.0, 1e6]])
    ts = np.concatenate([forward(kind, iv, xs), [iv.a, iv.b]])
    for func, args in ((forward, xs), (derivative, xs), (inverse, ts)):
        got = func(kind, iv, args)
        scalar = [func(kind, iv, float(v)) for v in args]
        assert all(type(v) is float for v in scalar)
        assert np.array_equal(got, np.array(scalar)), func.__name__
        assert np.array_equal(func(kind, iv, np.repeat(args, 2)[::2]), got)


# points inside (a, b) whose quotient (t - a)/(b - t) has lost bits: it is
# 0 at 5e-324 and subnormal at 1e-20 on [0, 1e300], and inf at 0.0 on
# [-1e300, 1e-300]
LOST_BITS = {(0.0, 1e300): [5e-324, 1e-20], (-1e300, 1e-300): [0.0]}


def counted_inverse_hand_offs(monkeypatch):
    """The points that inverse hands to _inverse_point from now on, in the
    order handed; each call is delegated to the unpatched function."""
    handed, point = [], transforms._inverse_point

    def counted(kind, iv, t):
        handed.append(t)
        return point(kind, iv, t)

    monkeypatch.setattr(transforms, "_inverse_point", counted)
    return handed


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("a, b", [(0.0, 1.0), (-3.0, 7.5), (0.0, 1e300), (-1e300, 1e-300)])
def test_inverse_hands_the_special_points_to_the_point_rule(kind, a, b, monkeypatch):
    iv = Interval(a, b)
    special = [a, b] + LOST_BITS.get((a, b), [])
    with np.errstate(divide="ignore", over="ignore"):
        q = (np.array(special) - a) / (b - np.array(special))
    assert not ((q >= np.finfo(float).tiny) & (q < math.inf)).any(), q
    regular = np.random.default_rng(11).uniform(a, b, 200)
    handed = counted_inverse_hand_offs(monkeypatch)
    want = inverse(kind, iv, regular)
    assert handed == []
    # the special points among the regular ones, at the indices `at`
    ts = np.insert(regular, [40 * (n + 1) for n in range(len(special))], special)
    at = [40 * (n + 1) + n for n in range(len(special))]
    got = inverse(kind, iv, ts)
    assert handed == special
    # [a, outside, nan] is refused at the point outside, which is named
    handed.clear()
    outside = b + (b - a)
    with pytest.raises(ValueError, match=re.escape(f"t = {outside} lies outside [{a}, {b}]")):
        inverse(kind, iv, np.array([a, outside, math.nan]))
    assert handed == [a, outside]
    monkeypatch.undo()
    scalar = np.array([inverse(kind, iv, t) for t in special])
    assert np.array_equal(got[at].view(np.int64), scalar.view(np.int64))
    assert np.array_equal(np.delete(got, at).view(np.int64), want.view(np.int64))


def test_transforms_propagate_nan():
    for kind in ALL_KINDS:
        assert math.isnan(forward(kind, UNIT, math.nan))
        assert math.isnan(derivative(kind, UNIT, math.nan))


def test_derivative_values():
    assert derivative(TransformKind.SE, UNIT, 0.0) == 0.25
    assert derivative(TransformKind.DE, UNIT, 0.0) == pytest.approx(math.pi / 4.0,
                                                                    rel=1e-15)
    assert derivative(TransformKind.JO_DE, UNIT, 0.0) == pytest.approx(math.pi / 8.0,
                                                                       rel=1e-15)
    assert derivative(TransformKind.SE, Interval(0.0, 2.0), 0.0) == 0.5


def test_derivative_positive_until_underflow():
    for x in np.linspace(-20.0, 20.0, 401):
        assert derivative(TransformKind.SE, UNIT, x) > 0.0
    for kind in (TransformKind.DE, TransformKind.JO_DE):
        for x in np.linspace(-5.0, 5.0, 201):
            assert derivative(kind, UNIT, x) > 0.0
        assert derivative(kind, UNIT, 1000.0) == 0.0  # documented underflow


def test_derivative_even(rng):
    for kind in ALL_KINDS:
        for x in rng.uniform(0.0, 6.0, size=50):
            assert derivative(kind, UNIT, -x) == derivative(kind, UNIT, x)


def test_select_h_values():
    # direct high-precision evaluations of the four rules
    assert select_h(Method.NEW_SE, 1.0, 3.14, 16) == pytest.approx(
        0.7851990564608422, rel=1e-15)
    assert select_h(Method.SHAMLOO_SE, 1.0, 3.14, 16) == math.pi / 4.0
    assert select_h(Method.NEW_DE, 1.0, 1.57, 10) == pytest.approx(
        0.3446807892914208, rel=1e-15)
    assert select_h(Method.JOHN_OGBONNA_DE, 1.0, 1.57, 10) == pytest.approx(
        math.log(math.pi * 10.0) / 10.0, rel=1e-15)
    # alpha and d of any real type give bitwise the h of their float values,
    # the rule computed in double: float32 arguments would otherwise round
    # se-new's in single precision (0.5552195831170624 against
    # 0.5552195866793982 at N = 64)
    for method in Method:
        d = 3.14 if method.transform is TransformKind.SE else 1.57
        for alpha, width in ((np.float32(0.5), np.float32(d)), (np.float16(0.5), np.float64(d)),
                             (np.int64(1), np.array(d))):
            got = select_h(method, alpha, width, 64)
            want = select_h(method, float(alpha), float(width), 64)
            assert type(got) is float
            bits = np.array([got, want]).view(np.int64)
            assert bits[0] == bits[1], (method, alpha, width, got, want)


def test_select_h_domain():
    with pytest.raises(ValueError):
        select_h(Method.NEW_SE, 0.0, 3.14, 16)
    with pytest.raises(ValueError):
        select_h(Method.NEW_SE, 1.0, 3.2, 16)  # d >= pi is out for SE
    with pytest.raises(ValueError):
        select_h(Method.NEW_DE, 1.0, 1.6, 16)  # d >= pi/2 is out for DE
    with pytest.raises(ValueError):
        select_h(Method.NEW_DE, 1.0, 1.57, 0)
    with pytest.raises(ValueError):
        select_h(Method.NEW_DE, 1.0, 0.1, 1)  # log(2dN/alpha) <= 0
    # the fixed baseline rules ignore alpha and d but still check them
    with pytest.raises(ValueError):
        select_h(Method.SHAMLOO_SE, 1.0, 3.2, 16)
    with pytest.raises(ValueError):
        select_h(Method.SHAMLOO_SE, 0.0, 3.14, 16)
    with pytest.raises(ValueError):
        select_h(Method.JOHN_OGBONNA_DE, 1.0, 3.14, 16)


def test_forward_on_jh_small():
    pts = forward(TransformKind.SE, UNIT, np.arange(-1, 2) * 1.0)
    assert pts.shape == (3,)
    assert pts[1] == 0.5
    assert pts[2] == pytest.approx(0.7310585786300049, rel=1e-15)
    assert pts[0] == pytest.approx(1.0 - 0.7310585786300049, rel=1e-12)
    de_pts = forward(TransformKind.DE, UNIT, np.arange(-1, 2) * 1.0)
    assert de_pts[1] == 0.5


def test_forward_on_jh_symmetry(rng):
    for _ in range(100):
        iv = random_interval(rng)
        h = rng.uniform(0.05, 1.2)
        pts = forward(TransformKind.SE, iv, np.arange(-12, 13) * h)
        scale = np.spacing(2.0 * max(abs(iv.a), abs(iv.b), 1.0))
        for j in range(12 + 1):
            assert abs((pts[12 - j] + pts[12 + j]) - (iv.a + iv.b)) <= scale


def test_forward_on_jh_increasing_moderate():
    for kind in ALL_KINDS:
        pts = forward(kind, UNIT, np.arange(-16, 17) * 0.2)
        assert np.all(np.diff(pts) > 0.0)


def test_weight_sum_limit():
    # h * sum psi'(jh) approaches b - a; gaps at N = 64 on [0, 1]
    N = 64
    h_se = select_h(Method.NEW_SE, 1.0, 3.14, N)
    total = h_se * sum(derivative(TransformKind.SE, UNIT, j * h_se)
                       for j in range(-N, N + 1))
    assert abs(total - 1.0) <= 1e-3
    h_de = select_h(Method.NEW_DE, 1.0, 1.57, N)
    total = h_de * sum(derivative(TransformKind.DE, UNIT, j * h_de)
                       for j in range(-N, N + 1))
    assert abs(total - 1.0) <= 1e-6
