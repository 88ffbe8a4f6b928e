import math

import numpy as np
import pytest

from vfie import (
    Interval,
    Method,
    TransformKind,
    approximate,
    build_grid,
    evaluate,
    evaluate_many,
    indefinite,
    quadrature,
    select_h,
)

UNIT = Interval(0.0, 1.0)


def se_grid(N, alpha=1.0, d=3.14, iv=UNIT):
    return build_grid(iv, Method.NEW_SE, alpha, d, N)


def de_grid(N, alpha=1.0, d=1.57, iv=UNIT):
    return build_grid(iv, Method.NEW_DE, alpha, d, N)


def random_smooth(rng):
    """A random analytic function on [0, 1] with generic endpoint values."""
    c = rng.uniform(-2.0, 2.0, size=5)
    return lambda t: (c[0] + c[1] * t + c[2] * t * t
                      + c[3] * math.sin(3.0 * t) + c[4] * math.exp(t - 0.5))


def test_build_grid_small():
    grid = se_grid(1)
    assert grid.n == 3
    assert grid.points[1] == 0.5
    assert grid.h == pytest.approx(math.sqrt(math.pi * 3.14), rel=1e-15)
    assert np.all(np.diff(grid.points) > 0)
    assert np.all(grid.weights > 0)


def test_grid_weights_symmetric():
    grid = se_grid(8)
    assert np.all(grid.weights == grid.weights[::-1])
    grid = de_grid(8)
    assert np.all(grid.weights == grid.weights[::-1])


def test_grid_matches_selected_h():
    for method, kind, d in [(Method.NEW_SE, TransformKind.SE, 3.14),
                            (Method.NEW_DE, TransformKind.DE, 1.57)]:
        grid = build_grid(UNIT, method, 1.0, d, 12)
        assert grid.kind is kind
        assert grid.h == select_h(method, 1.0, d, 12)


def test_approximate_length_mismatch():
    grid = se_grid(4)
    with pytest.raises(ValueError):
        approximate(grid, np.zeros(7))


def test_interpolation_reproduces_samples(rng):
    for make in (se_grid, de_grid):
        for N in (4, 16, 64):
            grid = make(N)
            f = random_smooth(rng)
            samples = np.array([f(t) for t in grid.points])
            interp = approximate(grid, samples)
            at_nodes = evaluate_many(interp, grid.points)
            assert np.array_equal(at_nodes, samples)


def test_endpoint_values_are_boundary_samples(rng):
    grid = de_grid(12)
    f = random_smooth(rng)
    samples = np.array([f(t) for t in grid.points])
    interp = approximate(grid, samples)
    assert evaluate(interp, 0.0) == samples[0]
    assert evaluate(interp, 1.0) == samples[-1]
    mid = grid.n // 2
    assert evaluate(interp, grid.points[mid]) == samples[mid]


def test_constant_reproduction():
    # boundary hats sum to one and the cardinal coefficients vanish
    for iv, tol in ((UNIT, 1e-14), (Interval(-2.0, 5.0), 1e-13)):
        grid = build_grid(iv, Method.NEW_SE, 1.0, 3.14, 16)
        interp = approximate(grid, np.ones(grid.n))
        ts = np.linspace(iv.a, iv.b, 1001)
        assert np.max(np.abs(evaluate_many(interp, ts) - 1.0)) <= tol


def test_linear_interpolation_error_bound():
    grid = se_grid(16)
    interp = approximate(grid, grid.points.copy())  # samples of f(t) = t
    ts = np.linspace(0.0, 1.0, 1001)
    err = np.max(np.abs(evaluate_many(interp, ts) - ts))
    assert err <= 1e-3


def test_evaluate_domain_error():
    grid = se_grid(4)
    interp = approximate(grid, np.zeros(grid.n))
    with pytest.raises(ValueError):
        evaluate(interp, 1.5)
    with pytest.raises(ValueError):
        evaluate_many(interp, np.array([0.2, -0.1]))


def test_root_exponential_rate_sqrt_function():
    # f with square-root endpoint behaviour, alpha = 1/2: the error of the
    # boundary-corrected interpolant decays ~ sqrt(N) exp(-2.221 sqrt(N))
    def f(t):
        return math.sqrt(t) * (1.0 - t)

    errs = {}
    for N in (8, 16, 32, 64, 128):
        grid = se_grid(N, alpha=0.5)
        interp = approximate(grid, np.array([f(t) for t in grid.points]))
        ts = np.linspace(0.0, 1.0, 1001)
        errs[N] = float(np.max(np.abs(evaluate_many(interp, ts)
                                      - np.array([f(t) for t in ts]))))
    pts = [(math.sqrt(N), math.log(e) - 0.5 * math.log(N))
           for N, e in errs.items() if e > 1e-13]
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    slope = np.polyfit(xs, ys, 1)[0]
    target = -math.sqrt(math.pi * 3.14 * 0.5)
    assert abs(slope - target) <= 0.3 * abs(target)


def test_sqrt_interpolation_on_de_grid_reaches_roundoff():
    # DE nodes within 1e-16 of t = 0 must stay distinct from 0 (and the
    # samples of sqrt taken there exact); rounding them onto the endpoint
    # left a 4.7e-11 floor at N = 64
    grid = de_grid(64, alpha=0.5)
    interp = approximate(grid, np.sqrt(grid.points))
    ts = np.linspace(0.0, 1.0, 4096)
    assert np.max(np.abs(evaluate_many(interp, ts) - np.sqrt(ts))) <= 1e-14


@pytest.mark.xfail(strict=True, reason="DE nodes within half an ulp of b round onto b")
def test_sqrt_interpolation_at_b_on_de_grid_reaches_roundoff():
    # mirror of the test above: sqrt(1 - t) is sampled at nodes rounded onto
    # t = b, which leaves a floor of 8.1e-11 at N = 64 (5.2e-11 at N = 128)
    grid = de_grid(64, alpha=0.5)
    interp = approximate(grid, np.sqrt(1.0 - grid.points))
    ts = np.linspace(0.0, 1.0, 4096)
    assert np.max(np.abs(evaluate_many(interp, ts) - np.sqrt(1.0 - ts))) <= 1e-14


def test_de_beats_se_for_analytic_function():
    f = lambda t: 1.0 / (1.0 + t)
    ts = np.linspace(0.0, 1.0, 1001)
    fvals = np.array([f(t) for t in ts])
    grid_se = se_grid(32)
    err_se = np.max(np.abs(evaluate_many(
        approximate(grid_se, np.array([f(t) for t in grid_se.points])), ts) - fvals))
    # d = 1.0 keeps the transformed pole of f outside the analyticity strip
    grid_de = de_grid(32, d=1.0)
    err_de = np.max(np.abs(evaluate_many(
        approximate(grid_de, np.array([f(t) for t in grid_de.points])), ts) - fvals))
    assert err_de < err_se


def test_quadrature_constant():
    grid = se_grid(16)
    assert quadrature(grid, lambda s: 1.0) == pytest.approx(1.0, abs=1e-4)


def test_quadrature_linear_de():
    grid = de_grid(16)
    assert quadrature(grid, lambda s: s) == pytest.approx(0.5, abs=1e-8)


def test_quadrature_endpoint_singular():
    # (s(1-s))^(-1/2) integrates to pi; all sample points are interior
    grid = se_grid(16, alpha=0.5)
    val = quadrature(grid, lambda s: 1.0 / math.sqrt(s * (1.0 - s)))
    assert math.isfinite(val)
    assert val == pytest.approx(math.pi, abs=1e-2)


def test_quadrature_nan_propagates():
    grid = se_grid(4)
    assert math.isnan(quadrature(grid, lambda s: math.nan))


def test_indefinite_at_left_endpoint():
    grid = se_grid(8)
    assert indefinite(grid, lambda s: math.cos(7.0 * s), 0.0) == 0.0


def test_indefinite_linear():
    grid = se_grid(32)
    assert indefinite(grid, lambda s: s, 0.5) == pytest.approx(0.125, abs=1e-4)


def test_indefinite_at_right_is_quadrature():
    for grid in (se_grid(12), de_grid(12)):
        f = lambda s: math.exp(s) * (1.0 + s)
        full = indefinite(grid, f, grid.iv.b)
        assert full == pytest.approx(quadrature(grid, f), rel=1e-12)


def test_indefinite_domain_error():
    grid = se_grid(4)
    with pytest.raises(ValueError):
        indefinite(grid, lambda s: s, 2.0)


def test_indefinite_de_variant():
    grid = de_grid(24)
    # integral of cos over [0, t]
    got = indefinite(grid, math.cos, 0.8)
    assert got == pytest.approx(math.sin(0.8), abs=1e-8)


def test_scalar_and_vector_evaluation_agree(rng):
    grid = se_grid(10)
    f = random_smooth(rng)
    interp = approximate(grid, np.array([f(t) for t in grid.points]))
    ts = np.concatenate([rng.uniform(0.0, 1.0, size=20), [0.0, 1.0],
                         grid.points[::3]])
    vec = evaluate_many(interp, ts)
    # BLAS may round batched and single-row products differently in the
    # last bits, so agreement is to a few ulp, exact at the node fast path
    for t, v in zip(ts, vec):
        s = evaluate(interp, float(t))
        assert abs(s - v) <= 4.0 * np.spacing(max(abs(s), abs(v), 1.0))


def test_grid_arrays_are_read_only():
    grid = se_grid(4)
    with pytest.raises(ValueError):
        grid.points[0] = 0.0
    with pytest.raises(ValueError):
        grid.weights[0] = 0.0
    interp = approximate(grid, np.zeros(grid.n))
    with pytest.raises(ValueError):
        interp.coeffs[0] = 1.0


def test_build_grid_rejects_mismatched_strip_width():
    # an SE-sized strip half-width is out of range for the DE transforms
    for method in (Method.NEW_DE, Method.JOHN_OGBONNA_DE):
        with pytest.raises(ValueError):
            build_grid(UNIT, method, 1.0, 3.14, 8)
