import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from mpmath import mp

from conftest import (
    dense_sinc_evaluate,
    evaluate,
    indefinite,
    load_tool,
    omega_a,
    omega_b,
    quadrature,
    sinc_S,
    subtract_evaluate,
)
from vfie import (
    GeneralizedInterpolant,
    Interval,
    Method,
    TransformKind,
    approximate,
    build_grid,
    builtin,
    evaluate_many,
    forward,
    inverse,
    select_h,
    solve,
)
from vfie import approx
from vfie.approx import _BLOCK, _MARGIN, _TERMS, _boundary_pair, _evaluate_point, _remainder_bound

UNIT = Interval(0.0, 1.0)
integral_u = load_tool("integral_u")


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


def test_interpolant_refuses_samples_or_coeffs_of_another_length():
    grid = se_grid(4)
    good = np.zeros(grid.n)
    wrong = ((np.zeros(3), good, "samples", (3,)), (good, np.zeros(3), "coeffs", (3,)),
             (good, np.zeros((grid.n, 1)), "coeffs", (grid.n, 1)))
    for samples, coeffs, name, shape in wrong:
        want = re.escape(f"{name} must have shape ({grid.n},), got {shape}")
        with pytest.raises(ValueError, match=want):
            GeneralizedInterpolant(grid=grid, samples=samples, boundary_left=0.0,
                                   boundary_right=0.0, coeffs=coeffs)


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


def test_scalar_and_vector_evaluation_agree(rng, interpolants):
    grid = se_grid(10)
    f = random_smooth(rng)
    cases = [approximate(grid, np.array([f(t) for t in grid.points])),
             interpolants[(2, Method.NEW_SE, 64)], interpolants[(2, Method.NEW_DE, 64)]]
    for interp in cases:
        a, b = interp.grid.iv.a, interp.grid.iv.b
        ts = np.concatenate([rng.uniform(a, b, size=1024), [a, b], interp.grid.points[::3]])
        # every row is summed on its own, so a point's value does not
        # depend on the batch it comes in
        assert_bitwise([_evaluate_point(interp, t) for t in ts.tolist()], evaluate_many(interp, ts))


def test_grid_arrays_are_read_only():
    grid = se_grid(4)
    with pytest.raises(ValueError):
        grid.points[0] = 0.0
    with pytest.raises(ValueError):
        grid.weights[0] = 0.0
    interp = approximate(grid, np.zeros(grid.n))
    for name in ("samples", "coeffs", "_signed", "_taylor"):
        with pytest.raises(ValueError):
            getattr(interp, name)[0] = 1.0


def test_build_grid_rejects_mismatched_strip_width():
    # an SE-sized strip half-width is out of range for the DE transforms
    for method in (Method.NEW_DE, Method.JOHN_OGBONNA_DE):
        with pytest.raises(ValueError):
            build_grid(UNIT, method, 1.0, 3.14, 8)


# --- Taylor-table evaluation against the direct formula and mpmath ------

ORACLE_CASES = [(example_id, method, N) for example_id in (1, 2) for method in Method
                for N in (16, 128, 256)]


def case_id(case):
    example_id, method, N = case
    return f"ex{example_id}-{method.value}-N{N}"


class _Solved(dict):
    """Interpolants keyed by (example, method, N), each solved on first use."""

    def __missing__(self, case):
        interp = self[case] = solve(builtin(case[0]).problem, case[1], case[2])._interp
        return interp


@pytest.fixture(scope="module")
def interpolants():
    """The interpolant of each solution a test asks for, solved once."""
    return _Solved()


def near_nodes(grid):
    """The float neighbours and the +-1e-13 neighbours of every node that
    lie in [a, b]."""
    p = grid.points
    ts = np.concatenate([np.nextafter(p, -np.inf), np.nextafter(p, np.inf),
                         p - 1e-13, p + 1e-13])
    return ts[(ts >= grid.iv.a) & (ts <= grid.iv.b)]


@pytest.mark.parametrize("case", ORACLE_CASES, ids=case_id)
def test_off_node_values_match_the_dense_sinc_formula(case, interpolants):
    interp = interpolants[case]
    grid = interp.grid
    a, b = grid.iv.a, grid.iv.b
    rng = np.random.default_rng(1000 * case[0] + case[2])
    for ts in (np.linspace(a, b, 4096), rng.uniform(a, b, 16384), near_nodes(grid)):
        diff = np.abs(evaluate_many(interp, ts) - dense_sinc_evaluate(interp, ts))
        assert diff.max() <= 1e-15, (diff.max(), ts[diff.argmax()])
    ts = np.concatenate([grid.points, [a, b]])
    assert np.array_equal(evaluate_many(interp, ts), dense_sinc_evaluate(interp, ts))


def integral_u_test_points(grid):
    """Off-node points with an integral u, near interior nodes and beyond
    the outermost node near a."""
    beyond = forward(grid.kind, grid.iv, -(grid.mesh.N + 2) * grid.h)
    ts = integral_u.integral_u_points(inverse, grid, [beyond])
    assert ts.size >= 3, ts
    return ts


@pytest.mark.parametrize("case", ORACLE_CASES, ids=case_id)
def test_values_are_bitwise_those_of_the_subtract_form(case, interpolants):
    interp = interpolants[case]
    grid = interp.grid
    a, b = grid.iv.a, grid.iv.b
    rng = np.random.default_rng(1000 * case[0] + case[2])
    nodal = np.concatenate([grid.points, near_nodes(grid)])
    point_sets = (np.linspace(a, b, 4096), rng.uniform(a, b, 16384), nodal,
                  np.array([a, b]), np.array([]), np.array([0.5 * (a + b)]),
                  rng.uniform(a, b, 2 * 256 + 37),
                  # one call down every branch: nodes (duplicated ones
                  # included) and their neighbours out of order, integral
                  # u off the nodes, and the endpoints amid random points
                  rng.permutation(nodal),
                  rng.permutation(np.concatenate([rng.uniform(a, b, 700), integral_u_test_points(grid)])),
                  rng.permutation(np.concatenate([rng.uniform(a, b, 600), [a, b, a, b]])))
    for ts in point_sets:
        assert_bitwise(evaluate_many(interp, ts), subtract_evaluate(interp, ts))


def counted_hand_offs(monkeypatch):
    """The points that evaluate_many hands to _evaluate_point from now on,
    in the order handed; each call is delegated to the unpatched function."""
    handed = []

    def point(interp, t):
        handed.append(t)
        return _evaluate_point(interp, t)

    monkeypatch.setattr(approx, "_evaluate_point", point)
    return handed


@pytest.mark.parametrize("case", [c for c in ORACLE_CASES if c[2] == 256], ids=case_id)
def test_uniform_interior_points_are_all_vectorized(case, interpolants, monkeypatch):
    # the bulk traffic's speed rests on none of its rows taking the point path
    interp = interpolants[case]
    a, b = interp.grid.iv.a, interp.grid.iv.b
    handed = counted_hand_offs(monkeypatch)
    evaluate_many(interp, np.linspace(a, b, 4098)[1:-1])
    evaluate_many(interp, np.random.default_rng(case[0]).uniform(a, b, 4096))
    assert handed == []


def test_irregular_points_are_handed_to_the_point_path(interpolants, monkeypatch):
    se = interpolants[(2, Method.NEW_SE, 256)]
    de = interpolants[(2, Method.NEW_DE, 256)]
    N = de.grid.mesh.N
    # an integral u off the nodes, inside its node bracket, is a regular
    # row: its r = 0 leaves T[k, 0] = c_k 2^-e of the Taylor table
    t = integral_u_test_points(de.grid)[0]
    k = round(inverse(de.grid.kind, de.grid.iv, t) / de.grid.h)
    assert de.grid.points[k + N - 1] < t < de.grid.points[k + N + 1], (t, k)
    handed = counted_hand_offs(monkeypatch)
    got = evaluate_many(de, [0.3, t, 0.7])
    monkeypatch.undo()
    assert handed == []
    assert_bitwise(got[1:2], [_evaluate_point(de, t)])
    # t = 1e-300 is beyond the Taylor table of the SE grid
    assert inverse(se.grid.kind, se.grid.iv, 1e-300) / se.grid.h < -(N + _MARGIN)
    # a node value held by two nodes inside (a, b) lies inside no bracket;
    # this one, near b, has a u in the table that is not integral, so that
    # only its bracket makes it irregular
    p = de.grid.points
    twice = p[1:][(p[1:] == p[:-1]) & (de.grid.iv.a < p[1:]) & (p[1:] < de.grid.iv.b)]
    assert twice.size == 1 and twice[0] > 0.5, twice
    u = inverse(de.grid.kind, de.grid.iv, twice[0]) / de.grid.h
    assert u != round(u) and abs(round(u)) <= N + _MARGIN, u
    # an interior node inside its bracket, with its u in the table, is
    # handed off as well, and takes its sample: the point path's node snap
    # is the only one
    i = N + 10
    node = p[i]
    assert p[i - 1] < node < p[i + 1], i
    assert round(inverse(de.grid.kind, de.grid.iv, node) / de.grid.h) == i - N
    assert_bitwise([_evaluate_point(de, node)], de.samples[i:i + 1])
    cases = [(de, [de.grid.iv.a, de.grid.iv.b]), (se, [1e-300]), (de, [twice[0]]), (de, [node])]
    for interp, irregular in cases:
        a, b = interp.grid.iv.a, interp.grid.iv.b
        regular = np.random.default_rng(5).uniform(a, b, 64)
        ts = np.concatenate([regular[:40], irregular, regular[40:]])
        handed = counted_hand_offs(monkeypatch)
        got = evaluate_many(interp, ts)
        monkeypatch.undo()
        assert handed == irregular
        assert_bitwise(got[40:40 + len(irregular)], [_evaluate_point(interp, s) for s in irregular])
        assert_bitwise(np.delete(got, range(40, 40 + len(irregular))),
                       evaluate_many(interp, regular))


def gamma(n):
    """Higham's gamma_n = n u/(1 - n u), u = 2^-53."""
    u = 2.0**-53
    return n * u / (1 - n * u)


def mp_taylor_rows(M, P):
    """w_p(m) = (-1)^m s_p(m), s_p(m) the p-th Taylor coefficient of sinc at
    m, for |m| <= M and p < P, in 100-digit arithmetic, by the recurrence
    m w_p + w_(p-1) = sigma_p from w_0(m) = 0 (w_p(0) = sigma_(p+1)),
    sigma_l the Taylor coefficients of sin(pi r)/pi; upwards it loses at
    most about P!/pi^P, some 60 digits at P = 43."""
    with mp.workdps(100):
        sigma = [(-1) ** (l // 2) * mp.pi ** (l - 1) / mp.factorial(l) if l % 2 else mp.mpf(0)
                 for l in range(P + 1)]
        rows = {0: [sigma[p + 1] for p in range(P)]}
        for m in range(1, M + 1):
            for sm in (m, -m):
                w = [mp.mpf(0)] * P
                for p in range(1, P):
                    w[p] = (sigma[p] - w[p - 1]) / sm
                rows[sm] = w
        return rows


@pytest.mark.parametrize("N", [4, 64, 256])
def test_taylor_table_matches_a_30_digit_sum(N, interpolants):
    # T[k, p] = sum_j c^_j s_p(k - j), c^_j = c_j 2^-e.  The build's w_p(m)
    # are each within 6u of their value, u = 2^-53, which the table of a
    # single a_(-N) = 1 shows, since its row k is (-1)^k w_(k+N) exactly.
    # T[k, p] is (-1)^k times a dot product of n nonzero terms
    # a_j w_p(k - j) in some order, so its error is at most gamma_(n + 6)
    # times the sum of the terms' magnitudes (Higham, "Accuracy and
    # Stability of Numerical Algorithms", 3.1 and Lemma 3.3); T[k, 0] is
    # c^_k itself
    interp = interpolants[(2, Method.NEW_DE, N)]
    n = interp.grid.n
    assert interp._taylor.shape == (_TERMS, n + 2 * _MARGIN)
    assert not interp._taylor.flags.writeable
    scaled = np.ldexp(interp.coeffs, -interp._exponent)
    assert np.array_equal(interp._taylor[0], np.pad(scaled, _MARGIN))
    edge = N + _MARGIN
    rows = mp_taylor_rows(2 * N + _MARGIN, _TERMS)
    unit = approx._table(np.eye(1, n).ravel(), N)
    with mp.workdps(30):
        for i, k in enumerate(range(-edge, edge + 1)):
            for p, got in enumerate(unit[:, i].tolist()):
                want = (-1) ** abs(k) * rows[k + N][p]
                assert abs(got - want) <= 6 * 2.0**-53 * abs(want), (k + N, p, got)
    ks = sorted({-edge, 1 - edge, -N, -1, 0, 1, N, edge - 1, edge,
                 *np.random.default_rng(N).integers(-edge, edge + 1, 4).tolist()})
    bound = gamma(n + 6)
    with mp.workdps(30):
        c = [mp.mpf(float(v)) * (-1) ** abs(j) for j, v in zip(range(-N, N + 1), scaled)]
        for k in ks:
            for p in range(_TERMS):
                terms = [cj * rows[k - j][p] for j, cj in zip(range(-N, N + 1), c)]
                want = (-1) ** abs(k) * mp.fsum(terms)
                err = abs(mp.mpf(float(interp._taylor[p, k + edge])) - want)
                assert err <= bound * mp.fsum(abs(t) for t in terms), (k, p, err)


def test_term_count_meets_the_remainder_bound():
    # what P terms leave of a row at |r| <= 1/2 is at most max|c^_j| times
    # sum_(p>=P) 2^-p sum_m |s_p(m)|, |m| <= 2N + K, which the module
    # docstring bounds in closed form; P meets that bound at 2^-53 on
    # every grid, N < 2^53, and P - 1 meets it on none from N = 16
    P = _TERMS
    assert _remainder_bound(P, 2**53) <= 2**-53 < _remainder_bound(P - 1, 16)
    for N in (4, 64):
        rows = mp_taylor_rows(2 * N + _MARGIN, P + 20)
        with mp.workdps(30):
            tail = mp.fsum(mp.mpf(2) ** -p * abs(w[p]) for w in rows.values() for p in range(P, P + 20))
            assert tail <= _remainder_bound(P, N) <= mp.mpf(2) ** -53, N


def test_sine_series_is_rounded_once_without_decimal():
    # sigma_l = (-1)^((l-1)/2) pi^(l-1)/l! for odd l is the double nearest
    # its 60-digit value, and importing vfie leaves decimal out (numpy and
    # scipy do not import it either)
    with mp.workdps(60):
        want = [float((-1) ** (l // 2) * mp.pi ** (l - 1) / mp.factorial(l)) if l % 2 else 0.0
                for l in range(len(approx._SIGMA))]
    assert approx._SIGMA == want
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", "import sys, vfie; print('decimal' in sys.modules)"],
                          capture_output=True, text=True, env=env, timeout=120, check=True)
    assert done.stdout.split() == ["False"]


def test_points_beyond_the_table_take_the_full_row(rng, interpolants):
    # on an SE grid, t = 5e-324 and 1e-300 have |k| > N + K, beyond the
    # Taylor table, and so has the point at u = -(N + K + 3/4): their
    # rows are summed in full, in one call with rows inside the table (the
    # last one, u = -(N + K + 1/4), among them) and at u = +-inf
    grid = se_grid(4)
    f = random_smooth(rng)
    cases = [approximate(grid, np.array([f(t) for t in grid.points])),
             interpolants[(1, Method.NEW_SE, 16)], interpolants[(2, Method.SHAMLOO_SE, 128)]]
    for interp in cases:
        grid = interp.grid
        edge = grid.mesh.N + _MARGIN
        tiny = np.array([5e-324, 1e-300, forward(grid.kind, grid.iv, -(edge + 0.75) * grid.h)])
        k = np.rint(inverse(grid.kind, grid.iv, tiny) / grid.h)
        assert (k < -edge).all(), k
        last = forward(grid.kind, grid.iv, -(edge + 0.25) * grid.h)
        assert np.rint(inverse(grid.kind, grid.iv, last) / grid.h) == -edge
        ts = np.concatenate([tiny, [grid.iv.a, last, 0.3, 0.7, grid.iv.b]])
        got = evaluate_many(interp, ts)
        assert np.max(np.abs(got - dense_sinc_evaluate(interp, ts))) <= 1e-15
        assert_bitwise(evaluate_many(interp, tiny), got[:3])
        assert_point_path_is_bitwise(interp, ts.tolist())


POINT_CASES = [(example_id, method, N) for example_id in (1, 2) for method in Method
               for N in (4, 16, 64, 256)]


def assert_bitwise(got, want):
    """The same bits in every entry; an int64 view tells -0.0 from +0.0."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    assert got.shape == want.shape
    bad = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
    assert bad.size == 0, f"{bad.size} entries differ, first at {bad[0]}: {got[bad[0]]!r} != {want[bad[0]]!r}"


def assert_point_path_is_bitwise(interp, ts):
    """_evaluate_point at each t has the bits of evaluate_many on [t]."""
    for t in ts:
        assert_bitwise([_evaluate_point(interp, t)], evaluate_many(interp, np.array([t])))


@pytest.mark.parametrize("case", POINT_CASES, ids=case_id)
def test_one_point_path_is_bitwise_that_of_a_one_element_array(case, interpolants):
    interp = interpolants[case]
    grid = interp.grid
    a, b = grid.iv.a, grid.iv.b
    rng = np.random.default_rng(500 * case[0] + case[2])
    ts = np.concatenate([grid.points, near_nodes(grid),
                         [a, b, 0.5 * (a + b), 5e-324, 1e-300, np.nextafter(b, a)],
                         rng.uniform(a, b, 500)])
    assert_point_path_is_bitwise(interp, ts.tolist())


@pytest.mark.parametrize("case", [(2, Method.NEW_SE, 256), (2, Method.NEW_DE, 128)], ids=case_id)
def test_point_path_gives_each_node_the_sample_of_the_leftmost_equal_node(case, interpolants):
    # se-new's grid has 4 nodes inside (a, b) that repeat the value before
    # them, with samples of their own; de-new's puts 68 nodes on b and 11
    # on a.  A node inside (a, b) takes the sample at the leftmost index of
    # its value, the one searchsorted gives, and a node on a or b the
    # boundary value there, as a and b themselves do.  The point path is
    # checked on its own, since evaluate_many hands repeated values to it.
    interp = interpolants[case]
    p = interp.grid.points
    a, b = interp.grid.iv.a, interp.grid.iv.b
    inside = (p > a) & (p < b)
    repeats = inside[1:] & (p[1:] == p[:-1])
    assert repeats.sum() == (4 if case[1] is Method.NEW_SE else 0)
    assert (interp.samples[1:][repeats] != interp.samples[:-1][repeats]).all()
    if case[1] is Method.NEW_DE:
        assert ((p == b).sum(), (p == a).sum()) == (68, 11)
    want = np.where(inside, interp.samples[np.searchsorted(p, p)],
                    np.where(p == a, interp.boundary_left, interp.boundary_right))
    assert_bitwise([_evaluate_point(interp, t) for t in p.tolist()], want)


@pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
def test_quotient_under_and_overflow_give_the_finite_preimage(method):
    # on [0, 1e300] the quotient (t - a)/(b - t) underflows to 0 at
    # t = 5e-324 > a and is subnormal at t = 1e-20, with about 11 of its
    # bits left, and on [-1e300, 1e-300] it overflows at t = 0 < b; the
    # preimage there is log(t - a) - log(b - t), not -inf, +inf or a log
    # off in its 4th digit
    kind = method.transform
    d = 3.14 if kind is TransformKind.SE else 1.57
    for (a, b), t in (((0.0, 1e300), 5e-324), ((0.0, 1e300), 1e-20), ((-1e300, 1e-300), 0.0)):
        iv = Interval(a, b)
        grid = build_grid(iv, method, 1.0, d, 16)
        interp = approximate(grid, np.random.default_rng(5).uniform(-1.0, 1.0, grid.n))
        want = math.log(t - a) - math.log(b - t)
        if kind is not TransformKind.SE:
            want = math.asinh(0.5 * want / _MP_DE_SCALE[kind])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = inverse(kind, iv, t)
            assert abs(x - want) <= 4 * np.spacing(abs(want)), (x, want)
            assert_bitwise(inverse(kind, iv, np.array([t, t])), [x, x])
            assert_point_path_is_bitwise(interp, [t, np.nextafter(b, a)])
            got = evaluate_many(interp, [t])
            assert abs(got[0] - dense_sinc_evaluate(interp, [t])[0]) <= 1e-15
            # the cardinal part is summed, not dropped as at x = -inf/+inf
            assert got[0] != interp.boundary_left * omega_a(iv, t) + interp.boundary_right * omega_b(iv, t)


@pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
def test_huge_coefficients_give_finite_values_next_to_the_midpoint(method):
    # samples near 1e300 give finite values next to the midpoint of [0, 1],
    # within 1e-15 of the direct formula relative to their size, on both
    # paths, with the coefficients stored scaled down
    d = 3.14 if method.transform is TransformKind.SE else 1.57
    grid = build_grid(UNIT, method, 1.0, d, 16)
    scale = 1e300
    interp = approximate(grid, scale * np.random.default_rng(11).uniform(-1.0, 1.0, grid.n))
    assert np.abs(interp._signed).max() < 2.0**-51
    above = np.nextafter(0.5, 1.0)
    ts = np.array([np.nextafter(0.5, 0.0), above, np.nextafter(above, 1.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = dense_sinc_evaluate(interp, ts)
        for got in (evaluate_many(interp, ts), [_evaluate_point(interp, t) for t in ts.tolist()]):
            assert np.isfinite(got).all(), got
            assert np.max(np.abs(got - want)) <= 1e-15 * scale


def test_a_value_beyond_the_doubles_is_inf_on_both_paths():
    # c_j = +-1.7e308 with the sign of sinc(u - j) at u = 1/2: every term
    # adds, and the sum passes the largest double
    grid = se_grid(16)
    j = np.arange(-16, 17)
    samples = 1.7e308 * (-1.0) ** j * np.sign(0.5 - j)
    samples[[0, -1]] = 0.0
    interp = approximate(grid, samples)
    t = forward(grid.kind, grid.iv, 0.5 * grid.h)
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert evaluate_many(interp, [t])[0] == math.inf
    assert _evaluate_point(interp, t) == math.inf


_MP_DE_SCALE = {TransformKind.DE: math.pi / 2, TransformKind.JO_DE: math.pi / 4}


def mp_interpolant(interp, t, direct=False):
    """The interpolant at t in 30-digit arithmetic: the preimage from
    t = a + L/(1 + exp(-2v)) with v = x/2 (SE) or c sinh(x) (DE), the hats,
    and the cardinal sum, by sin(pi (u - j)) = (-1)^j sin(pi u) unless
    `direct` asks for one sinc per term."""
    grid = interp.grid
    N = grid.mesh.N
    with mp.workdps(30):
        a, b, t = mp.mpf(grid.iv.a), mp.mpf(grid.iv.b), mp.mpf(t)
        x = mp.log((t - a) / (b - t))
        if grid.kind is not TransformKind.SE:
            x = mp.asinh(x / (2 * mp.mpf(_MP_DE_SCALE[grid.kind])))
        u = x / mp.mpf(grid.h)
        js = range(-N, N + 1)
        if direct:
            cardinal = mp.fsum(mp.mpf(c) * mp.sincpi(u - j) for j, c in zip(js, interp.coeffs))
        else:
            signed = [mp.mpf(c) * (-1) ** j for j, c in zip(js, interp.coeffs)]
            cardinal = mp.sinpi(u) / mp.pi * mp.fdot(signed, [1 / (u - j) for j in js])
        boundary = (interp.boundary_left * (b - t) + interp.boundary_right * (t - a)) / (b - a)
        return float(boundary + cardinal)


def test_mp_oracle_sum_equals_its_direct_form(interpolants):
    interp = interpolants[(2, Method.JOHN_OGBONNA_DE, 16)]
    for t in (1e-9, 0.123, 0.5 + 1e-7, 0.77, 1.0 - 1e-6):
        assert mp_interpolant(interp, t) == mp_interpolant(interp, t, direct=True)


@pytest.mark.parametrize("case", ORACLE_CASES, ids=case_id)
def test_off_node_values_match_a_30_digit_sum(case, interpolants):
    interp = interpolants[case]
    grid = interp.grid
    ts = np.random.default_rng(7 * case[2] + case[0]).uniform(grid.iv.a, grid.iv.b, 100)
    assert not np.isin(ts, grid.points).any()
    want = np.array([mp_interpolant(interp, t) for t in ts])
    assert np.max(np.abs(evaluate_many(interp, ts) - want)) <= 1e-15


def hats(interp, t):
    """The boundary part at t, in the order evaluate_many adds it."""
    iv = interp.grid.iv
    return interp.boundary_left * omega_a(iv, t) + interp.boundary_right * omega_b(iv, t)


def integral_u_near(grid, t, steps=64):
    """`find_integral_u` with this package's `inverse`, which must find a
    point."""
    found = integral_u.find_integral_u(inverse, grid, t, steps)
    assert found is not None, f"no point with an integral u within {steps} ulp of {t}"
    return found


def test_integral_u_off_the_nodes_gives_the_cardinal_coefficient(rng):
    for make in (se_grid, de_grid):
        grid = make(16)
        f = random_smooth(rng)
        interp = approximate(grid, np.array([f(t) for t in grid.points]))
        # below the midpoint, where the float spacing of t resolves u to
        # its last bit (near b one ulp of t moves u by many ulp of u)
        for i in (3, 8, 12):
            t, k = integral_u_near(grid, grid.points[i])
            want = hats(interp, t) + interp.coeffs[k + grid.mesh.N]
            assert evaluate_many(interp, t)[0] == want
            assert abs(want - dense_sinc_evaluate(interp, [t])[0]) <= 1e-15


def test_points_beyond_the_outermost_nodes_near_both_endpoints(rng):
    for make in (se_grid, de_grid):
        grid = make(4)
        a, b, h = grid.iv.a, grid.iv.b, grid.h
        f = random_smooth(rng)
        interp = approximate(grid, np.array([f(t) for t in grid.points]))
        ts = np.concatenate([a + np.logspace(-300, -1, 300), b - np.logspace(-15, -1, 60),
                             [np.nextafter(b, a)]])
        u = inverse(grid.kind, grid.iv, ts) / h
        ts = ts[np.abs(u) > 4]
        assert (ts < 0.5).any() and (ts > 0.5).any()
        diff = np.abs(evaluate_many(interp, ts) - dense_sinc_evaluate(interp, ts))
        assert diff.max() <= 1e-15
        # an integral u beyond N, here -(N + 1), carries no cardinal term
        t, k = integral_u_near(grid, forward(grid.kind, grid.iv, -5 * h))
        assert k == -5
        assert evaluate_many(interp, t)[0] == hats(interp, t)


def test_scalar_point_gives_a_one_element_array(rng):
    grid = de_grid(16)
    f = random_smooth(rng)
    interp = approximate(grid, np.array([f(t) for t in grid.points]))
    for t in (0.0, 0.3, grid.points[7], 1.0):
        got = evaluate_many(interp, t)
        assert got.shape == (1,)
        assert np.array_equal(got, evaluate_many(interp, np.array([t])))
        assert abs(got[0] - dense_sinc_evaluate(interp, [t])[0]) <= 1e-15


def test_call_on_several_blocks_is_the_concatenation_of_block_calls(interpolants):
    interp = interpolants[(2, Method.NEW_DE, 128)]
    rng = np.random.default_rng(3)
    ts = rng.uniform(0.0, 1.0, 2 * _BLOCK + 37)
    # single points, pieces of sizes that are not multiples of 4, and a
    # last piece of more than one block
    cuts = np.unique(np.concatenate([[0, 1, 2, 5, 6], rng.integers(7, 200, 20), [ts.size]]))
    sizes = np.diff(cuts)
    assert (sizes == 1).any() and (sizes % 4 != 0).sum() > 5 and sizes[-1] > _BLOCK
    parts = [evaluate_many(interp, ts[s:e]) for s, e in zip(cuts[:-1], cuts[1:])]
    assert_bitwise(evaluate_many(interp, ts), np.concatenate(parts))


def test_evaluation_holds_one_block_of_entries(interpolants):
    # a call holds the P gathered coefficients of one block of points and
    # at most eight arrays of its M points at a time (u, k, r, the table
    # column, the values, the hats and the bracket's gathers; 5 to 7 as
    # measured), so over four blocks of points the coefficients of all of
    # them at once would pass the bound by two blocks
    interp = interpolants[(2, Method.NEW_DE, 256)]
    ts = np.linspace(0.0, 1.0, 4 * _BLOCK)
    tracemalloc.start()
    try:
        evaluate_many(interp, ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * (_BLOCK * _TERMS + 8 * ts.size), f"peak {peak} B"


# --- the boundary hats of _boundary_pair, and the oracle sinc_S ----------

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
