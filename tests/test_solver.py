import math
import os

import numpy as np
import pytest

from conftest import assert_ulp_close
from vfie import (
    AssemblyError,
    ConditioningWarning,
    Interval,
    Method,
    Problem,
    SingularMatrixError,
    TransformKind,
    assemble_johnogbonna,
    assemble_new,
    assemble_shamloo,
    builtin,
    derivative,
    evaluate_solution,
    evaluate_solution_many,
    forward,
    grid_for,
    inverse,
    max_error,
    omega_a,
    omega_b,
    select_h,
    sinc_J,
    sinc_S,
    sine_integral,
    solve,
    solve_linear,
)

UNIT = Interval(0.0, 1.0)


def zero_kernel_problem(g, alpha=1.0):
    zero = lambda t, s: 0.0
    return Problem(iv=UNIT, k1=zero, k2=zero, g=g, alpha=alpha,
                   d_se=3.14, d_de=1.57)


# ---------------------------------------------------------------------------
# naive double-loop assembly oracle (independent transcription of the
# collocation systems, built from the scalar transform/basis functions)
# ---------------------------------------------------------------------------

def naive_j_at_node(h, offset):
    # J(j,h)(ih): the argument pi (ih - jh)/h is the exact integer multiple
    # pi (i - j), so transcribe it that way (J has a 0.5 - 0.59 cancellation
    # that would otherwise amplify a 1-ulp argument wobble)
    return h * (0.5 + sine_integral(math.pi * offset) / math.pi)


def naive_assemble_new(problem, method, N):
    kind = method.transform
    d = problem.d_se if kind is TransformKind.SE else problem.d_de
    h = select_h(method, problem.alpha, d, N)
    iv = problem.iv
    n = 2 * N + 1
    A = np.zeros((n, n))
    rhs = np.zeros(n)
    for i in range(-N, N + 1):
        ti = forward(kind, iv, i * h)
        rhs[i + N] = problem.g(ti)
        for j in range(-N, N + 1):
            sj = forward(kind, iv, j * h)
            wj = derivative(kind, iv, j * h)
            v = problem.k1(ti, sj) * wj * naive_j_at_node(h, i - j)
            k = problem.k2(ti, sj) * wj * h
            A[i + N, j + N] = (1.0 if i == j else 0.0) - v - k
    return A, rhs


def naive_assemble_original(problem, method, N):
    """Either original variant: hats kept as explicit basis columns; for the
    half-argument tanh-sinh variant the extreme collocation rows sit on the
    endpoints, where the running-integral factor degenerates to 0 / h."""
    kind = method.transform
    d = problem.d_se if kind is TransformKind.SE else problem.d_de
    h = select_h(method, problem.alpha, d, N)
    iv = problem.iv
    n = 2 * N + 1
    pts = [forward(kind, iv, j * h) for j in range(-N, N + 1)]
    wts = [derivative(kind, iv, j * h) for j in range(-N, N + 1)]
    endpoint_rows = method is Method.JOHN_OGBONNA_DE
    A = np.zeros((n, n))
    rhs = np.zeros(n)
    for i in range(-N, N + 1):
        if endpoint_rows and i == -N:
            ti, jfac = iv.a, (lambda l: 0.0)  # running integral from a to a
        elif endpoint_rows and i == N:
            ti, jfac = iv.b, (lambda l: h)    # full-interval limit of J
        else:
            ti, jfac = pts[i + N], (lambda l, i=i: naive_j_at_node(h, i - l))
        rhs[i + N] = problem.g(ti)
        for j in range(-N, N + 1):
            if j == -N:
                e = omega_a(iv, ti)
                v = 0.0
                kacc = 0.0
                for l in range(-N, N + 1):
                    sl, wl = pts[l + N], wts[l + N]
                    v += problem.k1(ti, sl) * omega_a(iv, sl) * wl * jfac(l)
                    kacc += problem.k2(ti, sl) * omega_a(iv, sl) * wl
                k = kacc * h
            elif j == N:
                e = omega_b(iv, ti)
                v = 0.0
                kacc = 0.0
                for l in range(-N, N + 1):
                    sl, wl = pts[l + N], wts[l + N]
                    v += problem.k1(ti, sl) * omega_b(iv, sl) * wl * jfac(l)
                    kacc += problem.k2(ti, sl) * omega_b(iv, sl) * wl
                k = kacc * h
            else:
                e = 1.0 if i == j else 0.0
                sj, wj = pts[j + N], wts[j + N]
                v = problem.k1(ti, sj) * wj * jfac(j)
                k = problem.k2(ti, sj) * wj * h
            if endpoint_rows and i in (-N, N):
                # identity rows of the endpoint-collocated variant
                e = 1.0 if i == j else 0.0
            A[i + N, j + N] = e - v - k
    return A, rhs


@pytest.mark.parametrize("method", list(Method))
def test_assembly_matches_naive_oracle_example1(method):
    problem = builtin(1).problem
    N = 2
    if method is Method.SHAMLOO_SE:
        got = assemble_shamloo(problem, N)
        want = naive_assemble_original(problem, method, N)
    elif method is Method.JOHN_OGBONNA_DE:
        got = assemble_johnogbonna(problem, N)
        want = naive_assemble_original(problem, method, N)
    else:
        got = assemble_new(problem, method, N)
        want = naive_assemble_new(problem, method, N)
    assert_ulp_close(got[0], want[0], ulps=1)
    assert_ulp_close(got[1], want[1], ulps=1)


@pytest.mark.parametrize("method", list(Method))
def test_assembly_matches_naive_oracle_example2(method):
    problem = builtin(2).problem
    N = 3
    if method is Method.SHAMLOO_SE:
        got = assemble_shamloo(problem, N)
        want = naive_assemble_original(problem, Method.SHAMLOO_SE, N)
    elif method is Method.JOHN_OGBONNA_DE:
        got = assemble_johnogbonna(problem, N)
        want = naive_assemble_original(problem, Method.JOHN_OGBONNA_DE, N)
    else:
        got = assemble_new(problem, method, N)
        want = naive_assemble_new(problem, method, N)
    assert_ulp_close(got[0], want[0], ulps=1)
    assert_ulp_close(got[1], want[1], ulps=1)


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------

def test_new_assembly_zero_kernels_is_identity():
    problem = zero_kernel_problem(g=lambda t: math.sin(t))
    A, rhs = assemble_new(problem, Method.NEW_SE, 6)
    assert np.array_equal(A, np.eye(13))
    grid = grid_for(problem, Method.NEW_SE, 6)
    assert np.array_equal(rhs, np.array([math.sin(t) for t in grid.points]))
    sol = solve(problem, Method.NEW_SE, 6)
    assert np.array_equal(sol.coeffs, rhs)
    assert np.array_equal(evaluate_solution_many(sol, grid.points), rhs)


def test_shamloo_structure_zero_kernels():
    problem = zero_kernel_problem(g=lambda t: 1.0 + t)
    N = 4
    A, _ = assemble_shamloo(problem, N)
    grid = grid_for(problem, Method.SHAMLOO_SE, N)
    t_first, t_last = grid.points[0], grid.points[-1]
    # first row: hat values at the first collocation point, zeros between
    assert A[0, 0] == omega_a(UNIT, t_first)
    assert A[0, -1] == omega_b(UNIT, t_first)
    assert np.all(A[0, 1:-1] == 0.0)
    assert A[-1, 0] == omega_a(UNIT, t_last)
    assert A[-1, -1] == omega_b(UNIT, t_last)
    # middle rows: unit diagonal plus the two hat columns
    for row in range(1, 2 * N):
        t = grid.points[row]
        assert A[row, row] == 1.0
        assert A[row, 0] == omega_a(UNIT, t)
        assert A[row, -1] == omega_b(UNIT, t)


def test_johnogbonna_structure():
    ex = builtin(1)
    N = 3
    A, rhs = assemble_johnogbonna(ex.problem, N)
    assert rhs[0] == ex.problem.g(0.0)
    assert rhs[-1] == ex.problem.g(1.0)
    # the first collocation row sits at t = a: the running integral vanishes
    # there, so with k2 = 0 the row reduces to the identity row exactly
    zero = lambda t, s: 0.0
    prob_k1_only = Problem(iv=UNIT, k1=ex.problem.k1, k2=zero, g=ex.exact,
                           alpha=1.0, d_se=3.14, d_de=1.57)
    A1, _ = assemble_johnogbonna(prob_k1_only, N)
    first = np.zeros(2 * N + 1)
    first[0] = 1.0
    assert np.array_equal(A1[0], first)
    last = np.zeros(2 * N + 1)
    last[-1] = 1.0
    prob_none = zero_kernel_problem(g=ex.exact)
    A2, _ = assemble_johnogbonna(prob_none, N)
    assert np.array_equal(A2[0], first)
    assert np.array_equal(A2[-1], last)


def test_johnogbonna_requires_endpoint_evaluability():
    def bad_g(t):
        return math.inf if t == 0.0 else 1.0 / t

    problem = Problem(iv=UNIT, k1=lambda t, s: 0.0, k2=lambda t, s: 0.0,
                      g=bad_g, alpha=1.0, d_se=3.14, d_de=1.57)
    with pytest.raises(AssemblyError, match="g"):
        assemble_johnogbonna(problem, 3)


def test_assembly_error_names_the_point():
    def bad_k1(t, s):
        return math.nan if s > 0.9 else t * s

    problem = Problem(iv=UNIT, k1=bad_k1, k2=lambda t, s: 0.0,
                      g=lambda t: t, alpha=1.0, d_se=3.14, d_de=1.57)
    with pytest.raises(AssemblyError, match="k1"):
        assemble_new(problem, Method.NEW_SE, 8)

    problem = Problem(iv=UNIT, k1=lambda t, s: 0.0, k2=bad_k1,
                      g=lambda t: t, alpha=1.0, d_se=3.14, d_de=1.57)
    pts = grid_for(problem, Method.NEW_SE, 8).points
    with pytest.raises(AssemblyError) as exc:
        assemble_new(problem, Method.NEW_SE, 8)
    # the first non-finite entry in row-major order: row 0, first node past 0.9
    message = str(exc.value)
    assert message.startswith("k2(")
    assert f"k2({pts[0]!r}, {pts[pts > 0.9][0]!r})" in message


def test_fredholm_rows_sum_to_kernel_integral():
    # with k1 = 0, A = I - K, so row sums of I - A approximate
    # int_0^1 k2(t_i, s) ds = t_i / 2 for k2 = t s
    problem = Problem(iv=UNIT, k1=lambda t, s: 0.0, k2=lambda t, s: t * s,
                      g=lambda t: t, alpha=1.0, d_se=3.14, d_de=1.57)
    N = 32
    A, _ = assemble_new(problem, Method.NEW_SE, N)
    K = np.eye(2 * N + 1) - A
    grid = grid_for(problem, Method.NEW_SE, N)
    row_sums = K.sum(axis=1)
    assert np.max(np.abs(row_sums - grid.points / 2.0)) <= 1e-4


def test_offset_identity(rng):
    # J(j,h)(ih) equals J(0,h)((i-j)h): the factor depends on i - j only
    for _ in range(100):
        i = int(rng.integers(-60, 61))
        j = int(rng.integers(-60, 61))
        h = float(rng.uniform(0.02, 2.0))
        a = sinc_J(j, h, i * h)
        b = sinc_J(0, h, (i - j) * h)
        assert a == pytest.approx(b, rel=5e-16)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def test_solve_linear_identity():
    rhs = np.array([3.0, -1.0, 2.5])
    c, rcond = solve_linear(np.eye(3), rhs)
    assert np.array_equal(c, rhs)
    assert rcond == pytest.approx(1.0)


def test_solve_linear_diagonal():
    c, _ = solve_linear(np.array([[2.0, 0.0], [0.0, 4.0]]), np.array([2.0, 8.0]))
    assert np.array_equal(c, np.array([1.0, 2.0]))


def test_solve_linear_singular():
    with pytest.raises(SingularMatrixError):
        solve_linear(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 1.0]))


def test_solve_linear_shape_errors():
    with pytest.raises(ValueError):
        solve_linear(np.zeros((2, 3)), np.zeros(2))
    with pytest.raises(ValueError):
        solve_linear(np.eye(3), np.zeros(2))


def test_solve_linear_residual_bound(rng):
    n = 50
    A = np.eye(n) + 0.1 * rng.standard_normal((n, n))
    rhs = rng.standard_normal(n)
    c, rcond = solve_linear(A, rhs)
    residual = np.max(np.abs(A @ c - rhs))
    eps = np.finfo(float).eps
    bound = 100.0 * n * eps * (np.linalg.norm(A, np.inf) * np.max(np.abs(c))
                               + np.max(np.abs(rhs)))
    assert residual <= bound
    assert 0.0 < rcond <= 1.0


def test_conditioning_warning_for_numerically_singular_limit():
    # k2 = 1 makes the limit operator singular (u = const solves u - Ku = 0),
    # so at large N the collocation matrix crosses the rcond floor
    problem = Problem(iv=UNIT, k1=lambda t, s: 0.0, k2=lambda t, s: 1.0,
                      g=lambda t: 1.0, alpha=1.0, d_se=3.14, d_de=1.57)
    with pytest.warns(ConditioningWarning):
        sol = solve(problem, Method.NEW_SE, 128)
    assert sol.condition_hint < 100.0 * np.finfo(float).eps


# ---------------------------------------------------------------------------
# solving and evaluation
# ---------------------------------------------------------------------------

def test_identity_system_interpolates_g():
    problem = zero_kernel_problem(g=lambda t: t)
    sol = solve(problem, Method.NEW_DE, 8)
    grid = sol.grid
    assert np.array_equal(sol.coeffs, grid.points)
    assert evaluate_solution(sol, 0.0) == sol.coeffs[0]
    assert evaluate_solution(sol, 1.0) == sol.coeffs[-1]


@pytest.mark.parametrize("method", [Method.NEW_SE, Method.NEW_DE])
@pytest.mark.parametrize("N", [4, 16, 64])
def test_nodal_values_are_coefficients(method, N):
    # Nodal reproduction is only well-posed where the node image is a
    # distinct double: past tanh saturation several coefficients share one
    # point (their spread is the local discretization error) and a single
    # evaluation cannot return them all.  On unsaturated grids (all SE cases
    # here, DE at N=4) the mask covers every node and reproduction is exact.
    ex = builtin(1)
    sol = solve(ex.problem, method, N)
    pts = sol.grid.points
    nodal = evaluate_solution_many(sol, pts)
    unique = np.ones(len(pts), dtype=bool)
    unique[1:] &= pts[1:] != pts[:-1]
    unique[:-1] &= pts[:-1] != pts[1:]
    interior = (pts > sol.grid.iv.a) & (pts < sol.grid.iv.b)
    mask = unique & interior
    assert mask.sum() >= sol.grid.n // 2
    assert np.array_equal(nodal[mask], sol.coeffs[mask])
    # collided nodes evaluate to the boundary coefficient of their endpoint
    right = (pts == sol.grid.iv.b)
    assert np.all(nodal[right] == sol.coeffs[-1])
    left = (pts == sol.grid.iv.a)
    assert np.all(nodal[left] == sol.coeffs[0])


def test_original_variant_nodal_values_differ_from_coefficients(rng):
    ex = builtin(1)
    N = 8
    for method in (Method.SHAMLOO_SE, Method.JOHN_OGBONNA_DE):
        sol = solve(ex.problem, method, N)
        c, grid = sol.coeffs, sol.grid
        nodal = evaluate_solution_many(sol, grid.points)
        # hat columns make u_N(t_i) = c_-N w_a(t_i) + c_i + c_N w_b(t_i) != c_i
        assert not np.allclose(nodal, c, rtol=0.0, atol=1e-12)
        i = 4  # interior node: check the three-term value explicitly
        t = grid.points[i]
        expected = c[0] * omega_a(UNIT, t) + c[i] + c[-1] * omega_b(UNIT, t)
        assert nodal[i] == pytest.approx(expected, rel=1e-15)
        # off the nodes: hats plus the interior cardinal expansion
        ts = rng.uniform(0.05, 0.95, size=50)
        for t, got in zip(ts, evaluate_solution_many(sol, ts)):
            x = inverse(grid.kind, UNIT, t)
            cardinal = sum(c[j + N] * sinc_S(j, grid.h, x) for j in range(1 - N, N))
            expected = c[0] * omega_a(UNIT, t) + cardinal + c[-1] * omega_b(UNIT, t)
            assert got == pytest.approx(expected, rel=1e-14)


def test_evaluate_solution_domain_error():
    sol = solve(builtin(1).problem, Method.NEW_SE, 4)
    with pytest.raises(ValueError):
        evaluate_solution(sol, -0.5)


def test_example1_new_de_pointwise():
    ex = builtin(1)
    sol = solve(ex.problem, Method.NEW_DE, 32)
    assert evaluate_solution(sol, 0.5) == pytest.approx(0.5, abs=1e-10)


def test_degenerate_kernel_convergence():
    ex = builtin(1)
    for method in (Method.NEW_SE, Method.NEW_DE):
        errs = [max_error(solve(ex.problem, method, N), ex.exact, 513)
                for N in (4, 8, 16, 32, 64)]
        for previous, current in zip(errs, errs[1:]):
            assert current < previous or previous < 1e-12


def test_collocation_residual_invariant():
    for example_id in (1, 2):
        problem = builtin(example_id).problem
        for method in Method:
            for N in (8, 32):
                if method is Method.SHAMLOO_SE:
                    A, rhs = assemble_shamloo(problem, N)
                elif method is Method.JOHN_OGBONNA_DE:
                    A, rhs = assemble_johnogbonna(problem, N)
                else:
                    A, rhs = assemble_new(problem, method, N)
                c, _ = solve_linear(A, rhs)
                residual = np.max(np.abs(A @ c - rhs))
                assert residual <= 1e-11 * (1.0 + np.max(np.abs(rhs)))


def test_manufactured_equivalence_of_original_and_new():
    # u = t(1-t) with kernels t(1-t)s: u and g vanish at both endpoints,
    # where the hat-basis and boundary-corrected solutions describe the
    # same collocation conditions; their values agree to well below the
    # discretization error of either method
    def k(t, s):
        return t * (1.0 - t) * s

    def g(t):
        return (t * (1.0 - t) - t * (1.0 - t) * (t ** 3 / 3.0 - t ** 4 / 4.0)
                - t * (1.0 - t) / 12.0)

    exact = lambda t: t * (1.0 - t)
    problem = Problem(iv=UNIT, k1=k, k2=k, g=g, alpha=1.0, d_se=3.14, d_de=1.57)
    sol_new = solve(problem, Method.NEW_SE, 32)
    sol_orig = solve(problem, Method.SHAMLOO_SE, 32)
    assert max_error(sol_new, exact, 1001) < 1e-4
    assert max_error(sol_orig, exact, 1001) < 1e-4
    probes = sol_new.grid.points[1:-1]
    gap = np.max(np.abs(evaluate_solution_many(sol_new, probes)
                        - evaluate_solution_many(sol_orig, probes)))
    assert gap <= 1e-8


def test_rcond_well_conditioned_examples():
    for example_id in (1, 2):
        sol = solve(builtin(example_id).problem, Method.NEW_DE, 24)
        assert sol.condition_hint > 1e-4


def test_assemble_new_rejects_original_variants():
    problem = builtin(1).problem
    with pytest.raises(ValueError):
        assemble_new(problem, Method.SHAMLOO_SE, 4)
    with pytest.raises(ValueError):
        assemble_new(problem, Method.JOHN_OGBONNA_DE, 4)


def test_johnogbonna_parametric_mesh_rule():
    # the alternative (alpha, d)-dependent rule changes h and still converges
    ex = builtin(1)
    default = solve(ex.problem, Method.JOHN_OGBONNA_DE, 16)
    parametric = solve(ex.problem, Method.JOHN_OGBONNA_DE, 16,
                       parametric_baseline=True)
    assert parametric.grid.h == pytest.approx(
        math.log(4.0 * 1.57 * 16.0) / 16.0, rel=1e-15)
    assert default.grid.h != parametric.grid.h
    assert max_error(parametric, ex.exact, 513) < 1e-6


@pytest.mark.parametrize("alpha, d_se, d_de, culprit", [
    (0.0, 3.14, 1.57, "alpha"), (1.5, 3.14, 1.57, "alpha"),
    (1.0, 0.0, 1.57, "se transform"), (1.0, math.pi, 1.57, "se transform"),
    (1.0, 3.14, 0.0, "de transform"), (1.0, 3.14, math.pi / 2, "de transform"),
])
def test_problem_rejects_alpha_and_strip_widths_outside_their_ranges(alpha, d_se, d_de,
                                                                     culprit):
    zero = lambda t, s: 0.0
    with pytest.raises(ValueError, match=culprit):
        Problem(iv=UNIT, k1=zero, k2=zero, g=lambda t: t, alpha=alpha, d_se=d_se, d_de=d_de)


def test_problem_accepts_strip_widths_just_inside_the_limits():
    problem = zero_kernel_problem(g=lambda t: t)
    assert (problem.alpha, problem.d_se, problem.d_de) == (1.0, 3.14, 1.57)


def test_solve_refuses_n_whose_dense_system_cannot_fit():
    def never(*args):
        raise AssertionError("kernel called for a system that cannot fit")

    problem = Problem(iv=UNIT, k1=never, k2=never, g=never, alpha=1.0,
                      d_se=3.14, d_de=1.57)
    for method in Method:
        with pytest.raises(ValueError, match=r"N=1000000 .*order-2000001.* bytes"):
            solve(problem, method, 10**6)


@pytest.mark.parametrize("broken", ["no sysconf", "unknown name"])
def test_solve_skips_the_size_refusal_where_memory_cannot_be_read(monkeypatch, broken):
    problem = builtin(1).problem
    want = {method: solve(problem, method, 8).coeffs for method in Method}
    if broken == "no sysconf":
        monkeypatch.delattr(os, "sysconf")
    else:
        def unknown(name):
            raise ValueError("unrecognized configuration name")
        monkeypatch.setattr(os, "sysconf", unknown)
    for method in Method:
        assert np.array_equal(solve(problem, method, 8).coeffs, want[method])


# ---------------------------------------------------------------------------
# mirrored endpoint singularities: k1 = k2 = t s on [0, 1], alpha = 1/2, with
# solution sqrt(t) (singular at a) or sqrt(1 - t) (singular at b)
# ---------------------------------------------------------------------------

def _kernel_ts(t, s):
    return t * s


def _g_sqrt_at_a(t):
    return math.sqrt(t) - 0.4 * t ** 3.5 - 0.4 * t


def _g_sqrt_at_b(t):
    w = 1.0 - t
    return (math.sqrt(w) - t * (4.0 / 15.0 - (2.0 / 3.0) * w ** 1.5 + 0.4 * w ** 2.5)
            - 4.0 * t / 15.0)


SQRT_AT = {
    "a": (_g_sqrt_at_a, lambda t: math.sqrt(t)),
    "b": (_g_sqrt_at_b, lambda t: math.sqrt(1.0 - t)),
}


def sqrt_problem(side):
    g, exact = SQRT_AT[side]
    return Problem(iv=UNIT, k1=_kernel_ts, k2=_kernel_ts, g=g, alpha=0.5,
                   d_se=3.14, d_de=1.57), exact


@pytest.mark.parametrize("side, bound", [("a", 1.2e-16), ("b", 9.3e-17)])
def test_sqrt_right_hand_sides_match_mpmath_quadrature(side, bound):
    # g = u - t int_0^t s u(s) ds - t int_0^1 s u(s) ds at 30 digits;
    # measured worst: 1.14e-16 (a side), 9.28e-17 (b side)
    mpmath = pytest.importorskip("mpmath")
    g, _ = SQRT_AT[side]
    u = mpmath.sqrt if side == "a" else (lambda s: mpmath.sqrt(1 - s))
    with mpmath.workdps(30):
        for t in (0.1, 0.5, 0.9):
            T = mpmath.mpf(t)
            want = (u(T) - T * mpmath.quad(lambda s: s * u(s), [0, T])
                    - T * mpmath.quad(lambda s: s * u(s), [0, 1]))
            assert abs(g(t) - want) <= bound


def test_sqrt_at_a_solution_reaches_roundoff():
    problem, exact = sqrt_problem("a")
    assert max_error(solve(problem, Method.NEW_DE, 64), exact, 4096) <= 1e-14


@pytest.mark.xfail(strict=True, reason="DE nodes within half an ulp of b round onto b")
def test_sqrt_at_b_solution_reaches_roundoff():
    # mirror of the test above: kernels and g receive t = b at the 31 nodes
    # rounded onto b, which leaves a floor of 8.1e-11 at N = 64 (5.2e-11 at
    # N = 128), against 7.8e-16 for the a-side solution
    problem, exact = sqrt_problem("b")
    assert max_error(solve(problem, Method.NEW_DE, 64), exact, 4096) <= 1e-14
