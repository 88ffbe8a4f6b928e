import dataclasses
import math
import os
import re
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.special import sici

import vfie.bench
import vfie.solver
from conftest import (
    SI_PI,
    assert_ulp_close,
    expression_assemble,
    indefinite,
    naive_assemble,
    omega_a,
    omega_b,
    quad_si,
    quadrature,
    sinc_S,
)
from vfie import (
    AssemblyError,
    ConditioningWarning,
    DiscreteSolution,
    GeneralizedInterpolant,
    Interval,
    Method,
    Problem,
    SincGrid,
    SingularMatrixError,
    assemble_johnogbonna,
    assemble_new,
    assemble_shamloo,
    builtin,
    evaluate_solution,
    evaluate_solution_many,
    grid_for,
    inverse,
    max_error,
    self_check,
    solve,
    solve_linear,
)

UNIT = Interval(0.0, 1.0)


def zero_kernel_problem(g, alpha=1.0):
    zero = lambda t, s: 0.0
    return Problem(iv=UNIT, k1=zero, k2=zero, g=g, alpha=alpha,
                   d_se=3.14, d_de=1.57)


@pytest.mark.parametrize("method", list(Method))
def test_assembly_matches_naive_oracle_example2(method):
    problem = builtin(2).problem
    N = 3
    got = assemble_new(problem, method, N)
    want = naive_assemble(problem, method, N)
    assert_ulp_close(got[0], want[0], ulps=1)
    assert_ulp_close(got[1], want[1], ulps=1)


@pytest.mark.parametrize("method", list(Method))
def test_assembly_equals_the_expression_form_bitwise(method):
    # N = 64 is the first N of the sweep whose n x n arrays are above glibc's
    # 128 KB mmap threshold
    for example_id in (1, 2):
        problem = builtin(example_id).problem
        for N in (8, 64):
            A, rhs, _ = assemble_new(problem, method, N)
            A_ref, rhs_ref = expression_assemble(problem, method, N)
            assert np.array_equal(A, A_ref), (example_id, N)
            assert np.array_equal(rhs, rhs_ref), (example_id, N)


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------

def test_new_assembly_zero_kernels_is_identity():
    problem = zero_kernel_problem(g=lambda t: math.sin(t))
    A, rhs, grid = assemble_new(problem, Method.NEW_SE, 6)
    assert np.array_equal(A, np.eye(13))
    assert np.array_equal(rhs, np.array([math.sin(t) for t in grid.points]))
    sol = solve(problem, Method.NEW_SE, 6)
    assert np.array_equal(sol.coeffs, rhs)
    assert np.array_equal(evaluate_solution_many(sol, grid.points), rhs)


def test_shamloo_structure_zero_kernels():
    problem = zero_kernel_problem(g=lambda t: 1.0 + t)
    N = 4
    A, _, grid = assemble_shamloo(problem, N)
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


@pytest.mark.parametrize("method", list(Method))
def test_solve_builds_one_grid_the_one_assembly_returns(method, monkeypatch):
    built, assembled = [], []
    grid_for_, assemble_new_ = vfie.solver.grid_for, vfie.solver.assemble_new

    def counted_grid_for(*args):
        built.append(grid_for_(*args))
        return built[-1]

    def recorded_assemble_new(*args):
        assembled.append(assemble_new_(*args))
        return assembled[-1]

    monkeypatch.setattr(vfie.solver, "grid_for", counted_grid_for)
    monkeypatch.setattr(vfie.solver, "assemble_new", recorded_assemble_new)
    sol = solve(builtin(1).problem, method, 4)
    assert len(built) == 1 and len(assembled) == 1
    assert sol.grid is assembled[0][2] is built[0]


def test_johnogbonna_structure():
    ex = builtin(1)
    N = 3
    A, rhs, _ = assemble_johnogbonna(ex.problem, N)
    assert rhs[0] == ex.problem.g(0.0)
    assert rhs[-1] == ex.problem.g(1.0)
    # the first collocation row sits at t = a: the running integral vanishes
    # there, so with k2 = 0 the row reduces to the identity row exactly
    zero = lambda t, s: 0.0
    prob_k1_only = Problem(iv=UNIT, k1=ex.problem.k1, k2=zero, g=ex.exact,
                           alpha=1.0, d_se=3.14, d_de=1.57)
    A1, _, _ = assemble_johnogbonna(prob_k1_only, N)
    first = np.zeros(2 * N + 1)
    first[0] = 1.0
    assert np.array_equal(A1[0], first)
    last = np.zeros(2 * N + 1)
    last[-1] = 1.0
    prob_none = zero_kernel_problem(g=ex.exact)
    A2, _, _ = assemble_johnogbonna(prob_none, N)
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
    assert f"k2({float(pts[0])!r}, {float(pts[pts > 0.9][0])!r})" in message


def test_arithmetic_error_in_a_callable_becomes_assembly_error():
    # Python floats raise where numpy scalars returned inf with a warning
    problem = Problem(iv=UNIT, k1=lambda t, s: 0.0, k2=lambda t, s: 0.0,
                      g=lambda t: 1.0 / t, alpha=1.0, d_se=3.14, d_de=1.57)
    with pytest.raises(AssemblyError) as exc:
        solve(problem, Method.JOHN_OGBONNA_DE, 4)
    assert str(exc.value).startswith("g(0.0) raised ZeroDivisionError(")
    assert isinstance(exc.value.__cause__, ZeroDivisionError)

    problem = Problem(iv=UNIT, k1=lambda t, s: 10.0 ** (400.0 * s), k2=lambda t, s: 0.0,
                      g=lambda t: t, alpha=1.0, d_se=3.14, d_de=1.57)
    pts = grid_for(problem, Method.NEW_SE, 8).points
    with pytest.raises(AssemblyError) as exc:
        solve(problem, Method.NEW_SE, 8)
    # the first overflowing call in row-major order: row 0, first node with 400 s > 308.25
    first = float(pts[400.0 * pts > math.log10(np.finfo(float).max)][0])
    assert str(exc.value).startswith(f"k1({float(pts[0])!r}, {first!r}) raised OverflowError(")
    assert isinstance(exc.value.__cause__, OverflowError)

    # a ValueError (math domain error) and a value float() refuses name the point too
    problem = Problem(iv=UNIT, k1=lambda t, s: 0.0, k2=lambda t, s: 0.0,
                      g=math.log, alpha=1.0, d_se=3.14, d_de=1.57)
    with pytest.raises(AssemblyError) as exc:
        solve(problem, Method.JOHN_OGBONNA_DE, 4)
    assert str(exc.value).startswith("g(0.0) raised ValueError('math domain error')")
    assert isinstance(exc.value.__cause__, ValueError)

    problem = Problem(iv=UNIT, k1=lambda t, s: 1j, k2=lambda t, s: 0.0,
                      g=lambda t: t, alpha=1.0, d_se=3.14, d_de=1.57)
    p0 = float(grid_for(problem, Method.NEW_SE, 4).points[0])
    with pytest.raises(AssemblyError) as exc:
        solve(problem, Method.NEW_SE, 4)
    assert str(exc.value).startswith(f"k1({p0!r}, {p0!r}) raised TypeError(")
    assert "complex" in str(exc.value)
    assert isinstance(exc.value.__cause__, TypeError)


def vectorized_problem(k1=lambda t, s: t * s, k2=lambda t, s: 0.0, g=lambda t: t):
    return Problem(iv=UNIT, k1=k1, k2=k2, g=g, alpha=1.0, d_se=3.14, d_de=1.57,
                   vectorized=True)


def test_vectorized_non_finite_value_names_the_first_point():
    # numpy's overflow, invalid and divide warnings are off during the
    # call, so the finiteness check refuses the value, and it names the
    # first non-finite entry in row-major order from the axes
    problem = vectorized_problem(k1=lambda t, s: 10.0 ** (400.0 * s) + t)
    pts = grid_for(problem, Method.NEW_SE, 8).points
    first = float(pts[400.0 * pts > math.log10(np.finfo(float).max)][0])
    with pytest.raises(AssemblyError, match=re.escape(f"k1({float(pts[0])!r}, {first!r}) returned inf")):
        solve(problem, Method.NEW_SE, 8)
    problem = vectorized_problem(k2=lambda t, s: np.sqrt(t - 0.5) * s)
    p0 = float(pts[0])
    with pytest.raises(AssemblyError, match=re.escape(f"k2({p0!r}, {p0!r}) returned nan")):
        solve(problem, Method.NEW_SE, 8)
    with pytest.raises(AssemblyError, match=re.escape("g(0.0) returned inf")):
        solve(vectorized_problem(g=lambda t: 1.0 / t), Method.JOHN_OGBONNA_DE, 4)


def _raise(exc):
    def func(*args):
        raise exc
    return func


@pytest.mark.parametrize("callable_, exc_type", [
    ("k1", ZeroDivisionError), ("k2", OverflowError), ("g", ValueError), ("k1", TypeError),
])
def test_vectorized_callable_that_raises_is_refused(callable_, exc_type):
    problem = vectorized_problem(**{callable_: _raise(exc_type("bad"))})
    with pytest.raises(AssemblyError, match=re.escape(f"{callable_} raised {exc_type.__name__}(")) as exc:
        solve(problem, Method.NEW_DE, 4)
    assert isinstance(exc.value.__cause__, exc_type)


def test_math_only_kernel_on_a_vectorized_problem_is_refused():
    problem = vectorized_problem(k1=lambda t, s: math.exp(t * s))
    with pytest.raises(AssemblyError, match=r"^k1 raised TypeError\(") as exc:
        solve(problem, Method.NEW_SE, 4)
    assert isinstance(exc.value.__cause__, TypeError)
    with pytest.raises(AssemblyError, match=r"^g raised TypeError\("):
        solve(vectorized_problem(g=math.sqrt), Method.NEW_SE, 4)


def test_vectorized_complex_result_is_refused():
    problem = vectorized_problem(k1=lambda t, s: t * s + 0j)
    with pytest.raises(AssemblyError, match=r"^k1's result is refused: .*complex128") as exc:
        solve(problem, Method.NEW_SE, 4)
    assert isinstance(exc.value.__cause__, TypeError)


@pytest.mark.parametrize("k2", [
    lambda t, s: np.zeros(3),
    lambda t, s: np.zeros((9, 9, 2)),
    # n values, as many as the nodes: numpy would spread them across the
    # rows, as if the kernel followed s
    lambda t, s: t.ravel(),
], ids=["short", "3-d", "1-d-of-n"])
def test_vectorized_result_that_does_not_broadcast_is_refused(k2):
    problem = vectorized_problem(k2=k2)
    with pytest.raises(AssemblyError, match=r"^k2's result is refused: .*broadcast") as exc:
        solve(problem, Method.NEW_SE, 4)
    assert isinstance(exc.value.__cause__, ValueError)
    with pytest.raises(AssemblyError, match=r"^g's result is refused: .*broadcast"):
        solve(vectorized_problem(g=lambda t: t[:-1]), Method.NEW_SE, 4)
    with pytest.raises(AssemblyError, match=r"^g's result is refused: .*broadcast"):
        solve(vectorized_problem(g=lambda t: t[:, None]), Method.NEW_SE, 4)


@pytest.mark.parametrize("method", list(Method))
def test_vectorized_results_that_broadcast_match_the_scalar_problem(method):
    # a row of nodes, a column of points and a constant are taken and broadcast
    def problem(vectorized):
        return Problem(iv=UNIT, k1=lambda t, s: s, k2=lambda t, s: t,
                       g=lambda t: 1.0, alpha=1.0, d_se=3.14, d_de=1.57,
                       vectorized=vectorized)
    A, rhs, _ = assemble_new(problem(True), method, 6)
    A_ref, rhs_ref, _ = assemble_new(problem(False), method, 6)
    assert np.array_equal(A, A_ref) and np.array_equal(rhs, rhs_ref)


def test_sampling_holds_no_mask_beside_its_output():
    # the finiteness check reduces the samples without an n x n bool mask
    problem = builtin(2).problem
    pts = grid_for(problem, Method.NEW_DE, 128).points
    n = pts.size
    tracemalloc.start()
    try:
        vfie.solver._sample(problem.k1, "k1", pts, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.05 * 8 * n * n, f"{peak / (8 * n * n):.3f} n^2 doubles"


def _recording(log, name, func):
    def record(*args):
        log.append((name, args))
        return func(*args)
    return record


def _recorded(log, problem):
    """problem with k1, k2 and g logging (name, args) of every call."""
    return dataclasses.replace(problem, k1=_recording(log, "k1", problem.k1),
                               k2=_recording(log, "k2", problem.k2),
                               g=_recording(log, "g", problem.g))


@pytest.mark.parametrize("method", list(Method))
def test_callables_get_python_floats_in_row_major_order(method):
    log = []
    problem = _recorded(log, dataclasses.replace(builtin(2).problem, vectorized=False))
    N = 8
    n = 2 * N + 1
    solve(problem, method, N)
    pts = grid_for(problem, method, N).points.tolist()
    coll = list(pts)
    if method is Method.JOHN_OGBONNA_DE:
        coll[0], coll[-1] = UNIT.a, UNIT.b
    row_major = [(t, s) for t in coll for s in pts]
    assert [args for name, args in log if name == "k1"] == row_major
    assert [args for name, args in log if name == "k2"] == row_major
    assert [args for name, args in log if name == "g"] == [(t,) for t in coll]
    assert len(log) == 2 * n * n + n
    assert all(type(x) is float for _, args in log for x in args)


@pytest.mark.parametrize("method", list(Method))
def test_vectorized_callables_get_one_call_on_broadcast_arrays(method):
    log = []
    problem = _recorded(log, builtin(2).problem)
    N = 8
    n = 2 * N + 1
    solve(problem, method, N)
    pts = grid_for(problem, method, N).points
    coll = pts.copy()
    if method is Method.JOHN_OGBONNA_DE:
        coll[0], coll[-1] = UNIT.a, UNIT.b
    assert [name for name, _ in log] == ["k1", "k2", "g"]
    for name, args in log:
        assert all(isinstance(x, np.ndarray) and x.dtype == np.float64
                   and not x.flags.writeable for x in args)
        if name == "g":
            (t,) = args
            assert t.shape == (n,) and np.array_equal(t, coll)
        else:
            t, s = args
            assert (t.shape, s.shape) == ((n, 1), (1, n))
            assert np.array_equal(t.ravel(), coll) and np.array_equal(s.ravel(), pts)


def test_quadrature_and_indefinite_oracles_call_with_python_floats():
    # the scalar oracles are valid references only if they call a callable
    # the way the solver does
    grid = grid_for(builtin(2).problem, Method.NEW_DE, 8)
    log = []
    quadrature(grid, _recording(log, "f", math.sqrt))
    indefinite(grid, _recording(log, "f", math.sqrt), 0.5)
    assert log
    assert all(type(x) is float for _, args in log for x in args)


def test_every_user_callable_is_called_inside_sample(monkeypatch):
    # solve, self_check and max_error reach user code only through _sample
    depth = [0]
    sample = vfie.solver._sample

    def marked(*args, **kwargs):
        depth[0] += 1
        try:
            return sample(*args, **kwargs)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(vfie.solver, "_sample", marked)
    monkeypatch.setattr(vfie.bench, "_sample", marked)

    log = []

    def inside(name, func):
        def record(*args):
            log.append((name, args, depth[0] > 0))
            return func(*args)
        return record

    # example 2 as built (k1, k2 and g on arrays) and as a scalar problem
    # (one Python float per argument); its exact solution takes floats in both
    for vectorized in (True, False):
        log.clear()
        ex = builtin(2)
        base = dataclasses.replace(ex.problem, vectorized=vectorized)
        problem = dataclasses.replace(base, k1=inside("k1", base.k1),
                                      k2=inside("k2", base.k2), g=inside("g", base.g))
        exact = inside("u", ex.exact)
        for method in Method:
            solve(problem, method, 4)
        self_check(dataclasses.replace(ex, problem=problem, exact=exact))
        max_error(solve(base, Method.NEW_DE, 4), exact, 16)
        assert {name for name, _, _ in log} == {"k1", "k2", "g", "u"}
        assert all(within for _, _, within in log)
        kernel_arg = np.ndarray if vectorized else float
        assert all(type(x) is (float if name == "u" else kernel_arg)
                   for name, args, _ in log for x in args)


def _closure_residuals(example, grid, ts):
    """The self-check residual probe by probe, from the scalar quadrature
    and indefinite-integration oracles with two closures per probe."""
    problem, u = example.problem, example.exact
    out = []
    for t in ts.tolist():
        running = indefinite(grid, lambda s: problem.k1(t, s) * u(s), t)
        full = quadrature(grid, lambda s: problem.k2(t, s) * u(s))
        out.append(u(t) - running - full - problem.g(t))
    return np.array(out, dtype=float)


@pytest.mark.parametrize("example_id", [1, 2])
def test_residual_matches_closure_oracle(example_id):
    ex = builtin(example_id)
    grid = grid_for(ex.problem, Method.NEW_DE, 48)
    ts = np.linspace(0.0, 1.0, 33)
    got = vfie.solver._residual(ex.problem, grid, ex.exact, ts)
    want = _closure_residuals(ex, grid, ts)
    assert np.max(np.abs(got - want)) <= 4.4e-16
    assert self_check(ex) == float(np.max(np.abs(want)))


def test_fredholm_rows_sum_to_kernel_integral():
    # with k1 = 0, A = I - K, so row sums of I - A approximate
    # int_0^1 k2(t_i, s) ds = t_i / 2 for k2 = t s
    problem = Problem(iv=UNIT, k1=lambda t, s: 0.0, k2=lambda t, s: t * s,
                      g=lambda t: t, alpha=1.0, d_se=3.14, d_de=1.57)
    N = 32
    A, _, grid = assemble_new(problem, Method.NEW_SE, N)
    K = np.eye(2 * N + 1) - A
    row_sums = K.sum(axis=1)
    assert np.max(np.abs(row_sums - grid.points / 2.0)) <= 1e-4


def test_offset_identity(rng):
    # J(j,h)(ih) equals J(0,h)((i-j)h): the factor depends on i - j only
    for _ in range(100):
        i = int(rng.integers(-60, 61))
        j = int(rng.integers(-60, 61))
        h = float(rng.uniform(0.02, 2.0))
        a = vfie.solver._running_integral(h, (i * h - j * h) / h)
        b = vfie.solver._running_integral(h, (i - j) * h / h)
        assert a == pytest.approx(b, rel=5e-16)


# ---------------------------------------------------------------------------
# the running integral J(j,h) = h (1/2 + Si(pi r)/pi), Si from scipy's sici
# ---------------------------------------------------------------------------

def J(j, h, x):
    """J(j,h)(x), the running integral at the offset (x - jh)/h."""
    return vfie.solver._running_integral(h, (x - j * h) / h)


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


# High-precision references (40-digit evaluation of the defining integral).
SI_REFERENCE = {
    1.0: 0.9460830703671830149413533138231796578123,
    50.0: 1.5516170724859358947279855948604768702769,
    1e4: 1.5708915453859619157223696748119829376928,
    1e6: 1.5707953900431190814622082011440286365853,
}


def sine_integral(x):
    """Si(x) as the solver computes it."""
    return sici(x)[0]


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
    # sici has no jump at x = 4, the seam where the program's earlier Si
    # changed from a series to a continued fraction: Si at the two float
    # neighbours of 4 differs by about 2.5e-16 (Si'(4) = sin(4)/4 ~ -0.19
    # times their gap of 1.3e-15), and 2e-15 allows nine ulp of Si(4) ~ 1.76
    below = sine_integral(math.nextafter(4.0, 0.0))
    above = sine_integral(math.nextafter(4.0, 8.0))
    assert abs(above - below) <= 2e-15
    for x in (3.999999, 4.0, 4.000001):
        assert sine_integral(x) == pytest.approx(quad_si(x), abs=1e-14)


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


@pytest.mark.parametrize("A, rhs", [
    (np.array([[1.0, np.nan], [0.0, 1.0]]), np.ones(2)),
    (np.array([[1.0, 0.0], [np.inf, 1.0]]), np.ones(2)),
    (np.eye(2), np.array([1.0, np.nan])),
], ids=["nan-in-A", "inf-in-A", "nan-in-rhs"])
def test_solve_linear_refuses_non_finite_input(A, rhs):
    with pytest.raises(ValueError, match="must be finite"):
        solve_linear(A, rhs)


@pytest.mark.parametrize("order", ["C", "F"])
def test_solve_linear_leaves_A_and_rhs_unchanged(rng, order):
    # perfbench's residual reads A and rhs after the call
    A = np.asarray(np.eye(40) + 0.1 * rng.standard_normal((40, 40)), order=order)
    rhs = rng.standard_normal(40)
    A_before, rhs_before = A.copy(order="K"), rhs.copy()
    solve_linear(A, rhs)
    assert A.flags.f_contiguous == (order == "F")
    assert A.tobytes(order="A") == A_before.tobytes(order="A")
    assert rhs.tobytes() == rhs_before.tobytes()


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


def test_solve_linear_passes_numpys_infinity_norm_to_dgecon(monkeypatch):
    # dgecon gets bitwise the np.linalg.norm(A, inf) of the matrix it factors
    got, want = [], []
    dgesv, dgecon = scipy.linalg.lapack.dgesv, scipy.linalg.lapack.dgecon

    def spy_dgesv(A, rhs):
        want.append(np.linalg.norm(A, np.inf))
        return dgesv(A, rhs)

    def spy_dgecon(lu, anorm, norm):
        got.append(anorm)
        return dgecon(lu, anorm, norm=norm)

    monkeypatch.setattr(scipy.linalg.lapack, "dgesv", spy_dgesv)
    monkeypatch.setattr(scipy.linalg.lapack, "dgecon", spy_dgecon)
    for example_id in (1, 2):
        for method in Method:
            solve(builtin(example_id).problem, method, 128)
    assert len(got) == 8 and np.array_equal(got, want)


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
    # the one-point path refuses what the array path refuses, in its words
    for t in (-0.5, -5e-324, 1.5, np.nextafter(1.0, 2.0), math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError) as one:
            evaluate_solution(sol, t)
        with pytest.raises(ValueError) as many:
            evaluate_solution_many(sol, np.array([t]))
        assert str(one.value) == str(many.value) == f"t = {t} lies outside [0.0, 1.0]"


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


def never(*args):
    raise AssertionError("kernel called for a solve that must be refused")


NEVER_CALLED = Problem(iv=UNIT, k1=never, k2=never, g=never, alpha=1.0,
                       d_se=3.14, d_de=1.57)


def test_evaluation_rejects_points_with_more_than_one_dimension():
    sol = solve(builtin(1).problem, Method.NEW_DE, 8)
    assert sol.grid.n == 17
    for shape in ((2, 17), (2, 3), (1, 1)):
        with pytest.raises(ValueError, match=re.escape(str(shape))):
            evaluate_solution_many(sol, np.full(shape, 0.5))
    assert evaluate_solution_many(sol, np.array(0.5)).shape == (1,)


@pytest.mark.parametrize("method", list(Method))
def test_edge_batches_empty_and_endpoints_only(method):
    sol = solve(builtin(1).problem, method, 8)
    a, b = sol.grid.iv.a, sol.grid.iv.b
    assert evaluate_solution_many(sol, np.array([])).shape == (0,)
    # every point maps to x = +-inf, where every cardinal term vanishes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = evaluate_solution_many(sol, np.array([a, b, a]))
    c = sol.coeffs
    assert np.array_equal(vals, [c[0], c[-1], c[0]])


@pytest.mark.parametrize("method", list(Method))
def test_evaluation_reuses_the_interpolant_built_with_the_solution(method, monkeypatch):
    sol = solve(builtin(2).problem, method, 16)
    ts = np.concatenate([np.linspace(0.0, 1.0, 257), sol.grid.points])
    many = evaluate_solution_many(sol, ts)
    single = [evaluate_solution(sol, t) for t in (0.0, 0.3, 1.0)]
    by_hand = DiscreteSolution(sol.method, sol.grid, sol.coeffs, sol.condition_hint)
    assert np.array_equal(evaluate_solution_many(by_hand, ts), many)

    def rebuilt(*args):
        raise AssertionError("interpolant rebuilt at evaluation")

    monkeypatch.setattr(vfie.solver, "approximate", rebuilt)
    monkeypatch.setattr(vfie.solver, "_boundary_pair", rebuilt)
    assert np.array_equal(evaluate_solution_many(sol, ts), many)
    assert [evaluate_solution(sol, t) for t in (0.0, 0.3, 1.0)] == single


@pytest.mark.parametrize("method", list(Method))
def test_solution_refuses_coefficients_of_the_wrong_length(method):
    grid = solve(builtin(1).problem, method, 4).grid
    assert grid.n == 9
    for coeffs in (np.zeros(5), np.zeros(10), np.zeros((9, 1))):
        message = f"coeffs must have shape (9,), got {coeffs.shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            DiscreteSolution(method, grid, coeffs, 1.0)


@pytest.mark.parametrize("as_list", [False, True], ids=["array", "list"])
def test_constructors_store_read_only_copies_of_the_callers_arrays(as_list):
    grid = solve(builtin(1).problem, Method.NEW_DE, 4).grid
    given = {name: np.linspace(0.25, 0.75, grid.n) for name in
             ("points", "weights", "samples", "coeffs", "solution")}
    arg = {name: a.tolist() if as_list else a for name, a in given.items()}
    built = SincGrid(kind=grid.kind, iv=grid.iv, mesh=grid.mesh,
                     points=arg["points"], weights=arg["weights"])
    interp = GeneralizedInterpolant(grid=grid, samples=arg["samples"], boundary_left=0.0,
                                    boundary_right=0.0, coeffs=arg["coeffs"])
    sol = DiscreteSolution(Method.NEW_DE, grid, arg["solution"], 1.0)
    stored = {"points": built.points, "weights": built.weights, "samples": interp.samples,
              "coeffs": interp.coeffs, "solution": sol.coeffs}
    for name, a in stored.items():
        assert a.dtype == np.float64 and not a.flags.writeable, name
        assert not np.shares_memory(a, given[name]), name
        assert np.array_equal(a, given[name]), name
        assert given[name].flags.writeable, name


def test_evaluate_solution_refuses_an_array_naming_its_shape():
    sol = solve(builtin(1).problem, Method.NEW_SE, 4)
    for t, shape in ((np.array([0.5]), (1,)), (np.array([[0.5]]), (1, 1))):
        with pytest.raises(ValueError, match=re.escape(f"t must be a scalar, got shape {shape}")):
            evaluate_solution(sol, t)
    assert evaluate_solution(sol, np.array(0.5)) == evaluate_solution(sol, 0.5)


def test_evaluate_solution_takes_any_real_scalar_as_its_float():
    # only a float (np.float64 among them) skips `_scalar`: integers, other
    # numpy scalars and 0-d arrays give the bits of the equal float, and a
    # bool or a string is refused as `_scalar` refuses it, naming t
    sol = solve(builtin(1).problem, Method.NEW_DE, 16)
    single, half = np.float32(0.7), np.float16(0.3)
    for t, equal in ((0, 0.0), (1, 1.0), (np.int64(1), 1.0), (single, float(single)),
                     (np.array(single), float(single)), (half, float(half)),
                     (np.float64(0.3), 0.3), (np.array(0.3), 0.3)):
        got, want = evaluate_solution(sol, t), evaluate_solution(sol, equal)
        assert type(got) is float, t
        bits = np.array([got, want]).view(np.int64)
        assert bits[0] == bits[1], (t, got, want)
    for t in (True, np.bool_(False), "0.5", np.array("0.5")):
        with pytest.raises(TypeError, match="expected real t, got dtype"):
            evaluate_solution(sol, t)


@pytest.mark.parametrize("endpoint", [np.float32, np.float16, np.float64, int, np.int64],
                         ids=lambda endpoint: endpoint.__name__)
def test_endpoints_of_any_real_type_give_the_bits_of_their_floats(endpoint):
    # the endpoints are stored as Python floats, so example 2 on [0, 1]
    # given as float32 (or float16, or integers) computes nothing in single
    # precision: its grid, its coefficients and both evaluation paths give
    # the bits of Interval(0.0, 1.0), and a point query returns a float
    iv = Interval(endpoint(0), endpoint(1))
    assert type(iv.a) is float and type(iv.b) is float
    example = builtin(2).problem
    problem = dataclasses.replace(example, iv=iv)
    ts = np.concatenate([np.linspace(0.0, 1.0, 257), np.random.default_rng(7).random(200)])
    for method in (Method.NEW_DE, Method.NEW_SE):
        got, want = solve(problem, method, 64), solve(example, method, 64)
        assert type(got.grid.mesh.h) is float, method
        for name in ("points", "weights"):
            assert np.array_equal(getattr(got.grid, name).view(np.int64),
                                  getattr(want.grid, name).view(np.int64)), (method, name)
        assert np.array_equal(got.coeffs.view(np.int64), want.coeffs.view(np.int64)), method
        point = [evaluate_solution(got, t) for t in ts.tolist()]
        assert all(type(value) is float for value in point), method
        many = evaluate_solution_many(got, ts)
        expected = evaluate_solution_many(want, ts).view(np.int64)
        assert np.array_equal(np.array(point).view(np.int64), expected), method
        assert np.array_equal(many.view(np.int64), expected), method


@pytest.mark.parametrize("alpha, d_se, d_de, culprit", [
    (0.0, 3.14, 1.57, "alpha"), (1.5, 3.14, 1.57, "alpha"),
    (1.0, 0.0, 1.57, "se transform"), (1.0, math.pi, 1.57, "se transform"),
    (1.0, 3.14, 0.0, "de transform"), (1.0, 3.14, math.pi / 2, "de transform"),
    # an array, even of one element, is refused by `_scalar`, naming the value
    (np.array([0.5]), 3.14, 1.57, "alpha must be a scalar"),
    (1.0, np.array([3.14]), 1.57, "d for the se transform must be a scalar"),
    (1.0, 3.14, np.array([[1.57]]), "d for the de transform must be a scalar"),
])
def test_problem_rejects_alpha_and_strip_widths_outside_their_ranges(alpha, d_se, d_de,
                                                                     culprit):
    zero = lambda t, s: 0.0
    with pytest.raises(ValueError, match=culprit):
        Problem(iv=UNIT, k1=zero, k2=zero, g=lambda t: t, alpha=alpha, d_se=d_se, d_de=d_de)


@pytest.mark.parametrize("alpha, d_se, d_de", [
    (True, 3.14, 1.57), ("1", 3.14, 1.57), (1.0, 3.14 + 0j, 1.57), (1.0, 3.14, True),
])
def test_problem_refuses_alpha_and_strip_widths_that_are_not_real(alpha, d_se, d_de):
    # True would pass as 1 and "1" would die in a comparison; both go
    # through _real, as a complex does, and the refusal names the one
    # value that is not a float
    name = ("alpha" if not isinstance(alpha, float) else
            "d for the se transform" if not isinstance(d_se, float) else "d for the de transform")
    zero = lambda t, s: 0.0
    with pytest.raises(TypeError, match=f"expected real {name}, got dtype"):
        Problem(iv=UNIT, k1=zero, k2=zero, g=lambda t: t, alpha=alpha, d_se=d_se, d_de=d_de)


def test_problem_accepts_strip_widths_just_inside_the_limits():
    problem = zero_kernel_problem(g=lambda t: t)
    assert (problem.alpha, problem.d_se, problem.d_de) == (1.0, 3.14, 1.57)
    # they are stored as Python floats, whatever real scalar was given
    zero = lambda t, s: 0.0
    problem = Problem(iv=UNIT, k1=zero, k2=zero, g=lambda t: t, alpha=np.float32(0.5),
                      d_se=np.array(3), d_de=np.float16(1.5))
    assert (problem.alpha, problem.d_se, problem.d_de) == (0.5, 3.0, 1.5)
    assert all(type(v) is float for v in (problem.alpha, problem.d_se, problem.d_de))


def test_solve_refuses_n_whose_dense_system_cannot_fit():
    # the estimate is exact: in int64 it would overflow at N = 10^9 and skip
    # the refusal (warnings are errors here, so such an overflow raises
    # instead of going on to build the grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for method in Method:
            with pytest.raises(ValueError, match=r"N=1000000 .*order-2000001.* bytes"):
                solve(NEVER_CALLED, method, 10**6)
            with pytest.raises(ValueError, match=r"N=1000000000 .*order-2000000001.* bytes"):
                solve(NEVER_CALLED, method, np.int64(10**9))


@pytest.mark.parametrize("method", list(Method))
def test_solve_peak_memory_is_within_the_size_refusal_estimate(method):
    # numpy reports its buffers to tracemalloc, so the traced peak is what a
    # solve really holds at once
    problem = builtin(2).problem
    N = 128
    n = 2 * N + 1
    tracemalloc.start()
    try:
        solve(problem, method, N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= vfie.solver._PEAK_ARRAYS * 8 * n * n, f"{peak / (8 * n * n):.2f} n^2 doubles"


# a bool is a numbers.Integral, but True is no truncation index
@pytest.mark.parametrize("N", [8.0, 8.5, np.float64(8.0), True],
                         ids=["8.0", "8.5", "float64", "bool"])
def test_solve_refuses_non_integral_n(N):
    for method in Method:
        with pytest.raises(ValueError, match=re.escape(f"N must be an integer, got {N!r}")):
            solve(NEVER_CALLED, method, N)


@pytest.mark.parametrize("N", [np.int64(8), np.int32(8)], ids=["int64", "int32"])
def test_numpy_integer_n_gives_the_same_solution(N):
    problem = builtin(2).problem
    for method in Method:
        want = solve(problem, method, 8)
        got = solve(problem, method, N)
        assert type(got.grid.mesh.N) is int
        assert got.grid.h == want.grid.h
        assert np.array_equal(got.grid.points, want.grid.points)
        assert np.array_equal(got.grid.weights, want.grid.weights)
        assert np.array_equal(got.coeffs, want.coeffs)


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
