"""Acceptance suite: each test prints one pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they go.
The criteria, in order: the interpolation identity at the nodes, the
special-function oracles, assembly equal to naive double-loop
constructions (within 1 ulp per entry), exact-solution recovery, the
decay-rate regressions, DE-over-SE dominance, residual bounds, the
sup|J| <= 1.1 h bound of the running-integral basis, the quadrature
weight-sum limits, and a self-check that the built-in examples'
right-hand sides match their stated exact solutions.
"""

import math
import time

import numpy as np
from scipy.special import beta, sici

from conftest import assert_ulp_close, naive_assemble, quad_si
from vfie import (
    Method,
    TransformKind,
    approximate,
    assemble_new,
    build_grid,
    builtin,
    derivative,
    evaluate_many,
    fit_rate,
    max_error,
    run_sweep,
    self_check,
    solve,
    solve_linear,
)
from vfie.solver import _running_integral
from vfie.transforms import Interval, select_h

UNIT = Interval(0.0, 1.0)


def report(name, ok, detail=""):
    suffix = f"  ({detail})" if detail else ""
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"{name}: {detail}"


def test_criterion_01_interpolation_identity():
    rng = np.random.default_rng(11)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        c = rng.uniform(-2.0, 2.0, size=5)
        f = lambda t: (c[0] + c[1] * t + c[2] * t * t
                       + c[3] * math.sin(3.0 * t) + c[4] * math.exp(t - 0.5))
        for method, d in ((Method.NEW_SE, 3.14), (Method.NEW_DE, 1.57)):
            for N in (4, 16, 64):
                grid = build_grid(UNIT, method, 1.0, d, N)
                samples = np.array([f(t) for t in grid.points])
                vals = evaluate_many(approximate(grid, samples), grid.points)
                scale = np.maximum(np.abs(samples), 1e-300)
                worst = max(worst, float(np.max(np.abs(vals - samples) / scale)))
    elapsed = time.perf_counter() - start
    report("1 interpolation identity",
           worst <= 1e-13 and elapsed < 5.0,
           f"worst rel dev {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_special_function_oracles():
    # Si as solver._running_integral computes it, and the beta function of
    # example 2's right-hand side
    worst = max(abs(sici(x)[0] - quad_si(x))
                for x in np.linspace(-20.0, 20.0, 200))
    beta_ok = (abs(beta(1.0, 1.0) - 1.0) <= 1e-12
               and abs(beta(1.5, 2.0) - 4.0 / 15.0) <= 1e-12 * (4.0 / 15.0)
               and abs(beta(2.0, 3.0) - 1.0 / 12.0) <= 1e-12 / 12.0)
    report("2 special-function oracles",
           worst <= 1e-13 and beta_ok,
           f"Si worst abs dev {worst:.2e}")


def test_criterion_03_assembly_oracle_equivalence():
    N = 2
    for example_id in (1, 2):
        problem = builtin(example_id).problem
        for method in Method:
            A, rhs, _ = assemble_new(problem, method, N)
            A_ref, rhs_ref = naive_assemble(problem, method, N)
            assert_ulp_close(A, A_ref, ulps=1)
            assert_ulp_close(rhs, rhs_ref, ulps=1)
    report("3 assembly oracle equivalence", True,
           "all four methods match the naive loops to <= 1 ulp at N=2, examples 1 and 2")


def test_criterion_04_exact_solution_recovery():
    ex = builtin(1)
    errs = {N: max_error(solve(ex.problem, Method.NEW_DE, N), ex.exact, 4096)
            for N in (8, 16, 32)}
    decreasing = errs[8] > errs[16] > errs[32]
    report("4 exact-solution recovery (example 1, de-new)",
           errs[32] <= 1e-10 and decreasing,
           f"errors {errs[8]:.2e} > {errs[16]:.2e} > {errs[32]:.2e}")


def test_criterion_05_se_rate_example1():
    start = time.perf_counter()
    records = run_sweep(1, Method.NEW_SE, (8, 16, 24, 32, 48, 64, 96, 128),
                        eval_points=4096)
    slope, r2 = fit_rate(records)
    elapsed = time.perf_counter() - start
    target = -math.sqrt(math.pi * 3.14 * 1.0)
    ok = abs(slope - target) <= 0.25 * abs(target) and elapsed < 10.0
    report("5 root-exponential rate (example 1, se-new)", ok,
           f"slope {slope:.3f} vs {target:.3f}, r2 {r2:.4f}, {elapsed:.2f}s")


def test_criterion_06_se_rate_and_de_accuracy_example2():
    records = run_sweep(2, Method.NEW_SE, (8, 16, 24, 32, 48, 64, 96, 128),
                        eval_points=4096)
    slope, r2 = fit_rate(records)
    target = -math.sqrt(math.pi * 3.14 * 0.5)
    ex = builtin(2)
    de_err = max_error(solve(ex.problem, Method.NEW_DE, 64), ex.exact, 4096)
    ok = abs(slope - target) <= 0.25 * abs(target) and de_err <= 1e-8
    report("6 rate and accuracy (example 2)", ok,
           f"slope {slope:.3f} vs {target:.3f}, de-new N=64 err {de_err:.2e}")


def test_criterion_07_de_dominance():
    worst_margin = math.inf
    for example_id in (1, 2):
        ex = builtin(example_id)
        for N in (32, 64):
            errs = {m: max_error(solve(ex.problem, m, N), ex.exact, 4096)
                    for m in Method}
            worst_margin = min(worst_margin,
                               errs[Method.NEW_SE] / errs[Method.NEW_DE],
                               errs[Method.SHAMLOO_SE] / errs[Method.JOHN_OGBONNA_DE])
    report("7 de-family dominance", worst_margin > 1.0,
           f"smallest SE/DE error ratio {worst_margin:.2e}")


def test_criterion_08_residual_bound():
    worst = 0.0
    for example_id in (1, 2):
        problem = builtin(example_id).problem
        for method in Method:
            for N in (4, 8, 16, 24, 32, 48, 64, 96, 128):
                A, rhs, _ = assemble_new(problem, method, N)
                c, _ = solve_linear(A, rhs)
                ratio = (np.max(np.abs(A @ c - rhs))
                         / (1.0 + np.max(np.abs(rhs))))
                worst = max(worst, ratio)
    report("8 residual bound", worst <= 1e-11,
           f"worst residual ratio {worst:.2e}")


def test_criterion_09_running_integral_bound():
    rng = np.random.default_rng(9)
    worst_ratio = 0.0
    for _ in range(100):
        j = int(rng.integers(-20, 21))
        h = float(rng.uniform(0.01, 2.5))
        xs = rng.uniform(j * h - 20.0 * h, j * h + 20.0 * h, size=10_000)
        top = max(abs(_running_integral(h, (x - j * h) / h)) for x in xs)
        worst_ratio = max(worst_ratio, top / h)
    report("9 running-integral bound", worst_ratio <= 1.1,
           f"sup |J|/h = {worst_ratio:.6f}")


def test_criterion_10_weight_sum_limit():
    N = 64
    h_se = select_h(Method.NEW_SE, 1.0, 3.14, N)
    gap_se = abs(h_se * sum(derivative(TransformKind.SE, UNIT, j * h_se)
                            for j in range(-N, N + 1)) - 1.0)
    h_de = select_h(Method.NEW_DE, 1.0, 1.57, N)
    gap_de = abs(h_de * sum(derivative(TransformKind.DE, UNIT, j * h_de)
                            for j in range(-N, N + 1)) - 1.0)
    report("10 weight-sum limit", gap_se <= 1e-3 and gap_de <= 1e-6,
           f"se gap {gap_se:.2e}, de gap {gap_de:.2e}")


def test_criterion_11_startup_self_check():
    residuals = {i: self_check(builtin(i)) for i in (1, 2)}
    report("11 startup self-check", max(residuals.values()) <= 1e-8,
           f"residuals {residuals[1]:.2e}, {residuals[2]:.2e}")
