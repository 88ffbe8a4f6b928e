import csv
import dataclasses
import io
import math
import re

import numpy as np
import pytest
from mpmath import mp, mpf
from scipy.special import beta

from conftest import assert_ulp_close
from vfie import (
    AssemblyError,
    FitError,
    Method,
    SweepRecord,
    builtin,
    emit_csv,
    evaluate_solution,
    fit_rate,
    max_error,
    run_sweep,
    self_check,
    solve,
)
import vfie.bench
from vfie.bench import DEFAULT_N_LIST
from vfie.solver import grid_for


def test_builtin_example1_values():
    ex = builtin(1)
    assert ex.problem.g(1.0) == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert ex.problem.k1(0.5, 0.25) == 0.125
    assert ex.exact(0.25) == 0.25
    assert ex.problem.alpha == 1.0
    assert (ex.problem.d_se, ex.problem.d_de) == (3.14, 1.57)


def test_builtin_example2_values():
    ex = builtin(2)
    # g(0) = -B(3/2, 1) = -2/3 (the t^(t+2)/(t+2) term has limit 0)
    assert ex.problem.g(0.0) == pytest.approx(-2.0 / 3.0, rel=1e-14)
    # g(1) = 1 - 1/3 - B(3/2, 2) = 1 - 1/3 - 4/15 = 2/5
    assert ex.problem.g(1.0) == pytest.approx(0.4, rel=1e-13)
    assert ex.problem.k2(0.0, 0.3) == 1.0
    assert ex.problem.k1(0.5, 0.0) == 0.0
    assert ex.problem.k1(0.0, 0.0) == 0.0
    assert ex.problem.k1(1.0, 0.0) == 0.0
    assert ex.problem.k1(0.5, 0.25) == 0.25  # s^1 at t=1/2
    assert ex.problem.k1(0.3, 1.0) == 1.0
    assert ex.exact(0.25) == 0.5
    assert ex.problem.alpha == 0.5


@pytest.mark.parametrize("method", [Method.NEW_DE, Method.NEW_SE], ids=lambda m: m.value)
def test_example2_k1_is_within_4_ulp_of_mpmath(method):
    # pow within 1 ulp, then a correctly rounded sqrt and product; a result
    # that rounds to a subnormal is judged on the subnormal spacing, which
    # is what math.ulp gives there.  The array form, which a solve calls,
    # is held to the same bound.
    k1 = builtin(2).problem.k1
    pts = grid_for(builtin(2).problem, method, 64).points
    points = pts.tolist()
    on_arrays = k1(pts[:, None], pts[None, :]).tolist()
    worst = 0.0
    with mp.workprec(200):
        for t, row in zip(points, on_arrays):
            power = mpf(t) + mpf(0.5)
            for s, got in zip(points, row):
                want = mpf(s) ** power
                for value in (k1(t, s), got):
                    worst = max(worst, float(abs(mpf(value) - want)) / math.ulp(float(want)))
    assert worst <= 4.0


@pytest.mark.parametrize("method", [Method.NEW_DE, Method.NEW_SE], ids=lambda m: m.value)
def test_example2_array_and_scalar_samples_agree_within_2_ulp(method):
    problem = builtin(2).problem
    pts = grid_for(problem, method, 64).points
    t, s = pts[:, None], pts[None, :]
    points = pts.tolist()
    for name, on_arrays, on_floats in (
            ("k1", problem.k1(t, s), [[problem.k1(a, b) for b in points] for a in points]),
            ("k2", problem.k2(t, s), [[problem.k2(a, b) for b in points] for a in points]),
            ("g", problem.g(pts), [problem.g(a) for a in points])):
        on_floats = np.array(on_floats, dtype=float)
        assert on_arrays.shape == on_floats.shape, name
        assert_ulp_close(on_arrays, on_floats, ulps=2)


def test_beta_trivial():
    # example 2's g calls scipy.special.beta
    assert beta(1.0, 1.0) == pytest.approx(1.0, rel=1e-14)


def test_beta_closed_forms():
    assert beta(1.5, 2.0) == pytest.approx(4.0 / 15.0, rel=1e-12)
    assert beta(2.0, 3.0) == pytest.approx(1.0 / 12.0, rel=1e-12)


def test_beta_symmetry(rng):
    for _ in range(200):
        p, q = rng.uniform(0.05, 30.0, size=2)
        bp, bq = beta(p, q), beta(q, p)
        assert abs(bp - bq) <= 2e-15 * abs(bp)


def test_builtin_unknown_id():
    with pytest.raises(ValueError):
        builtin(3)


def test_max_error_of_solution_against_itself():
    ex = builtin(1)
    sol = solve(ex.problem, Method.NEW_SE, 8)
    mirror = lambda t: evaluate_solution(sol, t)
    assert max_error(sol, mirror, 257) <= 1e-12


def test_max_error_two_points_is_endpoint_check():
    ex = builtin(1)
    sol = solve(ex.problem, Method.NEW_DE, 16)
    got = max_error(sol, ex.exact, 2)
    expected = max(abs(ex.exact(0.0) - evaluate_solution(sol, 0.0)),
                   abs(ex.exact(1.0) - evaluate_solution(sol, 1.0)))
    assert got == expected


def test_max_error_requires_two_points():
    ex = builtin(1)
    sol = solve(ex.problem, Method.NEW_DE, 4)
    with pytest.raises(ValueError):
        max_error(sol, ex.exact, 1)


def _raises_past_half(t):
    if t > 0.5:
        raise ZeroDivisionError("pole past 0.5")
    return t


@pytest.mark.parametrize("exact, outcome, cause", [
    (lambda t: math.nan if t > 0.5 else t, "returned nan", type(None)),
    (_raises_past_half, "raised ZeroDivisionError('pole past 0.5')", ZeroDivisionError),
])
def test_max_error_refuses_a_bad_exact_solution(exact, outcome, cause):
    sol = solve(builtin(1).problem, Method.NEW_DE, 4)
    with pytest.raises(AssemblyError) as exc:
        max_error(sol, exact, 64)
    assert str(exc.value) == f"u(0.5079365079365079) {outcome}"
    assert type(exc.value.__cause__) is cause


def test_example1_new_de_reference_accuracy():
    ex = builtin(1)
    sol = solve(ex.problem, Method.NEW_DE, 32)
    assert max_error(sol, ex.exact, 4096) <= 1e-10


def test_example2_new_se_reference_accuracy():
    ex = builtin(2)
    sol = solve(ex.problem, Method.NEW_SE, 64)
    assert max_error(sol, ex.exact, 1024) <= 1e-2


def test_run_sweep_strictly_decreasing():
    records = run_sweep(1, Method.NEW_SE, (8, 16, 32, 64, 128), eval_points=1024)
    errs = [r.max_error for r in records]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert [r.N for r in records] == [8, 16, 32, 64, 128]
    assert all(r.elapsed_seconds >= 0.0 for r in records)


def test_run_sweep_validates_n_list():
    with pytest.raises(ValueError):
        run_sweep(1, Method.NEW_SE, ())
    with pytest.raises(ValueError):
        run_sweep(1, Method.NEW_SE, (8, 8))
    with pytest.raises(ValueError):
        run_sweep(1, Method.NEW_SE, (16, 8))
    for bad in (0, 8.0, True):
        with pytest.raises(ValueError, match="N must be"):
            run_sweep(1, Method.NEW_SE, (bad, 16))


def _counted(monkeypatch, name):
    """Replace vfie.bench.<name> by a wrapper that counts its calls."""
    calls = []
    original = getattr(vfie.bench, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(vfie.bench, name, counted)
    return calls


@pytest.mark.parametrize("eval_points, exact, error, message", [
    (1, lambda t: t, ValueError, "the number of evaluation points must be >= 2, got 1"),
    (True, lambda t: t, ValueError,
     "the number of evaluation points must be an integer, got True"),
    (16.0, lambda t: t, ValueError,
     "the number of evaluation points must be an integer, got 16.0"),
    (16.5, lambda t: t, ValueError,
     "the number of evaluation points must be an integer, got 16.5"),
    (64, lambda t: math.nan if t > 0.5 else t, AssemblyError,
     "u(0.5079365079365079) returned nan"),
], ids=["one-point", "bool", "integral-float", "float", "nan-exact"])
def test_run_sweep_refuses_before_any_kernel_call(monkeypatch, eval_points, exact, error, message):
    kernel_calls = _counted(monkeypatch, "_kernel_ts")
    monkeypatch.setattr(vfie.bench, "_u1", exact)
    with pytest.raises(error) as exc:
        run_sweep(1, Method.NEW_DE, (4,), eval_points=eval_points)
    assert str(exc.value) == message
    assert len(kernel_calls) == 0


def test_run_sweep_samples_the_exact_solution_once_per_point(monkeypatch):
    exact_calls = _counted(monkeypatch, "_u2")
    run_sweep(2, Method.NEW_DE, (4, 16, 64), eval_points=1024)
    assert len(exact_calls) == 1024


@pytest.mark.parametrize("method", list(Method))
@pytest.mark.parametrize("example_id", [1, 2])
def test_run_sweep_errors_are_bitwise_those_of_max_error(example_id, method):
    ex = builtin(example_id)
    records = run_sweep(example_id, method, (4, 16, 64), eval_points=1024)
    assert [r.N for r in records] == [4, 16, 64]
    for r in records:
        expected = max_error(solve(ex.problem, method, r.N), ex.exact, 1024)
        assert r.max_error.hex() == expected.hex()


def test_decoupled_sweep_error_is_interpolation_error():
    # with zero kernels the solve degenerates to interpolating g
    records = run_sweep(1, Method.NEW_SE, (4,), eval_points=257)
    assert records[0].max_error < 1e-1


def test_emit_csv_round_trip(tmp_path):
    records = run_sweep(1, Method.NEW_DE, (4, 8, 16), eval_points=512)
    path = tmp_path / "sweep.csv"
    emit_csv(records, path)
    raw = path.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    assert lines[0] == "method,example,N,h,max_error,elapsed_seconds"
    parsed = list(csv.DictReader(io.StringIO(raw.decode())))
    assert len(parsed) == 3
    for row, rec in zip(parsed, records):
        assert row["method"] == rec.method.value
        assert int(row["example"]) == rec.example
        assert int(row["N"]) == rec.N
        assert float(row["h"]) == rec.h  # repr round-trips bit-exactly
        assert float(row["elapsed_seconds"]) == rec.elapsed_seconds
        # 15 significant digits of max_error
        assert float(row["max_error"]) == pytest.approx(rec.max_error, rel=5e-15)
        mantissa = row["max_error"].split("e")[0].replace("-", "").replace(".", "")
        assert len(mantissa) == 15


def test_emit_csv_deterministic_except_elapsed(tmp_path):
    first = run_sweep(2, Method.SHAMLOO_SE, (4, 8), eval_points=256)
    second = run_sweep(2, Method.SHAMLOO_SE, (4, 8), eval_points=256)
    strip = lambda recs: [(r.method, r.example, r.N, r.h, r.max_error) for r in recs]
    assert strip(first) == strip(second)
    path1, path2 = tmp_path / "first.csv", tmp_path / "second.csv"
    emit_csv(first, path1)
    emit_csv(second, path2)
    cols1 = [line.split(",")[:5] for line in path1.read_text().splitlines()]
    cols2 = [line.split(",")[:5] for line in path2.read_text().splitlines()]
    assert cols1 == cols2


def test_emit_csv_unwritable_destination():
    records = run_sweep(1, Method.NEW_DE, (4,), eval_points=64)
    with pytest.raises(OSError):
        emit_csv(records, "/nonexistent-dir/sweep.csv")


def synthetic_records(ns, err_of_n, h_of_n=None, method=Method.NEW_SE):
    h_of_n = h_of_n or (lambda N: 1.0 / N)
    return [SweepRecord(method=method, example=1, N=N, h=h_of_n(N),
                        max_error=err_of_n(N), elapsed_seconds=0.0)
            for N in ns]


def test_fit_rate_recovers_exact_se_model():
    # a tanh method's records regress log(err) - (1/2) log(N) on sqrt(N)
    for method in (Method.NEW_SE, Method.SHAMLOO_SE):
        records = synthetic_records(
            (4, 8, 16, 32, 64),
            lambda N: math.exp(-3.14 * math.sqrt(N)) * math.sqrt(N), method=method)
        slope, r2 = fit_rate(records)
        assert slope == pytest.approx(-3.14, abs=1e-6)
        assert r2 > 0.9999


def test_fit_rate_recovers_exact_de_model():
    # err = exp(-c / h): a tanh-sinh method's records regress log(err) on 1/h
    for method in (Method.NEW_DE, Method.JOHN_OGBONNA_DE):
        records = synthetic_records((4, 8, 16, 32), lambda N: 1.0, method=method,
                                    h_of_n=lambda N: math.log(2 * 1.57 * N) / N)
        records = [dataclasses.replace(r, max_error=math.exp(-2.0 / r.h)) for r in records]
        slope, r2 = fit_rate(records)
        assert slope == pytest.approx(-2.0, abs=1e-6)
        assert r2 > 0.9999


def test_fit_rate_refuses_records_of_more_than_one_method():
    records = synthetic_records((4, 8, 16, 32), lambda N: math.exp(-math.sqrt(N)))
    mixed = records + synthetic_records((64,), lambda N: 1e-3, method=Method.NEW_DE)
    with pytest.raises(ValueError, match="one method") as exc:
        fit_rate(mixed)
    assert not isinstance(exc.value, FitError)


def test_fit_rate_excludes_saturated_records():
    clean = synthetic_records(
        (4, 8, 16, 32, 64),
        lambda N: math.exp(-3.14 * math.sqrt(N)) * math.sqrt(N))
    noisy = clean + synthetic_records((128, 256), lambda N: 5e-14)
    slope_clean, _ = fit_rate(clean)
    slope_noisy, _ = fit_rate(noisy)
    assert slope_noisy == slope_clean


def test_fit_rate_skips_non_finite_errors():
    # an infinite or NaN error is no decay measurement: the fit neither
    # warns nor turns NaN, and too few finite records is a FitError
    clean = synthetic_records(
        (4, 8, 16, 32, 64),
        lambda N: math.exp(-3.14 * math.sqrt(N)) * math.sqrt(N))
    for bad in (math.inf, math.nan):
        spoiled = clean + synthetic_records((128,), lambda N: bad)
        assert fit_rate(spoiled) == fit_rate(clean)
        with pytest.raises(FitError, match="have 3"):
            fit_rate(clean[:3] + synthetic_records((128,), lambda N: bad))


def test_fit_rate_insufficient_points():
    records = synthetic_records((4, 8, 16), lambda N: math.exp(-math.sqrt(N)))
    with pytest.raises(FitError):
        fit_rate(records)
    saturated = synthetic_records((4, 8, 16, 32, 64), lambda N: 1e-14)
    with pytest.raises(FitError):
        fit_rate(saturated)
    with pytest.raises(FitError):
        fit_rate([])


def test_example1_se_rate():
    records = run_sweep(1, Method.NEW_SE, (8, 16, 24, 32, 48, 64, 96, 128),
                        eval_points=2048)
    slope, r2 = fit_rate(records)
    target = -math.sqrt(math.pi * 3.14 * 1.0)
    assert abs(slope - target) <= 0.25 * abs(target)
    assert r2 > 0.99


@pytest.mark.parametrize("method", [Method.NEW_DE, Method.JOHN_OGBONNA_DE])
def test_example2_de_rate_fit_is_clean(method):
    # the default example-2 sweep decays at a clean almost-exponential rate
    # once nodes near t = 0 no longer round onto the endpoint
    records = run_sweep(2, method, DEFAULT_N_LIST, eval_points=4096)
    _, r2 = fit_rate(records)
    assert r2 >= 0.99


def test_de_family_beats_se_family():
    for example_id in (1, 2):
        for N in (32, 64):
            errors = {m: max_error(solve(builtin(example_id).problem, m, N),
                                   builtin(example_id).exact, 1024)
                      for m in Method}
            assert errors[Method.NEW_DE] < errors[Method.NEW_SE]
            assert errors[Method.JOHN_OGBONNA_DE] < errors[Method.SHAMLOO_SE]


def test_self_check_both_examples():
    for example_id in (1, 2):
        residual = self_check(builtin(example_id))
        assert type(residual) is float
        assert residual <= 1e-8


def test_self_check_refuses_nan_right_hand_side():
    ex = builtin(1)
    broken = dataclasses.replace(ex, problem=dataclasses.replace(ex.problem, g=lambda t: math.nan))
    with pytest.raises(AssemblyError, match=re.escape("g(0.0) returned nan")):
        self_check(broken)


def test_self_check_refuses_nan_exact_solution():
    ex = builtin(2)
    broken = dataclasses.replace(ex, exact=lambda t: math.sqrt(t) if t <= 0.5 else math.nan)
    # the first bad point is the first node of the self-check grid past 0.5
    nodes = grid_for(ex.problem, Method.NEW_DE, 48).points.tolist()
    first = next(s for s in nodes if s > 0.5)
    with pytest.raises(AssemblyError, match=re.escape(f"u({first!r}) returned nan")):
        self_check(broken)
