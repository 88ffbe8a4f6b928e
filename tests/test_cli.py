import math
import subprocess
import sys

import pytest

import vfie.bench
import vfie.cli as cli
from vfie.solver import SingularMatrixError


def run_cli(args):
    return cli.main(args)


def test_solve_prints_value(capsys):
    code = run_cli(["solve", "--example", "1", "--method", "de-new",
                    "--n", "16", "--at", "0.5"])
    assert code == 0
    out = capsys.readouterr().out.strip()
    assert abs(float(out) - 0.5) < 1e-6


def test_solve_point_outside_interval(monkeypatch, capsys):
    # refused before the solve
    def no_solve(*args, **kwargs):
        pytest.fail("solve called for a point outside the interval")

    monkeypatch.setattr(cli, "solve", no_solve)
    for at in ("2.0", "nan"):
        code = run_cli(["solve", "--example", "1", "--method", "de-new",
                        "--n", "8", "--at", at])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"vfie: t = {float(at)} lies outside [0.0, 1.0]\n"


def test_solve_n_too_large_is_usage_error(capsys):
    code = run_cli(["solve", "--example", "1", "--method", "de-new",
                    "--n", "1000000", "--at", "0.5"])
    assert code == 2
    assert "N=1000000" in capsys.readouterr().err


def test_solve_bad_method_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run_cli(["solve", "--example", "1", "--method", "bogus",
                 "--n", "8", "--at", "0.5"])
    assert exc.value.code == 2


def test_bad_n_list_is_usage_error(capsys):
    # the sweep's own N-list rule, read as an argparse type error before
    # any self-check
    for text, message in [("8,4", "n_list must be strictly increasing, got [8, 4]"),
                          ("0,4", "N must be >= 1, got 0"),
                          ("4,x", "not a comma-separated integer list: '4,x'"),
                          ("", "not a comma-separated integer list: ''")]:
        with pytest.raises(SystemExit) as exc:
            run_cli(["bench", "--example", "1", "--method", "de-new", "--n-list", text,
                     "--out", "x.csv", "--self-check"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


def test_bad_eval_points_is_usage_error(capsys):
    # the sweep's own M >= 2 rule, read as an argparse type error before
    # any self-check
    for text, message in [("1", "the number of evaluation points must be >= 2, got 1"),
                          ("0", "the number of evaluation points must be >= 2, got 0"),
                          ("-3", "the number of evaluation points must be >= 2, got -3"),
                          ("x", "not an integer: 'x'")]:
        with pytest.raises(SystemExit) as exc:
            run_cli(["bench", "--example", "1", "--method", "de-new", "--eval-points", text,
                     "--out", "x.csv", "--self-check"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


def test_unknown_example_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run_cli(["bench", "--example", "5", "--method", "de-new", "--out", "x.csv"])
    assert exc.value.code == 2


def test_bench_writes_csv(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = run_cli(["bench", "--example", "1", "--method", "de-new",
                    "--n-list", "4,8", "--eval-points", "256",
                    "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "method,example,N,h,max_error,elapsed_seconds"
    assert len(lines) == 3
    assert lines[1].startswith("de-new,1,4,")


def test_bench_all_methods(tmp_path):
    out = tmp_path / "all.csv"
    code = run_cli(["bench", "--example", "1", "--method", "all",
                    "--n-list", "4,8", "--eval-points", "128",
                    "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 4 * 2
    methods = {line.split(",")[0] for line in lines[1:]}
    assert methods == {"se-new", "de-new", "se-shamloo", "de-johnogbonna"}


def test_bench_self_check_and_fit(tmp_path, capsys):
    out = tmp_path / "fit.csv"
    code = run_cli(["bench", "--example", "1", "--method", "se-new",
                    "--n-list", "8,16,24,32,48", "--eval-points", "512",
                    "--out", str(out), "--self-check", "--fit"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "self-check example 1" in printed
    assert "se-new: se-model slope" in printed


def test_bench_self_check_failure_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(vfie.bench, "_u1", lambda t: t + 0.25)
    out = tmp_path / "bad.csv"
    code = run_cli(["bench", "--example", "1", "--method", "de-new",
                    "--n-list", "4", "--out", str(out), "--self-check"])
    assert code == 3
    assert "vfie: self-check failed (residual above 1e-08)" in capsys.readouterr().err
    assert not out.exists()


def test_bench_self_check_refuses_nan(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(vfie.bench, "_g1", lambda t: math.nan)
    out = tmp_path / "nan.csv"
    code = run_cli(["bench", "--example", "1", "--method", "de-new",
                    "--n-list", "4", "--out", str(out), "--self-check"])
    assert code == 2
    assert capsys.readouterr().err == "vfie: g(0.0) returned nan\n"
    assert not out.exists()


def _raises_past_half(t):
    if t > 0.5:
        raise ZeroDivisionError("pole past 0.5")
    return t


@pytest.mark.parametrize("exact, outcome", [
    (lambda t: math.nan if t > 0.5 else t, "returned nan"),
    (_raises_past_half, "raised ZeroDivisionError('pole past 0.5')"),
])
def test_bench_refuses_a_bad_exact_solution(tmp_path, monkeypatch, capsys, exact, outcome):
    monkeypatch.setattr(vfie.bench, "_u1", exact)
    out = tmp_path / "bad.csv"
    code = run_cli(["bench", "--example", "1", "--method", "de-new",
                    "--n-list", "4", "--eval-points", "64", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"vfie: u(0.5079365079365079) {outcome}\n"
    assert not out.exists()


def test_bench_io_error(capsys):
    code = run_cli(["bench", "--example", "1", "--method", "de-new",
                    "--n-list", "4", "--eval-points", "64",
                    "--out", "/nonexistent-dir/x.csv"])
    assert code == 4
    assert "I/O error" in capsys.readouterr().err


def test_numerical_failure_exit_code(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise SingularMatrixError("synthetic failure")

    monkeypatch.setattr(cli, "run_sweep", boom)
    code = run_cli(["bench", "--example", "1", "--method", "de-new",
                    "--n-list", "4", "--out", "x.csv"])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "vfie", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "bench" in proc.stdout and "solve" in proc.stdout
