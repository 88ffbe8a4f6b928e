import subprocess
import sys

import pytest

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


def test_solve_point_outside_interval(capsys):
    code = run_cli(["solve", "--example", "1", "--method", "de-new",
                    "--n", "8", "--at", "2.0"])
    assert code == 2
    assert "vfie:" in capsys.readouterr().err


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


def test_bad_n_list_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run_cli(["bench", "--example", "1", "--method", "de-new",
                 "--n-list", "8,4", "--out", "x.csv"])
    assert exc.value.code == 2


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
