"""The public surface, the repository's layout and its README.

Each test module is named for what it tests: test_transforms.py,
test_approx.py, test_solver.py, test_bench.py and test_cli.py test the
module of their name in src/vfie (the boundary hats and the `sinc_S`
oracle are checked in test_approx.py, J and scipy's Si in test_solver.py,
and scipy's beta in test_bench.py), test_ab_pairs.py tests
tools/ab_pairs.py, and test_acceptance.py holds the acceptance criteria.
This module pins the public names and signatures, that layout, the
refusal of complex and other non-real input at every entry point and of
an array for every scalar parameter, and README's Python example and
`vfie` commands.  The oracles live in conftest.py, and no test module
imports another.
"""

import ast
import dataclasses
import inspect
import pathlib
import re
import shlex
import warnings

import numpy as np
import pytest

import vfie
from vfie import cli

TESTS = pathlib.Path(__file__).parent
README = TESTS.parent / "README.md"

# The public surface.  A name added or removed here is a deliberate change
# to the API and belongs in CHANGES.md.
PUBLIC = [
    "AssemblyError",
    "BuiltinExample",
    "ConditioningWarning",
    "DiscreteSolution",
    "FitError",
    "GeneralizedInterpolant",
    "Interval",
    "MeshParams",
    "Method",
    "Problem",
    "SincGrid",
    "SingularMatrixError",
    "SweepRecord",
    "TransformKind",
    "approximate",
    "assemble_johnogbonna",
    "assemble_new",
    "assemble_shamloo",
    "build_grid",
    "builtin",
    "derivative",
    "emit_csv",
    "evaluate_many",
    "evaluate_solution",
    "evaluate_solution_many",
    "fit_rate",
    "forward",
    "grid_for",
    "inverse",
    "max_error",
    "run_sweep",
    "select_h",
    "self_check",
    "solve",
    "solve_linear",
    "strip_limit",
]


def test_public_names_are_pinned():
    assert sorted(vfie.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(vfie, name), name


# Parameter names of the solve path and the sweep.  A parameter added or
# removed here is a deliberate change to the API as well.
SIGNATURES = {
    "solve": ["problem", "method", "N"],
    "grid_for": ["problem", "method", "N"],
    "build_grid": ["iv", "method", "alpha", "d", "N"],
    "select_h": ["method", "alpha", "d", "N"],
    "assemble_new": ["problem", "method", "N"],
    "assemble_shamloo": ["problem", "N"],
    "assemble_johnogbonna": ["problem", "N"],
    "run_sweep": ["example_id", "method", "n_list", "eval_points"],
    "self_check": ["example"],
    "emit_csv": ["records", "path"],
    "fit_rate": ["records"],
}


def test_signatures_are_pinned():
    for name, params in SIGNATURES.items():
        assert list(inspect.signature(getattr(vfie, name)).parameters) == params, name


def test_test_modules_follow_the_package_layout():
    # each test module is named for the module of src/vfie or tools/ it
    # tests, except the acceptance suite and this one; shared oracles and
    # helpers live in conftest.py, so no test module imports another
    root = TESTS.parent
    sources = [*(root / "src" / "vfie").glob("*.py"), *(root / "tools").glob("*.py")]
    allowed = {f"test_{path.stem}" for path in sources} | {"test_acceptance", "test_api"}
    tests = {path.stem for path in TESTS.glob("test_*.py")}
    assert tests <= allowed, sorted(tests - allowed)
    for path in TESTS.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not {name.split(".")[0] for name in names} & tests, (path.name, names)


# Entry points that take points, samples or a matrix from the caller, each
# given a complex one: numpy would keep the real part with only a
# ComplexWarning.
UNIT = vfie.Interval(0.0, 1.0)
POINTS = np.array([0.5 + 1j, 0.25])
COMPLEX_INPUT = {
    "evaluate_many": lambda sol: vfie.evaluate_many(sol._interp, POINTS),
    "evaluate_solution_many": lambda sol: vfie.evaluate_solution_many(sol, POINTS),
    "evaluate_solution": lambda sol: vfie.evaluate_solution(sol, 0.5 + 1j),
    "evaluate_solution numpy scalar": lambda sol: vfie.evaluate_solution(sol, POINTS[0]),
    "inverse": lambda sol: vfie.inverse(vfie.TransformKind.DE, UNIT, POINTS),
    "inverse numpy scalar": lambda sol: vfie.inverse(vfie.TransformKind.DE, UNIT, POINTS[0]),
    "forward": lambda sol: vfie.forward(vfie.TransformKind.SE, UNIT, POINTS),
    "derivative": lambda sol: vfie.derivative(vfie.TransformKind.DE, UNIT, POINTS),
    "approximate": lambda sol: vfie.approximate(sol.grid, sol.coeffs + 1j),
    "GeneralizedInterpolant samples": lambda sol: vfie.GeneralizedInterpolant(
        grid=sol.grid, samples=sol.coeffs + 1j, boundary_left=0.0, boundary_right=0.0,
        coeffs=sol.coeffs),
    "GeneralizedInterpolant boundary_right": lambda sol: vfie.GeneralizedInterpolant(
        grid=sol.grid, samples=sol.coeffs, boundary_left=0.0, boundary_right=1j,
        coeffs=sol.coeffs),
    "SincGrid points": lambda sol: vfie.SincGrid(
        kind=sol.grid.kind, iv=sol.grid.iv, mesh=sol.grid.mesh, points=sol.grid.points + 1j,
        weights=sol.grid.weights),
    "solve_linear A": lambda sol: vfie.solve_linear(np.eye(2) * (1.0 + 1j), np.ones(2)),
    "solve_linear rhs": lambda sol: vfie.solve_linear(np.eye(2), np.ones(2) + 1j),
}


@pytest.fixture(scope="module")
def solution():
    return vfie.solve(vfie.builtin(1).problem, vfie.Method.NEW_DE, 4)


@pytest.mark.parametrize("call", COMPLEX_INPUT.values(), ids=COMPLEX_INPUT.keys())
def test_complex_input_is_refused_without_a_warning(call, solution):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TypeError, match="complex"):
            call(solution)


# The same entry points given strings, which numpy would parse as numbers,
# bools, which it would take as 0 and 1, or objects, each with the name its
# refusal gives the input: a scalar parameter's own, else "values"
NOT_NUMBERS = {
    "evaluate_solution string": (lambda sol: vfie.evaluate_solution(sol, "0.5"), "t"),
    "evaluate_solution bool": (lambda sol: vfie.evaluate_solution(sol, True), "t"),
    "evaluate_solution_many strings": (
        lambda sol: vfie.evaluate_solution_many(sol, ["0.5", "0.25"]), "values"),
    "evaluate_solution_many bools": (
        lambda sol: vfie.evaluate_solution_many(sol, [True, False]), "values"),
    "inverse string": (lambda sol: vfie.inverse(vfie.TransformKind.SE, UNIT, "0.5"), "values"),
    "inverse objects": (lambda sol: vfie.inverse(vfie.TransformKind.SE, UNIT,
                                                 np.array([0.5, 0.25], dtype=object)), "values"),
    "SincGrid points": (lambda sol: vfie.SincGrid(
        kind=sol.grid.kind, iv=sol.grid.iv, mesh=sol.grid.mesh,
        points=[str(t) for t in sol.grid.points.tolist()], weights=sol.grid.weights), "values"),
    "GeneralizedInterpolant boundary_left": (lambda sol: vfie.GeneralizedInterpolant(
        grid=sol.grid, samples=sol.coeffs, boundary_left="0.5", boundary_right=0.0,
        coeffs=sol.coeffs), "boundary_left"),
    "solve_linear bool A": (
        lambda sol: vfie.solve_linear(np.eye(2, dtype=bool), np.ones(2)), "values"),
}


@pytest.mark.parametrize("call, what", NOT_NUMBERS.values(), ids=NOT_NUMBERS.keys())
def test_input_that_is_not_integer_or_float_is_refused(call, what, solution):
    with pytest.raises(TypeError, match=f"expected real {what}, got dtype"):
        call(solution)


# Every scalar parameter given an array, even of one element: each is
# refused by name, where numpy would store the array or refuse it without
# naming it
ONE = np.array([0.5])
NOT_SCALARS = {
    "Interval a": (lambda sol: vfie.Interval(ONE - 0.5, 1.0), "endpoint a"),
    "Interval b": (lambda sol: vfie.Interval(0.0, ONE + 0.5), "endpoint b"),
    "MeshParams h": (lambda sol: vfie.MeshParams(4, ONE), "h"),
    "select_h alpha": (lambda sol: vfie.select_h(vfie.Method.NEW_SE, ONE, 3.14, 4), "alpha"),
    "select_h d": (lambda sol: vfie.select_h(vfie.Method.NEW_DE, 1.0, ONE, 4),
                   "d for the de transform"),
    "Problem alpha": (
        lambda sol: dataclasses.replace(vfie.builtin(1).problem, alpha=ONE), "alpha"),
    "GeneralizedInterpolant boundary_right": (lambda sol: vfie.GeneralizedInterpolant(
        grid=sol.grid, samples=sol.coeffs, boundary_left=0.0, boundary_right=ONE,
        coeffs=sol.coeffs), "boundary_right"),
    "evaluate_solution": (lambda sol: vfie.evaluate_solution(sol, ONE), "t"),
}


@pytest.mark.parametrize("call, what", NOT_SCALARS.values(), ids=NOT_SCALARS.keys())
def test_array_for_a_scalar_parameter_is_refused_by_name(call, what, solution):
    with pytest.raises(ValueError, match=re.escape(f"{what} must be a scalar, got shape (1,)")):
        call(solution)


def _readme_blocks(language):
    """The bodies of README's fenced code blocks in `language`."""
    text = README.read_text(encoding="utf-8")
    return re.findall(rf"^```{language}\n(.*?)^```", text, re.M | re.S)


def test_readme_python_example_prints_what_its_comments_claim(capsys):
    (code,) = _readme_blocks("python")
    claims = re.findall(r"^print\(.*\)\s+# (.*)$", code, re.M)
    assert len(claims) == 2, claims
    exec(compile(code, str(README), "exec"), {"__name__": "readme"})
    value, hint = map(float, capsys.readouterr().out.split())
    near, below = re.fullmatch(r"~(\S+), error below (\S+)", claims[0]).groups()
    assert abs(value - float(near)) < float(below)
    assert claims[1].endswith("in (0, 1]"), claims[1]
    assert 0.0 < hint <= 1.0


def test_readme_vfie_commands_parse():
    # every `vfie ...` line of README's shell blocks, continuations joined
    lines = "\n".join(_readme_blocks("sh")).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True) for line in lines
                if line.lstrip().startswith("vfie ")]
    assert len(commands) >= 2, commands
    parser = cli.build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {shlex.join(argv)}")
