import ast
import inspect
import pathlib
import warnings

import numpy as np
import pytest

import vfie

TESTS = pathlib.Path(__file__).parent

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
# bools, which it would take as 0 and 1, or objects
NOT_NUMBERS = {
    "evaluate_solution string": lambda sol: vfie.evaluate_solution(sol, "0.5"),
    "evaluate_solution bool": lambda sol: vfie.evaluate_solution(sol, True),
    "evaluate_solution_many strings": lambda sol: vfie.evaluate_solution_many(sol, ["0.5", "0.25"]),
    "evaluate_solution_many bools": lambda sol: vfie.evaluate_solution_many(sol, [True, False]),
    "inverse string": lambda sol: vfie.inverse(vfie.TransformKind.SE, UNIT, "0.5"),
    "inverse objects": lambda sol: vfie.inverse(vfie.TransformKind.SE, UNIT,
                                                np.array([0.5, 0.25], dtype=object)),
    "SincGrid points": lambda sol: vfie.SincGrid(
        kind=sol.grid.kind, iv=sol.grid.iv, mesh=sol.grid.mesh,
        points=[str(t) for t in sol.grid.points.tolist()], weights=sol.grid.weights),
    "solve_linear bool A": lambda sol: vfie.solve_linear(np.eye(2, dtype=bool), np.ones(2)),
}


@pytest.mark.parametrize("call", NOT_NUMBERS.values(), ids=NOT_NUMBERS.keys())
def test_input_that_is_not_integer_or_float_is_refused(call, solution):
    with pytest.raises(TypeError, match="expected real values, got dtype"):
        call(solution)
