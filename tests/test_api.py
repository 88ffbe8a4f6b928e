import ast
import inspect
import pathlib

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
    "RateModel",
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
