import vfie

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
    "indefinite",
    "inverse",
    "max_error",
    "quadrature",
    "run_sweep",
    "select_h",
    "self_check",
    "sinc_J",
    "solve",
    "solve_linear",
    "strip_limit",
]


def test_public_names_are_pinned():
    assert sorted(vfie.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(vfie, name), name
