"""Sinc-collocation solvers for linear Volterra-Fredholm integral equations
of the second kind on a finite interval,

    u(t) - int_a^t k1(t,s) u(s) ds - int_a^b k2(t,s) u(s) ds = g(t),

with tanh (single-exponential) and tanh-sinh (double-exponential) variable
transformations, two original fixed-mesh variants for comparison, and a
benchmark harness reproducing their convergence behaviour.
"""

from .transforms import (
    Interval,
    MeshParams,
    Method,
    TransformKind,
    derivative,
    forward,
    inverse,
    select_h,
    strip_limit,
)
from .approx import (
    GeneralizedInterpolant,
    SincGrid,
    approximate,
    build_grid,
    evaluate_many,
)
from .solver import (
    AssemblyError,
    ConditioningWarning,
    DiscreteSolution,
    Problem,
    SingularMatrixError,
    assemble_johnogbonna,
    assemble_new,
    assemble_shamloo,
    evaluate_solution,
    evaluate_solution_many,
    grid_for,
    solve,
    solve_linear,
)
from .bench import (
    BuiltinExample,
    FitError,
    RateModel,
    SweepRecord,
    builtin,
    emit_csv,
    fit_rate,
    max_error,
    run_sweep,
    self_check,
)

__version__ = "0.1.0"

__all__ = [
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
