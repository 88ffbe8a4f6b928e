"""Sinc-collocation solvers for linear Volterra-Fredholm integral equations
of the second kind on a finite interval,

    u(t) - int_a^t k1(t,s) u(s) ds - int_a^b k2(t,s) u(s) ds = g(t),

with tanh (single-exponential) and tanh-sinh (double-exponential) variable
transformations, two original fixed-mesh variants for comparison, and a
benchmark harness reproducing their convergence behaviour.

The public names are the `__all__` lists of the modules `transforms`,
`approx`, `solver` and `bench`, lower-level pieces included: the maps
`forward`, `inverse` and `derivative`, `select_h`, `build_grid`,
`approximate` and `evaluate_many`.

All operations are pure and every type is immutable after construction,
so everything is safe to call concurrently and independent solves can
run in parallel; the `approx` module docstring says why concurrent
evaluations of one solution share nothing they write.
"""

from . import approx, bench, solver, transforms
from .transforms import *
from .approx import *
from .solver import *
from .bench import *

__version__ = "0.1.0"

__all__ = transforms.__all__ + approx.__all__ + solver.__all__ + bench.__all__
