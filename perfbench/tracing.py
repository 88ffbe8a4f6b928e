"""Per-layer tracing from outside the program.

A Tracer patches vfie's public functions, in every vfie module that
refers to them, with wrappers that record a span (name, start, end,
parent, request id) per call, and wraps a problem's k1, k2 and g in
counting wrappers.  The counting wrappers do not emit spans: they add
their calls, evaluated points and time to the span that encloses them
(the assemble_* span during assembly), because a solve makes 0.5-2 M
kernel calls.  Spans stay in memory until `write` at the end of the run.

Timing every kernel call costs about 1 us per call, so a traced run is
slower than an untraced one; end-to-end metrics come from untraced runs
and the traced run reports its own overhead.
"""

import dataclasses
import functools
import json
import time

import numpy as np

import vfie
import vfie.bench
import vfie.cli
import vfie.solver

ASSEMBLERS = ("assemble_new", "assemble_shamloo", "assemble_johnogbonna")

# Functions wrapped in spans, by the module that defines them.
TRACED = {
    vfie.solver: ("grid_for",) + ASSEMBLERS + (
        "solve_linear", "solve", "evaluate_solution", "evaluate_solution_many"),
    vfie.bench: ("max_error", "self_check", "fit_rate", "emit_csv", "run_sweep"),
    vfie.cli: ("main",),
}
MODULES = (vfie, vfie.solver, vfie.bench, vfie.cli)


class Span:
    __slots__ = ("id", "name", "parent", "request", "start", "end", "info",
                 "kernel_calls", "kernel_points", "kernel_s")

    def __init__(self, id, name, parent, request):
        self.id = id
        self.name = name
        self.parent = parent
        self.request = request
        self.info = None
        self.kernel_calls = 0
        self.kernel_points = 0
        self.kernel_s = 0.0

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self.request = 0
        self.endpoint_nodes = {}
        self._stack = [Span(0, "root", None, 0)]
        self._next_id = 1
        self._patched = []

    # -- recording -------------------------------------------------------
    def begin_request(self):
        self.request += 1

    def _open(self, name):
        span = Span(self._next_id, name, self._stack[-1].id, self.request)
        self._next_id += 1
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()
        self.spans.append(span)

    def _wrap(self, name, fn):
        after = getattr(self, "_after_" + name, None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(span)
                if after is not None:
                    after(span, args, result)  # result is None if fn raised
        return traced

    def _count(self, fn):
        stack = self._stack

        @functools.wraps(fn)
        def counted(*args):
            start = time.perf_counter()
            out = fn(*args)
            elapsed = time.perf_counter() - start
            span = stack[-1]
            span.kernel_calls += 1
            span.kernel_points += 1 if isinstance(out, float) else int(np.size(out))
            span.kernel_s += elapsed
            return out
        return counted

    def wrap_problem(self, problem):
        return dataclasses.replace(problem, k1=self._count(problem.k1),
                                   k2=self._count(problem.k2), g=self._count(problem.g))

    # -- observations taken at span boundaries -----------------------------
    def _after_grid_for(self, span, args, grid):
        if grid is None:
            return
        iv = grid.iv
        key = (grid.kind, iv.a, iv.b, grid.mesh.N, grid.h)
        self.endpoint_nodes[key] = int(np.count_nonzero((grid.points == iv.a)
                                                        | (grid.points == iv.b)))
        span.info = {"n": grid.n}

    def _after_solve_linear(self, span, args, result):
        if result is None:
            return
        A, rhs = (np.asarray(x, dtype=float) for x in args[:2])
        coeffs, rcond = result
        check = self._open("perfbench.residual")
        residual = float(np.max(np.abs(A @ coeffs - rhs)))
        self._close(check)
        span.info = {"n": A.shape[0], "rcond": rcond, "residual": residual}

    def _after_assemble(self, span, args, result):
        if result is not None:
            span.info = {"n": result[0].shape[0]}

    _after_assemble_new = _after_assemble_shamloo = _after_assemble_johnogbonna = _after_assemble

    def _after_evaluate_solution_many(self, span, args, values):
        if values is not None:
            span.info = {"M": int(np.size(values)), "n": args[0].grid.n}

    def _after_fit_rate(self, span, args, result):
        records = list(args[0])
        dropped = sum(r.max_error <= vfie.bench.SATURATION_FLOOR for r in records)
        span.info = {"r2": None if result is None else result[1], "dropped": dropped}

    def _traced_builtin(self, original):
        @functools.wraps(original)
        def builtin(example_id):
            ex = original(example_id)
            return dataclasses.replace(ex, problem=self.wrap_problem(ex.problem))
        return builtin

    # -- installation ----------------------------------------------------
    def install(self):
        targets = [(mod, name, self._wrap(name, getattr(mod, name)))
                   for mod, names in TRACED.items() for name in names]
        targets.append((vfie.bench, "builtin", self._traced_builtin(vfie.bench.builtin)))
        for home, name, replacement in targets:
            original = getattr(home, name)
            for mod in MODULES:
                if getattr(mod, name, None) is original:
                    self._patched.append((mod, name, original))
                    setattr(mod, name, replacement)

    def uninstall(self):
        for mod, name, original in reversed(self._patched):
            setattr(mod, name, original)
        self._patched.clear()

    def write(self, path):
        rows = [[s.id, s.name, s.parent, s.request, s.start, s.end, s.info,
                 [s.kernel_calls, s.kernel_points, s.kernel_s] if s.kernel_calls else None]
                for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"columns": ["id", "name", "parent", "request", "start", "end", "info",
                                   "kernel [calls, points, seconds]"], "spans": rows}, fh)

    # -- per-layer metrics -----------------------------------------------
    def layer_metrics(self, passes):
        """Per-layer metrics over the traced passes: times per call are
        means, totals and counts are per pass; 0 where the layer did not
        run."""
        by_name = {}
        children = {}
        for s in self.spans:
            by_name.setdefault(s.name, []).append(s)
            children.setdefault(s.parent, []).append(s)

        def spans(*names):
            return [s for name in names for s in by_name.get(name, [])]

        def child_time(span, names=None):
            return sum(c.duration for c in children.get(span.id, [])
                       if names is None or c.name in names)

        def mean(values):
            return sum(values) / len(values) if values else 0.0

        point_ids = {s.id for s in spans("evaluate_solution")}
        grids = spans("grid_for")
        assemble = spans(*ASSEMBLERS)
        lu = [s for s in spans("solve_linear") if s.info]
        bulk = [s for s in spans("evaluate_solution_many")
                if s.info and s.parent not in point_ids]
        fits = spans("fit_rate")
        lu_flops = sum(2.0 / 3.0 * s.info["n"] ** 3 for s in lu)
        lu_time = sum(s.duration for s in lu)
        bulk_work = sum(s.info["M"] * s.info["n"] for s in bulk)
        bulk_time = sum(s.duration for s in bulk)
        solve_children = ASSEMBLERS + ("solve_linear", "perfbench.residual")
        return {
            "transforms.grid_ms": mean([s.duration for s in grids]) * 1e3,
            "transforms.endpoint_nodes": sum(self.endpoint_nodes.values()),
            "solver.assemble_ms": sum(s.duration for s in assemble) / passes * 1e3,
            "solver.assemble_self_ms": sum(s.duration - s.kernel_s - child_time(s)
                                           for s in assemble) / passes * 1e3,
            "solver.kernel_calls": sum(s.kernel_calls for s in assemble) / passes,
            "solver.kernel_points": sum(s.kernel_points for s in assemble) / passes,
            "solver.kernel_ms": sum(s.kernel_s for s in assemble) / passes * 1e3,
            "solver.lu_ms": mean([s.duration for s in lu]) * 1e3,
            "solver.lu_gflops": lu_flops / lu_time / 1e9 if lu else 0.0,
            "solver.rcond_min": min((s.info["rcond"] for s in lu), default=0.0),
            "solver.residual_inf": max((s.info["residual"] for s in lu), default=0.0),
            "solver.solve_overhead_ms": mean([s.duration - child_time(s, solve_children)
                                              for s in spans("solve")]) * 1e3,
            "approx.eval_ms": mean([s.duration for s in bulk]) * 1e3,
            "approx.eval_points": sum(s.info["M"] for s in bulk) / passes,
            "approx.eval_bytes_computed": max((s.info["M"] * s.info["n"] * 8 for s in bulk),
                                              default=0),
            "approx.eval_ns_per_point_node": bulk_time / bulk_work * 1e9 if bulk else 0.0,
            "approx.point_query_us": mean([s.duration for s in spans("evaluate_solution")]) * 1e6,
            "bench.exact_ms": mean([s.duration - child_time(s) for s in spans("max_error")]) * 1e3,
            "bench.self_check_ms": mean([s.duration for s in spans("self_check")]) * 1e3,
            "bench.fit_ms": mean([s.duration for s in fits]) * 1e3,
            "bench.fit_r2_min": min((s.info["r2"] for s in fits if s.info["r2"] is not None),
                                    default=0.0),
            "bench.fit_dropped": sum(s.info["dropped"] for s in fits) / passes,
            "cli.csv_ms": mean([s.duration for s in spans("emit_csv")]) * 1e3,
            "cli.self_ms": mean([s.duration - child_time(s) for s in spans("main")]) * 1e3,
        }

    def kernel_calls_per_assembly(self):
        """(n, kernel calls) of every traced assembly."""
        return [(s.info["n"], s.kernel_calls) for s in self.spans
                if s.name in ASSEMBLERS and s.info]
