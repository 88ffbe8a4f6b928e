"""The benchmark's three workloads.

Each workload is built from a seed during set-up, then runs timed passes.
A pass returns the duration of each operation it timed, keyed by the
operation's place in the pass; the accuracy checks of a pass run after
its timed operations, untimed.  The cores are shared with other tenants,
and contention only ever adds time, so `fastest` estimates a pass as the
sum over its operations of each one's fastest time across the passes
(see README.md for how steady that is).
All calls into vfie go through module attributes (`vfie.solve`, ...)
looked up at call time, so a Tracer that patches them sees every call.

- sweep: the README convergence study through `vfie.cli.main`, examples
  1 and 2, all methods, N = 4..128, 4096 error points, --self-check --fit.
  Exercises cli and bench; cost is shared by assembly and evaluation.
  The seed picks the order of the two examples in each pass.
- solve-large: `vfie solve`-style single solves followed by one
  `evaluate_solution`: all methods on both examples at N = 256 and 512,
  plus example 2 at N = 256 written with scalar-only `math.*` callables.
  Exercises kernel sampling and LU; evaluation is negligible.  The seed
  picks the order of the solves and each query point.
- eval-dense: eight solutions (2 examples x 4 methods, N = 256) solved in
  set-up; a pass makes bulk `evaluate_solution_many` calls on 16384
  points per solution (in chunks of 4096, which bounds the dense cardinal
  matrix to 16.8 MB) and 2000 single-point `evaluate_solution` queries.
  Bypasses assembly.  The seed picks the points, the queried solution and
  the request order.
"""

import contextlib
import csv
import io
import itertools
import math
import os
import statistics
import time

import numpy as np

import vfie
import vfie.cli
from vfie import Method

EXAMPLES = (1, 2)
METHODS = tuple(Method)
SWEEP_N = tuple(vfie.bench.DEFAULT_N_LIST)
LARGE_N = (256, 512)
EVAL_N = 256
EVAL_POINTS = 4096

REFERENCE_CONFIGS = [(ex, m, N) for ex in EXAMPLES for m in METHODS
                     for N in SWEEP_N + LARGE_N]


class NullTracer:
    """Stands in for a Tracer in untraced passes."""

    def wrap_problem(self, problem):
        return problem

    def begin_request(self):
        pass


NULL_TRACER = NullTracer()


def _k1_scalar(t, s):
    if s == 0.0:
        return 0.0
    return math.exp((t + 0.5) * math.log(s))


def _k2_scalar(t, s):
    return math.pow(1.0 - s, t)


def _g_scalar(t):
    beta = math.exp(math.lgamma(1.5) + math.lgamma(t + 1.0) - math.lgamma(t + 2.5))
    return math.sqrt(t) - math.pow(t, t + 2.0) / (t + 2.0) - beta


def scalar_example2():
    """Example 2 written with callables that accept scalars only
    (`math.*` rejects arrays), so the scalar-kernel path stays measured
    when the built-in examples become array-native."""
    p = vfie.builtin(2).problem
    return vfie.Problem(iv=p.iv, k1=_k1_scalar, k2=_k2_scalar, g=_g_scalar,
                        alpha=p.alpha, d_se=p.d_se, d_de=p.d_de)


def geomean(errors):
    # The exact solutions are O(1), so a run that produced no result at all
    # reports 1.0, no correct digit.  A sup error of exactly 0 has no
    # logarithm; it is clamped to the smallest normal double (it does not
    # occur on the built-in examples).
    if not errors:
        return 1.0
    logs = [math.log(max(e, np.finfo(float).tiny)) for e in sorted(errors)]
    return math.exp(sum(logs) / len(logs))


def fastest(passes):
    """Fastest time of each operation over the given passes."""
    best = {}
    for durations in passes:
        for key, seconds in durations.items():
            best[key] = min(seconds, best.get(key, math.inf))
    return best


@contextlib.contextmanager
def _timed_calls(module, names, durations):
    """Time every call of module.<name> into durations[(name, call index)]."""
    saved = {name: getattr(module, name) for name in names}

    def timer(name, fn):
        index = itertools.count()

        def call(*args, **kwargs):
            key = (name, next(index))
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                durations[key] = time.perf_counter() - start
        return call

    for name, fn in saved.items():
        setattr(module, name, timer(name, fn))
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(module, name, fn)


class Sweep:
    def __init__(self, seed, gate, csv_path, n_list=SWEEP_N, eval_points=EVAL_POINTS):
        self.rng = np.random.default_rng(seed)
        self.gate = gate
        self.n_list = tuple(n_list)
        self.eval_points = eval_points
        self.csv_path = csv_path
        self.sup = {}
        self._cli(1, n_list=(4,), eval_points=16)  # warm-up

    def _cli(self, example, n_list, eval_points):
        argv = ["bench", "--example", str(example), "--method", "all",
                "--n-list", ",".join(map(str, n_list)),
                "--eval-points", str(eval_points), "--out", self.csv_path,
                "--self-check", "--fit"]
        with contextlib.redirect_stdout(io.StringIO()):
            return vfie.cli.main(argv)

    def run_pass(self, tracer):
        """One `vfie bench` run per example.  Its sweep records are timed
        at the two public calls each makes (vfie.bench.solve, max_error);
        the rest of the run (self-check, fit, CSV, argument parsing) is
        one more operation."""
        samples = {}
        for example in self.rng.permutation(EXAMPLES):
            example = int(example)
            with contextlib.suppress(FileNotFoundError):
                os.remove(self.csv_path)
            tracer.begin_request()
            calls = {}
            start = time.perf_counter()
            try:
                with _timed_calls(vfie.bench, ("solve", "max_error"), calls):
                    code = self._cli(example, self.n_list, self.eval_points)
            except (Exception, SystemExit) as exc:  # a crash fails every record
                code = repr(exc)
            elapsed = time.perf_counter() - start
            samples.update({(example,) + key: t for key, t in calls.items()})
            samples[(example, "cli")] = elapsed - sum(calls.values())
            self._check(example, code)
        return samples

    def _check(self, example, code):
        expected = [(m, N) for m in METHODS for N in self.n_list]
        if code != 0:
            self.gate.fail(f"sweep example {example}: exit {code}", len(expected))
            return
        with open(self.csv_path, newline="") as fh:
            rows = {(r["method"], int(r["N"])): float(r["max_error"])
                    for r in csv.DictReader(fh) if int(r["example"]) == example}
        for m, N in expected:
            err = rows.get((m.value, N))
            self.gate.record("sweep record", err, example, m, N, "grid_error")
            if err is not None:
                self.sup[(example, m, N)] = err

    def finish(self):
        return {"sup_err_geomean": geomean(list(self.sup.values()))}

    def metrics(self, passes):
        return {}


class SolveLarge:
    def __init__(self, seed, gate, sizes=LARGE_N, scalar_N=LARGE_N[0], eval_points=EVAL_POINTS):
        self.rng = np.random.default_rng(seed)
        self.gate = gate
        self.sizes = tuple(sizes)
        self.eval_points = eval_points
        self.examples = {ex: vfie.builtin(ex) for ex in EXAMPLES}
        self.scalar_problem = scalar_example2()
        self.ops = [(ex, m, N, False) for ex in EXAMPLES for m in METHODS for N in self.sizes]
        self.ops.append((2, Method.NEW_DE, scalar_N, True))
        self.solutions = {}
        for ex in EXAMPLES:  # warm-up
            for m in METHODS:
                vfie.evaluate_solution(vfie.solve(self.examples[ex].problem, m, 4), 0.5)
        vfie.solve(self.scalar_problem, Method.NEW_DE, 4)

    def run_pass(self, tracer):
        iv = self.examples[1].problem.iv
        order = self.rng.permutation(len(self.ops))
        queries = self.rng.uniform(iv.a, iv.b, size=len(self.ops))
        samples = {}
        for k, t in zip(order, queries):
            ex, m, N, scalar = self.ops[k]
            problem = self.scalar_problem if scalar else self.examples[ex].problem
            problem = tracer.wrap_problem(problem)
            tracer.begin_request()
            start = time.perf_counter()
            try:
                sol = vfie.solve(problem, m, N)
                solved = time.perf_counter()
                value = vfie.evaluate_solution(sol, float(t))
            except Exception as exc:  # a raising solve is a failed operation
                self.gate.fail(f"solve example {ex} {m.value} N={N}: {exc!r}")
                continue
            samples[("solve", k)] = solved - start
            samples[("query", k)] = time.perf_counter() - solved
            err = float(self.gate.errors(self.examples[ex].exact, [t], [value])[0])
            self.gate.record("query", err, ex, m, N)
            self.solutions.setdefault(k, sol)
        return samples

    def finish(self):
        errors = []
        for k, sol in sorted(self.solutions.items()):
            ex, m, N, _ = self.ops[k]
            err = vfie.max_error(sol, self.examples[ex].exact, self.eval_points)
            self.gate.record("sup error", err, ex, m, N, "grid_error")
            errors.append(err)
        return {"sup_err_geomean": geomean(errors)}

    def metrics(self, passes):
        """Per-solve latency: the mean over that kind of solve of each
        solve's fastest time."""
        best = fastest(passes)
        kinds = {"solve_ms_n256": lambda N, scalar: N == self.sizes[0] and not scalar,
                 "solve_ms_n512": lambda N, scalar: N == self.sizes[1] and not scalar,
                 "solve_ms_scalar": lambda N, scalar: scalar}
        out = {}
        for label, match in kinds.items():
            times = [best[("solve", k)] for k, (_, _, N, scalar) in enumerate(self.ops)
                     if match(N, scalar) and ("solve", k) in best]
            out[label] = (statistics.fmean(times) * 1e3, "ms")
        return out


class EvalDense:
    def __init__(self, seed, gate, N=EVAL_N, bulk_points=16384, chunk=4096,
                 queries=2000, eval_points=EVAL_POINTS):
        self.rng = np.random.default_rng(seed)
        self.gate = gate
        self.N = N
        self.bulk_points = bulk_points
        self.chunk = chunk
        self.queries = queries
        self.eval_points = eval_points
        self.examples = {ex: vfie.builtin(ex) for ex in EXAMPLES}
        self.configs = [(ex, m) for ex in EXAMPLES for m in METHODS]
        self.solutions = [vfie.solve(self.examples[ex].problem, m, N) for ex, m in self.configs]
        for sol in self.solutions:  # warm-up
            vfie.evaluate_solution_many(sol, np.linspace(0.0, 1.0, 16))
            vfie.evaluate_solution(sol, 0.5)

    def run_pass(self, tracer):
        iv = self.examples[1].problem.iv
        requests = []
        for i in range(len(self.solutions)):
            pts = self.rng.uniform(iv.a, iv.b, size=self.bulk_points)
            requests += [("bulk", i, pts[lo:lo + self.chunk])
                         for lo in range(0, self.bulk_points, self.chunk)]
        which = self.rng.integers(0, len(self.solutions), size=self.queries)
        ts = self.rng.uniform(iv.a, iv.b, size=self.queries)
        requests += [("point", int(i), float(t)) for i, t in zip(which, ts)]
        order = self.rng.permutation(len(requests))

        results = [None] * len(requests)
        samples = {}
        for k in order:
            kind, i, arg = requests[k]
            tracer.begin_request()
            start = time.perf_counter()
            try:
                if kind == "bulk":
                    out = vfie.evaluate_solution_many(self.solutions[i], arg)
                else:
                    out = vfie.evaluate_solution(self.solutions[i], arg)
            except Exception as exc:  # a raising query is a failed operation
                results[k] = exc
                continue
            samples[(kind, k)] = time.perf_counter() - start
            results[k] = out

        for (kind, i, arg), out in zip(requests, results):
            ex, m = self.configs[i]
            if isinstance(out, Exception):
                self.gate.fail(f"{kind} query example {ex} {m.value}: {out!r}")
                continue
            err = float(np.max(self.gate.errors(self.examples[ex].exact,
                                                np.atleast_1d(arg), np.atleast_1d(out))))
            self.gate.record(f"{kind} query", err, ex, m, self.N)
        return samples

    def finish(self):
        errors = []
        for (ex, m), sol in zip(self.configs, self.solutions):
            err = vfie.max_error(sol, self.examples[ex].exact, self.eval_points)
            self.gate.record("sup error", err, ex, m, self.N, "grid_error")
            errors.append(err)
        return {"sup_err_geomean": geomean(errors)}

    def metrics(self, passes):
        """Bulk throughput from each bulk call's fastest time; point-query
        latency quantiles over every sample of every pass."""
        best = fastest(passes)
        bulk = sum(t for (kind, _), t in best.items() if kind == "bulk")
        points = self.bulk_points * len(self.solutions)
        points_us = [t * 1e6 for p in passes for (kind, _), t in p.items() if kind == "point"]
        deciles = statistics.quantiles(points_us, n=10)
        return {
            "eval_mpts_per_s": (points / bulk / 1e6, "Mpts/s"),
            "point_query_us_p50": (statistics.median(points_us), "us"),
            "point_query_us_p90": (deciles[8], "us"),
            "point_query_samples": (len(points_us), "count"),
        }


WORKLOADS = ("sweep", "solve-large", "eval-dense")


def make(name, seed, gate, out_dir, **sizes):
    """Build (set up) the named workload; `sizes` shrink it for self-tests."""
    if name == "sweep":
        return Sweep(seed, gate, os.path.join(out_dir, "sweep.csv"), **sizes)
    if name == "solve-large":
        return SolveLarge(seed, gate, **sizes)
    if name == "eval-dense":
        return EvalDense(seed, gate, **sizes)
    raise ValueError(f"unknown workload {name!r}")
