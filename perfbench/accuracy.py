"""Accuracy gate: every result the benchmark times is checked against the
exact solution of its built-in example.

`references.json` holds two errors per (example, method, N), measured on
the commit that defined the benchmark:

- grid_error: `vfie.max_error` on the 4096-point equispaced error grid of
  `vfie bench`; sweep records and sup-error checks are held to it.
- sup_error: the largest error over a dense reference set (that grid, a
  65537-point equispaced grid and 400 geometrically spaced points towards
  each endpoint); seeded query points are held to it.

A result fails when its error exceeds the committed limit, LIMIT_FACTOR
times the reference plus ABS_SLACK: loose enough for last-bit rounding
changes at the double-precision floor, tight enough that a lost digit
fails.
"""

import json
import math
import os

import numpy as np

REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")

LIMIT_FACTOR = 2.0
ABS_SLACK = 1e-15


def reference_points(a, b):
    """The dense point set the committed references are taken over."""
    tail = (b - a) * np.logspace(-16, -1, 400)
    pts = np.concatenate([np.linspace(a, b, 4096), np.linspace(a, b, 65537),
                          a + tail, b - tail])
    return np.unique(np.clip(pts, a, b))


def limit(reference):
    return LIMIT_FACTOR * reference + ABS_SLACK


class Gate:
    """Committed per-(example, method, N) error limits, and the running
    count of checked and failed operations."""

    def __init__(self, path=REFERENCES):
        with open(path) as fh:
            entries = json.load(fh)["references"]
        self.limits = {(e["example"], e["method"], e["N"], kind): limit(e[kind])
                       for e in entries for kind in ("grid_error", "sup_error")}
        self.attempted = 0
        self.failed = 0
        self.misses = []

    def limit_for(self, example, method, N, kind):
        return self.limits[(example, method.value, N, kind)]

    def errors(self, exact, ts, values):
        """Pointwise |values - exact(ts)|; `exact` is the example's scalar
        exact solution, so a corrupted one shows here."""
        want = np.array([exact(float(t)) for t in ts])
        return np.abs(np.asarray(values, dtype=float) - want)

    def record(self, what, err, example, method, N, kind="sup_error"):
        """Count one operation whose largest error is `err` (None when the
        operation produced no result), held to the `kind` reference."""
        bound = self.limit_for(example, method, N, kind)
        self.attempted += 1
        ok = err is not None and math.isfinite(err) and err <= bound
        if not ok:
            self.failed += 1
            if len(self.misses) < 20:
                self.misses.append(f"{what}: example {example} {method.value} N={N} "
                                   f"error {err!r} above {kind} limit {bound!r}")
        return ok

    def fail(self, what, count=1):
        """Count `count` operations that could not be checked at all."""
        self.attempted += count
        self.failed += count
        if len(self.misses) < 20:
            self.misses.append(what)
