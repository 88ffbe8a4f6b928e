"""vfie benchmark: one workload per process, built from a seed, timed from
outside the program, every result checked against the exact solution.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45

Run from the root of a source checkout; the program is imported from
./src.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1.  Lines
before it, starting with '#', record the environment and the metrics
that only one workload has.  `--workload all` runs every workload,
untraced and traced, each in its own process.

See perfbench/README.md for what each workload and metric is for.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = ("sweep", "solve-large", "eval-dense")

# One BLAS thread (nproc is 2 on the reference machine): LU is a few percent
# of a solve today, and a single thread keeps runs steady when other
# processes share the cores.
BLAS_THREADS = 1
SETUP_SAMPLES = 5

END_TO_END = {"setup_s": "s", "wall_s": "s", "sup_err_geomean": "abs_err"}

PER_LAYER = {
    "transforms.grid_ms": "ms",
    "transforms.endpoint_nodes": "count",
    "solver.assemble_ms": "ms",
    "solver.assemble_self_ms": "ms",
    "solver.kernel_calls": "count",
    "solver.kernel_points": "count",
    "solver.kernel_ms": "ms",
    "solver.lu_ms": "ms",
    "solver.lu_gflops": "GFLOP/s",
    "solver.rcond_min": "1",
    "solver.residual_inf": "abs",
    "solver.solve_overhead_ms": "ms",
    "approx.eval_ms": "ms",
    "approx.eval_points": "count",
    "approx.eval_bytes_computed": "B",
    "approx.eval_ns_per_point_node": "ns",
    "approx.point_query_us": "us",
    "bench.exact_ms": "ms",
    "bench.self_check_ms": "ms",
    "bench.fit_ms": "ms",
    "bench.fit_r2_min": "1",
    "bench.fit_dropped": "count",
    "cli.csv_ms": "ms",
    "cli.self_ms": "ms",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the timed passes of one run last")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def pin_blas():
    """Fix the BLAS thread count; must run before numpy is imported."""
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    return int(threads)


def cache_sizes():
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            with open(os.path.join(base, entry, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, entry, "size")) as fh:
                sizes[f"l{level}"] = fh.read().strip()
    except OSError:
        pass
    return sizes


def environment(threads):
    import numpy
    import scipy

    def blas(mod):
        return mod.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")

    caches = cache_sizes()
    return {"blas_threads": threads, "nproc": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "openblas_numpy": blas(numpy),
            "openblas_scipy": blas(scipy), "l2": caches.get("l2", "unknown"),
            "l3": caches.get("l3", "unknown")}


def child_setup(args):
    """Set-up time of a fresh process that builds the same workload."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        raise RuntimeError(f"set-up process failed: {done.stderr.strip()[-500:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def run_passes(workload, seconds, trace):
    """Timed passes until `seconds` would be exceeded (at least one).
    With `trace`, passes alternate between untraced, the reference for the
    tracing overhead, and traced, starting untraced.  Returns the untraced
    and the traced passes, each a {operation: seconds} dict, and the
    tracer or None."""
    from tracing import Tracer
    from workloads import NULL_TRACER

    untraced, traced, tracer = [], [], None
    begin = time.perf_counter()
    while True:
        tracing = trace and len(untraced) > len(traced)
        if tracing and tracer is None:
            tracer = Tracer()
        start = time.perf_counter()
        if tracing:
            tracer.install()
        try:
            samples = workload.run_pass(tracer if tracing else NULL_TRACER)
        finally:
            if tracing:
                tracer.uninstall()
        (traced if tracing else untraced).append(samples)
        now = time.perf_counter()
        if now - begin + (now - start) > seconds and (traced or not trace):
            return untraced, traced, tracer


def measure(workload, seconds, trace, setups):
    """Run the passes and the accuracy checks; return the result, the
    '#' lines and the tracer (None when untraced).  A pass takes `wall_s`:
    the sum over its operations of each one's fastest time (see
    workloads.fastest)."""
    from workloads import fastest

    untraced, traced, tracer = run_passes(workload, seconds, trace)
    finals = workload.finish()
    gate = workload.gate
    untraced_wall = sum(fastest(untraced).values())
    lines = [f"passes untraced={len(untraced)} traced={len(traced)}",
             f"attempted={gate.attempted} failed={gate.failed} "
             f"failed_ops_frac={gate.failed / max(gate.attempted, 1)!r}",
             f"pass durations s: {[sum(p.values()) for p in untraced + traced]!r}"]
    lines += [f"accuracy miss: {m}" for m in gate.misses]
    if trace:
        metrics = tracer.layer_metrics(len(traced))
        metrics["trace.wall_s"] = sum(fastest(traced).values())
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced_wall
        units = PER_LAYER
        calls = sorted(set(tracer.kernel_calls_per_assembly()))
        lines.append("kernel calls per assembly (n, calls): " + repr(calls))
    else:
        metrics = {"setup_s": statistics.median(setups), "wall_s": untraced_wall,
                   "sup_err_geomean": finals["sup_err_geomean"]}
        units = END_TO_END
        lines.append(f"setup samples s: {setups!r}")
        for name, (value, unit) in workload.metrics(untraced).items():
            lines.append(f"metric {name} = {value!r} {unit}")
    result = {"correct": gate.failed == 0, "attempted": gate.attempted, "failed": gate.failed,
              "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                          for name, unit in units.items()}}
    for name, unit in units.items():
        lines.append(f"metric {name} = {metrics[name]!r} {unit}")
    return result, lines, tracer


def run_one(args):
    if not os.path.isfile(os.path.join(SRC, "vfie", "__init__.py")):
        print(f"perfbench: no vfie source at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    threads = pin_blas()
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    import workloads
    from accuracy import Gate

    workload = workloads.make(args.workload, args.seed, Gate(), OUT)
    setup = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup}))
        return 0
    setups = [setup] + [child_setup(args) for _ in range(SETUP_SAMPLES - 1)]
    result, lines, tracer = measure(workload, args.seconds, args.trace, setups)
    env = environment(threads)
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds!r} "
          f"trace={args.trace}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for line in lines:
        print("# " + line)
    if tracer is not None:
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.write(path)
        print(f"# spans: {len(tracer.spans)} written to {os.path.relpath(path, ROOT)}")
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload, untraced then traced, each in its own process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        walls = {}
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                return done.returncode
            out = done.stdout.strip().splitlines()
            print("\n".join(out[:-1]))
            result = json.loads(out[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                combined["metrics"][f"{name}.{metric}"] = value
            walls[trace] = result["metrics"]["wall_s" if trace == 0 else "trace.wall_s"]["value"]
        print(f"# {name}: tracing overhead {walls[1] - walls[0]!r} s "
              f"(traced pass {walls[1]!r} s, untraced run's pass {walls[0]!r} s)")
    print(json.dumps(combined))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
