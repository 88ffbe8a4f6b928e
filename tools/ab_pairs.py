"""Alternating parent/change runs of the benchmark, judged pair by pair:

    python3 tools/ab_pairs.py PARENT CHANGE --workload eval-dense --pairs 10 \\
        --seconds 45 --first-seed 1

PARENT and CHANGE are the roots of two source checkouts.  Pair i runs

    python3 perfbench/run.py --workload W --seed S+i --seconds X --trace 0

in each of them, one after the other: the parent first in even pairs and
the change first in odd ones, so that a slow phase of a shared host falls
on both sides alike.  For every end-to-end metric of the change's
BENCHMARK.json it prints each pair, each side's median and quartiles, and
the pairs the change won, ties counting for neither side.  A gain holds
when the change wins at least nine tenths of the pairs and the medians
differ by more than the distance between the parent's quartiles.  The
change of the median is set against the metric's regression bound.  The
workload's own metrics, its "# metric NAME = VALUE UNIT" lines such as
eval-dense's point_query_us_p50, follow with each side's median, to show
where a gain comes from.  With --json PATH the same pairs and judgement
are also written to PATH as JSON (see `record`), with the sha256 of each
side's src/vfie/*.py, so that the record names the code each side ran
also when the checkouts carry no git metadata.

After each run, a fresh process in the same checkout imports vfie and
perfbench's workloads and then times `workloads.make` alone for the same
workload and seed (`post_import_setup`).  The benchmark's setup_s counts
from interpreter start, so the import, about 0.5 s, and its spread hide
a change to set-up below about 0.1 s; this time leaves the import out.
It is recorded beside setup_s among the run's metric lines, as
post_import_setup_s, and reported with each side's median.
"""

import argparse
import glob
import hashlib
import json
import os
import statistics
import subprocess
import sys

RUN_TIMEOUT_S = 900
SETUP_TIMEOUT_S = 150

# Run in a fresh process from a checkout's root: the imports first, then
# the workload's set-up alone, timed, in a scratch output directory.  BLAS
# is pinned by the environment, as perfbench/run.py pins it.
_SETUP_CHILD = """
import json, sys, tempfile, time
sys.path[:0] = ["src", "perfbench"]
import vfie, workloads
from accuracy import Gate
with tempfile.TemporaryDirectory() as out:
    start = time.perf_counter()
    workloads.make(sys.argv[1], int(sys.argv[2]), Gate(), out)
    print(json.dumps(time.perf_counter() - start))
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="root of the parent checkout")
    parser.add_argument("change", help="root of the change checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--json", metavar="PATH",
                        help="also write the pairs and the judgement of every metric as JSON")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    for root in (args.parent, args.change):
        if not os.path.isfile(os.path.join(root, "perfbench", "run.py")):
            parser.error(f"{root} holds no perfbench/run.py")
    return args


def run(root, workload, seed, seconds):
    """One untraced benchmark run in `root`, parsed by `parse`, with the
    `post_import_setup` of the same workload and seed added to its metric
    lines as post_import_setup_s."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    result = parse(_child(cmd, root, RUN_TIMEOUT_S))
    result["metric_lines"]["post_import_setup_s"] = (post_import_setup(root, workload, seed), "s")
    return result


def post_import_setup(root, workload, seed):
    """Seconds that `workloads.make(workload, seed, ...)` takes in a fresh
    process in `root` that has already imported vfie and the workloads,
    with one BLAS thread."""
    cmd = [sys.executable, "-c", _SETUP_CHILD, workload, str(seed)]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return float(json.loads(_child(cmd, root, SETUP_TIMEOUT_S, env).strip().splitlines()[-1]))


def _child(cmd, root, timeout, env=None):
    """The standard output of `cmd` run in `root`; a failure raises RuntimeError."""
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=timeout,
                          env=env)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited {done.returncode}: "
                           f"{done.stderr.strip()[-500:]}")
    return done.stdout


def parse(stdout):
    """A run's result, its last line, with the run's "# metric NAME = VALUE
    UNIT" lines added under "metric_lines" as {NAME: (VALUE, UNIT)}."""
    out = stdout.strip().splitlines()
    result = json.loads(out[-1])
    result["metric_lines"] = {}
    for line in out[:-1]:
        if line.startswith("# metric "):
            name, _, rest = line[len("# metric "):].partition(" = ")
            value, _, unit = rest.partition(" ")
            result["metric_lines"][name] = (float(value), unit)
    return result


def source_sha256(root):
    """sha256 of root's src/vfie/*.py read in sorted name order, as
    `cat src/vfie/*.py | sha256sum` gives it in the C locale."""
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "vfie", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def quartiles(values):
    """(lower quartile, median, upper quartile) of `values`."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def judge(parent, change, better):
    """Wins, losses, the gain verdict and the change of the median relative
    to the parent's, signed so that positive is worse, for one metric over
    paired runs; `better` is "lower" or "higher"."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (p - c) < 0 for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    cm = quartiles(change)[1]
    gain = wins >= 0.9 * len(parent) and sign * (pm - cm) > p3 - p1
    worse = sign * (cm - pm) / abs(pm) if pm else 0.0
    return wins, losses, gain, worse


def summarize(metrics, results):
    """For every end-to-end metric, by name: its unit, direction and bound,
    each side's quartiles, the change's wins and losses, the gain verdict,
    the change of the median (positive is worse) and whether it is within
    the bound."""
    summary = {}
    for metric in metrics:
        name = metric["name"]
        values = {side: [r[side]["metrics"][name]["value"] for r in results]
                  for side in ("parent", "change")}
        wins, losses, gain, worse = judge(values["parent"], values["change"], metric["better"])
        summary[name] = {
            "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
            "quartiles": {side: quartiles(v) for side, v in values.items()},
            "wins": wins, "losses": losses, "gain": gain,
            "median_change": worse, "within_bound": worse <= metric["bound"],
        }
    return summary


def report(metrics, results):
    """Lines for every metric: each pair, both sides' quartiles, wins."""
    lines = []
    fails = [(r["parent"]["failed"], r["change"]["failed"]) for r in results]
    lines.append(f"failed per pair (parent, change): {fails}")
    for name, s in summarize(metrics, results).items():
        lines.append(f"{name} ({s['unit']}, {s['better']} is better)")
        for r in results:
            p, c = (r[side]["metrics"][name]["value"] for side in ("parent", "change"))
            lines.append(f"  seed {r['seed']} {r['first']:>6} first: parent {p!r}  change {c!r}")
        for side, (q1, q2, q3) in s["quartiles"].items():
            lines.append(f"  {side}: median {q2!r}  quartiles {q1!r} .. {q3!r}")
        lines.append(f"  change wins {s['wins']} of {len(results)}, loses {s['losses']}; "
                     f"gain {'holds' if s['gain'] else 'not shown'}; "
                     f"median {s['median_change']:+.1%} worse "
                     f"({'within' if s['within_bound'] else 'beyond'} the bound {s['bound']})")
    gated = {metric["name"] for metric in metrics}
    for name, (_, unit) in results[0]["parent"]["metric_lines"].items():
        if name not in gated:
            medians = [statistics.median(r[side]["metric_lines"][name][0] for r in results)
                       for side in ("parent", "change")]
            lines.append(f"{name} ({unit}): median parent {medians[0]!r}  change {medians[1]!r}")
    return lines


def record(args, sources, metrics, results):
    """What --json writes: the run's settings, each side's `source_sha256`,
    every pair as run (seed, the side that ran first, each side's parsed
    result with its end-to-end metrics and "# metric" lines) and the
    `summarize` of every metric."""
    return {"workload": args.workload, "seconds": args.seconds,
            "first_seed": args.first_seed, "source_sha256": sources, "pairs": results,
            "metrics": summarize(metrics, results)}


def main(argv=None):
    args = parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]
    sources = {side: source_sha256(getattr(args, side)) for side in ("parent", "change")}
    results = []
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run(getattr(args, side), args.workload, seed, args.seconds)
        results.append(pair)
        walls = {side: pair[side]["metrics"]["wall_s"]["value"] for side in order}
        print(f"# pair {i + 1}/{args.pairs} seed {seed}: wall_s {walls}", flush=True)
    print("\n".join(report(metrics, results)))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(record(args, sources, metrics, results), fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
