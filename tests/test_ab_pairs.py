"""The pair judgement of tools/ab_pairs.py: wins, ties and the gain rule,
its JSON record and the post-import set-up time it adds to each run."""

import argparse
import hashlib
import json
import os
import pathlib
import shutil
import time

import pytest

from conftest import load_tool


@pytest.fixture(scope="module")
def ab_pairs():
    return load_tool("ab_pairs")


def test_nine_wins_and_a_tie_beyond_the_parents_spread_is_a_gain(ab_pairs):
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.00]
    change = [0.80] * 9 + [1.00]
    wins, losses, gain, worse = ab_pairs.judge(parent, change, "lower")
    assert (wins, losses, gain) == (9, 0, True)
    assert worse == pytest.approx(-0.2)


def test_eight_wins_of_ten_is_no_gain(ab_pairs):
    parent = [1.0] * 10
    change = [0.5] * 8 + [1.5] * 2
    assert ab_pairs.judge(parent, change, "lower")[:3] == (8, 2, False)


def test_every_win_inside_the_parents_spread_is_no_gain(ab_pairs):
    parent = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    change = [p - 0.5 for p in parent]
    assert ab_pairs.judge(parent, change, "lower")[:3] == (10, 0, False)


def test_higher_is_better_turns_the_comparison(ab_pairs):
    parent = [1.0] * 10
    change = [2.0] * 10
    assert ab_pairs.judge(parent, change, "higher") == (10, 0, True, -1.0)
    assert ab_pairs.judge(parent, change, "lower") == (0, 10, False, 1.0)


_RUN = """\
# workload=eval-dense seed=1 seconds=45.0 trace=0
# passes untraced=15 traced=0
# metric eval_mpts_per_s = 0.06927363050504218 Mpts/s
# metric point_query_us_p50 = 139.17399883212056 us
# metric point_query_samples = 30000 count
# metric wall_s = 2.040440300886985 s
{"correct": true, "attempted": 30488, "failed": 0, "metrics": {"wall_s": {"value": 2.040440300886985, "unit": "s"}}}
"""


def test_a_run_is_parsed_with_its_metric_lines(ab_pairs):
    result = ab_pairs.parse(_RUN)
    assert result["failed"] == 0
    assert result["metrics"]["wall_s"]["value"] == 2.040440300886985
    assert result["metric_lines"] == {"eval_mpts_per_s": (0.06927363050504218, "Mpts/s"),
                               "point_query_us_p50": (139.17399883212056, "us"),
                               "point_query_samples": (30000.0, "count"),
                               "wall_s": (2.040440300886985, "s")}


def test_the_report_gives_each_sides_median_of_the_workloads_own_metrics(ab_pairs):
    runs = []
    for i, (p50_parent, p50_change) in enumerate([(40.0, 6.0), (44.0, 5.0), (39.0, 7.0)]):
        parent, change = ab_pairs.parse(_RUN), ab_pairs.parse(_RUN)
        parent["metric_lines"]["point_query_us_p50"] = (p50_parent, "us")
        change["metric_lines"]["point_query_us_p50"] = (p50_change, "us")
        runs.append({"seed": i, "first": "parent", "parent": parent, "change": change})
    metrics = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}]
    lines = ab_pairs.report(metrics, runs)
    assert "point_query_us_p50 (us): median parent 40.0  change 6.0" in lines
    assert not any(line.startswith("wall_s (s): median") for line in lines)


def test_no_gain_holds_where_the_change_fails_a_larger_share(ab_pairs):
    # the change halves every wall time, but fails 3 of its 30488
    # operations in each of the ten pairs where the parent fails none
    runs = []
    for i in range(10):
        parent, change = ab_pairs.parse(_RUN), ab_pairs.parse(_RUN)
        change["metrics"]["wall_s"]["value"] = 1.0
        change["failed"] = 3
        runs.append({"seed": i, "first": "parent", "parent": parent, "change": change})
    metrics = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}]
    wall = ab_pairs.summarize(metrics, runs)["wall_s"]
    assert (wall["wins"], wall["gain"]) == (10, False)
    lines = ab_pairs.report(metrics, runs)
    assert f"failed share: parent 0.0  change {30 / 304880!r}" in lines
    verdicts = [line for line in lines if line.startswith("  change wins")]
    assert len(verdicts) == 1 and "gain not shown" in verdicts[0]
    args = argparse.Namespace(workload="eval-dense", seconds=45.0, first_seed=0)
    data = ab_pairs.record(args, {}, metrics, runs)
    assert data["failed_share"] == {"parent": 0.0, "change": 30 / 304880}
    assert data["metrics"]["wall_s"]["gain"] is False
    # an equal or smaller share keeps the gain
    for r in runs:
        r["parent"]["failed"] = 3
    assert ab_pairs.summarize(metrics, runs)["wall_s"]["gain"] is True
    runs[0]["change"]["failed"] = 0
    assert ab_pairs.summarize(metrics, runs)["wall_s"]["gain"] is True


def test_json_holds_every_pair_and_the_judgement_of_every_metric(ab_pairs, monkeypatch, tmp_path):
    # main with the benchmark runs replaced by the synthetic one: parent
    # walls 2.0, 2.1, 2.2, change walls 1.0, 1.1, 1.2, every other metric tied;
    # the change side is a tree of its own, two source files in it
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    change_root = tmp_path / "change"
    (change_root / "perfbench").mkdir(parents=True)
    (change_root / "perfbench" / "run.py").write_text("")
    shutil.copy(os.path.join(root, "BENCHMARK.json"), change_root)
    (change_root / "src" / "vfie").mkdir(parents=True)
    (change_root / "src" / "vfie" / "b.py").write_bytes(b"B = 2\n")
    (change_root / "src" / "vfie" / "a.py").write_bytes(b"A = 1\n")
    (change_root / "src" / "vfie" / "notes.txt").write_bytes(b"not source\n")
    walls = iter([2.0, 1.0, 1.1, 2.1, 2.2, 1.2])

    def fake_run(side_root, workload, seed, seconds):
        result = ab_pairs.parse(_RUN)
        result["metrics"] = {"setup_s": {"value": 1.5, "unit": "s"},
                             "wall_s": {"value": next(walls), "unit": "s"},
                             "sup_err_geomean": {"value": 3.5e-15, "unit": "abs_err"}}
        return result

    monkeypatch.setattr(ab_pairs, "run", fake_run)
    path = tmp_path / "bench.json"
    ab_pairs.main([root, str(change_root), "--workload", "eval-dense", "--pairs", "3",
                   "--seconds", "45", "--first-seed", "7", "--json", str(path)])
    with open(path) as fh:
        data = json.load(fh)
    assert {k: data[k] for k in ("workload", "seconds", "first_seed")} == {
        "workload": "eval-dense", "seconds": 45.0, "first_seed": 7}
    parent_source = b"".join(source.read_bytes()
                             for source in sorted(pathlib.Path(root, "src", "vfie").glob("*.py")))
    assert data["source_sha256"] == {"parent": hashlib.sha256(parent_source).hexdigest(),
                                     "change": hashlib.sha256(b"A = 1\nB = 2\n").hexdigest()}
    assert [(p["seed"], p["first"]) for p in data["pairs"]] == [
        (7, "parent"), (8, "change"), (9, "parent")]
    pair = data["pairs"][1]
    assert (pair["parent"]["metrics"]["wall_s"], pair["change"]["metrics"]["wall_s"]) == (
        {"value": 2.1, "unit": "s"}, {"value": 1.1, "unit": "s"})
    assert pair["change"]["failed"] == 0
    assert pair["change"]["metric_lines"]["point_query_us_p50"] == [139.17399883212056, "us"]
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        gated = [m["name"] for m in json.load(fh)["end_to_end"]]
    assert list(data["metrics"]) == gated
    wall = data["metrics"]["wall_s"]
    assert {k: wall[k] for k in ("unit", "better", "bound", "wins", "losses", "gain",
                                 "within_bound")} == {
        "unit": "s", "better": "lower", "bound": 0.25, "wins": 3, "losses": 0, "gain": True,
        "within_bound": True}
    assert wall["quartiles"]["parent"] == pytest.approx([2.05, 2.1, 2.15])
    assert wall["quartiles"]["change"] == pytest.approx([1.05, 1.1, 1.15])
    assert wall["median_change"] == pytest.approx(-1.0 / 2.1)
    setup = data["metrics"]["setup_s"]
    assert (setup["wins"], setup["losses"], setup["gain"], setup["median_change"]) == (
        0, 0, False, 0.0)


def test_a_run_carries_its_post_import_setup_beside_setup_s(ab_pairs, monkeypatch):
    calls = []
    monkeypatch.setattr(ab_pairs, "_child", lambda cmd, root, timeout: _RUN)
    monkeypatch.setattr(ab_pairs, "post_import_setup",
                        lambda root, workload, seed: calls.append((root, workload, seed)) or 0.125)
    result = ab_pairs.run("checkout", "eval-dense", 4, 45.0)
    assert calls == [("checkout", "eval-dense", 4)]
    assert result["metric_lines"]["post_import_setup_s"] == (0.125, "s")
    runs = [{"seed": 4, "first": "parent", "parent": result, "change": result}]
    metrics = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}]
    assert "post_import_setup_s (s): median parent 0.125  change 0.125" in ab_pairs.report(
        metrics, runs)


def test_post_import_setup_times_make_alone_after_the_imports(ab_pairs, tmp_path):
    # a checkout whose import takes 0.5 s and whose set-up takes 0.05 s;
    # its make records what it was given and what the child had done by then
    (tmp_path / "src" / "vfie").mkdir(parents=True)
    (tmp_path / "src" / "vfie" / "__init__.py").write_text("import time\ntime.sleep(0.5)\n")
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "accuracy.py").write_text("class Gate:\n    pass\n")
    (tmp_path / "perfbench" / "workloads.py").write_text(
        "import json, os, sys, time\n"
        "def make(name, seed, gate, out_dir):\n"
        "    time.sleep(0.05)\n"
        "    with open('made.json', 'w') as fh:\n"
        "        json.dump([name, seed, 'vfie' in sys.modules, os.path.isdir(out_dir),\n"
        "                   os.environ['OPENBLAS_NUM_THREADS']], fh)\n")
    start = time.perf_counter()
    seconds = ab_pairs.post_import_setup(str(tmp_path), "sweep", 3)
    assert time.perf_counter() - start >= 0.5
    assert 0.05 <= seconds < 0.5
    made = json.loads((tmp_path / "made.json").read_text())
    assert made == ["sweep", 3, True, True, "1"]
