"""tools/eval_costs.py, the per-N table of evaluation's costs: one round
at N = 4 prints one row of four positive times, the cold query's among
them."""

import os
import re
import subprocess
import sys

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "eval_costs.py")


def test_one_round_at_n_4_prints_one_row_of_positive_times():
    done = subprocess.run([sys.executable, TOOL, "--n-list", "4", "--repeats", "1"],
                          capture_output=True, text=True, timeout=300, check=True)
    header, rule, *rows = done.stdout.splitlines()
    assert header == "| N | build, ms | call, ms | query, us | cold query, us |"
    assert rule == "|---|---|---|---|---|"
    (row,) = rows
    N, *times = re.fullmatch(r"\| (\d+) \| (\S+) \| (\S+) \| (\S+) \| (\S+) \|", row).groups()
    assert N == "4" and all(float(t) > 0 for t in times), row
