"""tools/code_lines.py, the count by which simplicity is judged: on a
small package of known counts it leaves out blank, comment-only and
docstring lines, and on this checkout it prints one line per module of
src/vfie and their total."""

import os
import re
import subprocess
import sys

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "code_lines.py")

SAMPLE = '''"""A module docstring
over two lines."""

# a comment-only line
import math  # a trailing comment


class Shape:
    """A class docstring."""

    def area(self):
        """A function docstring."""
        text = """a string that is
        not a docstring"""
        return (math.pi
                * 2)
'''


def run(*args):
    done = subprocess.run([sys.executable, TOOL, *args], capture_output=True, text=True,
                          timeout=300, check=True)
    return done.stdout.splitlines()


def test_a_package_of_known_counts(tmp_path):
    package = tmp_path / "src" / "vfie"
    package.mkdir(parents=True)
    (package / "shape.py").write_text(SAMPLE, encoding="utf-8")
    (package / "__init__.py").write_text("\n# only a comment\n", encoding="utf-8")
    # import, class, def, the two lines of the string, the two of the return
    assert run(str(tmp_path)) == ["__init__.py 0", "shape.py 7", "total 7"]


def test_this_checkout_prints_each_module_and_the_total():
    *modules, total = run()
    counts = [re.fullmatch(r"(\S+\.py) (\d+)", line) for line in modules]
    assert all(counts), modules
    names = [m.group(1) for m in counts]
    assert names == sorted(names) and {"approx.py", "solver.py", "transforms.py"} <= set(names)
    assert total == f"total {sum(int(m.group(2)) for m in counts)}"
