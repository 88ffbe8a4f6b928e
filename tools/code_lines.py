"""Code lines of each module of a vfie checkout, and their total:

    python3 tools/code_lines.py [ROOT]

ROOT is the source checkout whose ./src/vfie is counted (default: the
one holding this script), so that two checkouts can be set side by side.
A code line is a line that holds a token of code: blank lines,
comment-only lines and the lines of docstrings (the first statement of a
module, class or function, when it is a string) are left out, and a
statement over several lines counts each of them.  The output is one
line per module, `<path> <count>` with the path relative to src/vfie in
sorted order, then `total <count>`.
"""

import ast
import io
import os
import sys
import tokenize

# tokens that make no line a code line on their own
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """The line numbers of every docstring in a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines of one module's source."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv):
    root = argv[0] if argv else os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
    package = os.path.join(root, "src", "vfie")
    paths = sorted(os.path.relpath(os.path.join(folder, name), package)
                   for folder, _, names in os.walk(package)
                   for name in names if name.endswith(".py"))
    total = 0
    for path in paths:
        with open(os.path.join(package, path), encoding="utf-8") as f:
            count = code_lines(f.read())
        print(f"{path} {count}")
        total += count
    print(f"total {total}")


if __name__ == "__main__":
    main(sys.argv[1:])
