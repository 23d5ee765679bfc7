"""Code size of the robustcd package, per module.

Prints, for each module of ``src/robustcd``, its code lines (non-blank
lines that are neither a comment nor part of a docstring) and the number
of function parameters with a default value, then the totals.

Run from the repository root: ``python tools/code_size.py [package dir]``.
"""

from __future__ import annotations

import ast
import pathlib
import sys


def _docstring_lines(tree):
    """Line numbers spanned by the docstrings of the module, its classes and
    its functions."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source, tree):
    """Non-blank lines that are neither a comment nor in a docstring."""
    docs = _docstring_lines(tree)
    return sum(1 for i, line in enumerate(source.splitlines(), start=1)
               if line.strip() and not line.strip().startswith("#") and i not in docs)


def defaults(tree):
    """Function parameters with a default value, keyword-only ones included."""
    return sum(len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
               for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))


def main(package=pathlib.Path(__file__).resolve().parent.parent / "src" / "robustcd"):
    total_lines = total_defaults = 0
    print(f"{'module':<16}{'code lines':>12}{'defaults':>10}")
    for path in sorted(pathlib.Path(package).glob("*.py")):
        source = path.read_text()
        tree = ast.parse(source)
        n_lines, n_defaults = code_lines(source, tree), defaults(tree)
        total_lines += n_lines
        total_defaults += n_defaults
        print(f"{path.stem:<16}{n_lines:>12}{n_defaults:>10}")
    print(f"{'total':<16}{total_lines:>12}{total_defaults:>10}")


if __name__ == "__main__":
    main(*sys.argv[1:])
