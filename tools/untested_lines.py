"""Statements of the robustcd package that a run never executes.

Runs pytest with the given arguments, or one pass of a benchmark workload
(``--workload <name>``, the ops of ``tools/kernel_passes.py``, which loads
``perfbench/workloads.py`` read-only), in this process, and prints for each
module of ``src/robustcd`` the first line of every statement that the run
never executed, then the count of such statements against all of the
module's, and the totals. A statement is any statement but a ``def``, a
``class``, a ``global``, a ``nonlocal`` and a docstring; it ran where a line
of its own ran (for a compound statement, a line of its header). Lines are
recorded with ``sys.settrace`` alone, so no coverage package is needed; the
tracer is set before the run imports robustcd, and only the package's own
frames are traced line by line.

Run from the repository root:
``python tools/untested_lines.py -q -p no:cacheprovider tests`` or
``python tools/untested_lines.py --workload {cd-grid,study,robustness}``.
"""

from __future__ import annotations

import ast
import collections
import importlib.util
import os
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

from code_size import _docstring_lines  # noqa: E402

PACKAGE = ROOT / "src" / "robustcd"
# statements that compile to no code of their own or are not run as a step
_NOT_COUNTED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Global, ast.Nonlocal)


def statements(source):
    """{first line: the lines whose execution runs it} of each counted
    statement of a module's source."""
    tree = ast.parse(source)
    docstrings = _docstring_lines(tree)
    out = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, _NOT_COUNTED) \
                or node.lineno in docstrings:
            continue
        # a compound statement's own lines are its header's
        inner = [child.lineno for field in ("body", "orelse", "finalbody", "handlers", "cases")
                 for child in getattr(node, field, ())]
        last = min(inner, default=node.end_lineno + 1) - 1
        out[node.lineno] = range(node.lineno, max(last, node.lineno) + 1)
    return out


def unrun(package, run):
    """{module name: (first lines of its statements never executed, count
    of its statements)} of each module of ``package`` while ``run()`` runs."""
    modules = {str(path.resolve()): path.stem for path in sorted(pathlib.Path(package).glob("*.py"))}
    executed = collections.defaultdict(set)
    known = {}

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in known:
            known[name] = os.path.realpath(name) in modules
        return local if known[name] else None

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        run()
    finally:
        sys.settrace(previous)
    ran = collections.defaultdict(set)
    for name, lines in executed.items():
        ran[modules[os.path.realpath(name)]] |= lines
    report = {}
    for path, module in modules.items():
        counted = statements(pathlib.Path(path).read_text())
        report[module] = (sorted(first for first, own in counted.items()
                                 if ran[module].isdisjoint(own)), len(counted))
    return report


def _workload_pass(workload):
    """One pass of the workload's ops, as ``tools/kernel_passes.py`` runs
    them (loaded here, so that robustcd is imported under the tracer)."""
    spec = importlib.util.spec_from_file_location("kernel_passes",
                                                  ROOT / "tools" / "kernel_passes.py")
    kernel_passes = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(kernel_passes)
    with tempfile.TemporaryDirectory() as workdir:
        for key, run, check in kernel_passes._ops(workload, workdir):
            if not check(run()):
                print(f"{key}: outputs differ from the reference", file=sys.stderr)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--workload"] and len(argv) == 2:
        run = lambda: _workload_pass(argv[1])      # noqa: E731
    else:
        import pytest
        sys.path.insert(0, str(ROOT / "src"))
        run = lambda: pytest.main(argv)             # noqa: E731
    report = unrun(PACKAGE, run)
    total = never = 0
    for module, (lines, counted) in report.items():
        total, never = total + counted, never + len(lines)
        print(f"{module}: {len(lines)} of {counted} statements never run"
              + (f": lines {', '.join(map(str, lines))}" if lines else ""))
    print(f"total: {never} of {total} statements never run")


if __name__ == "__main__":
    main()
