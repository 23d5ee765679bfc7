"""The repository's tools, run as their documentation says."""

import collections
import importlib.util
import math
import pathlib
import sys
import textwrap

import pytest

TOOLS = pathlib.Path(__file__).resolve().parents[1] / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_size_counts(tmp_path, capsys):
    # docstrings, comments and blank lines are not code; keyword-only and
    # lambda defaults are defaults; the total is the sum of the rows
    (tmp_path / "a.py").write_text(textwrap.dedent('''\
        """A module docstring
        over two lines."""

        # a comment
        import os


        def f(x, y=1, *, z=2, w):
            """A function docstring."""
            g = lambda q=3: q    # a trailing comment leaves a code line
            return x


        class C:
            """A class docstring."""

            def m(self, a=None):
                return a
        '''))
    (tmp_path / "b.py").write_text("x = 1\n")
    _load("code_size").main(tmp_path)
    rows = {name: (int(lines), int(defaults)) for name, lines, defaults
            in (line.split() for line in capsys.readouterr().out.splitlines()[1:])}
    assert rows == {"a": (7, 4), "b": (1, 0), "total": (8, 4)}


def test_output_digest_reads_every_bit(monkeypatch):
    # two outputs that differ in one float's last bit have different
    # digests, and the order of their keys does not matter; no digest is
    # pinned, since unlike the counts they may differ between machines
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", sys.path[:])
    digest = _load("kernel_passes").digest
    x = 0.1
    assert digest({"a": x, "b": [1, "c"]}) == digest({"b": [1, "c"], "a": x})
    assert digest({"a": x, "b": [1, "c"]}) != digest({"a": math.nextafter(x, 1.0), "b": [1, "c"]})


def _pass_counts(monkeypatch, workload):
    """The tool's counts over one pass of the workload, in total."""
    # the tool sets these and prepends its source path; restored after the test
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", sys.path[:])
    kernel_passes = _load("kernel_passes")
    counts, _, mismatched = kernel_passes.count_passes(workload)
    assert mismatched == []
    return kernel_passes, sum(counts.values(), collections.Counter())


@pytest.mark.parametrize(
    "workload, solves, row_passes, validations, rounds, mechanism, objects, nodes", [
        ("cd-grid", 39, 700, 10, (92, 592, 65, 413), (0, 0, 0), (10, 126), 314),  # 660 measured
        ("study", 48, 3660, 372, (218, 3555, 170, 2637), (1, 16, 0), (0, 390), 0),  # 3555
        ("robustness", 96, 2670, 288, (300, 1301, 204, 871), (0, 0, 0), (24, 684), 0),  # 2590
    ], ids=["cd-grid", "study", "robustness"])
def test_workload_pass_counts(monkeypatch, workload, solves, row_passes, validations, rounds,
                              mechanism, objects, nodes):
    # One pass of each workload: its stacked solves and its validate_data
    # calls exactly, and a bound on its kernel row-passes a little above
    # those measured. On cd-grid each profile solves the nested
    # Chebyshev-Lobatto levels 9, 17 and 33 (17 alone for the log-score
    # regression), 314 nodes in all; on robustness one fit's diagnostics share
    # their solves; checked data, a stack among them, are never validated
    # again. The solver's rounds are pinned exactly: its stacked objective
    # evaluations and Newton-step solves, and the rows each carries, so a
    # change to the solver takes the same rounds with the same stacks. So
    # are its shifted Newton steps, the steps cut to 1 + ||z|| and the rows
    # that fail alone: with the cut, no trial point of a study pass
    # overflows (2 shifted steps cost 32 rows failing alone without it).
    # The Fit objects and the checked data made are pinned too: a stack's
    # fits and pivots are arrays, so a study builds no Fit per replicate.
    # A study's free fits are one solve per kind of rule: its two Tsallis
    # methods (two gammas) share one, 60 solves and 297 objective calls a
    # pass when each method solved its own.
    # No kernel call carries more rows than the row cap allows.
    # The counts do not depend on the machine, so this checks the warm
    # starts, the shared solves, the checks and the rounds without a timing.
    kernel_passes, total = _pass_counts(monkeypatch, workload)
    assert sum(total[kind] for kind in kernel_passes.SOLVES) == solves
    assert sum(total[order] for order in kernel_passes.ORDERS) <= row_passes
    assert total[kernel_passes.VALIDATIONS] == validations
    assert tuple(total[key] for key in kernel_passes.ROUNDS) == rounds
    assert tuple(total[key] for key in kernel_passes.MECHANISM) == mechanism
    assert tuple(total[key] for key in kernel_passes.OBJECTS) == objects
    assert total[kernel_passes.OVERSIZED] == 0
    assert total[kernel_passes.NODES] == nodes


@pytest.mark.parametrize("workload, normal", [
    ("cd-grid", (118, 4098, 94, 490)),
    ("study", (36, 540, 48, 48)),
    ("robustness", (96, 432, 0, 0)),
])
def test_workload_normal_counts(monkeypatch, workload, normal):
    # The calls of the standard normal CDF and quantile in one pass, and the
    # elements they are given. build_cd takes Phi of its pivot once and of
    # the raw pivot only where the repair moved it: a cd-grid pass gave
    # 12138 elements to ndtr when it took Phi of both pivots on every point.
    # run_study takes its p-values in one call per method: a study pass made
    # 540 calls of one element when it took one per replicate.
    kernel_passes, total = _pass_counts(monkeypatch, workload)
    assert tuple(total[key] for key in kernel_passes.NORMAL) == normal


@pytest.mark.parametrize("workload, special", [
    ("cd-grid", (27, 161, 27, 161, 27, 161)),
    ("study", (0,) * 6),
    ("robustness", (0,) * 6),
])
def test_workload_special_function_counts(monkeypatch, workload, special):
    # The calls of log Gamma, digamma and trigamma in one pass, and the
    # elements they are given: only cd-grid's gamma model needs them. The
    # gamma family remembers its cumulant and its derivatives at the last
    # two thetas; without that a cd-grid pass made (50, 332, 76, 506, 50,
    # 332) calls and elements.
    kernel_passes, total = _pass_counts(monkeypatch, workload)
    assert tuple(total[key] for key in kernel_passes.SPECIAL) == special


@pytest.mark.slow
@pytest.mark.parametrize("workload, rounds, mechanism", [
    ("criterion-2-clean", (43, 31779, 38, 23626), (90, 155, 0)),
    ("criterion-2-contaminated", (42, 32255, 37, 23692), (122, 269, 0)),
])
def test_criterion_2_counts(monkeypatch, workload, rounds, mechanism):
    # The paper-scale studies of criterion 2, 2000 replicates each: the
    # solver's rounds, and its shifted Newton steps, the steps cut to
    # 1 + ||z|| and the rows that fail alone. Without the cut, the long
    # shifted steps sent trial points past where the score overflows, and
    # each such round halved its stack until 1247 rows (clean) and 1781
    # rows (contaminated) failed alone, in 7020 and 9567 objective calls.
    # The 2000 replicates are one stack, solved in one solve per step of
    # the study, and the objective passes over at most the row cap at once:
    # no kernel call carries more.
    kernel_passes, total = _pass_counts(monkeypatch, workload)
    assert tuple(total[key] for key in kernel_passes.ROUNDS) == rounds
    assert tuple(total[key] for key in kernel_passes.MECHANISM) == mechanism
    assert total[kernel_passes.OVERSIZED] == 0


def test_untested_lines_reports_the_statements_a_run_skips(tmp_path, monkeypatch):
    # a toy module of two functions: a run that imports it and calls one
    # reports every statement of the other and none of its own, a statement
    # over two lines and the module's own statements among them
    (tmp_path / "toy.py").write_text(textwrap.dedent('''\
        """A toy module."""
        SCALE = 2


        def called(x):
            """Doubles x."""
            y = (x
                 * SCALE)
            return y


        def skipped(x):
            z = x + 1
            for _ in range(2):
                z += 1
            return z
        '''))
    monkeypatch.setattr(sys, "path", [str(tmp_path), *sys.path])
    monkeypatch.delitem(sys.modules, "toy", raising=False)
    report = _load("untested_lines").unrun(tmp_path, lambda: __import__("toy").called(3))
    assert report == {"toy": ([13, 14, 15, 16], 7)}
