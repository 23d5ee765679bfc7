"""The repository's tools, run as their documentation says."""

import collections
import importlib.util
import pathlib
import sys

import pytest

TOOLS = pathlib.Path(__file__).resolve().parents[1] / "tools"


@pytest.mark.parametrize("workload, solves, row_passes", [
    ("cd-grid", 68, 3450),      # 3353 measured
    ("study", 60, 3780),        # 3669 measured
    ("robustness", 96, 2670),   # 2590 measured
], ids=["cd-grid", "study", "robustness"])
def test_cd_grid_pass_counts(monkeypatch, workload, solves, row_passes):
    # One pass of each workload: its stacked solves exactly, and a bound on
    # its kernel row-passes a little above those measured. On cd-grid the
    # second wave of each profile starts on the 8-point interpolant; on
    # robustness one fit's diagnostics share their solves. The counts do
    # not depend on the machine, so this checks the warm starts and the
    # shared solves without a timing.
    # the tool sets these and prepends its source path; restored after the test
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", sys.path[:])
    spec = importlib.util.spec_from_file_location("kernel_passes", TOOLS / "kernel_passes.py")
    kernel_passes = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(kernel_passes)
    counts, mismatched = kernel_passes.count_passes(workload)
    assert mismatched == []
    total = sum(counts.values(), collections.Counter())
    assert sum(total[kind] for kind in kernel_passes.SOLVES) == solves
    assert sum(total[order] for order in kernel_passes.ORDERS) <= row_passes
