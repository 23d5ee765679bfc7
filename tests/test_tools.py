"""The repository's tools, run as their documentation says."""

import collections
import importlib.util
import pathlib
import sys

TOOLS = pathlib.Path(__file__).resolve().parents[1] / "tools"


def test_cd_grid_pass_counts(monkeypatch):
    # One cd-grid pass: 68 stacked solves and, with the second wave of
    # each profile started on the 8-point interpolant, at most 3450 kernel
    # row-passes (3353 measured). The counts do not depend on the machine,
    # so this checks the profile's warm starts without a timing.
    # the tool sets these and prepends its source path; restored after the test
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", sys.path[:])
    spec = importlib.util.spec_from_file_location("kernel_passes", TOOLS / "kernel_passes.py")
    kernel_passes = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(kernel_passes)
    counts, mismatched = kernel_passes.count_passes("cd-grid")
    assert mismatched == []
    total = sum(counts.values(), collections.Counter())
    assert sum(total[kind] for kind in kernel_passes.SOLVES) == 68
    assert sum(total[order] for order in kernel_passes.ORDERS) <= 3450
