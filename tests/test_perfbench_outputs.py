"""A few of the benchmark's ops, checked against its recorded reference
outputs, so that output drift fails the test suite and not only the
benchmark. The benchmark's files are loaded read-only."""

import importlib.util
import json
import pathlib

import pytest

import robustcd
import robustcd.cli

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"

OPS = [
    ("cd-grid", "auc-exponential/log/0"),
    ("cd-grid", "auc-normal/log/0"),
    ("cd-grid", "auc-normal/tsallis/0"),              # 201 points in stacks of 15 rows
    ("cd-grid", "expfam-gamma/tsallis/0"),            # empirical K and J for nu
    ("study", "auc-exponential/0"),
    ("study", "two-sample-normal/0"),                 # root and Wald pivots with h0
    ("robustness", "auc-exponential/log/0"),
    ("robustness", "two-sample-normal/tsallis/2"),    # the eps-mixture refit
]


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.bind(robustcd, robustcd.cli)
    return module


@pytest.mark.parametrize("workload,key", OPS)
def test_benchmark_op_matches_reference(workloads, tmp_path, workload, key):
    with open(PERFBENCH / "reference" / f"{workload}.json") as fh:
        reference = json.load(fh)["ops"][key]["outputs"]
    instance = int(key.rsplit("/", 1)[1])
    ops = {k: (run, arg)
           for k, run, arg in workloads.SETUP[workload](str(tmp_path), [instance])}
    run, arg = ops[key]
    assert workloads.compare(run(arg), reference) is None
