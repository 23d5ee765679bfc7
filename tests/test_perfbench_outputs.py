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

# every cd-grid op: each model's stacked profile, under both rules
OPS = [
    ("cd-grid", f"{model}/{rule}/0")
    for model in ("two-sample-normal", "auc-exponential", "auc-normal",
                  "linear-regression", "expfam-gamma")   # expfam: empirical K and J for nu
    for rule in ("log", "tsallis")
] + [
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
