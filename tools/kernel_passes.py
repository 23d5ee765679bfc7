"""Kernel row-passes and stacked solves of one pass of a benchmark workload.

Runs every op of one pass of a ``perfbench`` workload in this process, with
``robustcd.scoring._kernel``, ``_Objective.solve`` and every model's
``validate_data`` wrapped, and prints for each op and in total the kernel
row-passes by ``order`` (0: terms, 1: with gradients, 2: with the
Hessian), then the stacked solves by the kind of objective (free,
constrained at a psi, free eps-mixture, constrained eps-mixture), then the
``validate_data`` calls, then the solver's rounds: the stacked objective
evaluations (``_Objective.__call__``) and the rows they carry, and the
stacked Newton-step solves (``_newton_steps``) and their rows, then the
objects built: ``scoring.Fit`` objects and checked data
(``models._Checked``: a checked dataset, a stack or the rows taken from
one). A kernel call on one dataset is one row-pass and a call on a stack
one per row; a solve is one however many rows its stack holds; data a
model has checked are not validated again. Last come the points each
``confidence.profile`` solved: its Chebyshev-Lobatto nodes, or its grid
where it was solved point by point. The counts do not depend on the machine, so they
compare two versions of the program where wall times are too noisy to.

Run from the repository root:
``python tools/kernel_passes.py --workload {cd-grid,study,robustness}``.
The benchmark's ``perfbench/workloads.py`` is loaded read-only, and each op's
outputs are checked against its recorded reference.
"""

from __future__ import annotations

import os

# one BLAS thread, as the benchmark runs, so that round-off and with it the
# solvers' iteration counts are those of a benchmark run
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import collections
import importlib.util
import json
import pathlib
import sys
import tempfile

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import robustcd  # noqa: E402
import robustcd.cli  # noqa: E402
from robustcd import confidence, expfam, models, scoring  # noqa: E402

ORDERS = (0, 1, 2)
SOLVES = ("free", "constrained", "free-mixture", "constrained-mixture")
VALIDATIONS = "validate_data"
# (stacked calls, rows they carry) of the objective and of the Newton steps
ROUNDS = ("evaluations", "evaluated rows", "step solves", "stepped rows")
OBJECTS = ("Fit", "_Checked")
NODES = "profile nodes"


def _validators():
    """(class, its validate_data) for each model class that defines one."""
    return [(cls, vars(cls)["validate_data"]) for module in (models, expfam)
            for cls in vars(module).values()
            if isinstance(cls, type) and cls.__module__ == module.__name__
            and "validate_data" in vars(cls) and cls is not models.ModelSpec]


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.bind(robustcd, robustcd.cli)
    return module


def _solve_kind(objective):
    return SOLVES[(objective.psi is not None) + 2 * (objective.mixture is not None)]


def count_passes(workload):
    """{op key: Counter of row-passes by order, of stacked solves by kind,
    of validate_data calls, of solver rounds, of objects built and of
    profile nodes solved} over one
    pass of the workload, and the keys of the ops whose outputs left their
    reference."""
    workloads = _workloads()
    with open(ROOT / "perfbench" / "reference" / f"{workload}.json") as fh:
        reference = json.load(fh)["ops"]
    counts, current = {}, collections.Counter()
    kernel, solve = scoring._kernel, scoring._Objective.solve
    evaluate, newton_steps = scoring._Objective.__call__, scoring._newton_steps
    fit_init, checked_new = scoring.Fit.__init__, vars(models._Checked)["__new__"]
    profile = confidence.profile

    def counted(rule, data, theta, order=1):
        current[order] += len(theta) if np.ndim(theta) == 2 else 1
        return kernel(rule, data, theta, order)

    def counted_solve(objective, z0):
        current[_solve_kind(objective)] += 1
        return solve(objective, z0)

    def counted_evaluation(objective, z):
        current.update({"evaluations": 1, "evaluated rows": len(z)})
        return evaluate(objective, z)

    def counted_steps(H, g):
        current.update({"step solves": 1, "stepped rows": len(g)})
        return newton_steps(H, g)

    def counted_fit(fit, *args, **kwargs):
        current["Fit"] += 1
        fit_init(fit, *args, **kwargs)

    def counted_checked(cls, arrays, model):
        current["_Checked"] += 1
        return checked_new.__func__(cls, arrays, model)

    def counted_profile(*args, **kwargs):
        trace = profile(*args, **kwargs)
        current[NODES] += trace.n_nodes
        return trace

    def counted_validation(original):
        def validate_data(model, data):
            current[VALIDATIONS] += 1
            return original(model, data)
        return validate_data

    validators = _validators()
    scoring._kernel = counted
    scoring._Objective.solve = counted_solve
    scoring._Objective.__call__ = counted_evaluation
    scoring._newton_steps = counted_steps
    scoring.Fit.__init__, models._Checked.__new__ = counted_fit, staticmethod(counted_checked)
    confidence.profile = counted_profile
    for cls, original in validators:
        cls.validate_data = counted_validation(original)
    mismatched = []
    try:
        with tempfile.TemporaryDirectory() as workdir:
            instances = list(range(workloads.PASS_INSTANCES[workload]))
            for key, run, arg in workloads.SETUP[workload](workdir, instances):
                current.clear()
                outputs = run(arg)
                counts[key] = collections.Counter(current)
                if workloads.compare(outputs, reference[key]["outputs"]) is not None:
                    mismatched.append(key)
    finally:
        scoring._kernel = kernel
        scoring._Objective.solve = solve
        scoring._Objective.__call__ = evaluate
        scoring._newton_steps = newton_steps
        scoring.Fit.__init__, models._Checked.__new__ = fit_init, checked_new
        confidence.profile = profile
        for cls, original in validators:
            cls.validate_data = original
    return counts, mismatched


def _table(counts, columns, heads, summed=True):
    """Print, for each op and in total, its counts in columns and, where
    ``summed``, their sum."""
    widths = [max(10, len(h) + 1) for h in heads]
    print(f"{'op':<40}" + "".join(f"{h:>{w}}" for h, w in zip(heads, widths))
          + (f"{'all':>10}" if summed else ""))
    total = sum(counts.values(), collections.Counter())
    for key, c in [*counts.items(), ("total", total)]:
        print(f"{key:<40}" + "".join(f"{c[k]:>{w}}" for k, w in zip(columns, widths))
              + (f"{sum(c[k] for k in columns):>10}" if summed else ""))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("cd-grid", "study", "robustness"))
    args = parser.parse_args(argv)
    counts, mismatched = count_passes(args.workload)
    _table(counts, ORDERS, [f"order {o}" for o in ORDERS])
    print("\nstacked solves")
    _table(counts, SOLVES, SOLVES)
    print("\nvalidations")
    _table(counts, (VALIDATIONS,), (VALIDATIONS,))
    print("\nsolver rounds: stacked calls and the rows they carry")
    _table(counts, ROUNDS, ROUNDS, summed=False)
    print("\nobjects built")
    _table(counts, OBJECTS, OBJECTS, summed=False)
    print("\nprofile nodes solved")
    _table(counts, (NODES,), (NODES,), summed=False)
    for key in mismatched:
        print(f"outputs differ from the reference: {key}", file=sys.stderr)
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
