"""Kernel row-passes and stacked solves of one pass of a benchmark workload.

Runs every op of one pass of a ``perfbench`` workload, or one criterion-2
study of the acceptance suite, in this process, with
``robustcd.scoring._kernel``, ``_Objective.solve`` and every model's
``validate_data`` wrapped, and prints for each op and in total the kernel
row-passes by ``order`` (0: terms, 1: with gradients, 2: with the
Hessian), then the stacked solves by the kind of objective (free,
constrained at a psi, free eps-mixture, constrained eps-mixture), then the
``validate_data`` calls, then the solver's rounds: the stacked objective
evaluations (``_Objective.__call__(z, rows)``) and the rows they carry,
and the stacked Newton-step solves (``_newton_steps``) and their rows,
then the solver's mechanism: the Newton steps whose Hessian's spectrum
``_newton_steps`` shifts, the steps that ``_bounded`` cuts to 1 + ||z||,
and the evaluated rows that fail alone (a one-row objective call that
raises, most often a trial point whose score overflows), then the
objects built: ``scoring.Fit`` objects and checked data
(``models._Checked``: a checked dataset, a stack or the rows taken from
one), then the kernel calls over the row cap: calls on more than one row
whose rows x n x d exceeds ``scoring.STACK_ELEMENTS``, n observations and
d parameters. A kernel call on one dataset is one row-pass and a call on
a stack one per row; a solve is one however many rows its stack holds,
so a study's free fits are one solve per kind of rule, its Tsallis rows
carrying each method's gamma (``simulate._fits_by_rule``); data a model
has checked are not validated again. Then come the points each
``confidence.profile`` solved: its Chebyshev-Lobatto nodes, or its grid
where it was solved point by point. Last come the calls of the standard
normal CDF and quantile (``models.ndtr`` and ``models.ndtri``, wherever
the package calls them) and the elements they were given, and those of
log Gamma, digamma and trigamma (``expfam.gammaln``, ``expfam.digamma``
and ``expfam.trigamma``, which the gamma and beta families call). The
counts do not depend on the machine, so they compare two versions of the
program where wall times are too noisy to. Last come digests of the
outputs: for each op the SHA-256 of its outputs as JSON with sorted keys,
whose floats are written exactly, and for the whole pass that of the ops'
digests by key. So the tool's reports from two checkouts diff every count
and every output bit for bit. Unlike the counts, the digests may differ
between machines, whose BLAS and libm may round differently.

Run from the repository root:
``python tools/kernel_passes.py --workload {cd-grid,study,robustness}``.
The benchmark's ``perfbench/workloads.py`` is loaded read-only, and each op's
outputs are checked against its recorded reference. ``--workload
criterion-2-clean`` and ``criterion-2-contaminated`` run the acceptance
suite's criterion-2 studies (2000 replicates of n = 10 + 20, the robust and
the log root CD) as one op, with no reference, and print their coverages.
"""

from __future__ import annotations

import os

# one BLAS thread, as the benchmark runs, so that round-off and with it the
# solvers' iteration counts are those of a benchmark run
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import collections
import hashlib
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
from robustcd import confidence, expfam, models, robustness, scoring, simulate  # noqa: E402
from robustcd.errors import DomainError, NumericsError  # noqa: E402

ORDERS = (0, 1, 2)
SOLVES = ("free", "constrained", "free-mixture", "constrained-mixture")
VALIDATIONS = "validate_data"
# (stacked calls, rows they carry) of the objective and of the Newton steps
ROUNDS = ("evaluations", "evaluated rows", "step solves", "stepped rows")
MECHANISM = ("shifted steps", "bounded steps", "rows failing alone")
# the criterion-2 designs of tests/test_acceptance.py, by their contamination
CRITERION_2 = {"criterion-2-clean": None,
               "criterion-2-contaminated": simulate.Contamination(0, -1, -7.0)}
OBJECTS = ("Fit", "_Checked")
OVERSIZED = "kernel calls over the row cap"
NODES = "profile nodes"
NORMAL = ("ndtr calls", "ndtr elements", "ndtri calls", "ndtri elements")
SPECIAL = ("gammaln calls", "gammaln elements", "digamma calls", "digamma elements",
           "trigamma calls", "trigamma elements")


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


def _criterion_2(contamination):
    """The criterion-2 study: its coverages at 0.95 by method."""
    design = simulate.SimDesign(
        model="two-sample-normal", theta=(2.0, 0.0, 1.0, 1.0), sizes=(10, 20), n_reps=2000,
        seed=20250801, methods=(simulate.MethodSpec("tsallis", "root", None),
                                simulate.MethodSpec("log", "root")),
        levels=(0.95,), h0=simulate.H0Spec(2.0, "less"), contamination=contamination)
    report = simulate.run_study(design)
    return {label: res.coverage()[0.95][0] for label, res in report.results.items()}


def _ops(workload, workdir):
    """(key, run, check) of each op of one pass of the workload: check
    takes the op's outputs and says whether they are within its reference,
    or prints them where there is none."""
    if workload in CRITERION_2:
        def check(outputs):
            print(f"{workload} coverages at 0.95: {outputs}")
            return True
        return [("run_study", lambda: _criterion_2(CRITERION_2[workload]), check)]
    workloads = _workloads()
    with open(ROOT / "perfbench" / "reference" / f"{workload}.json") as fh:
        reference = json.load(fh)["ops"]
    instances = list(range(workloads.PASS_INSTANCES[workload]))
    return [(key, lambda run=run, arg=arg: run(arg),
             lambda outputs, key=key: workloads.compare(outputs, reference[key]["outputs"]) is None)
            for key, run, arg in workloads.SETUP[workload](workdir, instances)]


def _shifted(H):
    """The Hessians of a stack whose spectrum ``_newton_steps`` shifts."""
    w = np.linalg.eigvalsh(scoring._sym(H))
    return np.count_nonzero(w[..., 0] <= 1e-8 * np.maximum(1.0, np.abs(w[..., -1])))


def digest(outputs):
    """The SHA-256 of outputs as JSON with sorted keys: one digit of one
    float changes it."""
    return hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()


def count_passes(workload):
    """{op key: Counter of row-passes by order, of stacked solves by kind,
    of validate_data calls, of solver rounds and mechanism, of objects
    built, of kernel calls over the row cap, of profile nodes solved and of
    the calls and elements of the normal CDF and quantile and of log Gamma,
    digamma and trigamma} over one pass of the workload, {op key:
    ``digest`` of its outputs}, and the keys of the ops whose outputs left
    their reference."""
    counts, digests, current = {}, {}, collections.Counter()
    kernel, solve = scoring._kernel, scoring._Objective.solve
    evaluate, newton_steps = scoring._Objective.__call__, scoring._newton_steps
    bounded = scoring._bounded
    fit_init, checked_new = scoring.Fit.__init__, vars(models._Checked)["__new__"]
    profile = confidence.profile

    def counted(rule, data, theta, order=1):
        rows = len(theta) if np.ndim(theta) == 2 else 1
        current[order] += rows
        if rows > 1:
            current[OVERSIZED] += (rows * rule.model.nobs(data) * np.shape(theta)[-1]
                                   > scoring.STACK_ELEMENTS)
        return kernel(rule, data, theta, order)

    def counted_solve(objective, z0):
        current[_solve_kind(objective)] += 1
        return solve(objective, z0)

    def counted_evaluation(objective, z, rows):
        current.update({"evaluations": 1, "evaluated rows": len(z)})
        try:
            return evaluate(objective, z, rows)
        except (DomainError, NumericsError):
            current["rows failing alone"] += len(z) == 1
            raise

    def counted_steps(H, g):
        current.update({"step solves": 1, "stepped rows": len(g), "shifted steps": _shifted(H)})
        return newton_steps(H, g)

    def counted_bound(dz, z):
        out = bounded(dz, z)
        current["bounded steps"] += np.count_nonzero(scoring._norm(dz) > out[1])
        return out

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

    def counted_function(name, original):
        def function(x):
            current.update({f"{name} calls": 1, f"{name} elements": np.size(x)})
            return original(x)
        return function

    def counted_validation(original):
        def validate_data(model, data):
            current[VALIDATIONS] += 1
            return original(model, data)
        return validate_data

    validators = _validators()
    # each module binds its own name for the functions it imports
    functions = [(module, name, vars(module)[name])
                 for module in (models, confidence, robustness, simulate)
                 for name in ("ndtr", "ndtri") if name in vars(module)]
    functions += [(expfam, name, vars(expfam)[name])
                  for name in ("gammaln", "digamma", "trigamma")]
    scoring._kernel = counted
    scoring._Objective.solve = counted_solve
    scoring._Objective.__call__ = counted_evaluation
    scoring._newton_steps, scoring._bounded = counted_steps, counted_bound
    scoring.Fit.__init__, models._Checked.__new__ = counted_fit, staticmethod(counted_checked)
    confidence.profile = counted_profile
    for cls, original in validators:
        cls.validate_data = counted_validation(original)
    for module, name, original in functions:
        setattr(module, name, counted_function(name, original))
    mismatched = []
    try:
        with tempfile.TemporaryDirectory() as workdir:
            for key, run, check in _ops(workload, workdir):
                current.clear()
                outputs = run()
                counts[key], digests[key] = collections.Counter(current), digest(outputs)
                if not check(outputs):
                    mismatched.append(key)
    finally:
        scoring._kernel = kernel
        scoring._Objective.solve = solve
        scoring._Objective.__call__ = evaluate
        scoring._newton_steps, scoring._bounded = newton_steps, bounded
        scoring.Fit.__init__, models._Checked.__new__ = fit_init, checked_new
        confidence.profile = profile
        for cls, original in validators:
            cls.validate_data = original
        for module, name, original in functions:
            setattr(module, name, original)
    return counts, digests, mismatched


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
    parser.add_argument("--workload", required=True,
                        choices=("cd-grid", "study", "robustness", *CRITERION_2))
    args = parser.parse_args(argv)
    counts, digests, mismatched = count_passes(args.workload)
    _table(counts, ORDERS, [f"order {o}" for o in ORDERS])
    print("\nstacked solves")
    _table(counts, SOLVES, SOLVES)
    print("\nvalidations")
    _table(counts, (VALIDATIONS,), (VALIDATIONS,))
    print("\nsolver rounds: stacked calls and the rows they carry")
    _table(counts, ROUNDS, ROUNDS, summed=False)
    print("\nsolver mechanism: shifted and bounded Newton steps, rows failing alone")
    _table(counts, MECHANISM, MECHANISM, summed=False)
    print("\nobjects built")
    _table(counts, OBJECTS, OBJECTS, summed=False)
    print("\nkernel calls over the row cap")
    _table(counts, (OVERSIZED,), (OVERSIZED,), summed=False)
    print("\nprofile nodes solved")
    _table(counts, (NODES,), (NODES,), summed=False)
    print("\nstandard normal CDF and quantile: calls and elements")
    _table(counts, NORMAL, NORMAL, summed=False)
    print("\nlog Gamma, digamma and trigamma: calls and elements")
    _table(counts, SPECIAL, SPECIAL, summed=False)
    print("\noutputs: SHA-256 digests, the total's of the ops' digests by key")
    for key, value in [*digests.items(), ("total", digest(digests))]:
        print(f"{key:<40}{value:>66}")
    for key in mismatched:
        print(f"outputs differ from the reference: {key}", file=sys.stderr)
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
