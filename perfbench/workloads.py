"""Workloads of the robustcd benchmark.

An op is one unit of user work on inputs drawn from a fixed random stream.
A workload's *pass* is a fixed list of ops: every combination of the
workload (model x rule, design, or dataset x rule) on each of its first
instances. The outputs of every op at the reference commit are stored under
``perfbench/reference``, and each op a run makes is checked against them.

Every run executes whole passes, so every run does the same work; the run
seed sets the order of the ops in the pass. Inputs are not redrawn per
seed because an op's cost depends on its exact bytes: the solver's line
search stalls on round-off, and reordering the rows of one dataset moves
the gradient-evaluation count of one op by up to ten times. Runs on
different inputs would measure which inputs they drew.

Ops call robustcd through the package and module attributes (``rc.fit``,
``rc_cli.main``), never through names bound here, so the tracer's wrappers
see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

# robustcd is imported by run.py after the thread pools are pinned; these
# are filled in by ``bind``.
rc = None
rc_cli = None


def bind(package, cli_module):
    global rc, rc_cli
    rc, rc_cli = package, cli_module


class OpFailed(Exception):
    """An op that did not produce its outputs; the message is the reason."""


class CliExit(OpFailed):
    """The CLI exited with a non-zero status."""


# Instances per pass. At the reference commit, on a 2-core x86-64 box, a
# cd-grid pass takes about 22 s and the others about 10 s, so a 20 s run
# is one cd-grid pass or two of the others.
PASS_INSTANCES = {"cd-grid": 1, "study": 6, "robustness": 4}

# Instances of the pass a --trace 1 run executes: a fixed amount of work,
# so that two traced passes can be compared count for count.
TRACE_INSTANCES = {"cd-grid": 1, "study": 3, "robustness": 2}

# Root of every input stream; the second entry tells the workloads apart.
STREAM = 20251017

LAM2 = 2.0 / 3.0
LAM1 = 0.85 * LAM2 / 0.15


def ordered(ops, seed):
    """The ops of a pass in the run seed's order."""
    perm = np.random.default_rng([STREAM, 99, seed]).permutation(len(ops))
    return [ops[i] for i in perm]


# ---------------------------------------------------------------------------
# cd-grid: one `robustcd cd` analysis per op
# ---------------------------------------------------------------------------

# (name, --model argument, h0, evidence interval); the interest values are
# those of the generating parameters below.
CD_MODELS = (
    ("two-sample-normal", "two-sample-normal", 2.0, (1.9, 2.1)),
    ("auc-exponential", "auc-exponential", 0.85, (0.83, 0.87)),
    ("auc-normal", "auc-normal", 0.76, (0.74, 0.78)),
    ("linear-regression", "linear-regression", 0.5, (0.45, 0.55)),
    ("expfam-gamma", "expfam:", 2.0, (1.8, 2.2)),
)
CD_RULES = (("log", ("--rule", "log")),
            ("tsallis", ("--rule", "tsallis", "--gamma", "1.23")))
CD_SIZES = (350, 700)         # two-sample models
CD_N = 1000                   # regression and gamma


def _write_csv(path, header, columns):
    rows = zip(*columns)
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(repr(float(v)) for v in row) + "\n" for row in rows)


def _cd_sample(model_idx, instance):
    """(header, columns) of one cd-grid input file."""
    rng = np.random.default_rng([STREAM, 1, model_idx, instance])
    n1, n2 = CD_SIZES
    groups = np.concatenate([np.ones(n1), np.full(n2, 2.0)])
    name = CD_MODELS[model_idx][0]
    if name == "two-sample-normal":
        vals = np.concatenate([rng.normal(2.0, 1.0, n1), rng.normal(0.0, 1.5, n2)])
    elif name == "auc-exponential":
        vals = np.concatenate([rng.exponential(1.0 / LAM1, n1),
                               rng.exponential(1.0 / LAM2, n2)])
    elif name == "auc-normal":
        # P(X1 < X2) = Phi(1 / sqrt(2)) = 0.760
        vals = np.concatenate([rng.normal(0.0, 1.0, n1), rng.normal(1.0, 1.0, n2)])
    elif name == "linear-regression":
        x1, x2 = rng.standard_normal(CD_N), rng.uniform(size=CD_N)
        y = 1.0 + 0.5 * x1 - 0.3 * x2 + rng.normal(0.0, 1.0, CD_N)
        return "y,x1,x2", (y, x1, x2)
    else:
        # gamma(shape 3, rate 2): natural theta = (shape - 1, -rate) = (2, -2)
        return "value", (rng.gamma(3.0, 0.5, CD_N),)
    return "value,group", (vals, groups)


def setup_cd_grid(workdir, instances):
    spec = os.path.join(workdir, "gamma.json")
    with open(spec, "w") as fh:
        json.dump({"family": "gamma", "interest_index": 0}, fh)
    ops = []
    for inst in instances:
        for m, (name, model_arg, h0, ev) in enumerate(CD_MODELS):
            path = os.path.join(workdir, f"{name}-{inst}.csv")
            _write_csv(path, *_cd_sample(m, inst))
            model = model_arg + spec if model_arg == "expfam:" else model_arg
            for rule_name, rule_args in CD_RULES:
                args = ["cd", "--model", model, "--data", path, *rule_args,
                        "--pivot", "wald", "--pivot", "root",
                        "--level", "0.9", "--level", "0.95",
                        "--h0", repr(h0), "--evidence", f"{ev[0]!r},{ev[1]!r}"]
                ops.append((f"{name}/{rule_name}/{inst}", run_cd_op, args))
    return ops


def run_cd_op(args):
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc_cli.main(args, prog_name="robustcd")
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    if code:
        lines = err.getvalue().strip().splitlines()
        raise CliExit(f"exit {code}: {lines[-1] if lines else ''}")
    doc = json.loads(out.getvalue())
    result = {}
    for kind in ("wald", "root"):
        curve = doc["curves"][kind]
        result[f"{kind}.psi_tilde"] = curve["psi_tilde"]
        result[f"{kind}.se"] = curve["se"]
        for level, (lo, hi) in curve["ci"].items():
            result[f"{kind}.ci{level}.lo"] = lo
            result[f"{kind}.ci{level}.hi"] = hi
        result[f"{kind}.p_value"] = curve["test"]["p_value"]
        result[f"{kind}.evidence"] = curve["evidence"]["value"]
    return result


# ---------------------------------------------------------------------------
# study: one run_study call on a chunk of replicates per op
# ---------------------------------------------------------------------------

STUDY_METHODS = [
    {"rule": "tsallis", "pivot": "root", "gamma": None},
    {"rule": "log", "pivot": "root"},
    {"rule": "tsallis", "pivot": "wald", "gamma": 1.23},
]
# The acceptance designs at their small n. Chunk sizes are chosen so that
# an op of either design costs about the same.
STUDY_DESIGNS = (
    ("two-sample-normal", {
        "model": "two-sample-normal", "theta": [2.0, 0.0, 1.0, 1.0],
        "sizes": [10, 20], "n_reps": 10,
        "h0": {"psi0": 2.0, "alternative": "less"},
        "contamination": {"sample_index": 0, "obs_index": -1, "shift": -7.0}}),
    ("auc-exponential", {
        "model": "auc-exponential", "theta": [LAM1, LAM2],
        "sizes": [20, 40], "n_reps": 20,
        "h0": {"psi0": 0.85, "alternative": "less"},
        "contamination": {"sample_index": 0, "obs_index": -1, "shift": 3.0}}),
)


def setup_study(workdir, instances):
    ops = []
    for inst in instances:
        for d, (name, base) in enumerate(STUDY_DESIGNS):
            doc = dict(base, methods=STUDY_METHODS, levels=[0.5, 0.8, 0.9, 0.95],
                       seed=STREAM + 1000 * d + inst)
            path = os.path.join(workdir, f"{name}-{inst}.json")
            with open(path, "w") as fh:
                json.dump(doc, fh)
            ops.append((f"{name}/{inst}", run_study_op, path))
    return ops


def run_study_op(path):
    with open(path) as fh:
        design = rc.SimDesign.from_dict(json.load(fh))
    report = rc.run_study(design)
    result = {}
    dropped = 0
    for label, res in report.results.items():
        dropped += res.n_failed
        result[f"{label}.n_used"] = res.n_used
        for lv in design.levels:
            result[f"{label}.cover{lv:g}"] = res.cover_counts.get(lv, 0)
        for i, (p, med) in enumerate(zip(res.pvalues, res.medians)):
            result[f"{label}.p.{i}"] = p
            result[f"{label}.median.{i}"] = med
    if dropped:
        raise OpFailed(f"run_study dropped {dropped} replicate(s)")
    return result


# ---------------------------------------------------------------------------
# robustness: one diagnostic bundle per op
# ---------------------------------------------------------------------------

ROB_DATASETS = ("two-sample-normal", "auc-exponential", "linear-regression")
ROB_PSI = {"two-sample-normal": 2.0, "auc-exponential": 0.85, "linear-regression": 0.5}
# oracle probe points in units of the fitted scale around the fitted
# center; all of them lie inside the exponential support
ROB_PROBES = np.array([-0.8, -0.3, 0.7, 1.8])


def _rob_sample(ds_idx, instance):
    rng = np.random.default_rng([STREAM, 3, ds_idx, instance])
    name = ROB_DATASETS[ds_idx]
    if name == "two-sample-normal":
        return rc.TwoSampleNormal(), (rng.normal(2.0, 1.0, 12), rng.normal(0.0, 1.0, 24))
    if name == "auc-exponential":
        return rc.ExponentialAUC(), (rng.exponential(1.0 / LAM1, 20),
                                     rng.exponential(1.0 / LAM2, 40))
    X = np.column_stack([np.ones(60), rng.standard_normal(60), rng.uniform(size=60)])
    y = X @ np.array([1.0, 0.5, -0.3]) + rng.normal(0.0, 1.0, 60)
    return rc.LinearRegression(1), (y, X)


def setup_robustness(workdir, instances):
    ops = []
    for inst in instances:
        for d, name in enumerate(ROB_DATASETS):
            model, data = _rob_sample(d, inst)
            for rule in (rc.ScoreRule.log(model), rc.ScoreRule.tsallis(model, 1.23)):
                ops.append((f"{name}/{rule.kind}/{inst}", run_robustness_op,
                            (rule, data, ROB_PSI[name])))
    return ops


def run_robustness_op(arg):
    rule, data, psi = arg
    model = rule.model
    fr = rc.fit(rule, data)
    if not fr.converged:
        raise OpFailed("fit did not converge")
    result = {}
    for pivot in ("wald", "root"):
        prof = rc.taif(rule, data, pivot, psi, fit_result=fr)
        result[f"taif.{pivot}.sup"] = prof.sup_abs
        result[f"taif.{pivot}.bounded"] = bool(prof.bounded_verdict)
    center, scale = model.obs_center_scale(data, fr.theta_hat, 0)
    ys = center + scale * ROB_PROBES
    nan = 0
    for pivot in ("wald", "root"):
        vals = rc.taif_contamination_oracle(rule, data, pivot, psi, ys, fit_result=fr)
        for i, v in enumerate(vals):
            result[f"oracle.{pivot}.{i}"] = float(v)
            nan += int(math.isnan(v))
    result["calibrated_gamma"] = rc.calibrate_gamma(model, fr.theta_hat, 0.9, data)
    if nan:
        raise OpFailed(f"{nan} oracle point(s) are NaN")
    return result


SETUP = {"cd-grid": setup_cd_grid, "study": setup_study,
         "robustness": setup_robustness}

# Output tolerances (rtol, atol) by key fragment; the first match wins.
# Integers, booleans and strings must match exactly. The oracle is a
# finite-epsilon difference quotient (eps = 1e-4), so solver-level
# differences reach it amplified about 1e4 times.
TOLERANCES = (
    ("oracle.", (1e-3, 1e-6)),
    ("taif.", (1e-5, 1e-9)),
    ("calibrated_gamma", (0.0, 1e-6)),
    ("", (1e-6, 1e-9)),
)


def compare(result, reference):
    """First mismatch between an op's outputs and its reference, or None."""
    if set(result) != set(reference):
        differing = sorted(set(reference) ^ set(result))[:3]
        return f"output keys differ: {differing}"
    for key, ref in reference.items():
        got = result[key]
        if isinstance(ref, float) or isinstance(got, float):
            rtol, atol = next(t for frag, t in TOLERANCES if frag in key)
            if math.isnan(ref) and math.isnan(got):
                continue
            if not abs(got - ref) <= atol + rtol * abs(ref):
                return f"{key}: {got!r} != reference {ref!r}"
        elif got != ref:
            return f"{key}: {got!r} != reference {ref!r}"
    return None
