"""Command-line interface: fit, cd, calibrate, taif, simulate.

Data come in as headered CSV. Two-sample models read columns
``value,group`` with group in {1,2}; regression reads ``y,x1,...,xp`` and
prepends an intercept column unless --no-intercept is given. All result
documents are JSON on stdout (or --out); diagnostics go to stderr.

Exit codes: 0 success, 1 numerical failure (non-converged fit), 2 bad
usage, missing file, or malformed input.
"""

from __future__ import annotations

import csv
import json
import math
import sys

import click
import numpy as np

from .confidence import build_cd, evidence as cd_evidence, p_value
from .errors import DomainError, NumericsError
from .models import MODEL_NAMES, LinearRegression, _TwoSampleBase, get_model
from .robustness import calibrate_gamma, efficiency_ratio, taif as taif_eval
from .scoring import ScoreRule, fit as fit_rule, interest_information
from .simulate import SimDesign, default_regression_design, run_study


# Output goes through print, not click.echo: click caches a text wrapper per
# stream that keeps a redirected in-memory stream alive after its use.
def _fail(message, code):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def _read_rows(path):
    """(fields, columns) of a CSV file of numbers with a header row: the
    stripped field names and a float array per field, by name."""
    try:
        fh = open(path, newline="")
    except FileNotFoundError:
        _fail(f"data file not found: {path}", 2)
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            _fail(f"{path}: empty file", 2)
        fields = [f.strip() for f in header]
        width = len(fields)
        # blank lines are skipped and not numbered, as by csv.DictReader
        raws = [raw for raw in reader if raw]
    if not raws:
        _fail(f"{path}: no data rows", 2)
    # numpy converts each cell with float(), as a per-cell loop would
    try:
        table = np.array([raw[:width] for raw in raws], dtype=float)
    except ValueError:
        table = None
    if table is None or table.shape != (len(raws), width) or not np.isfinite(table).all():
        for lineno, raw in enumerate(raws, start=2):
            _bad_row(path, lineno, fields, raw)
        _fail(f"{path}: cannot read the data rows", 2)
    # a float array per field; a repeated field name keeps its last column
    return fields, dict(zip(fields, table.T.copy()))


def _bad_row(path, lineno, fields, raw):
    """Fail on the first value of a data row, in column order, that is
    missing, not a number or not finite."""
    for key, value in zip(fields, raw + [""] * (len(fields) - len(raw))):
        if value.strip() == "":
            _fail(f"{path}:{lineno}: missing value in column {key!r}", 2)
        try:
            val = float(value)
        except ValueError:
            _fail(f"{path}:{lineno}: cannot parse {value!r} in column {key!r}", 2)
        if not math.isfinite(val):
            _fail(f"{path}:{lineno}: non-finite value in column {key!r}", 2)


def load_two_sample_csv(path):
    fields, columns = _read_rows(path)
    if not {"value", "group"} <= set(fields):
        _fail(f"{path}: two-sample data needs columns value,group", 2)
    value, group = columns["value"], columns["group"]
    bad = np.flatnonzero((group != 1.0) & (group != 2.0))
    if bad.size:
        _fail(f"{path}:{bad[0] + 2}: group must be 1 or 2, got {group[bad[0]]:g}", 2)
    x, y = value[group == 1.0], value[group == 2.0]
    if not x.size or not y.size:
        _fail(f"{path}: both groups must be present", 2)
    return x, y


def load_regression_csv(path, intercept):
    fields, columns = _read_rows(path)
    if "y" not in fields:
        _fail(f"{path}: regression data needs a 'y' column", 2)
    xcols = [f for f in fields if f != "y"]
    y = columns["y"]
    X = np.column_stack([columns[c] for c in xcols]) if xcols else np.empty((len(y), 0))
    if intercept:
        X = np.column_stack([np.ones(len(y)), X])
    if X.shape[1] == 0:
        _fail(f"{path}: regression needs at least one predictor or the intercept", 2)
    return y, X


def _model(model_name, interest):
    """The model that --model and --interest name (``get_model``); exits 2
    where it refuses them."""
    try:
        return get_model(model_name, interest_index=interest)
    except DomainError as exc:
        _fail(str(exc), 2)


def _checked(model, data):
    try:
        return model.checked(data)
    except DomainError as exc:
        _fail(str(exc), 2)


def _load_data(model, data_path, intercept):
    """The data file, read as the model's type takes it, and checked."""
    if isinstance(model, _TwoSampleBase):
        return _checked(model, load_two_sample_csv(data_path))
    if isinstance(model, LinearRegression):
        return _checked(model, load_regression_csv(data_path, intercept))
    fields, columns = _read_rows(data_path)
    return _checked(model, columns["value" if "value" in fields else fields[0]])


def _make_rule(model, rule_name, gamma):
    if rule_name == "log":
        if gamma is not None:
            _fail("--gamma only applies to --rule tsallis", 2)
        return ScoreRule.log(model)
    if gamma is None:
        _fail("--rule tsallis requires --gamma", 2)
    try:
        return ScoreRule.tsallis(model, gamma)
    except DomainError as exc:
        _fail(str(exc), 2)


def _fitted(model_name, rule_name, gamma, data_path, interest, intercept):
    """(model, data, rule, fit) of the fit, cd and taif commands: exits 2 on
    bad usage or input and 1 where the fit raises."""
    model = _model(model_name, interest)
    data = _load_data(model, data_path, intercept)
    rule = _make_rule(model, rule_name, gamma)
    try:
        return model, data, rule, fit_rule(rule, data)
    except (DomainError, NumericsError) as exc:
        _fail(str(exc), 1)


def _parse_theta(spec, n_params, model):
    try:
        theta = np.array([float(t) for t in spec.split(",")])
    except ValueError:
        _fail(f"--theta expects comma-separated numbers, got {spec!r}", 2)
    if theta.size != n_params:
        _fail(f"--theta needs {n_params} values for this model, got {theta.size}", 2)
    if not model.in_domain(theta):
        _fail(f"--theta {spec} lies outside the model's parameter space", 2)
    return theta


def _emit(doc, out):
    text = json.dumps(doc)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {out}", file=sys.stderr)
    else:
        print(text)


_model_opt = click.option("--model", "model_name", required=True,
                          help=f"one of {list(MODEL_NAMES)} or expfam:<spec-file>")
_rule_opt = click.option("--rule", "rule_name", type=click.Choice(["log", "tsallis"]),
                         default="log", show_default=True)
_gamma_opt = click.option("--gamma", type=float, default=None,
                          help="robustness constant (> 1) for --rule tsallis")
_data_opt = click.option("--data", "data_path", required=True, help="input CSV")
_interest_opt = click.option("--interest", type=int, default=None,
                             help="interest coefficient index (regression / expfam)")
_intercept_opt = click.option("--no-intercept", "intercept", flag_value=False,
                              default=True, help="regression: no implicit intercept")
_out_opt = click.option("--out", default=None, help="write JSON here instead of stdout")
_seed_opt = click.option("--seed", type=int, default=0, show_default=True)


def _fit_options(command):
    """command with the options of the fit, cd and taif commands, applied
    last to first so that they list in the order of ``_fitted``'s
    parameters."""
    for option in (_intercept_opt, _interest_opt, _data_opt, _gamma_opt, _rule_opt, _model_opt):
        command = option(command)
    return command


@click.group()
def main():
    """Robust confidence distributions from proper scoring rules."""


@main.command("fit")
@_fit_options
@_out_opt
def cmd_fit(model_name, rule_name, gamma, data_path, interest, intercept, out):
    """Estimate the model parameters and report standard errors."""
    model, data, rule, fr = _fitted(model_name, rule_name, gamma, data_path, interest,
                                    intercept)
    names = model.param_names
    if isinstance(model, LinearRegression):
        p = data[1].shape[1]
        names = tuple(f"beta_{j+1}" for j in range(p)) + ("var",)
    doc = {
        "model": model.name,
        "rule": rule.kind,
        "gamma": rule.gamma,
        "theta": dict(zip(names, map(float, fr.theta_hat))),
        "stderr": dict(zip(names, map(float, fr.stderr()))),
        "interest": {"name": model.interest_name, "value": fr.psi_tilde},
        "converged": fr.converged,
        "n_iter": fr.n_iter,
        "stop_reason": fr.stop_reason,
        "grad_norm": fr.grad_norm,
    }
    _emit(doc, out)
    if not fr.converged:
        print("fit did not converge", file=sys.stderr)
        sys.exit(1)


@main.command("cd")
@_fit_options
@click.option("--pivot", "pivots", type=click.Choice(["wald", "root"]), multiple=True,
              default=("root",), show_default=True)
@click.option("--level", "levels", type=float, multiple=True, default=(0.95,),
              show_default=True)
@click.option("--h0", type=float, default=None, help="null value of the interest parameter")
@click.option("--alt", type=click.Choice(["less", "greater", "two-sided"]),
              default="two-sided", show_default=True)
@click.option("--evidence", "evidence_spec", default=None, metavar="A,B",
              help="report confidence mass of the interval (A, B)")
@click.option("--grid-points", type=click.IntRange(min=3), default=201,
              show_default=True)
@_out_opt
def cmd_cd(model_name, rule_name, gamma, data_path, interest, intercept,
           pivots, levels, h0, alt, evidence_spec, grid_points, out):
    """Build confidence distributions/curves and derived summaries."""
    for lv in levels:
        if not 0.0 < lv < 1.0:
            _fail(f"--level must be in (0,1), got {lv}", 2)
    ab = None
    if evidence_spec:
        try:
            a, b = (float(t) for t in evidence_spec.split(","))
        except ValueError:
            _fail("--evidence expects two comma-separated numbers", 2)
        if not a < b:
            _fail("--evidence expects A < B", 2)
        ab = (a, b)
    model, data, rule, fr = _fitted(model_name, rule_name, gamma, data_path, interest,
                                    intercept)
    queries = ([h0] if h0 is not None else []) + (list(ab) if ab else [])
    lo, hi = model.interest_range()
    if not all(lo < q < hi for q in queries):
        _fail(f"--h0/--evidence outside the interest's range ({lo:g}, {hi:g})", 2)
    try:
        if not fr.converged:
            raise NumericsError("fit did not converge")
        # widen the grid so every queried point (null value, evidence
        # endpoints) lies inside the hull
        _, g_pp = interest_information(fr.K, fr.J,
                                       model.interest_grad(fr.theta_hat))
        se = float(np.sqrt(g_pp))
        span = 6.0
        for q in queries:
            span = max(span, abs(q - fr.psi_tilde) / se + 2.0)
        curves = {}
        for kind in dict.fromkeys(pivots):
            cd = build_cd(rule, data, kind, fit_result=fr, n_grid=grid_points,
                          span=span)
            entry = cd.to_dict(levels=levels)
            if h0 is not None:
                entry["test"] = {
                    "psi0": h0,
                    "alternative": alt,
                    "p_value": p_value(cd, h0, alt.replace("-", "_")),
                }
            if ab is not None:
                entry["evidence"] = {"interval": list(ab), "value": cd_evidence(cd, *ab)}
            curves[kind] = entry
    except (DomainError, NumericsError) as exc:
        _fail(str(exc), 1)
    doc = {
        "model": model.name,
        "rule": rule.kind,
        "gamma": rule.gamma,
        "interest": model.interest_name,
        "curves": curves,
    }
    _emit(doc, out)


@main.command("calibrate")
@_model_opt
@click.option("--target", type=float, default=0.90, show_default=True,
              help="target efficiency relative to maximum likelihood")
@click.option("--data", "data_path", default=None,
              help="optional CSV; its fitted parameters become the reference")
@click.option("--theta", "theta_spec", default=None, metavar="T1,T2,...",
              help="explicit reference parameter values")
@click.option("--measure", type=click.Choice(["min", "interest", "trace"]),
              default="min", show_default=True)
@_interest_opt
@_intercept_opt
@click.option("--n", "n_template", type=int, default=500, show_default=True,
              help="template sample size when no data are given")
@_seed_opt
@_out_opt
def cmd_calibrate(model_name, target, data_path, theta_spec, measure, interest,
                  intercept, n_template, seed, out):
    """Find gamma so the Tsallis estimator concedes the target efficiency."""
    model = _model(model_name, interest)
    rng = np.random.default_rng(seed)
    # the data are checked once, for both calls below
    if data_path is not None:
        data = _load_data(model, data_path, intercept)
        theta_ref = (_parse_theta(theta_spec, len(model.positive_mask(data)), model)
                     if theta_spec else None)
    elif isinstance(model, LinearRegression):
        X = default_regression_design(n_template, seed)
        theta_ref = (_parse_theta(theta_spec, X.shape[1] + 1, model)
                     if theta_spec else np.array([1.0, 0.0, 1.0, 1.0]))
        data = _checked(model, model.sample(theta_ref, (n_template,), rng, design=X))
    elif isinstance(model, _TwoSampleBase):
        if theta_spec is None:
            _fail("--theta is required without --data for two-sample models", 2)
        theta_ref = _parse_theta(theta_spec, model.dim, model)
        data = _checked(model, model.sample(theta_ref, (n_template, n_template), rng))
    else:
        _fail("calibrate without --data supports the built-in models only", 2)
    try:
        if theta_ref is None:
            theta_ref = fit_rule(ScoreRule.log(model), data).theta_hat
        gamma = calibrate_gamma(model, theta_ref, target, data, measure=measure)
        eff = efficiency_ratio(model, gamma, data, theta_ref, measure=measure)
    except (DomainError, NumericsError) as exc:
        _fail(str(exc), 1)
    _emit({
        "model": model.name,
        "target_efficiency": target,
        "measure": measure,
        "gamma": gamma,
        "efficiency_at_gamma": eff,
        "theta_ref": list(map(float, theta_ref)),
    }, out)


@main.command("taif")
@_fit_options
@click.option("--pivot", type=click.Choice(["wald", "root"]), default="wald",
              show_default=True)
@click.option("--psi", type=float, default=None,
              help="interest value at which the tail area is probed "
                   "(default: the estimate)")
@click.option("--component", type=int, default=0, show_default=True,
              help="which sample receives the contamination probe")
@_out_opt
def cmd_taif(model_name, rule_name, gamma, data_path, interest, intercept,
             pivot, psi, component, out):
    """Tail-area influence of point contamination on a CD tail probability."""
    model, data, rule, fr = _fitted(model_name, rule_name, gamma, data_path, interest,
                                    intercept)
    try:
        if not fr.converged:
            raise NumericsError("fit did not converge")
        psi_val = fr.psi_tilde if psi is None else psi
        prof = taif_eval(rule, data, pivot, psi_val, component=component, fit_result=fr)
    except (DomainError, NumericsError) as exc:
        _fail(str(exc), 1)
    doc = prof.to_dict()
    doc["model"] = model.name
    doc["rule"] = rule.kind
    doc["gamma"] = rule.gamma
    _emit(doc, out)


@main.command("simulate")
@click.option("--design", "design_path", required=True, help="JSON study design")
@_seed_opt
@_out_opt
def cmd_simulate(design_path, seed, out):
    """Run a replicated coverage / p-value study from a design file."""
    try:
        with open(design_path) as fh:
            design_doc = json.load(fh)
    except FileNotFoundError:
        _fail(f"design file not found: {design_path}", 2)
    except json.JSONDecodeError as exc:
        _fail(f"{design_path}: invalid JSON ({exc})", 2)
    if not isinstance(design_doc, dict):
        _fail("invalid design document: not a JSON object", 2)
    design_doc.setdefault("seed", seed)
    try:
        design = SimDesign.from_dict(design_doc)
    except (KeyError, TypeError, ValueError, DomainError) as exc:
        _fail(f"invalid design document: {exc}", 2)
    try:
        report = run_study(design)
    except (DomainError, NumericsError) as exc:
        _fail(str(exc), 1)
    _emit(report.to_dict(), out)


if __name__ == "__main__":
    main()
