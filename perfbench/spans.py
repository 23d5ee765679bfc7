"""Span tracer for the robustcd benchmark's per-layer run.

The tracer wraps each layer's public entry points from outside the
package: every module of robustcd that binds an entry point gets the
wrapper in its place, and methods are wrapped on the classes that define
them. A wrapper opens a span, times it, and closes it; a layer's self
time is its span time minus the time of the spans opened inside it.

A gradient evaluation is one call of ``scoring.per_obs_gradient``. It is
counted once for every span open at the time (``grad_incl``) and once for
the innermost open span (``grad_self``).

An entry point that cannot be resolved by name is recorded as absent; its
metrics read 0 and the run goes on.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import math
import re
import sys
import time

# (span name, module, attribute path). A "class:" attribute wraps that
# method on every class of the module that defines it.
ENTRY_POINTS = (
    ("cli.cd", "robustcd.cli", "cmd_cd.callback"),
    ("cli.read_csv", "robustcd.cli", "_read_rows"),
    ("simulate.run_study", "robustcd.simulate", "run_study"),
    ("confidence.profile", "robustcd.confidence", "profile"),
    ("confidence.constrained_fit", "robustcd.confidence", "constrained_fit"),
    ("confidence.build_cd", "robustcd.confidence", "build_cd"),
    ("confidence.ci", "robustcd.confidence", "ci"),
    ("confidence.p_value", "robustcd.confidence", "p_value"),
    ("confidence.evidence", "robustcd.confidence", "evidence"),
    ("robustness.taif", "robustcd.robustness", "taif"),
    ("robustness.oracle", "robustcd.robustness", "taif_contamination_oracle"),
    ("robustness.calibrate_gamma", "robustcd.robustness", "calibrate_gamma"),
    ("robustness.efficiency_ratio", "robustcd.robustness", "efficiency_ratio"),
    ("scoring.fit", "robustcd.scoring", "fit"),
    ("scoring.minimize_smooth", "robustcd.scoring", "minimize_smooth"),
    ("scoring.per_obs_gradient", "robustcd.scoring", "per_obs_gradient"),
    ("scoring.score_terms", "robustcd.scoring", "score_terms"),
    ("scoring.estimate_KJ", "robustcd.scoring", "estimate_KJ"),
    ("models.validate_data", "robustcd.models", "class:validate_data"),
    ("models.logpdf_obs", "robustcd.models", "class:logpdf_obs"),
    ("models.dlogpdf_obs", "robustcd.models", "class:dlogpdf_obs"),
    ("models.expected_kj", "robustcd.models", "class:expected_kj"),
    ("expfam.logpdf_obs", "robustcd.expfam", "class:logpdf_obs"),
    ("expfam.dlogpdf_obs", "robustcd.expfam", "class:dlogpdf_obs"),
    ("expfam.tsallis_integral_grad_obs", "robustcd.expfam",
     "class:tsallis_integral_grad_obs"),
)
GRAD_SPAN = "scoring.per_obs_gradient"

# Per-layer metrics of a traced run: (name, unit). Times are seconds per
# op of the traced pass; counts are totals over the traced pass.
METRICS = (
    ("cli.cd.self_s", "s/op"), ("cli.read_csv.self_s", "s/op"),
    ("cli.nonzero_exit", "count"),
    ("simulate.run_study.self_s", "s/op"), ("simulate.replicates_failed", "count"),
    ("simulate.fits_per_replicate", "count"),
    ("simulate.constrained_fits_per_replicate", "count"),
    ("confidence.profile.self_s", "s/op"), ("confidence.profile.failed_points", "count"),
    ("confidence.constrained_fit.calls", "count"),
    ("confidence.constrained_fit.self_s", "s/op"),
    ("confidence.constrained_fit.grad_evals_per_call", "count"),
    ("confidence.constrained_fit.converged_frac", "fraction"),
    ("confidence.build_cd.wald_s", "s/op"), ("confidence.build_cd.root_s", "s/op"),
    ("confidence.build_cd.n_repaired", "count"),
    ("confidence.ci.open_hull", "count"),
    ("confidence.summaries.self_s", "s/op"), ("confidence.warnings", "count"),
    ("robustness.taif.self_s", "s/op"), ("robustness.oracle.self_s", "s/op"),
    ("robustness.oracle.grad_evals_per_point", "count"),
    ("robustness.oracle.nan_points", "count"),
    ("robustness.calibrate_gamma.self_s", "s/op"),
    ("robustness.efficiency_ratio.calls", "count"), ("robustness.warnings", "count"),
    ("simulate.warnings", "count"),
    ("scoring.fit.calls", "count"), ("scoring.fit.self_s", "s/op"),
    ("scoring.fit.grad_evals_per_call", "count"),
    ("scoring.fit.converged_frac", "fraction"),
    ("scoring.minimize_smooth.calls", "count"),
    ("scoring.minimize_smooth.grad_evals_per_call", "count"),
    ("scoring.per_obs_gradient.calls", "count"),
    ("scoring.per_obs_gradient.us_per_call", "us"),
    ("scoring.per_obs_gradient.obs_per_s", "1/s"),
    ("scoring.score_terms.calls", "count"), ("scoring.score_terms.self_s", "s/op"),
    ("scoring.estimate_KJ.calls", "count"), ("scoring.estimate_KJ.self_s", "s/op"),
    ("models.validate_data.calls", "count"), ("models.validate_data.self_s", "s/op"),
    ("models.logpdf_obs.calls", "count"), ("models.dlogpdf_obs.calls", "count"),
    ("models.expected_kj.calls", "count"),
    ("expfam.logpdf_obs.calls", "count"), ("expfam.logpdf_obs.self_s", "s/op"),
    ("expfam.dlogpdf_obs.calls", "count"),
    ("expfam.tsallis_integral_grad_obs.calls", "count"),
    ("trace.overhead_frac", "fraction"), ("trace.counts_repeat", "bool"),
    ("trace.absent_spans", "count"),
)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


# Counters read off an entry point's call:
# (args, kwargs, result, elapsed seconds) -> {counter: increment}.
OBSERVERS = {
    "scoring.per_obs_gradient": lambda a, k, r, t: {"obs": r.shape[0]},
    "scoring.fit": lambda a, k, r, t: {"converged": int(bool(r.converged))},
    "confidence.constrained_fit": lambda a, k, r, t: {"converged": int(bool(r[3]))},
    "confidence.profile": lambda a, k, r, t: {"failed_points": int(r.failed.sum())},
    "confidence.build_cd": lambda a, k, r, t: {
        "n_repaired": int(r.n_repaired), f"{_arg(a, k, 2, 'kind')}_s": t},
    "confidence.ci": lambda a, k, r, t: {"open_hull": int(r.lo_open) + int(r.hi_open)},
    "robustness.oracle": lambda a, k, r, t: {
        "points": len(r), "nan_points": sum(1 for v in r if math.isnan(v))},
    "simulate.run_study": lambda a, k, r, t: {
        "replicates": int(_arg(a, k, 0, "design").n_reps),
        "replicates_failed": sum(int(m.n_failed) for m in r.results.values())},
}


class Stats:
    __slots__ = ("calls", "total", "self_time", "grad_self", "grad_incl", "raised")

    def __init__(self):
        self.calls = self.grad_self = self.grad_incl = self.raised = 0
        self.total = self.self_time = 0.0


class Tracer:
    """Wraps robustcd's entry points and aggregates their spans.

    Spans are aggregated as they close: per name (calls, inclusive and
    self time, gradient evaluations) and per (parent, child) edge.
    """

    def __init__(self):
        self.patches = []            # (owner, attribute, original)
        self.absent = []
        self.reset()

    def reset(self):
        self.stack = []              # open spans: [name, start, child_time, grad_incl]
        self.stats = collections.defaultdict(Stats)
        self.edges = collections.defaultdict(lambda: [0, 0.0])
        self.nested = collections.Counter()    # (open ancestor, span) -> calls
        self.counters = collections.Counter()  # "span.counter" -> total
        self.warnings = collections.Counter()  # (layer, reason) -> count

    # -- installation ------------------------------------------------------
    def install(self):
        self.absent = []
        for name, module_name, path in ENTRY_POINTS:
            try:
                module = importlib.import_module(module_name)
                if path.startswith("class:"):
                    found = self._wrap_methods(name, module, path[6:])
                else:
                    found = self._wrap_bound(name, module, path)
            except (ImportError, AttributeError):
                found = False
            if not found:
                self.absent.append(name)

    def _wrap_bound(self, name, module, path):
        owner_path, _, attr = path.rpartition(".")
        owner = module
        for part in filter(None, owner_path.split(".")):
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        wrapper = self._wrapper(name, original)
        self._patch(owner, attr, original, wrapper)
        # every other name the same function is bound to in the package
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "robustcd" or mod_name.startswith("robustcd.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original and not (mod is owner and key == attr):
                    self._patch(mod, key, original, wrapper)
        return True

    def _wrap_methods(self, name, module, attr):
        found = False
        for cls in vars(module).values():
            if (inspect.isclass(cls) and cls.__module__ == module.__name__
                    and inspect.isfunction(vars(cls).get(attr))):
                original = vars(cls)[attr]
                self._patch(cls, attr, original, self._wrapper(name, original))
                found = True
        return found

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self.patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches = []

    # -- spans ---------------------------------------------------------------
    def _wrapper(self, name, fn):
        tracer = self
        observe = OBSERVERS.get(name)
        is_grad = name == GRAD_SPAN
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if stack and stack[-1][0] == name:
                # a method delegating to its namesake stays one span
                return fn(*args, **kwargs)
            if is_grad:
                for frame in stack:
                    frame[3] += 1
                if stack:
                    tracer.stats[stack[-1][0]].grad_self += 1
            for ancestor in {frame[0] for frame in stack}:
                tracer.nested[(ancestor, name)] += 1
            frame = [name, clock(), 0.0, 0]
            stack.append(frame)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                elapsed = clock() - frame[1]
                stack.pop()
                st = tracer.stats[name]
                st.calls += 1
                st.total += elapsed
                st.self_time += elapsed - frame[2]
                st.grad_incl += frame[3]
                parent = stack[-1][0] if stack else ""
                if stack:
                    stack[-1][2] += elapsed
                edge = tracer.edges[(parent, name)]
                edge[0] += 1
                edge[1] += elapsed
                if not ok:
                    st.raised += 1
            if observe is not None:
                try:
                    for counter, inc in observe(args, kwargs, result, elapsed).items():
                        tracer.counters[f"{name}.{counter}"] += inc
                except (AttributeError, TypeError, IndexError, KeyError):
                    tracer.counters["trace.observer_errors"] += 1
            return result

        return wrapper

    def on_warning(self, message, category, filename, lineno, file=None, line=None):
        """``warnings.showwarning`` hook: count by innermost layer and reason."""
        layer = self.stack[-1][0].split(".")[0] if self.stack else "none"
        reason = re.sub(r"[-+]?\d[\d.eE+-]*", "#", str(message))[:80]
        self.warnings[(layer, reason)] += 1

    # -- results ---------------------------------------------------------------
    def counts(self):
        """Every integer the trace recorded; equal across passes of the same code."""
        out = {}
        for name, st in self.stats.items():
            out[f"{name}.calls"] = st.calls
            out[f"{name}.grad_self"] = st.grad_self
            out[f"{name}.grad_incl"] = st.grad_incl
            out[f"{name}.raised"] = st.raised
        for (parent, child), (calls, _) in self.edges.items():
            out[f"edge:{parent}>{child}"] = calls
        for (ancestor, child), calls in self.nested.items():
            out[f"nested:{ancestor}>{child}"] = calls
        for key, value in self.counters.items():
            if isinstance(value, int):
                out[key] = value
        for (layer, reason), count in self.warnings.items():
            out[f"warning:{layer}:{reason}"] = count
        return out

    def metrics(self, n_ops, extra):
        """The METRICS values of this pass; ``extra`` supplies the ones the
        runner measures (exit codes, overhead, repeat check)."""
        st, c = self.stats, self.counters
        n_ops = max(n_ops, 1)

        def self_s(*names):
            return sum(st[n].self_time for n in names if n in st) / n_ops

        def calls(name):
            return st[name].calls if name in st else 0

        def ratio(num, den):
            return num / den if den else 0.0

        def warned(layer):
            return sum(v for (lay, _), v in self.warnings.items() if lay == layer)

        grad = st[GRAD_SPAN] if GRAD_SPAN in st else Stats()
        reps = c["simulate.run_study.replicates"]
        values = {
            "simulate.replicates_failed": c["simulate.run_study.replicates_failed"],
            "simulate.fits_per_replicate": ratio(
                self.nested[("simulate.run_study", "scoring.fit")], reps),
            "simulate.constrained_fits_per_replicate": ratio(
                self.nested[("simulate.run_study", "confidence.constrained_fit")], reps),
            "confidence.profile.failed_points": c["confidence.profile.failed_points"],
            "confidence.constrained_fit.converged_frac": ratio(
                c["confidence.constrained_fit.converged"],
                calls("confidence.constrained_fit")),
            "confidence.build_cd.wald_s": c["confidence.build_cd.wald_s"] / n_ops,
            "confidence.build_cd.root_s": c["confidence.build_cd.root_s"] / n_ops,
            "confidence.build_cd.n_repaired": c["confidence.build_cd.n_repaired"],
            "confidence.ci.open_hull": c["confidence.ci.open_hull"],
            "confidence.summaries.self_s": self_s(
                "confidence.ci", "confidence.p_value", "confidence.evidence"),
            "robustness.oracle.grad_evals_per_point": ratio(
                st["robustness.oracle"].grad_incl if "robustness.oracle" in st else 0,
                c["robustness.oracle.points"]),
            "robustness.oracle.nan_points": c["robustness.oracle.nan_points"],
            "scoring.fit.converged_frac": ratio(c["scoring.fit.converged"],
                                                calls("scoring.fit")),
            "scoring.per_obs_gradient.us_per_call": ratio(grad.total * 1e6, grad.calls),
            "scoring.per_obs_gradient.obs_per_s": ratio(
                c["scoring.per_obs_gradient.obs"], grad.total),
            "trace.absent_spans": len(self.absent),
        }
        values.update(extra)
        out = {}
        for name, unit in METRICS:
            if name not in values:
                span, _, field = name.rpartition(".")
                if field == "self_s":
                    values[name] = self_s(span)
                elif field == "calls":
                    values[name] = calls(span)
                elif field == "warnings":
                    values[name] = warned(span)
                elif field == "grad_evals_per_call":
                    values[name] = ratio(st[span].grad_incl if span in st else 0,
                                         calls(span))
            out[name] = values[name]
        return out

    def dump(self):
        """JSON-ready record of the pass: spans, edges and warnings."""
        return {
            "spans": {n: {"calls": s.calls, "total_s": s.total, "self_s": s.self_time,
                          "grad_self": s.grad_self, "grad_incl": s.grad_incl,
                          "raised": s.raised}
                      for n, s in sorted(self.stats.items())},
            "edges": [{"parent": p, "child": ch, "calls": v[0], "total_s": v[1]}
                      for (p, ch), v in sorted(self.edges.items())],
            "counters": dict(sorted(self.counters.items())),
            "warnings": [{"layer": lay, "reason": r, "count": v}
                         for (lay, r), v in sorted(self.warnings.items())],
            "absent": self.absent,
        }
