"""Replicated coverage and p-value studies with reproducible seeding.

Each replicate draws a dataset at the design's true parameter, optionally
applies a single-observation shift contamination, and evaluates every
method's pivot at the true interest value (for interval coverage across
levels) and at the null value (for the p-value sample). Replicate r uses
``default_rng([seed, r])``, so results do not depend on evaluation order.

Coverage is recorded through the pivot: the equi-tailed level-alpha interval
of a CD contains psi exactly when |pivot(psi)| <= z_{(1+alpha)/2}, so no
grid construction is needed inside the replicate loop.
"""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import DomainError, NumericsError
from .confidence import _constrained_at, _nu_at, _signed_root, pivot_wald
from .models import get_model
from .robustness import calibrate_gamma
from .scoring import ScoreRule, fit as fit_rule

__all__ = [
    "Contamination",
    "MethodSpec",
    "H0Spec",
    "SimDesign",
    "MethodResult",
    "SimReport",
    "run_study",
    "pvalue_uniformity",
    "contaminate",
    "default_regression_design",
]

_DESIGN_STREAM = 982451653  # fixed sub-stream tag for frozen design matrices


@dataclasses.dataclass(frozen=True)
class Contamination:
    sample_index: int
    obs_index: int
    shift: float


@dataclasses.dataclass(frozen=True)
class MethodSpec:
    rule: str                    # "tsallis" | "log"
    pivot: str                   # "wald" | "root"
    gamma: float | None = None   # None with rule="tsallis" means: calibrate to 90%

    def __post_init__(self):
        if self.rule not in ("tsallis", "log"):
            raise DomainError("method rule must be 'tsallis' or 'log'")
        if self.pivot not in ("wald", "root"):
            raise DomainError("method pivot must be 'wald' or 'root'")

    def label(self):
        if self.rule == "log":
            return f"log-{self.pivot}"
        g = "auto" if self.gamma is None else f"{self.gamma:g}"
        return f"tsallis({g})-{self.pivot}"


@dataclasses.dataclass(frozen=True)
class H0Spec:
    psi0: float
    alternative: str = "less"


@dataclasses.dataclass
class SimDesign:
    model: str
    theta: tuple
    sizes: tuple
    n_reps: int
    seed: int = 0
    methods: tuple = (MethodSpec("tsallis", "root", None), MethodSpec("log", "root"))
    levels: tuple = (0.5, 0.8, 0.9, 0.95)
    h0: H0Spec | None = None
    contamination: Contamination | None = None
    interest_index: int = 1      # regression only

    def __post_init__(self):
        if self.n_reps < 1:
            raise DomainError("n_reps must be at least 1")
        if not all(0.0 < lv < 1.0 for lv in self.levels):
            raise DomainError("levels must lie in (0, 1)")
        if self.contamination is not None:
            c = self.contamination
            if self.model == "linear-regression":
                n = self.sizes[0]
            else:
                if c.sample_index not in (0, 1):
                    raise DomainError("sample_index must be 0 or 1")
                n = self.sizes[c.sample_index]
            if not -n <= c.obs_index < n:
                raise DomainError("contamination obs_index outside the sample")

    @classmethod
    def from_dict(cls, d):
        methods = tuple(
            MethodSpec(m["rule"], m["pivot"], m.get("gamma")) for m in d["methods"]
        ) if "methods" in d else cls.__dataclass_fields__["methods"].default
        h0 = H0Spec(float(d["h0"]["psi0"]), d["h0"].get("alternative", "less")) \
            if d.get("h0") else None
        cont = None
        if d.get("contamination"):
            c = d["contamination"]
            cont = Contamination(int(c.get("sample_index", 0)),
                                 int(c.get("obs_index", -1)), float(c["shift"]))
        return cls(
            model=d["model"], theta=tuple(d["theta"]), sizes=tuple(d["sizes"]),
            n_reps=int(d["n_reps"]), seed=int(d.get("seed", 0)), methods=methods,
            levels=tuple(d.get("levels", (0.5, 0.8, 0.9, 0.95))), h0=h0,
            contamination=cont, interest_index=int(d.get("interest_index", 1)),
        )


def default_regression_design(n, seed):
    """Frozen regression design: intercept, a standard normal column and a
    uniform column, drawn once per study from a dedicated sub-stream."""
    rng = np.random.default_rng([seed, _DESIGN_STREAM])
    return np.column_stack([np.ones(n), rng.standard_normal(n), rng.uniform(size=n)])


def contaminate(model, data, spec: Contamination):
    """Copy of the data with one observation shifted by ``spec.shift``."""
    if spec.shift == 0.0:
        return data
    return model.shift_obs(data, spec.sample_index, spec.obs_index, spec.shift)


# ---------------------------------------------------------------------------
# Per-replicate pivot evaluation
# ---------------------------------------------------------------------------

def _point_pivot(rule, fit_result, psi, kind):
    """(pivot at psi, the free fit it is measured from).

    A constrained fit scoring below the free optimum means the free fit
    stopped at a local minimum; the free fit is then refitted from the
    constrained estimate, and the lower of the two scores is kept before
    the replicate is given up.
    """
    if kind == "wald":
        return float(pivot_wald(fit_result, psi)), fit_result
    data = fit_result.data
    theta_c, s_con, _ = _constrained_at(rule, data, psi,
                                        rule.model.profile_extract(fit_result.theta_hat))
    nu = _nu_at(rule, data, theta_c)

    def root(fr):
        return float(_signed_root(fr.psi_tilde, fr.score_at_opt, psi, s_con, nu)), fr

    try:
        return root(fit_result)
    except NumericsError:          # the constrained score undercuts the free optimum
        refit = fit_rule(rule, data, theta0=theta_c)
        if not (refit.converged and refit.score_at_opt < fit_result.score_at_opt):
            raise
        return root(refit)


@dataclasses.dataclass
class MethodResult:
    label: str
    levels: tuple
    n_used: int = 0
    n_failed: int = 0
    cover_counts: dict = dataclasses.field(default_factory=dict)
    pvalues: list = dataclasses.field(default_factory=list)
    medians: list = dataclasses.field(default_factory=list)

    def coverage(self):
        """{level: (empirical coverage, Monte-Carlo standard error)}."""
        out = {}
        for lv in self.levels:
            c = self.cover_counts.get(lv, 0) / max(self.n_used, 1)
            out[lv] = (c, float(np.sqrt(c * (1.0 - c) / max(self.n_used, 1))))
        return out

    def rejection_rates(self, alphas=(0.01, 0.05, 0.10)):
        p = np.asarray(self.pvalues)
        if p.size == 0:
            return {a: float("nan") for a in alphas}
        return {a: float(np.mean(p < a)) for a in alphas}

    def to_dict(self):
        out = {
            "label": self.label,
            "n_used": self.n_used,
            "n_failed": self.n_failed,
            "coverage": {f"{lv:g}": [c, se] for lv, (c, se) in self.coverage().items()},
            "pvalues": list(map(float, self.pvalues)),
            "medians": list(map(float, self.medians)),
        }
        if self.pvalues:
            out["rejection"] = {f"{a:g}": r for a, r in self.rejection_rates().items()}
        return out


@dataclasses.dataclass
class SimReport:
    design: SimDesign
    results: dict                # label -> MethodResult
    psi_true: float

    def to_dict(self):
        return {
            "model": self.design.model,
            "theta": list(self.design.theta),
            "sizes": list(self.design.sizes),
            "n_reps": self.design.n_reps,
            "seed": self.design.seed,
            "psi_true": self.psi_true,
            "contaminated": self.design.contamination is not None,
            "methods": {k: v.to_dict() for k, v in self.results.items()},
        }

    def save_samples_csv(self, path, method_label):
        """Per-replicate p-value and CD-median samples for external plotting."""
        res = self.results.get(method_label)
        if res is None:
            raise DomainError(f"unknown method label {method_label!r}")
        have_p = len(res.pvalues) == len(res.medians)
        with open(path, "w") as fh:
            fh.write("pvalue,median\n" if have_p else "median\n")
            for i, med in enumerate(res.medians):
                if have_p:
                    fh.write(f"{res.pvalues[i]!r},{med!r}\n")
                else:
                    fh.write(f"{med!r}\n")


def _resolve_gamma(method, model, theta_true, template):
    if method.rule == "log":
        return None
    if method.gamma is not None:
        return float(method.gamma)
    return calibrate_gamma(model, theta_true, 0.90, template)


def run_study(design: SimDesign, max_failure_rate=0.05):
    """Run the replicated study and collect coverage, p-values and medians.

    Replicates whose fit (or constrained fit) fails are dropped for that
    method only and counted; more than ``max_failure_rate`` failures for any
    method aborts the study.
    """
    if design.model == "linear-regression":
        model = get_model(design.model, interest_index=design.interest_index)
        X = default_regression_design(design.sizes[0], design.seed)
    else:
        model = get_model(design.model)
        X = None
    theta_true = np.asarray(design.theta, dtype=float)
    psi_true = float(model.interest(theta_true))
    template = model.sample(theta_true, design.sizes, np.random.default_rng(0), design=X)

    z = {lv: float(ndtri(0.5 * (1.0 + lv))) for lv in design.levels}
    rules = {}
    results = {}
    for meth in design.methods:
        gamma = _resolve_gamma(meth, model, theta_true, template)
        rule = ScoreRule.log(model) if meth.rule == "log" else ScoreRule.tsallis(model, gamma)
        label = meth.label()
        rules[label] = (rule, meth)
        results[label] = MethodResult(label=label, levels=design.levels)

    for rep in range(design.n_reps):
        rng = np.random.default_rng([design.seed, rep])
        data = model.sample(theta_true, design.sizes, rng, design=X)
        if design.contamination is not None:
            data = contaminate(model, data, design.contamination)
        data = model.checked(data)
        for label, (rule, meth) in rules.items():
            res = results[label]
            try:
                fr = fit_rule(rule, data)
                if not fr.converged:
                    raise NumericsError("fit did not converge")
                piv_true, fr = _point_pivot(rule, fr, psi_true, meth.pivot)
                if design.h0 is not None:
                    if design.h0.psi0 == psi_true:
                        piv0 = piv_true
                    else:
                        piv0, fr0 = _point_pivot(rule, fr, design.h0.psi0, meth.pivot)
                        if fr0 is not fr:
                            # the null-value pivot found a lower free optimum
                            fr = fr0
                            piv_true, fr = _point_pivot(rule, fr, psi_true, meth.pivot)
            except (DomainError, NumericsError):
                res.n_failed += 1
                continue
            res.n_used += 1
            for lv in design.levels:
                if abs(piv_true) <= z[lv]:
                    res.cover_counts[lv] = res.cover_counts.get(lv, 0) + 1
            if design.h0 is not None:
                alt = design.h0.alternative
                if alt == "less":
                    p = float(ndtr(-piv0))
                elif alt == "greater":
                    p = float(ndtr(piv0))
                else:
                    p = float(2.0 * (1.0 - ndtr(abs(piv0))))
                res.pvalues.append(p)
            res.medians.append(float(model.interest(fr.theta_hat)))

    for label, res in results.items():
        if res.n_failed > max_failure_rate * design.n_reps:
            raise NumericsError(
                f"method {label} failed on {res.n_failed}/{design.n_reps} replicates")
        if res.n_failed:
            warnings.warn(f"method {label}: {res.n_failed} replicate(s) excluded",
                          stacklevel=2)
    return SimReport(design=design, results=results, psi_true=psi_true)


def pvalue_uniformity(report: SimReport, method_label: str):
    """One-sample Kolmogorov-Smirnov distance of the p-values from U(0,1),
    plus a 99-point uniform QQ grid for export."""
    res = report.results.get(method_label)
    if res is None:
        raise DomainError(f"unknown method label {method_label!r}; "
                          f"have {sorted(report.results)}")
    p = np.sort(np.asarray(res.pvalues, dtype=float))
    if p.size == 0:
        raise DomainError("no p-values recorded (was h0 set in the design?)")
    n = p.size
    i = np.arange(1, n + 1)
    ks = float(max(np.max(i / n - p), np.max(p - (i - 1) / n)))
    q = np.arange(1, 100) / 100.0
    qq = np.column_stack([q, np.quantile(p, q)])
    return ks, qq
