"""Replicated coverage and p-value studies with reproducible seeding.

Each replicate draws a dataset at the design's true parameter, optionally
applies a single-observation shift contamination, and evaluates every
method's pivot at the true interest value (for interval coverage across
levels) and at the null value (for the p-value sample). Replicate r uses
``default_rng([seed, r])``, so results do not depend on evaluation order.

Coverage is recorded through the pivot: the equi-tailed level-alpha interval
of a CD contains psi exactly when |pivot(psi)| <= z_{(1+alpha)/2}, so no
grid construction is needed inside the replicate loop.

The replicates of a study are one stack. The methods are grouped by the
kind of their rule, and each kind's free fits are one solve: a block of the
replicates per distinct rule, a Tsallis rule's rows carrying its gamma, so
methods that share a rule share its block. One batch of Newton steps serves
every row still running, and the objective passes over a slice of the rows
at a time, which bounds the memory (see ``scoring._row_cap``). Each method
then takes its pivots from its block. Each replicate's results are those of
fitting it alone. A stack's results are arrays with a replicate axis, with
a mask of the replicates given up and the exception that gives each up
(see ``scoring._stacked``).
"""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np

from .errors import DomainError, NumericsError
from .confidence import (
    _check_alternative,
    _constrained_at,
    _signed_root,
    _tail_p,
    _undercut,
    _wald_pivot,
)
from .models import LinearRegression, ModelSpec, _is_int, _TwoSampleBase, get_model, ndtri
from .robustness import calibrate_gamma
from .scoring import Fits, ScoreRule, _fit_rows, _stacked, _start

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
_DESIGN_COLUMNS = 3          # columns of default_regression_design
MAX_FAILURE_RATE = 0.05      # failed replicates of one method that abort a study


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
        if self.rule == "tsallis" and self.gamma is not None and not self.gamma > 1.0:
            raise DomainError("method gamma must be > 1 for the tsallis rule")

    def label(self):
        if self.rule == "log":
            return f"log-{self.pivot}"
        g = "auto" if self.gamma is None else f"{self.gamma:g}"
        return f"tsallis({g})-{self.pivot}"


@dataclasses.dataclass(frozen=True)
class H0Spec:
    psi0: float
    alternative: str = "less"

    def __post_init__(self):
        _check_alternative(self.alternative)


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
    interest_index: int | None = None
    # the model that get_model builds from the name and interest_index
    spec: ModelSpec = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.spec = model = get_model(self.model, interest_index=self.interest_index)
        if not (_is_int(self.n_reps) and self.n_reps >= 1):
            raise DomainError(f"n_reps must be an integer of at least 1, got {self.n_reps!r}")
        if not all(0.0 < lv < 1.0 for lv in self.levels):
            raise DomainError("levels must lie in (0, 1)")
        labels = [m.label() for m in self.methods]
        if not labels:
            raise DomainError("a design needs at least one method")
        if len(set(labels)) < len(labels):
            # a report keys its results by label
            raise DomainError(f"method labels must differ, got {labels!r}")
        n_samples = 2 if isinstance(model, _TwoSampleBase) else 1
        if len(self.sizes) != n_samples:
            raise DomainError(f"{self.model} takes {n_samples} sample size(s), "
                              f"got {len(self.sizes)}")
        regression = isinstance(model, LinearRegression)
        # a regression sample needs more observations than design columns
        least = _DESIGN_COLUMNS + 1 if regression else 2
        if not all(_is_int(n) and n >= least for n in self.sizes):
            raise DomainError(f"sample sizes must be integers of at least {least}, "
                              f"got {list(self.sizes)!r}")
        if not (_is_int(self.seed) and self.seed >= 0):
            raise DomainError(f"seed must be a non-negative integer, got {self.seed!r}")
        if regression and not 0 <= model.interest_index < _DESIGN_COLUMNS:
            raise DomainError(f"interest_index must lie in [0, {_DESIGN_COLUMNS}), "
                              f"got {self.interest_index!r}")
        try:
            theta = np.asarray(self.theta, dtype=float)
        except (TypeError, ValueError):
            raise DomainError(f"theta must be a list of numbers, got {self.theta!r}") from None
        # regression: a coefficient per design column, then the variance
        dim = _DESIGN_COLUMNS + 1 if regression else model.dim
        if theta.shape != (dim,) or not model.in_domain(theta):
            raise DomainError(f"theta {self.theta!r} is not an admissible "
                              f"{dim}-vector for {self.model}")
        if self.h0 is not None:
            lo, hi = model.interest_range()
            if not lo < self.h0.psi0 < hi:
                raise DomainError(f"h0 psi0 {self.h0.psi0!r} outside the interest's "
                                  f"range ({lo:g}, {hi:g})")
        if self.contamination is not None:
            c = self.contamination
            if not (_is_int(c.sample_index) and _is_int(c.obs_index)):
                raise DomainError("contamination sample_index and obs_index must be "
                                  f"integers, got {c.sample_index!r}, {c.obs_index!r}")
            if not 0 <= c.sample_index < n_samples:
                raise DomainError(f"{self.model} has {n_samples} sample(s): contamination "
                                  f"sample_index must be in [0, {n_samples}), "
                                  f"got {c.sample_index!r}")
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
            cont = Contamination(c.get("sample_index", 0), c.get("obs_index", -1),
                                 float(c["shift"]))
        return cls(
            model=d["model"], theta=tuple(d["theta"]), sizes=tuple(d["sizes"]),
            n_reps=d["n_reps"], seed=d.get("seed", 0), methods=methods,
            levels=tuple(d.get("levels", (0.5, 0.8, 0.9, 0.95))), h0=h0,
            contamination=cont, interest_index=d.get("interest_index"),
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

def _point_pivots(rule, fits, psis, kind):
    """The pivots at each psi of the replicates of ``fits``, the ``Fits``
    of a stack of replicates. Returns (pivots, psi_hat, failed, errors):
    the pivots, a row per replicate and a column per psi; the interest
    estimate of each replicate's kept free fit; the mask of the replicates
    given up, whose pivots and estimate are NaN; and each one's DomainError
    or NumericsError by its row. A free fit that did not converge gives its
    replicate up.

    A root pivot takes one constrained solve per psi, warm-started at the
    free fit. A constrained score below the free optimum means the free fit
    stopped at a local minimum. The free fit is then refitted once, from
    the constrained estimate of lowest score, and kept if it scores lower;
    the other psis are solved again from the refit, since their solves
    started in the spurious optimum's basin. Otherwise the replicate is
    given up.

    Each step runs on the replicates together, the constrained solves on
    one (replicate, psi) row each, and the results and failures are those
    of each replicate alone (``_stacked``).
    """
    model = rule.model
    psis = np.asarray(psis, dtype=float)
    errors = {r: fits.errors.get(r, NumericsError("fit did not converge"))
              for r in np.flatnonzero(~fits.converged).tolist()}
    rows = np.flatnonzero(fits.converged)
    theta, k = fits.theta_hat[rows], rows.size
    given_up = {}                # position in rows -> the exception that gives it up
    if kind == "wald":
        K, J = fits.K[rows], fits.J[rows]

        def pivot(at, _):
            piv = np.stack([_wald_pivot(model, theta[at], K[at], J[at], psi)[0] for psi in psis],
                           axis=-1)
            # NaN, as at a null value outside the interest's range, gives a row up
            if np.isnan(piv).any():
                raise NumericsError("Wald pivot failed")
            return piv
    else:
        data = fits.data if k == len(fits) else model.take(fits.data, rows)
        s_opt = fits.score_at_opt[rows]
        theta_c = np.full((k, psis.size, theta.shape[-1]), np.nan)
        s_con, nu = np.full((k, psis.size), np.nan), np.full((k, psis.size), np.nan)

        def solve(reps, at):
            """The constrained solves, and nu, of the replicates reps at
            psis[at], warm-started at their free fits; a row whose solve did
            not converge, or whose nu raises, gives its replicate up."""
            (theta_c[reps, at], s_con[reps, at], _, nu[reps, at]), _, errs = _constrained_at(
                rule, model.take(data, reps), psis[at], model.profile_extract(theta[reps]))
            for j in sorted(errs):
                given_up.setdefault(int(reps[j]), errs[j])

        if k:
            solve(*np.divmod(np.arange(k * psis.size), psis.size))
        spurious = np.setdiff1d(np.flatnonzero(_undercut(s_opt[:, None], s_con).any(axis=1)),
                                list(given_up))
        if spurious.size:
            low = np.argmin(s_con[spurious], axis=1)
            refits = _fit_rows(rule, model.take(data, spurious), theta_c[spurious, low])
            better = refits.converged & (refits.score_at_opt < s_opt[spurious])
            for r in spurious[~better].tolist():
                given_up[r] = NumericsError("profile score below the optimum, and no refit "
                                            "lowers it")
            kept = spurious[better]
            theta[kept], s_opt[kept] = refits.theta_hat[better], refits.score_at_opt[better]
            again = [(r, i) for r, j in zip(kept, low[better]) for i in range(psis.size) if i != j]
            if again:
                solve(*np.array(again).T)

        def pivot(at, psi_tilde):
            # a refitted row whose profile still undercuts raises here
            return _signed_root(psi_tilde[:, None], s_opt[at, None], psis, s_con[at], nu[at])
    ok = np.setdiff1d(np.arange(k), list(given_up))
    psi_tilde = model.interest(theta[ok])
    errors.update((int(rows[j]), exc) for j, exc in given_up.items())
    pivots, psi_hat = np.full((len(fits), psis.size), np.nan), np.full(len(fits), np.nan)
    errors.update(_stacked(lambda at: (pivot(ok[at], psi_tilde[at]), psi_tilde[at]), rows[ok],
                           (pivots, psi_hat)))
    return pivots, psi_hat, np.isin(np.arange(len(fits)), list(errors)), errors


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


def _method_rules(methods, model, theta_true, template):
    """Each method's rule; a Tsallis gamma of None is calibrated to 90%
    efficiency at theta_true, once for all the methods that leave it so."""
    auto = None
    if any(m.rule == "tsallis" and m.gamma is None for m in methods):
        auto = calibrate_gamma(model, theta_true, 0.90, template)
    return [ScoreRule.log(model) if m.rule == "log"
            else ScoreRule.tsallis(model, auto if m.gamma is None else m.gamma) for m in methods]


def _fits_by_rule(rules, stack):
    """The free fits of the replicates of ``stack`` under each rule, one
    ``Fits`` per distinct rule: one solve per kind of rule, on a block of
    the replicates per distinct rule of that kind, each Tsallis block's rows
    carrying its gamma."""
    model, n = stack.model, len(stack[0])
    fits = {}
    for kind in dict.fromkeys(rule.kind for rule in rules):
        group = list(dict.fromkeys(rule for rule in rules if rule.kind == kind))
        if len(group) == 1:
            stacked, data = group[0], stack
        else:
            stacked = ScoreRule(kind, model, np.repeat([rule.gamma for rule in group], n))
            data = model.take(stack, np.tile(np.arange(n), len(group)))
        solved = _fit_rows(stacked, data, _start(stacked, data))
        for b, rule in enumerate(group):
            at = slice(b * n, (b + 1) * n)
            fields = {f.name: getattr(solved, f.name)[at] for f in dataclasses.fields(Fits)
                      if f.name not in ("rule", "data", "errors")}
            fits[rule] = Fits(**fields, rule=rule, data=stack, errors={
                r - b * n: exc for r, exc in solved.errors.items() if at.start <= r < at.stop})
    return fits


def run_study(design: SimDesign):
    """Run the replicated study and collect coverage, p-values and medians.

    Replicates whose fit (or constrained fit) fails are dropped for that
    method only and counted; more than MAX_FAILURE_RATE failures for any
    method aborts the study. The replicates are stacked once; the free fits
    of each kind of rule are one solve (``_fits_by_rule``), and each
    method's pivots one step on its block, with the results of solving each
    replicate alone.
    """
    model = design.spec
    X = (default_regression_design(design.sizes[0], design.seed)
         if isinstance(model, LinearRegression) else None)
    theta_true = np.asarray(design.theta, dtype=float)
    psi_true = float(model.interest(theta_true))
    template = model.sample(theta_true, design.sizes, np.random.default_rng(0), design=X)

    z = {lv: float(ndtri(0.5 * (1.0 + lv))) for lv in design.levels}
    # the pivot at psi_true gives coverage; the last one, the p-value
    psis = [psi_true]
    if design.h0 is not None and design.h0.psi0 != psi_true:
        psis.append(design.h0.psi0)
    datasets = []
    for rep in range(design.n_reps):
        rng = np.random.default_rng([design.seed, rep])
        data = model.sample(theta_true, design.sizes, rng, design=X)
        if design.contamination is not None:
            data = contaminate(model, data, design.contamination)
        datasets.append(model.checked(data))
    stack = model.stack(datasets)
    rules = _method_rules(design.methods, model, theta_true, template)
    fits = _fits_by_rule(rules, stack)
    results = {}
    for meth, rule in zip(design.methods, rules):
        pivots, psi_hat, failed, _ = _point_pivots(rule, fits[rule], psis, meth.pivot)
        pivots, psi_hat = pivots[~failed], psi_hat[~failed]
        results[meth.label()] = MethodResult(
            label=meth.label(), levels=design.levels, n_used=len(psi_hat),
            n_failed=int(np.count_nonzero(failed)),
            cover_counts={lv: int(np.sum(np.abs(pivots[:, 0]) <= z[lv])) for lv in design.levels},
            pvalues=[] if design.h0 is None else _tail_p(pivots[:, -1],
                                                         design.h0.alternative).tolist(),
            medians=psi_hat.tolist())

    for label, res in results.items():
        if res.n_failed > MAX_FAILURE_RATE * design.n_reps:
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
