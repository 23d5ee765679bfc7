"""Confidence distributions and curves from scoring-rule pivots.

Two pivot constructions are provided for a scalar interest parameter:

* the profile Wald pivot ``(psi_tilde - psi) / se`` with ``se^2`` the
  interest entry of the inverse Godambe information, and
* the adjusted profile score-ratio root: the signed square root of
  ``2 (S(theta_psi) - S(theta_hat)) / nu`` with ``nu`` the scale factor that
  restores a chi-square(1) null law when sensitivity and variability differ.

A confidence distribution C is obtained as ``Phi(-pivot)`` so that C is
increasing in psi; the confidence curve is ``|1 - 2 C|``.
"""

from __future__ import annotations

import dataclasses
import json
import warnings

import numpy as np
from scipy.optimize import brentq, isotonic_regression
from scipy.special import ndtr, ndtri

from .errors import DomainError, NumericsError
from .scoring import (
    _Objective,
    _from_z,
    _to_z,
    estimate_KJ,
    fit as fit_rule,
    interest_information,
    minimize_smooth,
)

__all__ = [
    "ProfileTrace",
    "ConfidenceObject",
    "ConfidenceInterval",
    "constrained_fit",
    "profile",
    "pivot_wald",
    "pivot_root",
    "build_cd",
    "ci",
    "p_value",
    "evidence",
]

# A constrained score below the free optimum by more than W_TOL (1 + |S|)
# means the free fit is not the optimum; a smaller dip is round-off.
W_TOL = 1e-8


# ---------------------------------------------------------------------------
# Constrained estimation
# ---------------------------------------------------------------------------

def constrained_fit(rule, data, psi, lam0=None):
    """Minimize the total score over the nuisance with the interest fixed.

    Returns (theta, score, lam, converged).
    """
    model = rule.model
    data = model.checked(data)
    if lam0 is None:
        lam0 = model.profile_extract(model.default_start(data))
    return _constrained_solve(_Objective(rule, data, psi), lam0)


def _constrained_solve(objective, lam0):
    """(theta, score, lam, converged) of a constrained objective from lam0;
    converged is the objective's verdict at the solve's end point."""
    z, val, _, _ = minimize_smooth(objective, _to_z(lam0, objective.positive))
    lam = _from_z(z, objective.positive)
    _, converged = objective.verdict(lam)
    return objective.theta(lam), float(val), lam, converged


def _constrained_at(rule, data, psi, lam0, mixture=None):
    """(theta_psi, S(theta_psi), lam_psi) of the constrained solve at psi
    from lam0, on the eps-mixture objective when ``mixture=(eps, frame)``.

    Every root pivot takes its constrained solve from here, and a solve
    that did not converge raises NumericsError.
    """
    if mixture is None:
        theta, score, lam, converged = constrained_fit(rule, data, psi, lam0=lam0)
    else:
        theta, score, lam, converged = _constrained_solve(
            _Objective(rule, data, psi, mixture), lam0)
    if not converged:
        raise NumericsError("constrained fit did not converge", detail={"psi": float(psi)})
    return theta, score, lam


def _nu_at(rule, data, theta):
    """nu = g_psipsi / k_psipsi evaluated at a (possibly constrained) estimate."""
    K, J = estimate_KJ(rule, data, theta)
    k_pp, g_pp = interest_information(K, J, rule.model.interest_grad(theta))
    return g_pp / k_pp


@dataclasses.dataclass(eq=False)
class ProfileTrace:
    """Constrained estimates, profile score and nu along an interest grid."""

    psi_grid: np.ndarray
    lam_hat: np.ndarray          # (n_grid, d-1)
    score_profile: np.ndarray
    nu: np.ndarray
    failed: np.ndarray           # bool flags for interpolated grid points


def profile(rule, data, psi_grid, fit_result=None):
    """Sweep the interest grid, warm-starting each constrained fit from its
    neighbor; failed points are interpolated from neighbors and flagged."""
    model = rule.model
    data = model.checked(data)
    psi_grid = np.asarray(psi_grid, dtype=float)
    if psi_grid.ndim != 1 or psi_grid.size < 2 or np.any(np.diff(psi_grid) <= 0):
        raise DomainError("psi_grid must be a sorted 1-D grid")
    if fit_result is None:
        fit_result = fit_rule(rule, data)
    psi_tilde = model.interest(fit_result.theta_hat)
    lam_tilde = model.profile_extract(fit_result.theta_hat)

    n = psi_grid.size
    lam_hat = np.empty((n, lam_tilde.size))
    score = np.empty(n)
    nu = np.empty(n)
    failed = np.zeros(n, dtype=bool)

    i0 = int(np.argmin(np.abs(psi_grid - psi_tilde)))
    order = list(range(i0, -1, -1)) + list(range(i0 + 1, n))
    for idx_pos, i in enumerate(order):
        if i == i0:
            warm = lam_tilde
        elif i < i0:
            warm = lam_hat[i + 1]
        else:
            warm = lam_hat[i - 1]
        try:
            theta_i, score[i], lam_hat[i] = _constrained_at(rule, data, psi_grid[i], warm)
            nu[i] = _nu_at(rule, data, theta_i)
        except (DomainError, NumericsError):
            failed[i] = True
            lam_hat[i] = warm if idx_pos else lam_tilde
            score[i] = np.nan
            nu[i] = np.nan
    if failed.any():
        warnings.warn(f"{int(failed.sum())} profile grid point(s) failed; "
                      "interpolating from neighbors", stacklevel=2)
        ok = ~failed
        if ok.sum() < 2:
            raise NumericsError("profile failed on nearly the whole grid")
        for arr in (score, nu):
            arr[failed] = np.interp(psi_grid[failed], psi_grid[ok], arr[ok])
        for j in range(lam_hat.shape[1]):
            lam_hat[failed, j] = np.interp(psi_grid[failed], psi_grid[ok], lam_hat[ok, j])
    if np.any(nu <= 0):
        raise NumericsError("nonpositive nu along the profile")
    return ProfileTrace(psi_grid=psi_grid, lam_hat=lam_hat,
                        score_profile=score, nu=nu, failed=failed)


# ---------------------------------------------------------------------------
# Pivots
# ---------------------------------------------------------------------------

def _wald_location_scale(model, theta, K, J):
    """(psi_tilde, se) of the estimate theta on the pivot scale (identity or
    logit), with se from the sensitivity K and variability J at theta."""
    psi_tilde = float(model.interest(theta))
    _, g_pp = interest_information(K, J, model.interest_grad(theta))
    se = float(np.sqrt(g_pp))
    if model.wald_scale == "logit":
        eta = float(np.log(psi_tilde / (1.0 - psi_tilde)))
        se_eta = se / (psi_tilde * (1.0 - psi_tilde))
        return eta, se_eta
    return psi_tilde, se


def _to_pivot_scale(psi, wald_scale):
    psi = np.asarray(psi, dtype=float)
    if wald_scale == "logit":
        return np.log(psi / (1.0 - psi))
    return psi


def pivot_wald(fit_result, psi):
    """Profile Wald pivot (psi_tilde - psi) / se, decreasing in psi.

    For (0,1)-valued interest parameters the pivot is formed on the logit
    scale and intervals are transformed back.
    """
    if not fit_result.converged:
        raise NumericsError("Wald pivot requires a converged fit")
    model = fit_result.rule.model
    loc, se = _wald_location_scale(model, fit_result.theta_hat, fit_result.K, fit_result.J)
    return (loc - _to_pivot_scale(psi, model.wald_scale)) / se


def _signed_root(psi_tilde, s_opt, psi, s_con, nu):
    """Adjusted score-ratio root sign(psi_tilde - psi) sqrt(W / nu), with
    W = 2 (S(theta_psi) - S(theta_hat)); elementwise over arrays.

    W below -W_TOL (1 + |S(theta_hat)|) raises NumericsError; a smaller
    negative W is clamped to 0.
    """
    W = 2.0 * (s_con - s_opt)
    if np.min(W) < -W_TOL * (1.0 + abs(s_opt)):
        raise NumericsError("profile score below the optimum; the free fit is suspect",
                            detail={"W_min": float(np.min(W))})
    return np.sign(psi_tilde - psi) * np.sqrt(np.maximum(W, 0.0) / nu)


def pivot_root(trace, fit_result, psi):
    """Adjusted profile score-ratio root at one interest value.

    Re-solves the constrained problem at psi (warm-started from the trace)
    and returns sign(psi_tilde - psi) sqrt(W / nu) with
    W = 2 (S(theta_psi) - S(theta_hat)) and nu interpolated along the trace.
    Raises NumericsError when the solve does not converge or W is below the
    optimum.
    """
    psi = float(psi)
    grid = trace.psi_grid
    if not grid[0] <= psi <= grid[-1]:
        raise DomainError("psi outside the profile grid hull")
    warm = trace.lam_hat[int(np.argmin(np.abs(grid - psi)))]
    _, s_con, _ = _constrained_at(fit_result.rule, fit_result.data, psi, warm)
    nu = float(np.interp(psi, grid, trace.nu))
    return float(_signed_root(fit_result.psi_tilde, fit_result.score_at_opt, psi, s_con, nu))


# ---------------------------------------------------------------------------
# Confidence objects
# ---------------------------------------------------------------------------

@dataclasses.dataclass(eq=False)
class ConfidenceObject:
    """A confidence distribution on a grid: pivot values, C and cc."""

    kind: str                    # "wald" | "root"
    model_name: str
    rule_kind: str
    gamma: float | None
    psi_grid: np.ndarray
    pivot_values: np.ndarray
    cdf_values: np.ndarray
    cc_values: np.ndarray
    psi_tilde: float
    se: float                    # pivot-scale standard error at the fit
    wald_scale: str
    n_repaired: int = 0
    repair_max: float = 0.0

    def pivot_at(self, psi):
        psi = np.asarray(psi, dtype=float)
        if np.any(psi < self.psi_grid[0]) or np.any(psi > self.psi_grid[-1]):
            raise DomainError("psi outside the grid hull")
        return np.interp(psi, self.psi_grid, self.pivot_values)

    def cdf_at(self, psi):
        return ndtr(-self.pivot_at(psi))

    def to_dict(self, levels=()):
        out = {
            "model": self.model_name,
            "rule": self.rule_kind,
            "gamma": self.gamma,
            "kind": self.kind,
            "psi_grid": self.psi_grid.tolist(),
            "pivot": self.pivot_values.tolist(),
            "cdf": self.cdf_values.tolist(),
            "cc": self.cc_values.tolist(),
            "psi_tilde": self.psi_tilde,
            "se": self.se,
            "wald_scale": self.wald_scale,
            "ci": {},
        }
        for level in levels:
            interval = ci(self, level)
            out["ci"][f"{level:g}"] = [interval.lo, interval.hi]
        return out

    @classmethod
    def from_dict(cls, d):
        return cls(
            kind=d["kind"], model_name=d["model"], rule_kind=d["rule"],
            gamma=d["gamma"],
            psi_grid=np.asarray(d["psi_grid"], dtype=float),
            pivot_values=np.asarray(d["pivot"], dtype=float),
            cdf_values=np.asarray(d["cdf"], dtype=float),
            cc_values=np.asarray(d["cc"], dtype=float),
            psi_tilde=float(d["psi_tilde"]), se=float(d["se"]),
            wald_scale=d.get("wald_scale", "identity"),
        )

    def save(self, path, levels=()):
        with open(path, "w") as fh:
            json.dump(self.to_dict(levels), fh, indent=2)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


@dataclasses.dataclass(frozen=True)
class ConfidenceInterval:
    lo: float
    hi: float
    lo_open: bool = False
    hi_open: bool = False

    def __iter__(self):
        return iter((self.lo, self.hi))


def default_grid(psi_tilde, se_natural, interest_range, n_points=201, span=6.0):
    """Symmetric grid around the estimate, clipped to the admissible range,
    always containing the estimate as a grid point."""
    lo_r, hi_r = interest_range
    width = hi_r - lo_r if np.isfinite(hi_r - lo_r) else np.inf
    # keep a finite-boundary margin wide enough that the constrained model
    # does not degenerate numerically at the grid edge
    inset = 1e-4 * width if np.isfinite(width) else 0.0
    lo = max(psi_tilde - span * se_natural, lo_r + inset)
    hi = min(psi_tilde + span * se_natural, hi_r - inset)
    if not lo < psi_tilde < hi:
        raise NumericsError("interest estimate too close to the admissible boundary")
    half = (n_points + 1) // 2
    left = np.linspace(lo, psi_tilde, half)
    right = np.linspace(psi_tilde, hi, half)[1:]
    return np.concatenate([left, right])


def build_cd(rule, data, kind, psi_grid=None, fit_result=None, n_grid=201,
             span=6.0):
    """Construct a confidence distribution of the requested kind.

    C is Phi(-pivot) with the pivot decreasing in psi; any monotonicity
    violations of the raw pivot are repaired by an isotonic projection
    anchored at the estimate (C(psi_tilde) stays 1/2), and the repair size is
    recorded on the C scale.
    """
    if kind not in ("wald", "root"):
        raise DomainError("kind must be 'wald' or 'root'")
    model = rule.model
    data = model.checked(data)
    if fit_result is None:
        fit_result = fit_rule(rule, data)
    theta = fit_result.theta_hat
    psi_tilde = float(model.interest(theta))
    _, g_pp = interest_information(fit_result.K, fit_result.J, model.interest_grad(theta))
    se_natural = float(np.sqrt(g_pp))
    if psi_grid is None:
        psi_grid = default_grid(psi_tilde, se_natural, model.interest_range(),
                                n_points=n_grid, span=span)
    else:
        psi_grid = np.asarray(psi_grid, dtype=float)
        if psi_tilde < psi_grid[0] or psi_tilde > psi_grid[-1]:
            raise DomainError("supplied grid does not cover the interest estimate")
        if not np.any(np.isclose(psi_grid, psi_tilde, rtol=0, atol=1e-12)):
            psi_grid = np.sort(np.append(psi_grid, psi_tilde))

    i0 = int(np.argmin(np.abs(psi_grid - psi_tilde)))
    if kind == "wald":
        raw = np.asarray(pivot_wald(fit_result, psi_grid), dtype=float)
    else:
        trace = profile(rule, data, psi_grid, fit_result=fit_result)
        raw = _signed_root(psi_tilde, fit_result.score_at_opt, psi_grid,
                           trace.score_profile, trace.nu)
    raw[i0] = 0.0

    # orientation clip + isotonic repair, anchored at the estimate
    clipped = raw.copy()
    clipped[:i0] = np.maximum(clipped[:i0], 0.0)
    clipped[i0 + 1:] = np.minimum(clipped[i0 + 1:], 0.0)
    pivot = isotonic_regression(clipped, increasing=False).x
    delta_c = np.abs(ndtr(-pivot) - ndtr(-raw))
    n_repaired = int(np.sum(delta_c > 1e-12))
    if n_repaired > 0.10 * psi_grid.size:
        warnings.warn(
            f"monotonicity repair touched {n_repaired}/{psi_grid.size} grid points; "
            "the profile looks irregular", stacklevel=2)

    cdf = ndtr(-pivot)
    cc = np.abs(1.0 - 2.0 * cdf)
    _, se_pivot = _wald_location_scale(model, theta, fit_result.K, fit_result.J)
    return ConfidenceObject(
        kind=kind, model_name=model.name, rule_kind=rule.kind, gamma=rule.gamma,
        psi_grid=psi_grid, pivot_values=pivot, cdf_values=cdf, cc_values=cc,
        psi_tilde=psi_tilde, se=se_pivot, wald_scale=model.wald_scale,
        n_repaired=n_repaired, repair_max=float(delta_c.max() if delta_c.size else 0.0),
    )


# ---------------------------------------------------------------------------
# Interval, p-value, evidence
# ---------------------------------------------------------------------------

def _logit_inv(x):
    return 1.0 / (1.0 + np.exp(-x))


def ci(cd, level):
    """Equi-tailed interval {psi : |pivot(psi)| <= z_(1+level)/2}.

    Wald intervals are closed-form on the pivot scale; root intervals are
    found by root-finding on the interpolated pivot. Endpoints that fall
    outside the grid hull are returned as the hull bound with an open flag.
    """
    if not 0.0 < level < 1.0:
        raise DomainError("level must be in (0, 1)")
    z = float(ndtri(0.5 * (1.0 + level)))
    if cd.kind == "wald":
        if cd.wald_scale == "logit":
            eta = np.log(cd.psi_tilde / (1.0 - cd.psi_tilde))
            return ConfidenceInterval(float(_logit_inv(eta - z * cd.se)),
                                      float(_logit_inv(eta + z * cd.se)))
        return ConfidenceInterval(cd.psi_tilde - z * cd.se, cd.psi_tilde + z * cd.se)

    grid, pv = cd.psi_grid, cd.pivot_values
    xtol = 1e-8 * (1.0 + abs(cd.psi_tilde))

    def solve(target, lo, hi):
        f = lambda p: np.interp(p, grid, pv) - target
        return float(brentq(f, lo, hi, xtol=xtol))

    if pv[0] < z:
        lo, lo_open = float(grid[0]), True
    else:
        lo, lo_open = solve(z, grid[0], cd.psi_tilde), False
    if pv[-1] > -z:
        hi, hi_open = float(grid[-1]), True
    else:
        hi, hi_open = solve(-z, cd.psi_tilde, grid[-1]), False
    if lo_open or hi_open:
        warnings.warn(f"{level:g} interval endpoint(s) outside the grid hull; "
                      "returning hull bounds", stacklevel=2)
    return ConfidenceInterval(lo, hi, lo_open, hi_open)


_ALTERNATIVES = ("less", "greater", "two_sided", "two-sided")


def _check_alternative(alternative):
    if alternative not in _ALTERNATIVES:
        raise DomainError("alternative must be 'less', 'greater' or 'two_sided'")


def _tail_p(q, alternative):
    """P-value of the pivot value q: Phi(-q), Phi(q) or 2 (1 - Phi(|q|))."""
    _check_alternative(alternative)
    if alternative == "less":
        return float(ndtr(-q))
    if alternative == "greater":
        return float(ndtr(q))
    return float(2.0 * (1.0 - ndtr(abs(q))))


def p_value(cd, psi0, alternative="two_sided"):
    """P-value for H0: psi = psi0 against the given alternative.

    "less" and "greater" are the CD tail areas C(psi0) and 1 - C(psi0); the
    two-sided p-value is 2 (1 - Phi(|pivot(psi0)|)).
    """
    return _tail_p(float(cd.pivot_at(psi0)), alternative)


def evidence(cd, psi1, psi2):
    """Confidence mass C(psi2) - C(psi1) assigned to the interval (psi1, psi2)."""
    if not psi1 < psi2:
        raise DomainError("require psi1 < psi2")
    return float(cd.cdf_at(psi2) - cd.cdf_at(psi1))
