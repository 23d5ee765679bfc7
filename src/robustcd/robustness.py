"""Influence diagnostics and tuning of the robustness constant.

The influence function of the score estimator is K(theta)^-1 s(y; theta);
the tail-area influence function (TAIF) measures the first-order effect of
an infinitesimal contamination at y on a CD tail area and is proportional
to the estimating function, so it is bounded exactly when s(y; theta) is.
``calibrate_gamma`` picks the Tsallis constant that concedes a prescribed
efficiency loss relative to maximum likelihood under the assumed model.
"""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np
from scipy.special import ndtr

from .errors import DomainError, NumericsError
from .models import _fd_jacobian, normal_pdf
from .confidence import (
    _constrained_at,
    _nu_at,
    _signed_root,
    _to_pivot_scale,
    _wald_location_scale,
)
from .scoring import (
    ScoreRule,
    _Objective,
    _from_z,
    _to_z,
    checked_inverse,
    empirical_J,
    empirical_K,
    estimate_KJ,
    fit as fit_rule,
    minimize_smooth,
    per_obs_gradient,
    score_terms,
)

__all__ = [
    "influence_function",
    "TAIFProfile",
    "taif",
    "taif_contamination_oracle",
    "calibrate_gamma",
    "efficiency_ratio",
]


def single_obs_gradient(rule, data, theta, ys, component=0):
    """Estimating-function contribution s(y; theta) of hypothetical points."""
    frame = rule.model.contamination_frame(ys, data, component=component)
    return per_obs_gradient(rule, frame, theta)


def influence_function(rule, data, theta, ys, component=0, k_mode="auto"):
    """First-order effect on the estimator of contaminating the sample at y.

    The estimator solves sum_i s(y_i; theta) = 0, so contaminating the
    empirical measure with mass eps at y perturbs it by
    -n K(theta)^-1 s(y; theta) per unit eps (K is the total sensitivity).
    For the one-sample normal mean under the log score this is exactly
    y - mu. One row per y. ``k_mode="empirical"`` uses the observed
    sensitivity, which makes this the exact refit derivative in finite
    samples; "auto" takes K from ``estimate_KJ``.
    """
    K = (empirical_K(rule, data, theta) if k_mode == "empirical"
         else estimate_KJ(rule, data, theta)[0])
    Kinv = checked_inverse(K, "sensitivity matrix K")
    s = single_obs_gradient(rule, data, theta, ys, component=component)
    out = -rule.model.nobs(data) * (s @ Kinv.T)
    return out[0] if np.isscalar(ys) else out


# ---------------------------------------------------------------------------
# Tail-area influence
# ---------------------------------------------------------------------------

@dataclasses.dataclass(eq=False)
class TAIFProfile:
    """TAIF values over an observation grid with a boundedness verdict."""

    y_grid: np.ndarray
    taif_values: np.ndarray
    sup_abs: float
    bounded_verdict: bool
    pivot_kind: str
    psi_fixed: float
    shells: tuple                # (n leading, n trailing) far-tail probe points

    def to_dict(self):
        return {
            "y_grid": self.y_grid.tolist(),
            "taif": self.taif_values.tolist(),
            "sup_abs": self.sup_abs,
            "bounded": bool(self.bounded_verdict),
            "pivot": self.pivot_kind,
            "psi": self.psi_fixed,
        }


def _wald_pivot_of_theta(rule, data, theta, psi):
    """The Wald pivot at fixed psi seen as a smooth function of the estimate."""
    model = rule.model
    loc, se = _wald_location_scale(model, theta, *estimate_KJ(rule, data, theta))
    return (loc - _to_pivot_scale(psi, model.wald_scale)) / se


def _default_y_grid(model, data, theta, component, n_interior=401, reach=20.0):
    """Interior grid around the fitted center plus decade-spaced far-tail
    shells on each unbounded side. Returns (grid, n_left_shell, n_right_shell)."""
    center, scale = model.obs_center_scale(data, theta, component)
    lo_s, hi_s = model.component_support(component)
    lo_edge = center - reach * scale
    hi_edge = center + reach * scale
    if np.isfinite(lo_s):
        lo_edge = max(lo_edge, lo_s + 1e-9 * max(scale, 1.0))
    if np.isfinite(hi_s):
        hi_edge = min(hi_edge, hi_s - 1e-9 * max(scale, 1.0))
    interior = np.linspace(lo_edge, hi_edge, n_interior)
    left = (center - reach * scale * 10.0 ** np.arange(4.0, 0.0, -1.0)
            if not np.isfinite(lo_s) else np.empty(0))
    right = (center + reach * scale * 10.0 ** np.arange(1.0, 5.0)
             if not np.isfinite(hi_s) else np.empty(0))
    return np.concatenate([left, interior, right]), left.size, right.size


def _root_taif_values(rule, data, fit_result, psi, ys, component):
    """Exact first-order tail-area derivative for the root pivot.

    The score-ratio terms are differentiated by the envelope theorem (the
    optimizer motion drops out), and the motion of nu along the constrained
    estimate is added through the constrained refit derivative. No
    epsilon-refit is performed.
    """
    model = rule.model
    theta = fit_result.theta_hat
    n = model.nobs(data)
    theta_c, s_con, lam_c = _constrained_at(rule, data, psi, model.profile_extract(theta))
    nu = _nu_at(rule, data, theta_c)
    r_val = float(_signed_root(fit_result.psi_tilde, fit_result.score_at_opt, psi, s_con, nu))
    if abs(r_val) < 1e-4:
        # degenerate at the estimate; the caller falls back to the Wald form
        return r_val, None
    W = 2.0 * (s_con - fit_result.score_at_opt)      # positive, as |r_val| >= 1e-4

    frame = model.contamination_frame(ys, data, component=component)
    sy_con = score_terms(rule, frame, theta_c)
    sy_free = score_terms(rule, frame, theta)
    dW = 2.0 * ((n * sy_con - s_con) - (n * sy_free - fit_result.score_at_opt))

    # motion of nu through the constrained estimate
    jac = model.profile_embed_jac(psi, lam_c)
    _, _, H = _Objective(rule, data, psi).derivatives(lam_c)   # observed nuisance Hessian
    s_c = single_obs_gradient(rule, data, theta_c, np.atleast_1d(ys), component=component)
    dlam = -n * np.linalg.solve(H, jac.T @ s_c.T).T
    grad_nu = _fd_jacobian(lambda t: _nu_at(rule, data, t), theta_c)
    dnu = (dlam @ jac.T) @ grad_nu
    dr = (dW / nu - (W / nu ** 2) * dnu) / (2.0 * r_val)
    return r_val, -normal_pdf(r_val) * dr


def taif(rule, data, pivot_kind, psi, y_grid=None, component=0, fit_result=None):
    """Tail-area influence of a contamination at y on C(psi), over a y grid.

    Computed by the chain rule: the pivot sensitivity in the estimate,
    composed with the influence function, times the normal density at the
    pivot. The verdict is "bounded" when the outermost grid shells have
    decayed below a tenth of the interior maximum.
    """
    if pivot_kind not in ("wald", "root"):
        raise DomainError("pivot_kind must be 'wald' or 'root'")
    model = rule.model
    data = model.checked(data)
    if fit_result is None:
        fit_result = fit_rule(rule, data)
    theta = fit_result.theta_hat
    if y_grid is None:
        y_grid, n_left, n_right = _default_y_grid(model, data, theta, component)
    else:
        y_grid = np.asarray(y_grid, dtype=float)
        # tiny user grids carry no tail shells and hence no decay verdict
        n_left = n_right = min(2, y_grid.size // 4)

    if pivot_kind == "root":
        r_val, vals = _root_taif_values(rule, data, fit_result, psi, y_grid, component)
        if abs(r_val) < 1e-4:
            # the root pivot degenerates at the estimate; its derivative
            # coincides with the Wald form there
            pivot_kind_eff = "wald"
        else:
            pivot_kind_eff = "root"
    else:
        pivot_kind_eff = "wald"
    if pivot_kind_eff == "wald":
        q = _wald_pivot_of_theta(rule, data, theta, psi)
        # tail area is C = Phi(-pivot) with the pivot decreasing in psi, so
        # its estimate-sensitivity carries a minus sign; the Wald form is the
        # first-order representation shared by both pivot kinds, and the
        # observed sensitivity makes the composition the exact refit derivative
        sens = -_fd_jacobian(lambda t: _wald_pivot_of_theta(rule, data, t, psi), theta,
                             rel_step=1e-5)
        infl = influence_function(rule, data, theta, y_grid,
                                  component=component, k_mode="empirical")
        vals = float(normal_pdf(q)) * (infl @ sens)

    absvals = np.abs(vals)
    interior = absvals[n_left:absvals.size - n_right] if n_right else absvals[n_left:]
    interior_max = float(np.max(interior)) if interior.size else float(np.max(absvals))
    shell_parts = []
    if n_left:
        shell_parts.append(absvals[:min(2, n_left)])
    if n_right:
        shell_parts.append(absvals[-min(2, n_right):])
    if shell_parts:
        shell = float(np.max(np.concatenate(shell_parts)))
        bounded = bool(shell <= 0.1 * max(interior_max, 1e-300))
    else:
        # compact support: the grid maximum is the (finite) supremum
        bounded = True
    return TAIFProfile(
        y_grid=y_grid, taif_values=vals, sup_abs=float(absvals.max()),
        bounded_verdict=bounded, pivot_kind=pivot_kind, psi_fixed=float(psi),
        shells=(n_left, n_right),
    )


# ---------------------------------------------------------------------------
# epsilon-mixture oracle
# ---------------------------------------------------------------------------

def _mixture_fit(rule, data, mixture, theta0):
    """(theta, value) minimizing the eps-mixture objective from theta0."""
    objective = _Objective(rule, data, mixture=mixture)
    z, val, _, _ = minimize_smooth(objective, _to_z(theta0, objective.positive))
    if not np.isfinite(val):
        raise NumericsError("mixture refit failed")
    return _from_z(z, objective.positive), val


def taif_contamination_oracle(rule, data, pivot_kind, psi, ys, eps=1e-4,
                              component=0, fit_result=None):
    """Finite-epsilon derivative of the CD tail area under point contamination.

    Refits on the eps-mixture (with a Richardson step at eps/2 to remove the
    O(eps) bias) and differences Phi(pivot). Points whose refit fails are
    returned as NaN; a root pivot that fails on the uncontaminated fit
    raises NumericsError, as in ``taif``.
    """
    model = rule.model
    data = model.checked(data)
    if fit_result is None:
        fit_result = fit_rule(rule, data)
    theta0 = fit_result.theta_hat

    def tail_area(mixture=None):
        """C(psi) from the fit refitted on ``mixture=(eps, frame)``, or from
        the fit itself."""
        if mixture is None:
            theta, score = theta0, fit_result.score_at_opt
        else:
            theta, score = _mixture_fit(rule, data, mixture, theta0)
        if pivot_kind == "wald":
            return float(ndtr(-_wald_pivot_of_theta(rule, data, theta, psi)))
        theta_c, s_con, _ = _constrained_at(rule, data, psi, model.profile_extract(theta),
                                            mixture)
        nu = _nu_at(rule, data, theta_c)
        return float(ndtr(-_signed_root(model.interest(theta), score, psi, s_con, nu)))

    base = tail_area()
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    out = np.empty(ys.size)
    for i, y in enumerate(ys):
        try:
            frame = model.checked(model.contamination_frame([y], data, component=component))
            d_full = (tail_area((eps, frame)) - base) / eps
            d_half = (tail_area((eps / 2.0, frame)) - base) / (eps / 2.0)
            out[i] = 2.0 * d_half - d_full
        except (DomainError, NumericsError):
            warnings.warn(f"oracle refit failed at y={y:g}; point skipped", stacklevel=2)
            out[i] = np.nan
    return out


# ---------------------------------------------------------------------------
# gamma calibration
# ---------------------------------------------------------------------------

def _expected_kj_any(model, rule_kind, gamma, data, theta, mc_seed=0, mc_size=20000):
    kj = model.expected_kj(rule_kind, gamma, data, theta)
    if kj is not None:
        return kj
    # large-sample empirical expectation for models without analytic forms
    rng = np.random.default_rng(mc_seed)
    n = model.nobs(data)
    big = model.checked(model.sample(theta, _scaled_sizes(data, mc_size), rng))
    rule = ScoreRule.log(model) if rule_kind == "log" else ScoreRule.tsallis(model, gamma)
    scale = n / model.nobs(big)
    return (empirical_K(rule, big, theta) * scale,
            empirical_J(rule, big, theta) * scale)


def _scaled_sizes(data, target):
    try:
        x, y = data
        total = len(x) + len(y)
        return (max(int(target * len(x) / total), 2), max(int(target * len(y) / total), 2))
    except (TypeError, ValueError):
        return target


def efficiency_ratio(model, gamma, data, theta_ref, measure="min"):
    """Asymptotic efficiency of the Tsallis estimator relative to the MLE.

    Variance ratios are formed from the sandwich variances implied by the
    expected K and J under the model at ``theta_ref``. ``measure`` selects
    the summary: "min" (worst coordinate), "interest", "trace", or a
    coordinate index.
    """
    from .scoring import sandwich

    K0, J0 = _expected_kj_any(model, "log", None, data, theta_ref)
    Kg, Jg = _expected_kj_any(model, "tsallis", gamma, data, theta_ref)
    V0, _ = sandwich(K0, J0)
    Vg, _ = sandwich(Kg, Jg)
    if measure == "interest":
        grad = model.interest_grad(theta_ref)
        return float((grad @ V0 @ grad) / (grad @ Vg @ grad))
    if measure == "trace":
        return float(np.trace(V0) / np.trace(Vg))
    ratios = np.diag(V0) / np.diag(Vg)
    if measure == "min":
        return float(np.min(ratios))
    return float(ratios[int(measure)])


def calibrate_gamma(model, theta_ref, target_efficiency, data_template,
                    measure="min", gamma_max=3.0, tol=1e-4):
    """Solve efficiency(gamma) = target by bisection on gamma in (1, gamma_max].

    The efficiency curve is checked to be decreasing on the bracket. A target
    of (numerically) full efficiency returns the lower bracket edge with a
    warning, since the log score is the gamma -> 1 limit.
    """
    if not 0.0 < target_efficiency <= 1.0:
        raise DomainError("target efficiency must be in (0, 1]")
    theta_ref = np.asarray(theta_ref, dtype=float)
    data = model.checked(data_template)

    def are(gamma):
        return efficiency_ratio(model, gamma, data, theta_ref, measure=measure)

    lo, hi = 1.0 + tol, gamma_max
    probe = np.linspace(lo, hi, 6)
    vals = [are(g) for g in probe]
    if np.any(np.diff(vals) >= 0):
        warnings.warn("efficiency is not monotone on the bracket; "
                      "bisection may return one of several roots", stacklevel=2)
    if target_efficiency >= vals[0]:
        warnings.warn(
            f"target efficiency {target_efficiency:g} is reached at the lower bracket "
            f"edge (efficiency({lo:g}) = {vals[0]:.6f}); returning the edge", stacklevel=2)
        return lo
    if target_efficiency < vals[-1]:
        raise DomainError(
            f"target efficiency {target_efficiency:g} is below the bracket range: "
            f"efficiency({lo:g}) = {vals[0]:.4f}, efficiency({hi:g}) = {vals[-1]:.4f}")
    a, b = lo, hi
    while b - a > tol:
        mid = 0.5 * (a + b)
        if are(mid) > target_efficiency:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)
