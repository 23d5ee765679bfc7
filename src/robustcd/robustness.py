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

from .errors import DomainError, NumericsError
from .models import _fd_jacobian, ndtr, normal_pdf
from .confidence import (_constrained_at, _fit_for, _nu_at, _root_fit, _signed_root,
                         _undercut, _wald_pivot, pivot_root, pivot_wald)
from .scoring import (
    _Objective,
    _derivatives,
    _stacked,
    _to_z,
    checked_inverse,
    empirical_K,
    estimate_KJ,
    per_obs_gradient,
    sandwich,
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

ORACLE_EPS = 1e-4            # contamination mass of the oracle's refit
# A column of |b| over a probe grid is bounded when its far-tail shell
# probes have decayed to at most this fraction of its interior maximum, or,
# toward a finite edge of the support, when |b| no longer grows there: the
# probe nearer the edge is at most (1 + EDGE_GROWTH) times the other.
DECAY_RATIO = 0.1
EDGE_GROWTH = 1e-6
# TAIF observation grid: interior points, and the reach of the interior in
# fitted scales; the far-tail shells lie 10 to 10^4 reaches out
Y_GRID_POINTS = 401
Y_GRID_REACH = 20.0
# calibrate_gamma bisects on (1 + GAMMA_TOL, GAMMA_MAX] to width GAMMA_TOL,
# GAMMA_TREE_DEPTH steps a round: a round evaluates, as one stack, every
# midpoint that those steps can visit
GAMMA_MAX = 3.0
GAMMA_TOL = 1e-4
GAMMA_TREE_DEPTH = 5


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
    data = rule.model.one(data)
    K = (empirical_K(rule, data, theta) if k_mode == "empirical"
         else estimate_KJ(rule, data, theta)[0])
    Kinv = checked_inverse(K, "sensitivity matrix K")
    s = per_obs_gradient(rule, rule.model.contamination_frame(ys, data, component=component),
                         theta)
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
    shells: tuple                # (n leading, n trailing) shell probe points

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
    """The Wald pivot at fixed psi seen as a smooth function of the estimate,
    or one per row of a stack of datasets and estimates."""
    return _wald_pivot(rule.model, theta, *estimate_KJ(rule, data, theta), psi)[0]


def _default_y_grid(model, data, theta, component):
    """Interior grid around the fitted center plus two shell probes a side:
    decade-spaced far-tail probes on an unbounded side, and on a finite side
    the boundedness check's (``expfam._boundary_grid``), 10^-12 and 10^-11
    fitted scales from the edge. Returns (grid, n_left_shell, n_right_shell)."""
    center, scale = model.obs_center_scale(data, theta, component)
    lo_s, hi_s = model.component_support(component)
    lo_edge = center - Y_GRID_REACH * scale
    hi_edge = center + Y_GRID_REACH * scale
    if np.isfinite(lo_s):
        lo_edge = max(lo_edge, lo_s + 1e-9 * max(scale, 1.0))
    if np.isfinite(hi_s):
        hi_edge = min(hi_edge, hi_s - 1e-9 * max(scale, 1.0))
    interior = np.linspace(lo_edge, hi_edge, Y_GRID_POINTS)
    left = (center - Y_GRID_REACH * scale * 10.0 ** np.arange(4.0, 0.0, -1.0)
            if not np.isfinite(lo_s) else lo_s + scale * np.array([1e-12, 1e-11]))
    right = (center + Y_GRID_REACH * scale * 10.0 ** np.arange(1.0, 5.0)
             if not np.isfinite(hi_s) else hi_s - scale * np.array([1e-11, 1e-12]))
    return np.concatenate([left, interior, right]), left.size, right.size


def _decay_verdict(absvals, n_left, n_right, edges):
    """(bounded, shell max, interior max), per column, of absolute values
    over a probe grid, in increasing y, whose first n_left and last n_right
    rows are shell probes. The verdict reads at most the first two and the
    last two rows, the outermost of each side. A side holds where its
    probes are finite and at most DECAY_RATIO of the column's interior
    maximum (NaN where a NaN is among the interior rows) or, where its flag
    in ``edges`` (left, right) says that its two probes approach a finite
    edge of the support, where the one nearer the edge is at most
    (1 + EDGE_GROWTH) times the other; a column is bounded where both sides
    hold. Without shells, as on a user's grid of fewer than 4 points, a
    column reads bounded unless its maximum is NaN."""
    size = absvals.shape[0]
    interior_max = np.max(absvals[n_left:size - n_right], axis=0)
    ceiling = DECAY_RATIO * np.maximum(interior_max, 1e-300)
    # each side's shell probes, the outermost first
    sides = (absvals[:min(2, n_left)], absvals[size - min(2, n_right):][::-1])
    bounded = True
    for shell, edge in zip(sides, edges):
        held = np.max(shell, axis=0, initial=0.0) <= ceiling
        if edge:
            held |= shell[0] <= (1.0 + EDGE_GROWTH) * shell[1]
        bounded = bounded & np.all(np.isfinite(shell), axis=0) & held
    return bounded, np.max(np.concatenate(sides), axis=0, initial=0.0), interior_max


def _root_taif_values(rule, data, fit_result, psi, ys, component):
    """Exact first-order tail-area derivative for the root pivot.

    The score-ratio terms are differentiated by the envelope theorem (the
    optimizer motion drops out), and the motion of nu along the constrained
    estimate is added through the constrained refit derivative. No
    epsilon-refit is performed. Returns None where the root pivot
    degenerates at the estimate.
    """
    model = rule.model
    theta = fit_result.theta_hat
    n = model.nobs(data)
    theta_c, s_con, lam_c, nu = _root_fit(fit_result, psi)
    r_val = float(_signed_root(fit_result.psi_tilde, fit_result.score_at_opt, psi, s_con, nu))
    if abs(r_val) < 1e-4:
        return None
    W = 2.0 * (s_con - fit_result.score_at_opt)      # positive, as |r_val| >= 1e-4

    frame = model.checked(model.contamination_frame(ys, data, component=component))
    sy_con = score_terms(rule, frame, theta_c)
    sy_free = score_terms(rule, frame, theta)
    dW = 2.0 * ((n * sy_con - s_con) - (n * sy_free - fit_result.score_at_opt))

    # motion of nu through the constrained estimate
    jac = model.profile_embed_jac(psi, lam_c)
    _, _, H, _ = _derivatives(rule, data, psi, None, lam_c)   # observed nuisance Hessian
    s_c = per_obs_gradient(rule, frame, theta_c)
    dlam = -n * np.linalg.solve(H, jac.T @ s_c.T).T
    stack = model.stack([data] * 2 * theta_c.size)
    grad_nu = _fd_jacobian(lambda t: _nu_at(rule, stack, t), theta_c)
    dnu = (dlam @ jac.T) @ grad_nu
    dr = (dW / nu - (W / nu ** 2) * dnu) / (2.0 * r_val)
    return -normal_pdf(r_val) * dr


def taif(rule, data, pivot_kind, psi, y_grid=None, component=0, *, fit_result):
    """Tail-area influence of a contamination at y on C(psi), over a y grid.

    Computed by the chain rule: the pivot sensitivity in the estimate,
    composed with the influence function, times the normal density at the
    pivot. The verdict is ``_decay_verdict`` of the two outermost grid
    shells on each side, which on a default grid approach a finite edge of
    the support on a finite side. ``fit_result`` must be a
    converged fit of rule to data; the root pivot's constrained fit at psi
    is made once per fit and shared with ``taif_contamination_oracle``.
    """
    if pivot_kind not in ("wald", "root"):
        raise DomainError("pivot_kind must be 'wald' or 'root'")
    model = rule.model
    data = model.one(data)
    fit_result = _fit_for(rule, data, fit_result)
    theta = fit_result.theta_hat
    edges = (False, False)
    if y_grid is None:
        y_grid, n_left, n_right = _default_y_grid(model, data, theta, component)
        edges = tuple(np.isfinite(model.component_support(component)))
    else:
        y_grid = np.asarray(y_grid, dtype=float)
        # tiny user grids carry no tail shells and hence no decay verdict
        n_left = n_right = min(2, y_grid.size // 4)

    vals = None
    if pivot_kind == "root":
        # None where the root pivot degenerates at the estimate; its
        # derivative coincides with the Wald form there
        vals = _root_taif_values(rule, data, fit_result, psi, y_grid, component)
    if vals is None:
        q = _wald_pivot_of_theta(rule, data, theta, psi)
        # tail area is C = Phi(-pivot) with the pivot decreasing in psi, so
        # its estimate-sensitivity carries a minus sign; the Wald form is the
        # first-order representation shared by both pivot kinds, and the
        # observed sensitivity makes the composition the exact refit derivative
        stack = model.stack([data] * 2 * theta.size)
        sens = -_fd_jacobian(lambda t: _wald_pivot_of_theta(rule, stack, t, psi), theta,
                             rel_step=1e-5)
        infl = influence_function(rule, data, theta, y_grid,
                                  component=component, k_mode="empirical")
        vals = float(normal_pdf(q)) * (infl @ sens)

    absvals = np.abs(vals)
    bounded = bool(_decay_verdict(absvals, n_left, n_right, edges)[0])
    return TAIFProfile(
        y_grid=y_grid, taif_values=vals, sup_abs=float(absvals.max()),
        bounded_verdict=bounded, pivot_kind=pivot_kind, psi_fixed=float(psi),
        shells=(n_left, n_right),
    )


# ---------------------------------------------------------------------------
# epsilon-mixture oracle
# ---------------------------------------------------------------------------

def _tail_areas(rule, data, psi, theta, score, solved):
    """C(psi) = Phi(-pivot) from the estimate theta, with total score
    ``score``, for each row of a stack of datasets, NaN in a row that fails
    alone: the Wald pivot where ``solved`` is False, else the root pivot
    from solved, the rows' constrained fits at psi as ``_constrained_at``
    returns them. A root row fails where its constrained fit failed or its
    constrained score lies below its free optimum (``_undercut``)."""
    model, C = rule.model, np.full(len(theta), np.nan)
    if not solved:
        _stacked(lambda at: ndtr(-_wald_pivot_of_theta(rule, model.take(data, at), theta[at], psi)),
                 np.arange(len(theta)), C)
        return C
    (_, s_con, _, nu), failed, _ = solved
    ok = ~(failed | _undercut(score, s_con))
    C[ok] = ndtr(-_signed_root(model.interest(theta[ok]), score[ok], psi, s_con[ok], nu[ok]))
    return C


def _mixture_refits(rule, data, fit_result, ys, component):
    """The oracle's free eps-mixture refits from the estimate, a row per
    point of ys whose frame is admissible and per eps (ORACLE_EPS, then
    ORACLE_EPS / 2), solved as one stack. Returns (points, refits): each
    row's index in ys, and (ok, objective, theta, score), the rows whose
    refit is finite and converged and their objective, estimates and total
    scores, or None where there is no such row. Made once per fit, points
    and component, and shared by the Wald and the root oracle."""
    def make():
        model, eps = rule.model, ORACLE_EPS
        frames = {}
        for i, y in enumerate(ys):
            try:
                frames[i] = model.checked(model.contamination_frame([y], data,
                                                                    component=component))
            except DomainError:
                pass
        # a row per point and eps: eps, then eps / 2
        points = np.repeat(np.array(list(frames), dtype=int), 2)
        if not points.size:
            return points, None
        objective = _Objective(rule, model.stack([data] * points.size), mixture=(
            np.tile([eps, eps / 2.0], len(frames)), model.stack([frames[i] for i in points])))
        z0 = np.tile(_to_z(fit_result.theta_hat, objective.positive), (points.size, 1))
        theta, score, *_, converged = objective.solve(z0)
        ok = np.flatnonzero(np.isfinite(score) & converged)
        return points, (ok, objective.rows(ok), theta[ok], score[ok]) if ok.size else None
    return fit_result._derived(("mixture", component, ys.tobytes()), make)


def taif_contamination_oracle(rule, data, pivot_kind, psi, ys, component=0, *, fit_result):
    """Finite-epsilon derivative of the CD tail area under point contamination.

    Refits on the eps-mixture, eps = ORACLE_EPS (with a Richardson step at
    eps/2 to remove the O(eps) bias) and differences Phi(pivot). The refits
    at every point and both eps are solved together, a row each. A root
    pivot's constrained fit starts on the continuation predictor at psi,
    and its refits at that fit's nuisance, which they move by O(eps).
    Points whose refit fails, a free or a constrained refit that does not
    converge among them, are returned as NaN, each with its warning; a
    pivot that fails on the uncontaminated fit raises, as in ``taif``.
    ``fit_result`` must be a converged fit of rule to data; the free
    refits at ys are made once per fit and shared by both pivots, and the
    root pivot's constrained fit at psi is shared with ``taif``.
    """
    if pivot_kind not in ("wald", "root"):
        raise DomainError("pivot_kind must be 'wald' or 'root'")
    model = rule.model
    data = model.one(data)
    fit_result = _fit_for(rule, data, fit_result)
    root = pivot_kind == "root"
    # the uncontaminated tail area: where the pivot fails, this raises
    base = ndtr(-(pivot_root if root else pivot_wald)(fit_result, psi))
    eps = ORACLE_EPS
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    points, refits = _mixture_refits(rule, data, fit_result, ys, component)
    tails = np.full(points.size, np.nan)
    if refits:
        ok, objective, theta, score = refits
        solved = root and _constrained_at(
            rule, objective.data, np.full(ok.size, float(psi)),
            np.tile(_root_fit(fit_result, psi)[2], (ok.size, 1)), objective.mixture)
        tails[ok] = _tail_areas(rule, objective.data, psi, theta, score, solved)
    out = np.full(ys.size, np.nan)
    out[points[::2]] = 2.0 * ((tails[1::2] - base) / (eps / 2.0)) - (tails[0::2] - base) / eps
    for y in ys[np.isnan(out)]:
        warnings.warn(f"oracle refit failed at y={y:g}; point skipped", stacklevel=2)
    return out


# ---------------------------------------------------------------------------
# gamma calibration
# ---------------------------------------------------------------------------

def efficiency_ratio(model, gamma, data, theta_ref, measure="min"):
    """Asymptotic efficiency of the Tsallis estimator relative to the MLE.

    Variance ratios are formed from the sandwich variances implied by the
    expected K and J under the model at ``theta_ref``. ``measure`` selects
    the summary: "min" (worst coordinate), "interest", "trace", or a
    coordinate index.
    """
    data = model.one(data)
    return float(_efficiency(model, _log_variance(model, data, theta_ref), gamma, data,
                             theta_ref, measure))


def _log_variance(model, data, theta_ref):
    """The MLE's sandwich variance at theta_ref, which no gamma changes."""
    V0, _ = sandwich(*model.expected_kj("log", None, data, theta_ref))
    return V0


def _efficiency(model, V0, gamma, data, theta_ref, measure):
    """efficiency_ratio from the MLE's sandwich variance V0, or one per
    entry of an array of gammas, evaluated as a stack with theta_ref on
    every row."""
    grad = model.interest_grad(theta_ref)
    if np.ndim(gamma):
        rows = len(gamma)
        data, theta_ref = model.stack([data] * rows), np.tile(theta_ref, (rows, 1))
    Vg, _ = sandwich(*model.expected_kj("tsallis", gamma, data, theta_ref))
    if measure == "interest":
        # vecdot takes each row's dot as the 1-D product of one gamma does
        return (grad @ V0 @ grad) / np.vecdot(grad @ Vg, grad)
    if measure == "trace":
        return np.trace(V0) / np.trace(Vg, axis1=-2, axis2=-1)
    ratios = np.diag(V0) / np.diagonal(Vg, axis1=-2, axis2=-1)
    if measure == "min":
        return np.min(ratios, axis=-1)
    return ratios[..., int(measure)]


def _midpoint_tree(a, b):
    """The 2^GAMMA_TREE_DEPTH - 1 midpoints that GAMMA_TREE_DEPTH steps of
    bisection from [a, b] can visit, in heap order: the first halves [a, b], and the children
    2j + 1 and 2j + 2 of midpoint j halve the left and the right half of its
    interval. Each is 0.5 (lo + hi) of its interval, as a step of bisection
    forms it."""
    intervals, mids = [(a, b)], []
    for _ in range(GAMMA_TREE_DEPTH):
        level = [0.5 * (lo + hi) for lo, hi in intervals]
        intervals = [half for (lo, hi), mid in zip(intervals, level)
                     for half in ((lo, mid), (mid, hi))]
        mids += level
    return np.array(mids)


def calibrate_gamma(model, theta_ref, target_efficiency, data_template,
                    measure="min"):
    """Solve efficiency(gamma) = target by bisection on gamma in (1, GAMMA_MAX].

    The efficiency curve is checked to be decreasing on the bracket. A target
    of (numerically) full efficiency returns the lower bracket edge with a
    warning, since the log score is the gamma -> 1 limit. The midpoints of
    each GAMMA_TREE_DEPTH steps of bisection are evaluated as one stack,
    the first with the probes, from the model's closed-form expected K and
    J. Where expected K and J raise DomainError (J is infinite at that
    gamma), the efficiency counts as 0, its limit as J grows, so bisection
    moves below that gamma and the monotonicity check reads only the
    probes where it is defined; a NumericsError raises where the probes or
    bisection visit it.
    """
    if not 0.0 < target_efficiency <= 1.0:
        raise DomainError("target efficiency must be in (0, 1]")
    theta_ref = np.asarray(theta_ref, dtype=float)
    data = model.one(data_template)
    V0 = _log_variance(model, data, theta_ref)

    def are(gammas):
        """The efficiency at each gamma, 0 where expected K and J raise
        DomainError, and the NumericsError of each gamma that raises it, by
        its index. In increasing order: J is infinite above some gamma, so
        the rows that raise form one run, which _stacked isolates in a few
        halvings."""
        order, effs = np.argsort(gammas), np.zeros(len(gammas))
        errors = _stacked(lambda at: _efficiency(model, V0, gammas[order[at]], data, theta_ref,
                                                 measure), order, effs)
        return effs, {r: exc for r, exc in errors.items() if isinstance(exc, NumericsError)}

    lo, hi = 1.0 + GAMMA_TOL, GAMMA_MAX
    # the probes and the first round of bisection as one stack; a
    # NumericsError raises where the probes or bisection read its gamma
    mids = _midpoint_tree(lo, hi)
    effs, raised = are(np.concatenate([np.linspace(lo, hi, 6), mids]))
    if raised.keys() & set(range(6)):
        raise raised[min(raised)]
    vals, base = effs[:6], 6
    # a defined efficiency is positive; 0 marks a probe where J is infinite
    if np.any(np.diff(vals[vals > 0]) >= 0):
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
    a, b, j = lo, hi, 0
    while b - a > GAMMA_TOL:
        if j >= mids.size:
            mids, j, base = _midpoint_tree(a, b), 0, 0
            effs, raised = are(mids)
        if base + j in raised:
            raise raised[base + j]
        if effs[base + j] > target_efficiency:
            a, j = mids[j], 2 * j + 2
        else:
            b, j = mids[j], 2 * j + 1
    return float(0.5 * (a + b))
