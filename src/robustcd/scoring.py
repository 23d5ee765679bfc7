"""Scoring rules, M-estimation, and the associated information matrices.

The total score of a rule is minimized to estimate theta. The sensitivity
matrix K (expected derivative of the estimating function), the variability
matrix J (second moment of the estimating function), the sandwich variance
V = K^-1 J K^-T and the Godambe information G = V^-1 drive all downstream
pivots. K and J can be taken from a model's analytic expectations or
estimated empirically; both paths are exposed.
"""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np
from scipy.optimize import minimize

from .errors import DomainError, NumericsError
from .models import ModelSpec, quadrature_power_integral

__all__ = [
    "ScoreRule",
    "Fit",
    "PartitionedInfo",
    "total_score",
    "score_terms",
    "score_gradient",
    "per_obs_gradient",
    "fit",
    "estimate_KJ",
    "eigenvalues_JKinv",
    "interest_information",
    "partitioned_info",
]

MAX_CONDITION = 1e12
GRAD_TOL = 1e-8
# Newton polish of minimize_smooth. It stops once a step is shorter than
# STEP_FLOOR (1 + ||z||), where trial points differ from z by round-off. Where
# f is flat to within F_NOISE (1 + |f|), f cannot rank trial points, so a step
# that lowers ||g|| is accepted instead.
STEP_FLOOR = 1e-10
F_NOISE = 1e-13


@dataclasses.dataclass(frozen=True)
class ScoreRule:
    """A proper scoring rule bound to a model.

    kind is "tsallis" (requires gamma > 1) or "log" (the logarithmic score,
    i.e. the negative log likelihood).
    """

    kind: str
    model: ModelSpec
    gamma: float | None = None

    def __post_init__(self):
        kind = {"logarithmic": "log"}.get(self.kind, self.kind)
        object.__setattr__(self, "kind", kind)
        if kind == "tsallis":
            if self.gamma is None or not self.gamma > 1.0:
                raise DomainError("tsallis rule requires gamma > 1")
        elif kind == "log":
            if self.gamma is not None:
                raise DomainError("log rule takes no gamma")
        else:
            raise DomainError(f"unknown scoring rule kind {self.kind!r}")

    @classmethod
    def tsallis(cls, model, gamma):
        return cls("tsallis", model, float(gamma))

    @classmethod
    def log(cls, model):
        return cls("log", model)

    def label(self):
        return "log" if self.kind == "log" else f"tsallis({self.gamma:g})"


# ---------------------------------------------------------------------------
# Score evaluation
# ---------------------------------------------------------------------------

def _power_integrals(rule, data, theta):
    """Per-observation int f^gamma, closed form if the model has one."""
    model, gamma = rule.model, rule.gamma
    vals = model.tsallis_integral_obs(data, theta, gamma)
    if vals is not None:
        return np.asarray(vals, dtype=float)
    n = model.nobs(data)
    out = np.empty(n)
    pos = 0
    for pdf, support, count in model.quad_components(data, theta):
        out[pos:pos + count] = quadrature_power_integral(pdf, support, gamma)
        pos += count
    if pos != n:
        raise NumericsError("quadrature components do not cover all observations")
    return out


def score_terms(rule, data, theta):
    """Per-observation score contributions S(y_i; theta), canonical order."""
    model = rule.model
    data = model.checked(data)
    theta = np.asarray(theta, dtype=float)
    model.require_domain(theta)
    logf = model.logpdf_obs(data, theta)
    if rule.kind == "log":
        return -logf
    gamma = rule.gamma
    integrals = _power_integrals(rule, data, theta)
    return (gamma - 1.0) * integrals - gamma * np.exp((gamma - 1.0) * logf)


def total_score(rule, data, theta, weights=None):
    """Total empirical score; optionally a weighted sum over observations."""
    terms = score_terms(rule, data, theta)
    if weights is None:
        val = terms.sum()
    else:
        val = float(np.asarray(weights, dtype=float) @ terms)
    if not np.isfinite(val):
        raise NumericsError("total score is not finite")
    return float(val)


def per_obs_gradient(rule, data, theta):
    """(n, d) matrix of per-observation estimating-function contributions."""
    model = rule.model
    data = model.checked(data)
    theta = np.asarray(theta, dtype=float)
    model.require_domain(theta)
    dlogf = model.dlogpdf_obs(data, theta)
    if rule.kind == "log":
        return -dlogf
    gamma = rule.gamma
    a = gamma - 1.0
    logf = model.logpdf_obs(data, theta)
    fa = np.exp(a * logf)
    igrad = model.tsallis_integral_grad_obs(data, theta, gamma)
    if igrad is None:
        igrad = _fd_integral_grad(rule, data, theta)
    return a * np.asarray(igrad, dtype=float) - gamma * a * fa[:, None] * dlogf


def _fd_integral_grad(rule, data, theta, rel_step=1e-6):
    """Central finite differences of the per-observation power integrals."""
    d = len(theta)
    base = _power_integrals(rule, data, theta)
    out = np.empty((base.size, d))
    for j in range(d):
        h = rel_step * (1.0 + abs(theta[j]))
        tp = theta.copy(); tp[j] += h
        tm = theta.copy(); tm[j] -= h
        out[:, j] = (_power_integrals(rule, data, tp) - _power_integrals(rule, data, tm)) / (2 * h)
    return out


def score_gradient(rule, data, theta, weights=None):
    """Gradient of the total score: sum_i s(y_i; theta)."""
    grads = per_obs_gradient(rule, data, theta)
    if weights is None:
        return grads.sum(axis=0)
    return np.asarray(weights, dtype=float) @ grads


# ---------------------------------------------------------------------------
# Linear algebra helpers
# ---------------------------------------------------------------------------

def _sym(a):
    return 0.5 * (a + a.T)


def checked_inverse(a, what="matrix"):
    """Inverse of a symmetrized matrix, guarded by a condition-number cap."""
    a = _sym(np.asarray(a, dtype=float))
    cond = np.linalg.cond(a)
    if not np.isfinite(cond) or cond > MAX_CONDITION:
        raise NumericsError(f"{what} is numerically singular", detail={"condition": cond})
    return _sym(np.linalg.inv(a))


# ---------------------------------------------------------------------------
# K and J estimation
# ---------------------------------------------------------------------------

def empirical_K(rule, data, theta, rel_step=1e-6):
    """Observed sensitivity: finite-difference Jacobian of the total gradient."""
    theta = np.asarray(theta, dtype=float)
    d = len(theta)
    K = np.empty((d, d))
    for j in range(d):
        h = rel_step * (1.0 + abs(theta[j]))
        tp = theta.copy(); tp[j] += h
        tm = theta.copy(); tm[j] -= h
        K[:, j] = (score_gradient(rule, data, tp) - score_gradient(rule, data, tm)) / (2 * h)
    return _sym(K)


def empirical_J(rule, data, theta, center=False):
    """Outer-product estimate sum_i s_i s_i' of the variability matrix."""
    grads = per_obs_gradient(rule, data, theta)
    if center:
        grads = grads - grads.mean(axis=0)
    return _sym(grads.T @ grads)


def estimate_KJ(rule, data, theta, k_mode="auto", j_mode="auto", cross_check=False):
    """Sensitivity and variability matrices of the total estimating function.

    Modes: "auto" uses the model's analytic expectation when available and
    falls back to the empirical estimate; "analytic" and "empirical" force a
    path. With ``cross_check=True`` a >10% relative disagreement between the
    analytic and empirical K is reported as a warning.
    """
    model = rule.model
    data = model.checked(data)
    theta = np.asarray(theta, dtype=float)
    expected = model.expected_kj(rule.kind, rule.gamma, data, theta)
    if expected is None and ("analytic" in (k_mode, j_mode)):
        raise DomainError(f"model {model.name!r} provides no analytic K/J")
    K = J = None
    if expected is not None:
        K_a, J_a = expected
        if k_mode in ("auto", "analytic"):
            K = _sym(np.asarray(K_a, dtype=float))
        if j_mode in ("auto", "analytic"):
            J = _sym(np.asarray(J_a, dtype=float))
    if K is None:
        K = empirical_K(rule, data, theta)
    if J is None:
        J = empirical_J(rule, data, theta)
    if cross_check and expected is not None:
        K_e = empirical_K(rule, data, theta)
        denom = np.linalg.norm(K)
        if denom > 0 and np.linalg.norm(K_e - K) / denom > 0.10:
            warnings.warn(
                "analytic and empirical sensitivity matrices disagree by more than 10%; "
                "data may be far from the model", stacklevel=2)
    return K, J


def sandwich(K, J):
    """(V, G): V = K^-1 J K^-T and its inverse, both symmetrized."""
    Kinv = checked_inverse(K, "sensitivity matrix K")
    V = _sym(Kinv @ _sym(J) @ Kinv.T)
    G = checked_inverse(V, "sandwich variance V")
    return V, G


def eigenvalues_JKinv(fit_result):
    """Eigenvalues of J K^-1, sorted descending; the weights of the score-ratio null law."""
    Kinv = checked_inverse(fit_result.K, "sensitivity matrix K")
    vals = np.linalg.eigvals(fit_result.J @ Kinv)
    vals = np.real_if_close(vals, tol=1e6)
    return np.sort(np.real(vals))[::-1]


# ---------------------------------------------------------------------------
# Interest-parameter information
# ---------------------------------------------------------------------------

def interest_information(K, J, grad):
    """(k_psipsi, g_psipsi) for a scalar interest with gradient ``grad``.

    k_psipsi = grad' K^-1 grad is the interest-block entry of K^-1 in the
    (interest, nuisance) parameterization; g_psipsi = grad' V grad is the
    asymptotic variance of the interest estimate.
    """
    grad = np.asarray(grad, dtype=float)
    Kinv = checked_inverse(K, "sensitivity matrix K")
    k_pp = float(grad @ Kinv @ grad)
    g_pp = float(grad @ Kinv @ _sym(J) @ Kinv.T @ grad)
    if g_pp <= 0 or k_pp <= 0:
        raise NumericsError("interest information is not positive",
                            detail={"k_psipsi": k_pp, "g_psipsi": g_pp})
    return k_pp, g_pp


@dataclasses.dataclass(frozen=True)
class PartitionedInfo:
    """(interest, nuisance) partition of K and G with the interest entries of
    their inverses."""

    K_blocks: dict
    G_blocks: dict
    k_psipsi: float
    g_psipsi: float


def _partition(M, idx):
    rest = [i for i in range(M.shape[0]) if i != idx]
    return {
        "pp": float(M[idx, idx]),
        "pl": M[idx, rest].copy(),
        "lp": M[rest, idx].copy(),
        "ll": M[np.ix_(rest, rest)].copy(),
    }


def partitioned_info(K, J, interest_index=0):
    """Partition K and G around a coordinate interest parameter."""
    K = _sym(np.asarray(K, dtype=float))
    d = K.shape[0]
    grad = np.zeros(d)
    grad[interest_index] = 1.0
    k_pp, g_pp = interest_information(K, J, grad)
    _, G = sandwich(K, J)
    return PartitionedInfo(
        K_blocks=_partition(K, interest_index),
        G_blocks=_partition(G, interest_index),
        k_psipsi=k_pp,
        g_psipsi=g_pp,
    )


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------

@dataclasses.dataclass(eq=False)
class Fit:
    """Result of minimizing a total score, with the information matrices."""

    theta_hat: np.ndarray
    score_at_opt: float
    K: np.ndarray
    J: np.ndarray
    V: np.ndarray
    G: np.ndarray
    converged: bool
    n_iter: int
    grad_norm: float
    rule: ScoreRule = dataclasses.field(repr=False, default=None)
    data: object = dataclasses.field(repr=False, default=None)
    stop_reason: str = ""        # why minimize_smooth stopped on the kept start

    @property
    def psi_tilde(self):
        return float(self.rule.model.interest(self.theta_hat))

    def stderr(self):
        return np.sqrt(np.diag(self.V))


def _to_z(theta, positive):
    z = np.asarray(theta, dtype=float).copy()
    for j, pos in enumerate(positive):
        if pos:
            z[j] = np.log(z[j])
    return z


def _from_z(z, positive):
    theta = np.asarray(z, dtype=float).copy()
    for j, pos in enumerate(positive):
        if pos:
            theta[j] = np.exp(theta[j])
    return theta


def _chain(grad_theta, theta, positive):
    g = grad_theta.copy()
    for j, pos in enumerate(positive):
        if pos:
            g[j] *= theta[j]
    return g


def minimize_smooth(fun_grad, z0, max_iter=500, gtol=1e-10):
    """Quasi-Newton minimization with a Newton polish pass.

    ``fun_grad(z) -> (value, gradient)``. A polish step is accepted on the
    Armijo test, or where f is flat to round-off (F_NOISE) when it lowers
    ||g||. Returns (z, value, n_iter, reason), where reason names why the
    polish stopped:

    * "gradient": ||g|| <= 10 gtol;
    * "step": the Newton step, or a backtracked trial step, is shorter than
      STEP_FLOOR (1 + ||z||);
    * "no_decrease": 40 backtracks found no acceptable point;
    * "singular": the Newton system could not be solved;
    * "not_finite": the objective is not finite where the quasi-Newton
      stage ended;
    * "max_iter": the iteration cap or the 25 polish rounds ran out.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = minimize(fun_grad, np.asarray(z0, dtype=float), jac=True, method="BFGS",
                       options={"gtol": gtol, "maxiter": max_iter})
    z, n_iter = res.x, int(res.nit)
    f, g = fun_grad(z)
    d = z.size
    reason = "max_iter"
    # Newton polish with a finite-difference Hessian of the gradient
    for _ in range(25):
        if not np.isfinite(f):
            reason = "not_finite"
            break
        if np.linalg.norm(g) <= gtol * 10:
            reason = "gradient"
            break
        if n_iter >= max_iter:
            break
        H = np.empty((d, d))
        for j in range(d):
            h = 1e-6 * (1.0 + abs(z[j]))
            zp = z.copy(); zp[j] += h
            zm = z.copy(); zm[j] -= h
            H[:, j] = (fun_grad(zp)[1] - fun_grad(zm)[1]) / (2 * h)
        H = _sym(H)
        try:
            w = np.linalg.eigvalsh(H)
            if w[0] <= 0:
                H = H + (abs(w[0]) + 1e-8 * max(1.0, abs(w[-1]))) * np.eye(d)
            step = np.linalg.solve(H, -g)
        except np.linalg.LinAlgError:
            reason = "singular"
            break
        floor = STEP_FLOOR * (1.0 + np.linalg.norm(z))
        step_norm, g_norm = np.linalg.norm(step), np.linalg.norm(g)
        t = 1.0
        stop = "no_decrease"
        for _ in range(40):
            if t * step_norm <= floor:
                stop = "step"
                break
            f_new, g_new = fun_grad(z + t * step)
            flat = (f_new <= f + F_NOISE * (1.0 + abs(f))
                    and np.linalg.norm(g_new) < g_norm)
            if np.isfinite(f_new) and (f_new <= f + 1e-4 * t * float(g @ step) or flat):
                z, f, g = z + t * step, f_new, g_new
                stop = None
                break
            t *= 0.5
        n_iter += 1
        if stop is not None:
            reason = stop
            break
    return z, f, n_iter, reason


def fit(rule, data, theta0=None, max_iter=500, n_starts=3,
        k_mode="auto", j_mode="auto"):
    """Estimate theta by minimizing the total score.

    Positive parameters are log-transformed so every iterate stays
    admissible. Convergence requires the total estimating function to
    satisfy ||sum_i s(y_i; theta)|| <= 1e-8 (1 + ||theta||); if the first
    start fails, up to ``n_starts - 1`` jittered restarts are tried.
    """
    model = rule.model
    data = model.checked(data)
    positive = model.positive_mask(data)
    if theta0 is None:
        theta0 = model.mle_start(data) if rule.kind == "log" else None
        if theta0 is None:
            theta0 = model.default_start(data)
    theta0 = np.asarray(theta0, dtype=float)
    if not model.in_domain(theta0):
        raise DomainError("starting value outside the admissible set")
    s0 = total_score(rule, data, theta0)
    if not np.isfinite(s0):
        raise DomainError("total score not finite at the starting value")

    def fun_grad(z):
        theta = _from_z(z, positive)
        try:
            val = total_score(rule, data, theta)
            g = score_gradient(rule, data, theta)
        except (DomainError, NumericsError, FloatingPointError):
            return np.inf, np.zeros_like(z)
        if not np.isfinite(val):
            return np.inf, np.zeros_like(z)
        return val, _chain(g, theta, positive)

    rng = np.random.default_rng(0)
    best = None
    z0 = _to_z(theta0, positive)
    for attempt in range(max(1, n_starts)):
        z_start = z0 if attempt == 0 else z0 + rng.normal(0.0, 0.2 * (1.0 + np.abs(z0)))
        z, val, n_iter, reason = minimize_smooth(fun_grad, z_start, max_iter=max_iter)
        theta = _from_z(z, positive)
        gnorm = float(np.linalg.norm(score_gradient(rule, data, theta)))
        converged = gnorm <= GRAD_TOL * (1.0 + float(np.linalg.norm(theta)))
        cand = (converged, -val, theta, val, n_iter, gnorm, reason)
        if best is None or cand[:2] > best[:2]:
            best = cand
        if converged:
            break
    converged, _, theta, val, n_iter, gnorm, reason = best
    K, J = estimate_KJ(rule, data, theta, k_mode=k_mode, j_mode=j_mode)
    V, G = sandwich(K, J)
    return Fit(theta_hat=theta, score_at_opt=float(val), K=K, J=J, V=V, G=G,
               converged=bool(converged), n_iter=n_iter, grad_norm=gnorm,
               rule=rule, data=data, stop_reason=reason)
