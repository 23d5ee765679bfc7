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

import numpy as np

from .errors import DomainError, NumericsError
from .models import ModelSpec, _fd_jacobian, quadrature_power_integral

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
# A solve has converged when ||sum_i s_i|| <= GRAD_TOL sum_i ||s_i||: the
# total gradient is round-off next to the size of its terms.
GRAD_TOL = 1e-8
N_STARTS = 3                 # fit: the first start and up to two jittered restarts
# minimize_smooth, a damped Newton method. It runs to round-off: it stops
# once ||g|| <= SOLVER_GTOL, or once a step is shorter than
# STEP_FLOOR (1 + ||z||), where trial points differ from z by round-off. Where
# f is flat to within F_NOISE (1 + |f|), f cannot rank trial points, so a step
# that lowers ||g|| is accepted instead.
MAX_ITER = 200
SOLVER_GTOL = 1e-9
STEP_FLOOR = 1e-10
F_NOISE = 1e-13
# Evaluations an objective remembers for its convergence verdict: more than
# the trials a solve makes after its last accepted point.
_MEMO = 64


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
    vals = rule.model.tsallis_integral_obs(data, theta, rule.gamma)
    if vals is None:
        return _quadrature_integrals(rule, data, theta)
    return np.asarray(vals, dtype=float)


def _quadrature_integrals(rule, data, theta):
    model, gamma = rule.model, rule.gamma
    n = model.nobs(data)
    out = np.empty(n)
    pos = 0
    for pdf, support, count in model.quad_components(data, theta):
        out[pos:pos + count] = quadrature_power_integral(pdf, support, gamma)
        pos += count
    if pos != n:
        raise NumericsError("quadrature components do not cover all observations")
    return out


def _kernel(rule, data, theta, order=1):
    """(terms, grads, hess) of one pass over the data.

    terms are the per-observation score contributions S(y_i; theta) in
    canonical order. With order >= 1, grads is the (n, d) matrix of their
    gradients; with order 2, hess is the (d, d) Hessian of their sum. Both
    are None where not asked for. The Tsallis Hessian is
    a Hess I - gamma a sum_i f_i^a (a dlogf_i dlogf_i' + Hess log f_i), with
    a = gamma - 1 and I the summed power integral. A model without closed
    forms for these gets finite differences of the gradient.
    """
    model = rule.model
    data = model.checked(data)
    theta = np.asarray(theta, dtype=float)
    model.require_domain(theta)
    logf = model.logpdf_obs(data, theta)
    hess = None
    if rule.kind == "log":
        if order == 0:
            return -logf, None, None
        terms, grads = -logf, -model.dlogpdf_obs(data, theta)
        if order == 2:
            d2 = model.d2logpdf_obs(data, theta, np.ones(logf.size))
            hess = None if d2 is None else -d2
    else:
        gamma = rule.gamma
        a = gamma - 1.0
        fa = np.exp(a * logf)
        ivals = model.tsallis_integral_obs(data, theta, gamma)
        closed = ivals is not None
        ivals = np.asarray(ivals, dtype=float) if closed else _quadrature_integrals(
            rule, data, theta)
        terms = a * ivals - gamma * fa
        if order == 0:
            return terms, None, None
        dlogf = model.dlogpdf_obs(data, theta)
        igrad = model.tsallis_integral_grad_obs(data, theta, gamma, ivals) if closed else None
        if igrad is None:
            igrad = _fd_jacobian(lambda t: _power_integrals(rule, data, t), theta)
        grads = a * np.asarray(igrad, dtype=float) - gamma * a * fa[:, None] * dlogf
        if order == 2 and closed:
            ihess = model.tsallis_integral_hess(data, theta, gamma, ivals)
            d2 = model.d2logpdf_obs(data, theta, fa)
            if ihess is not None and d2 is not None:
                hess = a * ihess - gamma * a * (a * (dlogf.T * fa) @ dlogf + d2)
    if order == 2 and hess is None:
        hess = _sym(_fd_jacobian(lambda t: _kernel(rule, data, t)[1].sum(axis=0), theta))
    return terms, grads, hess


def _finite_total(val):
    if not np.isfinite(val):
        raise NumericsError("total score is not finite")
    return float(val)


def score_terms(rule, data, theta):
    """Per-observation score contributions S(y_i; theta), canonical order."""
    return _kernel(rule, data, theta, order=0)[0]


def total_score(rule, data, theta, weights=None):
    """Total empirical score; optionally a weighted sum over observations."""
    terms = score_terms(rule, data, theta)
    return _finite_total(terms.sum() if weights is None
                         else np.asarray(weights, dtype=float) @ terms)


def per_obs_gradient(rule, data, theta):
    """(n, d) matrix of per-observation estimating-function contributions."""
    return _kernel(rule, data, theta)[1]


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

def empirical_K(rule, data, theta):
    """Observed sensitivity: the Hessian of the total score, one kernel pass."""
    return _sym(_kernel(rule, data, theta, order=2)[2])


def empirical_J(rule, data, theta):
    """Outer-product estimate sum_i s_i s_i' of the variability matrix."""
    grads = per_obs_gradient(rule, data, theta)
    return _sym(grads.T @ grads)


def estimate_KJ(rule, data, theta):
    """Sensitivity and variability matrices of the total estimating function:
    the model's analytic expectations where it has them, else the empirical
    estimates ``empirical_K`` and ``empirical_J``."""
    model = rule.model
    data = model.checked(data)
    theta = np.asarray(theta, dtype=float)
    expected = model.expected_kj(rule.kind, rule.gamma, data, theta)
    if expected is None:
        return empirical_K(rule, data, theta), empirical_J(rule, data, theta)
    K, J = expected
    return _sym(np.asarray(K, dtype=float)), _sym(np.asarray(J, dtype=float))


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


class _Objective:
    """The total score as a smooth function of unconstrained coordinates z.

    Free (``psi`` None): x is theta, and z is x with its positive entries
    log-transformed. Constrained: x is the nuisance lam so transformed,
    theta = profile_embed(psi, lam), and derivatives are pulled back through
    the embedding's Jacobian and curvature. ``mixture=(eps, frame)`` scores
    the eps-contaminated objective (1 - eps) S_data + n eps S_frame. A call
    returns (value, gradient, Hessian) in z, with value +inf where theta is
    inadmissible, the score cannot be evaluated, or the arithmetic
    overflows.
    """

    def __init__(self, rule, data, psi=None, mixture=None):
        self.rule, self.data, self.psi, self.mixture = rule, data, psi, mixture
        self.positive = (rule.model.positive_mask(data) if psi is None
                         else rule.model.lam_positive_mask(data))
        # theta bytes -> (theta-gradient, [(weight, per-observation gradients)])
        self._seen = {}

    def theta(self, x):
        """theta at x, the free parameter or the nuisance at psi."""
        return x if self.psi is None else self.rule.model.profile_embed(self.psi, x)

    def _mix(self, at_data, at_frame):
        eps = self.mixture[0]
        return (1.0 - eps) * at_data + self.rule.model.nobs(self.data) * eps * at_frame

    def evaluate(self, theta, hess=False):
        """(value, gradient) in theta of the (mixture) total score, and its
        Hessian with ``hess``: one kernel pass over the data and one over
        the frame. The evaluation is remembered for ``verdict``."""
        order = 2 if hess else 1
        terms, grads, H = _kernel(self.rule, self.data, theta, order)
        val, g = _finite_total(terms.sum()), grads.sum(axis=0)
        parts = [(1.0, grads)]
        if self.mixture is not None:
            eps, frame = self.mixture
            terms_y, grads_y, H_y = _kernel(self.rule, frame, theta, order)
            val = self._mix(val, _finite_total(terms_y.sum()))
            g = self._mix(g, grads_y.sum(axis=0))
            H = self._mix(H, H_y) if hess else None
            parts = [(1.0 - eps, grads), (self.rule.model.nobs(self.data) * eps, grads_y)]
        if len(self._seen) >= _MEMO:
            del self._seen[next(iter(self._seen))]
        self._seen[theta.tobytes()] = (g, parts)
        return (val, g, H) if hess else (val, g)

    def _recall(self, theta):
        hit = self._seen.get(theta.tobytes())
        if hit is None:
            self.evaluate(theta)
            hit = self._seen[theta.tobytes()]
        return hit

    def gradient(self, theta):
        """Gradient in theta of the (mixture) total score, from the
        remembered evaluation at theta where there is one."""
        return self._recall(theta)[0]

    def verdict(self, x):
        """(||g||, converged) at x, theta or the constrained nuisance lam.

        g is the gradient in x of the total score, and converged means
        ||g|| <= GRAD_TOL sum_i ||s_i||, with s_i the per-observation
        gradients in x. A solve's end point was evaluated by the solve, so
        judging it costs no pass over the data.
        """
        try:
            g, parts = self._recall(self.theta(x))
        except (DomainError, NumericsError):
            return np.inf, False
        if self.psi is not None:
            jac = self.rule.model.profile_embed_jac(self.psi, x)
            g = jac.T @ g
            parts = [(w, s @ jac) for w, s in parts]
        scale = sum(w * np.linalg.norm(s, axis=1).sum() for w, s in parts)
        gnorm = float(np.linalg.norm(g))
        return gnorm, bool(gnorm <= GRAD_TOL * scale)

    def derivatives(self, x):
        """(value, gradient, Hessian) in x, theta or the constrained lam."""
        val, g, H = self.evaluate(self.theta(x), hess=True)
        if self.psi is None:
            return val, g, H
        model = self.rule.model
        jac = model.profile_embed_jac(self.psi, x)
        curvature = model.profile_embed_hess(self.psi, x, g)
        H = jac.T @ H @ jac
        return val, jac.T @ g, H if curvature is None else H + curvature

    def __call__(self, z):
        try:
            # an overflowing trial point is an inadmissible one
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                x = _from_z(z, self.positive)
                val, g, H = self.derivatives(x)
        except (DomainError, NumericsError, FloatingPointError):
            return np.inf, np.zeros_like(z), np.zeros((z.size, z.size))
        # chain rule through the log transform
        dx = np.where(self.positive, x, 1.0)
        H = dx[:, None] * H * dx + np.diag(np.where(self.positive, x * g, 0.0))
        return val, dx * g, H


def minimize_smooth(fun, z0):
    """Damped Newton minimization of ``fun(z) -> (value, gradient, Hessian)``.

    Each iteration solves for the Newton step, with the Hessian's spectrum
    shifted where it is not positive definite, and halves it until the
    trial point passes the Armijo test, or lowers ||g|| where f is flat to
    round-off (F_NOISE). Returns (z, value, n_iter, reason), z being the
    last accepted point, so the last evaluation at z was the one that
    accepted it. reason names why the solve stopped:

    * "gradient": ||g|| <= SOLVER_GTOL;
    * "step": the Newton step, or a backtracked trial step, is shorter than
      STEP_FLOOR (1 + ||z||);
    * "no_decrease": 40 backtracks found no acceptable point;
    * "singular": the Newton system could not be solved;
    * "not_finite": the objective is not finite at z0;
    * "max_iter": MAX_ITER iterations ran out.
    """
    z = np.asarray(z0, dtype=float)
    f, g, H = fun(z)
    if not np.isfinite(f):
        return z, f, 0, "not_finite"
    n_iter = 0
    reason = "max_iter"
    while n_iter < MAX_ITER:
        g_norm = np.linalg.norm(g)
        if g_norm <= SOLVER_GTOL:
            reason = "gradient"
            break
        H = _sym(H)
        try:
            w = np.linalg.eigvalsh(H)
            if w[0] <= 0:
                H = H + (abs(w[0]) + 1e-8 * max(1.0, abs(w[-1]))) * np.eye(z.size)
            step = np.linalg.solve(H, -g)
        except np.linalg.LinAlgError:
            reason = "singular"
            break
        floor = STEP_FLOOR * (1.0 + np.linalg.norm(z))
        step_norm, slope = np.linalg.norm(step), float(g @ step)
        t = 1.0
        stop = "no_decrease"
        for _ in range(40):
            if t * step_norm <= floor:
                stop = "step"
                break
            trial = z + t * step
            f_new, g_new, H_new = fun(trial)
            flat = (f_new <= f + F_NOISE * (1.0 + abs(f))
                    and np.linalg.norm(g_new) < g_norm)
            if np.isfinite(f_new) and (f_new <= f + 1e-4 * t * slope or flat):
                z, f, g, H = trial, f_new, g_new, H_new
                stop = None
                break
            t *= 0.5
        n_iter += 1
        if stop is not None:
            reason = stop
            break
    return z, f, n_iter, reason


def fit(rule, data, theta0=None):
    """Estimate theta by minimizing the total score.

    Positive parameters are log-transformed so every iterate stays
    admissible. Convergence requires the total estimating function to be
    round-off next to its terms, ||sum_i s_i|| <= GRAD_TOL sum_i ||s_i||;
    if the first start fails, up to ``N_STARTS - 1`` jittered restarts are
    tried.
    """
    model = rule.model
    data = model.checked(data)
    if theta0 is None:
        theta0 = model.mle_start(data) if rule.kind == "log" else None
        if theta0 is None:
            theta0 = model.default_start(data)
    theta0 = np.asarray(theta0, dtype=float)
    if not model.in_domain(theta0):
        raise DomainError("starting value outside the admissible set")
    total_score(rule, data, theta0)          # raises where the start cannot be scored

    objective = _Objective(rule, data)
    rng = np.random.default_rng(0)
    best = None
    z0 = _to_z(theta0, objective.positive)
    for attempt in range(N_STARTS):
        z_start = z0 if attempt == 0 else z0 + rng.normal(0.0, 0.2 * (1.0 + np.abs(z0)))
        z, val, n_iter, reason = minimize_smooth(objective, z_start)
        theta = _from_z(z, objective.positive)
        gnorm, converged = objective.verdict(theta)
        cand = (converged, -val, theta, val, n_iter, gnorm, reason)
        if best is None or cand[:2] > best[:2]:
            best = cand
        if converged:
            break
    converged, _, theta, val, n_iter, gnorm, reason = best
    K, J = estimate_KJ(rule, data, theta)
    V, G = sandwich(K, J)
    return Fit(theta_hat=theta, score_at_opt=float(val), K=K, J=J, V=V, G=G,
               converged=bool(converged), n_iter=n_iter, grad_norm=gnorm,
               rule=rule, data=data, stop_reason=reason)
