"""Scoring rules, M-estimation, and the associated information matrices.

The total score of a rule is minimized to estimate theta. The sensitivity
matrix K (expected derivative of the estimating function), the variability
matrix J (second moment of the estimating function), the sandwich variance
V = K^-1 J K^-T and the Godambe information G = V^-1 drive all downstream
pivots. K and J can be taken from a model's analytic expectations or
estimated empirically; both paths are exposed.

The kernel, ``fit``, ``estimate_KJ`` and ``sandwich`` also take a stack of
datasets (see ``ModelSpec.stack``) with a parameter per row, and the
objective and the solver take only stacks: every solve runs on a stack, a
single dataset being a stack of one. Row r of a stacked result is, bit for
bit, what the same call returns for dataset r alone, whatever gamma each
row carries (see ``models._power``); a stack only saves the per-call
overhead of many small problems.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from .errors import DomainError, NumericsError
from .models import ModelSpec

__all__ = [
    "ScoreRule",
    "Fit",
    "Fits",
    "total_score",
    "score_terms",
    "score_gradient",
    "per_obs_gradient",
    "fit",
    "estimate_KJ",
    "interest_information",
]

MAX_CONDITION = 1e12
# A solve has converged when ||sum_i s_i|| <= GRAD_TOL sum_i ||s_i||: the
# total gradient is round-off next to the size of its terms.
GRAD_TOL = 1e-8
N_STARTS = 3                 # fit: the first start and up to two jittered restarts
# minimize_smooth, a damped Newton method. It runs to round-off: it stops
# once ||g|| <= SOLVER_GTOL where the record's verdict holds, or once a step
# is shorter than STEP_FLOOR (1 + ||z||), where trial points differ from z by
# round-off. Where f is flat to within F_NOISE (1 + |f|), f cannot rank trial
# points, so a step that lowers ||g|| is accepted instead.
MAX_ITER = 200
SOLVER_GTOL = 1e-9
STEP_FLOOR = 1e-10
F_NOISE = 1e-13
# Numbers per (rows, n, d) array of one kernel pass over a stack of
# datasets: the objective and estimate_KJ pass over at most
# STACK_ELEMENTS // (n d) rows at once (``_row_cap``), so a stack of any
# size is one solve. A kernel pass holds about three and a quarter such
# arrays at its peak.
STACK_ELEMENTS = 2 ** 17


@dataclasses.dataclass(frozen=True)
class ScoreRule:
    """A proper scoring rule bound to a model.

    kind is "tsallis" (requires gamma > 1) or "log" (the logarithmic score,
    i.e. the negative log likelihood). The Tsallis rule of a stack of
    datasets may carry one gamma per row, an array, as ``ModelSpec.expected_kj``
    takes it; ``_rule_rows`` selects its rows with the stack's. A row whose
    gamma there is exactly 1 is scored by the log score, the gamma -> 1
    limit, so one stack may hold the rows of both kinds of rule.
    """

    kind: str
    model: ModelSpec
    gamma: float | None = None

    def __post_init__(self):
        kind = {"logarithmic": "log"}.get(self.kind, self.kind)
        object.__setattr__(self, "kind", kind)
        if kind == "tsallis":
            per_row = type(self.gamma) is np.ndarray
            if per_row and self.gamma.ndim != 1:
                raise DomainError("a gamma per row of a stack must be a 1-D array")
            # 1 marks a log row of a stack; one gamma must exceed it
            if not ((self.gamma >= 1.0).all() if per_row
                    else self.gamma is not None and np.all(np.greater(self.gamma, 1.0))):
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


def _rule_rows(rule, rows):
    """The rule of rows of a stack (an index array, a slice or one row),
    selected as ``ModelSpec.take`` selects the data: the rule itself where
    one gamma serves every row or every row is selected, and the log rule
    where every row selected is a log row."""
    if type(rule.gamma) is not np.ndarray or (type(rows) is slice and rows == slice(None)):
        return rule
    gamma = rule.gamma[rows]
    if (gamma == 1.0).all():
        return ScoreRule.log(rule.model)
    return ScoreRule("tsallis", rule.model, gamma)


def _per_kind(stage, rule, data, *arrays):
    """``stage(rule, data, *arrays)``, with rule of one kind: where rule's
    gamma per row mixes log rows with Tsallis ones, one call per kind, on
    the rows of that kind (``_rule_rows``) and their rows of the arrays,
    and its outputs, an array or a tuple of arrays with a row axis, joined
    in row order."""
    log = rule.gamma == 1.0 if type(rule.gamma) is np.ndarray else None
    if log is None or not log.any():
        return stage(rule, data, *arrays)
    if log.all():
        return stage(ScoreRule.log(rule.model), data, *arrays)
    model, out = rule.model, None
    for rows in (np.flatnonzero(log), np.flatnonzero(~log)):
        part = stage(_rule_rows(rule, rows), model.take(data, rows), *(a[rows] for a in arrays))
        parts = part if isinstance(part, tuple) else (part,)
        if out is None:
            out = tuple(np.empty(log.shape + p.shape[1:]) for p in parts)
        for a, b in zip(out, parts):
            a[rows] = b
    return out if isinstance(part, tuple) else out[0]


# ---------------------------------------------------------------------------
# Score evaluation
# ---------------------------------------------------------------------------

def _kernel(rule, data, theta, order=1):
    """(terms, grads, hess) of one pass over the data.

    terms are the per-observation score contributions S(y_i; theta) in
    canonical order. With order >= 1, grads is the (n, d) matrix of their
    gradients; with order 2, hess is the (d, d) Hessian of their sum. Both
    are None where not asked for. The Tsallis Hessian is
    a Hess I - gamma a sum_i f_i^a (a dlogf_i dlogf_i' + Hess log f_i), with
    a = gamma - 1 and I the summed power integral, all from the model's
    closed forms. On a stack every output gains the leading row axis, and
    the rule may carry a gamma per row; a row whose gamma is 1 takes the
    log score's terms, gradients and Hessian (Hessian weights 1 in place of
    f^a) from the same pass.
    """
    model = rule.model
    data = model.checked(data)
    theta = np.asarray(theta, dtype=float)
    model.require_domain(theta)
    logf = model.logpdf_obs(data, theta)
    grads = hess = None
    if rule.kind == "log":
        if order >= 1:
            grads = -model.dlogpdf_obs(data, theta)
        if order == 2:
            hess = -model.d2logpdf_obs(data, theta, np.ones(logf.shape))
        return -logf, grads, hess
    gamma, per_row = rule.gamma, type(rule.gamma) is np.ndarray
    # the log rows of a stack, where the log score's outputs replace the
    # Tsallis ones
    log = np.flatnonzero(gamma == 1.0) if per_row else ()
    # gamma and a = gamma - 1: one value, or, one per row, columns over a
    # row's observations
    g = gamma[:, None] if per_row else gamma
    a = g - 1.0
    log_terms = -logf[log] if len(log) else None
    logf *= a
    fa = np.exp(logf, out=logf)      # f^a, in logf's own buffer
    ivals = model.tsallis_integral_obs(data, theta, gamma)
    terms = a * ivals - g * fa
    if len(log):
        terms[log], fa[log] = log_terms, 1.0
    if order == 0:
        return terms, None, None
    dlogf = model.dlogpdf_obs(data, theta)
    log_grads = -dlogf[log] if len(log) else None
    ga = g * a
    if per_row:
        # over a row's (n, d) and (d, d) arrays
        a, ga = a[..., None], ga[..., None]
    if order == 2:
        ihess = model.tsallis_integral_hess(data, theta, gamma, ivals)
        d2 = model.d2logpdf_obs(data, theta, fa)
        hess = a * ihess - ga * (a * (dlogf.mT * fa[..., None, :]) @ dlogf + d2)
        if len(log):
            hess[log] = -d2[log]
    # a IG - gamma a f^a dlogf, built in the two arrays the model returned
    grads = model.tsallis_integral_grad_obs(data, theta, gamma, ivals)
    grads *= a
    dlogf *= ga * fa[..., None]
    grads -= dlogf
    if len(log):
        grads[log] = log_grads
    return terms, grads, hess


def _finite_total(val):
    """The total score, or one per row of a stack; raises where any is not finite."""
    if val.ndim == 0:
        if not math.isfinite(val):
            raise NumericsError("total score is not finite")
        return float(val)
    if not np.isfinite(val).all():
        raise NumericsError("total score is not finite")
    return val


def score_terms(rule, data, theta):
    """Per-observation score contributions S(y_i; theta), canonical order."""
    return _kernel(rule, data, theta, order=0)[0]


def total_score(rule, data, theta):
    """Total empirical score, or one per row of a stack."""
    return _finite_total(score_terms(rule, data, theta).sum(axis=-1))


def per_obs_gradient(rule, data, theta):
    """(n, d) matrix of per-observation estimating-function contributions."""
    return _kernel(rule, data, theta)[1]


def score_gradient(rule, data, theta):
    """Gradient of the total score: sum_i s(y_i; theta), or one per row of a stack."""
    return per_obs_gradient(rule, data, theta).sum(axis=-2)


# ---------------------------------------------------------------------------
# Linear algebra helpers
# ---------------------------------------------------------------------------

def _sym(a):
    return 0.5 * (a + a.mT)


def _norm(v):
    """Euclidean norm over the last axis; for a vector, bit for bit np.linalg.norm."""
    return np.sqrt(np.vecdot(v, v))


def checked_inverse(a, what="matrix"):
    """Inverse of a symmetrized matrix, or of each in a stack, guarded by a
    cap on its condition number max|l| / min|l| over its eigenvalues l (for
    a symmetric matrix, the 2-norm condition number)."""
    a = _sym(np.asarray(a, dtype=float))
    if not np.isfinite(a).all():
        raise NumericsError(f"{what} is not finite")
    size = np.abs(np.linalg.eigvalsh(a))
    top, bottom = size.max(axis=-1), size.min(axis=-1)
    if not ((bottom > 0) & (top <= MAX_CONDITION * bottom)).all():
        cond = np.divide(top, bottom, out=np.full_like(top, np.inf), where=bottom > 0)
        raise NumericsError(f"{what} is numerically singular",
                            detail={"condition": float(np.max(cond))})
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
    return _sym(grads.mT @ grads)


def estimate_KJ(rule, data, theta):
    """Sensitivity and variability matrices of the total estimating function:
    the model's expected K and J, or, for a model that declares
    ``observed_kj``, the observed ``empirical_K`` and ``empirical_J``. On a
    stack, the observed ones take a kernel pass per slice of at most
    ``_row_cap`` rows, and each kind of rule takes its own rows
    (``_per_kind``)."""
    return _per_kind(_kind_KJ, rule, rule.model.checked(data), np.asarray(theta, dtype=float))


def _kind_KJ(rule, data, theta):
    """estimate_KJ for a rule of one kind."""
    model = rule.model
    if model.observed_kj:
        def stage(at):
            # empirical_K and empirical_J from one pass
            whole = at == slice(None)
            _, grads, H = _kernel(rule if whole else _rule_rows(rule, at),
                                  data if whole else model.take(data, at), theta[at], order=2)
            return _sym(H), _sym(grads.mT @ grads)

        return _sliced(stage, model, data, len(theta) if theta.ndim == 2 else 1)
    K, J = model.expected_kj(rule.kind, rule.gamma, data, theta)
    return _sym(np.asarray(K, dtype=float)), _sym(np.asarray(J, dtype=float))


def sandwich(K, J):
    """(V, G): V = K^-1 J K^-T and its inverse, both symmetrized."""
    V = _sandwich_variance(K, J)
    return V, checked_inverse(V, "sandwich variance V")


def _sandwich_variance(K, J):
    """V = K^-1 J K^-T, symmetrized, without its inverse; K's condition is
    checked as by ``sandwich``."""
    Kinv = checked_inverse(K, "sensitivity matrix K")
    return _sym(Kinv @ _sym(J) @ Kinv.mT)


# ---------------------------------------------------------------------------
# Interest-parameter information
# ---------------------------------------------------------------------------

def interest_information(K, J, grad):
    """(k_psipsi, g_psipsi) for a scalar interest with gradient ``grad``.

    k_psipsi = grad' K^-1 grad is the interest-block entry of K^-1 in the
    (interest, nuisance) parameterization; g_psipsi = grad' V grad is the
    asymptotic variance of the interest estimate. A stack of K, J and
    gradients gives one pair per row.
    """
    grad = np.asarray(grad, dtype=float)
    Kinv = checked_inverse(K, "sensitivity matrix K")
    row, col = grad[..., None, :], grad[..., :, None]
    k_pp = (row @ Kinv @ col)[..., 0, 0]
    g_pp = (row @ Kinv @ _sym(J) @ Kinv.mT @ col)[..., 0, 0]
    if (g_pp <= 0).any() or (k_pp <= 0).any():
        raise NumericsError("interest information is not positive",
                            detail={"k_psipsi": np.min(k_pp), "g_psipsi": np.min(g_pp)})
    return k_pp, g_pp


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------

@dataclasses.dataclass(eq=False, frozen=True)
class _FitFields:
    """What minimizing a total score gives, with the information matrices:
    for one dataset (``Fit``), or each with a row axis, for a stack of them
    (``Fits``)."""

    theta_hat: np.ndarray
    score_at_opt: float
    K: np.ndarray
    J: np.ndarray
    V: np.ndarray
    G: np.ndarray
    converged: bool
    n_iter: int
    grad_norm: float
    stop_reason: str             # why minimize_smooth stopped on the kept start
    rule: ScoreRule = dataclasses.field(repr=False)
    data: object = dataclasses.field(repr=False)


@dataclasses.dataclass(eq=False, frozen=True)
class Fit(_FitFields):
    """Result of minimizing a total score, with the information matrices.

    Frozen, so that the solves derived from it and held in its memo (see
    ``_derived``) cannot go stale; ``dataclasses.replace`` gives a copy
    with an empty memo.
    """

    _memo: dict = dataclasses.field(default_factory=dict, init=False, repr=False)

    @property
    def psi_tilde(self):
        return float(self.rule.model.interest(self.theta_hat))

    def stderr(self):
        return np.sqrt(np.diag(self.V))

    def _derived(self, key, make):
        """``make()``, a result derived from this fit and its data, made on
        the first call with ``key`` and read from the memo on later ones,
        so that diagnostics of one fit share their solves. Its arrays, in
        nested tuples and lists, are made read-only."""
        if key not in self._memo:
            self._memo[key] = _read_only(make())
        return self._memo[key]


@dataclasses.dataclass(eq=False, frozen=True)
class Fits(_FitFields):
    """The fits of a stack of datasets (``data``, the checked stack), each
    field with a row axis: row r holds what fitting dataset r alone gives.
    A row given up has NaN in its estimate, score and matrices and
    converged False, and ``errors`` holds its DomainError or NumericsError
    by its row. ``fits[r]`` is row r's Fit, or raises that row's error. A
    rule with a gamma per row (see ``ScoreRule``) gives each Fit its row's."""

    errors: dict

    def __len__(self):
        return len(self.converged)

    def __getitem__(self, r):
        if r in self.errors:
            raise self.errors[r]
        return Fit(self.theta_hat[r], float(self.score_at_opt[r]), self.K[r], self.J[r],
                   self.V[r], self.G[r], bool(self.converged[r]), int(self.n_iter[r]),
                   float(self.grad_norm[r]), self.stop_reason[r], _rule_rows(self.rule, r),
                   self.rule.model.take(self.data, r))

    def take(self, rows):
        """The Fits of rows of the stack, an index array: its row j is row
        rows[j] here, with that row's rule and error."""
        position = {r: j for j, r in enumerate(rows.tolist())}
        fields = {f.name: getattr(self, f.name)[rows] for f in dataclasses.fields(_FitFields)
                  if f.name not in ("rule", "data")}
        return Fits(**fields, rule=_rule_rows(self.rule, rows),
                    data=self.rule.model.take(self.data, rows),
                    errors={position[r]: exc for r, exc in self.errors.items() if r in position})


def _read_only(value):
    """value, with the arrays in it, through tuples and lists, made read-only."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, (tuple, list)):
        for item in value:
            _read_only(item)
    return value


def _to_z(theta, positive):
    z = np.asarray(theta, dtype=float).copy()
    for j, pos in enumerate(positive):
        if pos:
            z[..., j] = np.log(z[..., j])
    return z


def _from_z(z, positive):
    theta = np.asarray(z, dtype=float).copy()
    for j, pos in enumerate(positive):
        if pos:
            theta[..., j] = np.exp(theta[..., j])
    return theta


def _evaluate(rule, data, mixture, theta):
    """(value, gradient, Hessian, parts) in theta of the total score of
    data, one dataset or a stack, or, with ``mixture=(eps, frame)``, of its
    eps-mixture objective (see ``_Objective``): one kernel pass over the
    data and one over the frame. parts are the weighted per-observation
    gradients [(weight, (n, d) gradients)] whose weighted sum is the
    gradient."""
    terms, grads, H = _kernel(rule, data, theta, order=2)
    # einsum sums over the observations in order, as sum(axis=-2) does,
    # on contiguous loops
    val, g = _finite_total(terms.sum(axis=-1)), np.einsum("...nd->...d", grads)
    if mixture is None:
        return val, g, H, [(1.0, grads)]
    eps, frame = mixture
    weight = rule.model.nobs(data) * eps
    terms_y, grads_y, H_y = _kernel(rule, frame, theta, order=2)

    def mix(at_data, at_frame):
        # each row's eps, broadcast over that row's entries
        shape = eps.shape + (1,) * (at_data.ndim - 1)
        return (1.0 - eps).reshape(shape) * at_data + weight.reshape(shape) * at_frame

    return (mix(val, _finite_total(terms_y.sum(axis=-1))),
            mix(g, np.einsum("...nd->...d", grads_y)), mix(H, H_y),
            [(1.0 - eps, grads), (weight, grads_y)])


def _derivatives(rule, data, psi, mixture, x):
    """(value, gradient, Hessian, verdict) in x of the (mixture) total score
    of data, one dataset or a stack: x is theta where psi is None, else the
    nuisance lam at psi. The verdict is (||g||, converged), g being the
    gradient in x and converged meaning ||g|| <= GRAD_TOL sum_i w_i ||s_i||,
    with s_i the per-observation gradients in x and w_i their weights."""
    model = rule.model
    val, g, H, parts = _evaluate(rule, data, mixture,
                                 x if psi is None else model.profile_embed(psi, x))
    if psi is not None:
        jac = model.profile_embed_jac(psi, x)
        curvature = model.profile_embed_hess(psi, x, g)
        H = jac.mT @ H @ jac
        g = (jac.mT @ g[..., None])[..., 0]
        H = H if curvature is None else H + curvature
        parts = [(w, s @ jac) for w, s in parts]
    scale = sum(w * np.sqrt(np.einsum("...nd,...nd->...n", s, s)).sum(axis=-1)
                for w, s in parts)
    gnorm = _norm(g)
    return val, g, H, (gnorm, gnorm <= GRAD_TOL * scale)


class _Objective:
    """The total score of a stack of datasets as a smooth function of
    unconstrained coordinates z, a point per row; a single dataset is a
    stack of one.

    Free (``psi`` None): x is theta, and z is x with its positive entries
    log-transformed. Constrained: ``psi`` holds an interest value per row,
    x is the nuisance lam so transformed, theta = profile_embed(psi, lam),
    and derivatives are pulled back through the embedding's Jacobian and
    curvature. ``mixture=(eps, frames)``, an eps per row and a checked stack
    of frames, one per row, scores each row's eps-contaminated objective
    (1 - eps) S_data + n eps S_frame (a frame holds one point, for the
    TAIF's oracle). A rule with a gamma per row (see ``ScoreRule``) scores
    each row with its own.

    ``objective(z, rows)`` evaluates the rows ``rows`` of the stack, an
    index array, at their points z, and returns, each with a row axis, the
    value, gradient and Hessian in z and the convergence verdict at z,
    ||g|| and converged (see ``_derivatives``), row j's being what that row
    evaluated alone gives. It evaluates at most ``_row_cap`` rows in one
    kernel pass, a slice of the rows at a time, so the stack's size does
    not bound its memory. A call raises DomainError or NumericsError where
    a row's theta is inadmissible, its score cannot be evaluated, or the
    arithmetic overflows; the solver then halves the stack (see
    ``minimize_smooth``).
    """

    def __init__(self, rule, data, psi=None, mixture=None):
        self.rule, self.data, self.psi, self.mixture = rule, data, psi, mixture
        self.positive = (rule.model.positive_mask(data) if psi is None
                         else rule.model.lam_positive_mask(data))
        self._eye = _bool_eye(len(self.positive))

    def _take(self, rows):
        """(rule, data, psi, mixture) of rows of the stack, an index array."""
        model, mixture = self.rule.model, self.mixture
        return (_rule_rows(self.rule, rows), model.take(self.data, rows),
                None if self.psi is None else self.psi[rows],
                mixture and (mixture[0][rows], model.take(mixture[1], rows)))

    def rows(self, rows):
        """The objective on rows of the stack, an index array, each with its
        gamma, its psi and its mixture."""
        return _Objective(*self._take(rows))

    def theta(self, x):
        """theta at x, the free parameter or the nuisance at psi."""
        return x if self.psi is None else self.rule.model.profile_embed(self.psi, x)

    def __call__(self, z, rows):
        def stage(at):
            # the stack's own arrays where the rows are all of it
            part = ((self.rule, self.data, self.psi, self.mixture)
                    if len(rows[at]) == len(self.data[0]) else self._take(rows[at]))
            try:
                # an overflowing trial point is an inadmissible one
                with np.errstate(over="raise", divide="raise", invalid="raise"):
                    x = _from_z(z[at], self.positive)
                    val, g, H, (gnorm, converged) = _derivatives(*part, x)
            except FloatingPointError as exc:
                raise NumericsError("the score overflows or is undefined") from exc
            # chain rule through the log transform
            dx = np.where(self.positive, x, 1.0)
            diag = np.where(self._eye, np.where(self.positive, x * g, 0.0)[..., None, :], 0.0)
            return val, dx * g, dx[..., :, None] * H * dx[..., None, :] + diag, gnorm, converged

        return _sliced(stage, self.rule.model, self.data, len(rows))

    def solve(self, z0):
        """Minimize from z0, a start per row: (x, value, n_iter, reason,
        ||g||, converged), each with a row axis. Each row is judged from the
        evaluation that accepted its x, so no pass over the data follows the
        solve; the solver's gradient stop reads the same verdict."""
        z, *out = minimize_smooth(self, z0)
        return (_from_z(z, self.positive), *out)


@functools.lru_cache(maxsize=None)
def _bool_eye(m):
    """The (m, m) identity as flags; read-only."""
    eye = np.eye(m, dtype=bool)
    eye.flags.writeable = False
    return eye


def minimize_smooth(fun, z0):
    """Damped Newton minimization of a stack of problems, a start per row
    of z0; a single problem is a stack of one.

    ``fun(z, rows)`` evaluates the rows ``rows`` (an index array) at their
    points z and returns, each with a row axis, the values, gradients,
    Hessians and the caller's convergence verdict at each point: ||g|| and
    converged. It may raise DomainError or NumericsError instead; the stack
    is then halved until the failing rows stand alone (``_stacked``), a row
    alone being a stack of one, and a row that fails alone is +inf there,
    with the verdict (inf, False). Each row runs its own iteration: it
    solves for the Newton step, with the Hessian's spectrum shifted where
    it is not safely positive definite, cuts it to at most 1 + ||z|| long
    (``_bounded``), and halves it until the trial point passes the Armijo
    test, or lowers ||g|| where f is flat to round-off (F_NOISE). The rows'
    state is held in arrays with a row axis, and a round is three steps: it
    solves the Newton systems of the rows at a new point in one batch,
    evaluates every pending trial point in one call of fun, and applies the
    tests below to them as masked updates; a row that has stopped is not
    evaluated again. Returns (z, value, n_iter, reason, ||g||, converged),
    each with the row axis, z being each row's last accepted point and the
    verdict what fun returned with it. reason names why a row stopped:

    * "gradient": ||g|| <= SOLVER_GTOL, and the verdict holds or ||g|| has
      stopped falling;
    * "step": the Newton step, or a backtracked trial step, is shorter than
      STEP_FLOOR (1 + ||z||);
    * "no_decrease": 40 backtracks found no acceptable point. A finite
      step, at most 1 + ||z|| long, reaches the step floor within 34, so
      only a step that is not finite stops here;
    * "singular": the Newton system could not be solved;
    * "not_finite": the objective is not finite at z0;
    * "max_iter": MAX_ITER iterations ran out.
    """
    z = np.array(z0, dtype=float)
    # the solver's own copies: its state is updated in place
    f, g, H, gnorm, converged = map(np.array, _evaluated(fun, z, np.arange(len(z))))
    active = np.isfinite(f)
    reason, n_iter = np.where(active, None, "not_finite"), np.zeros(len(z), dtype=int)
    g_last, t, step_len, slope, floor = np.full(len(z), np.inf), *np.zeros((4, len(z)))
    step, new = np.zeros_like(z), active.nonzero()[0]     # new: the rows at a new point

    def stop(rows, why):
        if rows.size:
            reason[rows], active[rows] = why, False

    while True:
        # at a new point: the gradient stop, then the iteration cap, which
        # takes precedence over it, then a Newton step
        g_norm = _norm(g[new])
        stop(new[(g_norm <= SOLVER_GTOL) & ((g_norm >= g_last[new]) | converged[new])], "gradient")
        stop(new[n_iter[new] >= MAX_ITER], "max_iter")
        g_last[new] = g_norm
        rows = new[active[new]]
        if rows.size and (singular := _stacked(
                lambda at: _newton_steps(H[rows[at]], g[rows[at]]), rows, step)):
            stop(np.fromiter(singular, int), "singular")
            rows = rows[active[rows]]
        if rows.size:
            dz, scale = _bounded(step[rows], z[rows])
            step[rows], step_len[rows], slope[rows] = dz, _norm(dz), np.vecdot(g[rows], dz)
            floor[rows] = STEP_FLOOR * scale
            # the iteration counts once its step is taken or the row stops on it
            t[rows], n_iter[rows] = 1.0, n_iter[rows] + 1
            stop(rows[step_len[rows] <= floor[rows]], "step")
        # every pending trial point
        rows = active.nonzero()[0]
        if not rows.size:
            return z, f, n_iter, reason, gnorm, converged
        trial = z[rows] + t[rows, None] * step[rows]
        f_new, g_new, H_new, gnorm_new, converged_new = _evaluated(fun, trial, rows)
        accept = np.isfinite(f_new) & (f_new <= f[rows] + 1e-4 * t[rows] * slope[rows])
        # or, where f is flat to round-off, a lower ||g||
        if np.count_nonzero(accept) < rows.size:
            accept |= np.isfinite(f_new) & (f_new <= f[rows] + F_NOISE * (1.0 + abs(f[rows]))) & (
                _norm(g_new) < g_last[rows])
        # a view, not a copy, where every row moves
        keep = slice(None) if np.count_nonzero(accept) == rows.size else accept
        new = rows[keep]
        z[new], f[new], g[new], H[new] = trial[keep], f_new[keep], g_new[keep], H_new[keep]
        gnorm[new], converged[new] = gnorm_new[keep], converged_new[keep]
        rows = rows[~accept]
        if rows.size:
            t[rows] *= 0.5      # exactly 2^-k after k backtracks
            out = rows[(t[rows] == 0.5 ** 40) | (t[rows] * step_len[rows] <= floor[rows])]
            stop(out, np.where(t[out] == 0.5 ** 40, "no_decrease", "step"))


def _evaluated(fun, z, rows):
    """fun(z, rows), the objective's own arrays where the whole stack
    evaluates; where it raises, its halves through ``_stacked``, a row that
    fails alone being +inf, with a zero gradient and Hessian and the
    verdict (inf, False)."""
    try:
        return fun(z, rows)
    except (DomainError, NumericsError) as exc:
        raised = exc
    filled = (np.full(len(rows), np.inf), np.zeros_like(z), np.zeros(z.shape + z.shape[1:]),
              np.full(len(rows), np.inf), np.zeros(len(rows), dtype=bool))

    def stage(at):
        if at == slice(None):
            raise raised        # the whole stack, which has just raised
        return fun(z[at], rows[at])

    _stacked(stage, np.arange(len(rows)), filled)
    return filled


def _bounded(dz, z):
    """(the steps dz, each cut to at most 1 + ||z|| long, and 1 + ||z||), a
    row per point z: a shifted Newton step can be some 1e7 long, and its
    trial points would overflow the score."""
    scale = 1.0 + _norm(z)
    return dz * (scale / np.maximum(_norm(dz), scale))[:, None], scale


def _newton_steps(H, g):
    """The Newton steps -H^-1 g of one system or of a stack, each Hessian's
    spectrum shifted where its smallest eigenvalue is not above
    1e-8 max(1, |largest|). Raises NumericsError where a system cannot be
    solved."""
    try:
        A = _sym(H)
        w = np.linalg.eigvalsh(A)
        floor = 1e-8 * np.maximum(1.0, np.abs(w[..., -1]))
        if np.count_nonzero(w[..., 0] <= floor):
            low, floor = w[..., :1, None], floor[..., None, None]     # (1, 1) per system
            A = np.where(low <= floor, A + (np.abs(low) + floor) * np.eye(A.shape[-1]), A)
        return np.linalg.solve(A, -g[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise NumericsError("the Newton system cannot be solved") from exc


def _stacked(stage, rows, out):
    """``stage(at)`` on a stack at once, with at a slice of its positions so
    that indexing the stack does not copy it, each call's outputs written at
    the destination rows ``rows[at]`` of out: the caller's array, or its
    tuple of arrays where the stage returns a tuple, rows being the index
    array of each position's row there. Where the stage raises DomainError
    or NumericsError, the stack is halved until the failing rows stand
    alone, a row alone being a stack of one, ``stage(slice(j, j + 1))``, and
    a row that fails alone keeps what out holds there. Returns each failed
    row's exception, keyed by its destination row. This is the one per-row
    outcome of a stacked stage."""
    n, errors = len(rows), {}

    def halve(lo, hi):
        at = slice(None) if hi - lo == n else slice(lo, hi)
        try:
            parts = stage(at)
        except (DomainError, NumericsError) as exc:
            if hi - lo == 1:
                errors[int(rows[lo])] = exc
            else:
                halve(lo, (lo + hi) // 2)
                halve((lo + hi) // 2, hi)
        else:
            for a, b in zip(out, parts) if isinstance(out, tuple) else [(out, parts)]:
                a[rows[at]] = b

    if n:
        halve(0, n)
    return errors


def _row_cap(model, data):
    """The most rows of a stack of data that one kernel pass takes: those
    whose (rows, n, d) arrays, n observations and d parameters, hold at
    most STACK_ELEMENTS numbers, and at least one."""
    return max(1, STACK_ELEMENTS // (model.nobs(data) * len(model.positive_mask(data))))


def _sliced(stage, model, data, n_rows):
    """``stage(at)`` on the n_rows rows of a stack of data, its tuple of
    outputs with a row axis: one call, at = slice(None), where n_rows is at
    most ``_row_cap``, else a call per slice at of at most that many rows,
    their outputs joined along the rows."""
    cap = _row_cap(model, data)
    if n_rows <= cap:
        return stage(slice(None))
    return tuple(map(np.concatenate, zip(*(stage(slice(i, i + cap))
                                           for i in range(0, n_rows, cap)))))


def fit(rule, data, theta0=None):
    """Estimate theta by minimizing the total score.

    Positive parameters are log-transformed so every iterate stays
    admissible. Convergence requires the total estimating function to be
    round-off next to its terms, ||sum_i s_i|| <= GRAD_TOL sum_i ||s_i||;
    if the first start fails, up to ``N_STARTS - 1`` jittered restarts are
    tried.

    ``data`` may be a stack of datasets (see ``ModelSpec.stack``), with
    ``theta0`` None or a start per row. The result is then one ``Fits``,
    arrays whose row r is the fit of dataset r alone, with the DomainError
    or NumericsError that fitting a row alone raises in its ``errors``. A
    single dataset is fitted as a stack of one, and its Fit is that stack's
    row 0. A stack of any size is one solve: the kernel passes over at most
    ``_row_cap`` of its rows at once, which bounds the fit's memory.
    """
    data = rule.model.checked(data)
    theta0 = np.asarray(_start(rule, data) if theta0 is None else theta0, dtype=float)
    if data[0].ndim != 1:
        return _fit_rows(rule, data, theta0)
    return _fit_rows(rule, rule.model.stack([data]), theta0[None])[0]


def _start(rule, data):
    """fit's start, or one per row of a stack: the closed-form MLE for the
    log score where the model has one, else the model's default start."""
    return _per_kind(_kind_start, rule, data)


def _kind_start(rule, data):
    theta0 = rule.model.mle_start(data) if rule.kind == "log" else None
    return rule.model.default_start(data) if theta0 is None else theta0


def _admissible(model, theta0):
    """theta0, a start or a start per row of a stack; raises DomainError
    where one is outside the admissible set."""
    if not model.in_domain(theta0):
        raise DomainError("starting value outside the admissible set")
    return theta0


def _fit_rows(rule, data, theta0):
    """fit on a stack of datasets from a start per row: one Fits. Each row
    keeps its best solve of the first start and up to N_STARTS - 1 jittered
    restarts, made while it has not converged; a row whose start cannot be
    scored is given up with what scoring it alone raises."""
    model = rule.model
    n_rows, d = theta0.shape
    # the kept solve per row: (x, value, n_iter, reason, ||g||, converged)
    best = (np.full((n_rows, d), np.nan), np.full(n_rows, np.nan), np.zeros(n_rows, dtype=int),
            np.full(n_rows, None, dtype=object), np.full(n_rows, np.nan),
            np.zeros(n_rows, dtype=bool))
    theta, val, n_iter, reason, gnorm, converged = best
    # theta holds each admissible start until its solve overwrites it
    errors = _stacked(lambda at: _admissible(model, theta0[at]), np.arange(n_rows), theta)
    failed = np.isin(np.arange(n_rows), list(errors))
    rows = np.flatnonzero(~failed)
    if rows.size:
        objective = _Objective(rule, data)
        objective = objective if rows.size == n_rows else objective.rows(rows)
        z0 = _to_z(theta0[rows], objective.positive)
        for a, b in zip(best, objective.solve(z0)):
            a[rows] = b
        for r in rows[reason[rows] == "not_finite"].tolist():
            try:
                total_score(_rule_rows(rule, r), model.take(data, r), theta0[r])
            except (DomainError, NumericsError) as exc:
                failed[r], errors[r] = True, exc
        rng = np.random.default_rng(0)
        for _ in range(N_STARTS - 1):
            redo = np.flatnonzero(~(converged | failed)[rows])     # positions in rows
            if not redo.size:
                break
            # each row's restart k draws the same jitter as its fit alone would
            jitter = rng.standard_normal(d)
            starts = z0[redo] + 0.2 * (1.0 + np.abs(z0[redo])) * jitter
            cand, at = objective.rows(redo).solve(starts), rows[redo]
            # a converged solve, then a lower score
            better = (cand[5] > converged[at]) | ((cand[5] == converged[at]) & (cand[1] < val[at]))
            for a, b in zip(best, cand):
                a[at[better]] = b[better]
    keep = np.flatnonzero(~failed)
    kept, theta_kept = data if keep.size == n_rows else model.take(data, keep), theta[keep]
    rule_kept = _rule_rows(rule, keep)

    def stage(at):
        K, J = estimate_KJ(_rule_rows(rule_kept, at), model.take(kept, at), theta_kept[at])
        return (K, J) + sandwich(K, J)

    matrices = np.full((4, n_rows, d, d), np.nan)     # K, J, V and G
    errors.update(_stacked(stage, keep, tuple(matrices)))
    failed[list(errors)] = True
    theta[failed], val[failed], converged[failed] = np.nan, np.nan, False
    return Fits(theta, val, *matrices, converged, n_iter, gnorm, reason, rule, data, errors)
