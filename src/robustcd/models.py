"""Parametric model specifications used by the scoring machinery.

Each model exposes per-observation log densities, their gradients, closed
forms for the power integral ``int f(y; theta)^gamma dy`` where available,
samplers, the scalar interest parameter with its gradient, and the
(interest, nuisance) reparameterization used for profiling.

Built-in families: two-sample heteroscedastic normal, two-sample exponential
AUC, two-sample normal AUC, and the normal linear regression model.
"""

from __future__ import annotations

import abc
import math

import numpy as np
from scipy.integrate import quad
from scipy.special import ndtr, ndtri

from .errors import DomainError, NumericsError

__all__ = [
    "ModelSpec",
    "TwoSampleNormal",
    "ExponentialAUC",
    "NormalAUC",
    "LinearRegression",
    "tsallis_integral_normal",
    "tsallis_integral_exponential",
    "auc_from_rates",
    "auc_from_normal",
    "get_model",
    "MODEL_NAMES",
]

_TWO_PI = 2.0 * math.pi
_SQRT_TWO_PI = np.sqrt(_TWO_PI)
_CHECKED_MEMO = 8  # checked data objects each model remembers


# ---------------------------------------------------------------------------
# Closed-form power integrals
# ---------------------------------------------------------------------------

def tsallis_integral_normal(mu, var, gamma):
    """Closed form of ``int N(y; mu, var)^gamma dy`` = gamma^{-1/2} (2 pi var)^{(1-gamma)/2}.

    Independent of ``mu``; ``mu`` is accepted so the signature matches the
    density parameterization.
    """
    if np.any(np.asarray(var) <= 0):
        raise DomainError("variance must be positive")
    if gamma <= 1:
        raise DomainError("gamma must exceed 1")
    del mu
    return _normal_power(var, gamma)


def _normal_power(var, gamma):
    # the models' unchecked form: their callers have checked var and gamma
    return gamma ** -0.5 * (_TWO_PI * var) ** ((1.0 - gamma) / 2.0)


def tsallis_integral_exponential(rate, gamma):
    """Closed form of ``int Exp(y; rate)^gamma dy`` on [0, inf) = rate^{gamma-1} / gamma."""
    if np.any(np.asarray(rate) <= 0):
        raise DomainError("rate must be positive")
    if gamma <= 1:
        raise DomainError("gamma must exceed 1")
    return _exponential_power(rate, gamma)


def _exponential_power(rate, gamma):
    return rate ** (gamma - 1.0) / gamma


# ---------------------------------------------------------------------------
# AUC / stress-strength interest maps
# ---------------------------------------------------------------------------

def auc_from_rates(rate1, rate2):
    """P(X1 < X2) for independent exponentials: rate1 / (rate1 + rate2)."""
    if rate1 <= 0 or rate2 <= 0:
        raise DomainError("rates must be positive")
    return rate1 / (rate1 + rate2)


def auc_from_rates_grad(rate1, rate2):
    s = (rate1 + rate2) ** 2
    return np.array([rate2 / s, -rate1 / s])


def normal_pdf(x):
    """Standard normal density, by scipy.stats.norm.pdf's own formula (so
    equal to it bit for bit) without its per-call overhead."""
    return np.exp(-np.asarray(x, dtype=float) ** 2 / 2.0) / _SQRT_TWO_PI


def auc_from_normal(mu1, mu2, var1, var2):
    """P(X1 < X2) for independent normals: Phi((mu2 - mu1) / sqrt(var1 + var2))."""
    if var1 <= 0 or var2 <= 0:
        raise DomainError("variances must be positive")
    return float(ndtr((mu2 - mu1) / math.sqrt(var1 + var2)))


def auc_from_normal_grad(mu1, mu2, var1, var2):
    s2 = var1 + var2
    s = math.sqrt(s2)
    eta = (mu2 - mu1) / s
    dens = float(normal_pdf(eta))
    return np.array([-dens / s, dens / s, -dens * eta / (2 * s2), -dens * eta / (2 * s2)])


# ---------------------------------------------------------------------------
# Normal / exponential component ingredients shared by several models.
# a = gamma - 1 throughout.
# ---------------------------------------------------------------------------

def _xi(var, t):
    # (2 pi v)^{-t/2} (1+t)^{-3/2} / v : expected curvature scale of the
    # location estimating function under power downweighting t.
    return (_TWO_PI * var) ** (-t / 2.0) * (1.0 + t) ** -1.5 / var


def _varsigma(var, t):
    return (_TWO_PI * var) ** (-t / 2.0) * (2.0 + t * t) * (1.0 + t) ** -2.5 / (4.0 * var * var)


def _normal_component_kj(var, gamma, rule_kind):
    """Per-observation expected (K, J) 2x2 diagonal entries for one N(mu, var)
    component, ordered (mu, var)."""
    if rule_kind == "log":
        k_mu = 1.0 / var
        k_v = 1.0 / (2.0 * var * var)
        return (k_mu, k_v), (k_mu, k_v)
    a = gamma - 1.0
    c = gamma * a
    k_mu = c * _xi(var, a)
    k_v = c * _varsigma(var, a)
    j_mu = c * c * _xi(var, 2 * a)
    j_v = c * c * (_varsigma(var, 2 * a) - 0.25 * a * a * _xi(var, a) ** 2)
    return (k_mu, k_v), (j_mu, j_v)


def _exponential_component_kj(rate, gamma, rule_kind):
    """Per-observation expected scalar (K, J) for one Exp(rate) component."""
    if rule_kind == "log":
        k = 1.0 / rate ** 2
        return k, k
    a = gamma - 1.0
    g = gamma
    k = a * (1.0 + a * a) * rate ** (a - 2.0) / g ** 2
    j = a * a * rate ** (2 * a - 2.0) * (
        g ** 2 * (4 * a * a + 1.0) / (1.0 + 2 * a) ** 3 - a * a / g ** 2
    )
    return k, j


def _norm_logpdf(y, mu, var):
    return -0.5 * np.log(_TWO_PI * var) - (y - mu) ** 2 / (2.0 * var)


def _mad_scale(y):
    med = np.median(y)
    s = 1.4826 * np.median(np.abs(y - med))
    if s <= 0:
        s = y.std() if y.std() > 0 else 1.0
    return med, s


def _fd_jacobian(func, x, rel_step=1e-6):
    """Central-difference Jacobian of ``func`` at the float array ``x``: one
    column per coordinate j, with step rel_step (1 + |x_j|)."""
    cols = []
    for j in range(len(x)):
        h = rel_step * (1.0 + abs(x[j]))
        xp = x.copy(); xp[j] += h
        xm = x.copy(); xm[j] -= h
        cols.append((func(xp) - func(xm)) / (2 * h))
    return np.stack(cols, axis=-1)


# ---------------------------------------------------------------------------
# Base class
# ---------------------------------------------------------------------------

class ModelSpec(abc.ABC):
    """A parametric family seen through per-observation quantities.

    Subclasses define the parameter layout (``param_names``, ``positive``),
    observation-level densities and gradients, the scalar interest parameter,
    and the nuisance embedding used for constrained (profile) fits.
    """

    name: str = ""
    param_names: tuple = ()
    positive: tuple = ()
    interest_name: str = "psi"
    wald_scale: str = "identity"  # "logit" for (0,1)-valued interest
    lam_positive: tuple = ()

    @property
    def dim(self):
        return len(self.param_names)

    def positive_mask(self, data):
        return self.positive

    def lam_positive_mask(self, data):
        return self.lam_positive

    # ---- data handling ------------------------------------------------
    @abc.abstractmethod
    def validate_data(self, data):
        """Return data in canonical form; raise DomainError if unusable."""

    def checked(self, data):
        """``data`` in canonical form, validated unless this model returned
        that very object from an earlier check.

        The most recently used checked objects, at most _CHECKED_MEMO, are
        held by identity, so a solve that evaluates the score many times
        scans its data once. Checked data are taken to be immutable.
        """
        memo = self.__dict__.setdefault("_checked", {})
        if memo.get(id(data)) is data:
            memo[id(data)] = memo.pop(id(data), data)  # most recently used last
            return data
        data = self.validate_data(data)
        if len(memo) >= _CHECKED_MEMO:
            del memo[next(iter(memo))]
        memo[id(data)] = data
        return data

    @abc.abstractmethod
    def nobs(self, data) -> int:
        ...

    @abc.abstractmethod
    def default_start(self, data) -> np.ndarray:
        """A robust, admissible starting value for optimization."""

    def mle_start(self, data):
        """Closed-form MLE when available (used to seed log-score fits)."""
        return None

    def in_domain(self, theta) -> bool:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.dim,) or not np.all(np.isfinite(theta)):
            return False
        for j, pos in enumerate(self.positive):
            if pos and theta[j] <= 0:
                return False
        return True

    def require_domain(self, theta):
        if not self.in_domain(theta):
            raise DomainError(f"{self.name}: parameter {theta!r} outside admissible set")

    # ---- observation-level pieces --------------------------------------
    @abc.abstractmethod
    def logpdf_obs(self, data, theta) -> np.ndarray:
        """Per-observation log densities, flattened in canonical order."""

    @abc.abstractmethod
    def dlogpdf_obs(self, data, theta) -> np.ndarray:
        """(n, d) array of per-observation gradients of the log density."""

    def d2logpdf_obs(self, data, theta, weights):
        """(d, d) weighted sum ``sum_i w_i Hess log f(y_i; theta)`` of the
        per-observation Hessians of the log density; None if no closed form."""
        return None

    def tsallis_integral_obs(self, data, theta, gamma):
        """Per-observation ``int f^gamma``; None if no closed form."""
        return None

    def tsallis_integral_grad_obs(self, data, theta, gamma, values=None):
        """(n, d) gradient of the per-observation power integral; None if no
        closed form. ``values`` are the integrals at theta, where the caller
        has them already."""
        return self._integral_derivs(data, theta, gamma, values, 1)

    def tsallis_integral_hess(self, data, theta, gamma, values=None):
        """(d, d) Hessian of the summed power integral; None if no closed form."""
        return self._integral_derivs(data, theta, gamma, values, 2)

    def _integral_parts(self, data, theta, gamma):
        """For a model whose observations fall in components, each with a
        power integral I that depends on one coordinate j: one
        (rows, j, d log I / d theta_j, d^2 log I / d theta_j^2) per
        component. None otherwise."""
        return None

    def _integral_derivs(self, data, theta, gamma, values, order):
        parts = self._integral_parts(data, theta, gamma)
        if parts is None:
            return None
        if values is None:
            values = self.tsallis_integral_obs(data, theta, gamma)
        d = len(theta)
        if order == 1:
            out = np.zeros((len(values), d))
            for rows, j, dlog, _ in parts:
                out[rows, j] = dlog * values[rows]
        else:
            out = np.zeros((d, d))
            for rows, j, dlog, d2log in parts:
                out[j, j] = (d2log + dlog * dlog) * values[rows].sum()
        return out

    def quad_components(self, data, theta):
        """Density groups [(pdf, (lo, hi), count), ...] for the quadrature
        fallback of a model without a closed-form power integral."""
        raise NotImplementedError

    # ---- sampling / contamination --------------------------------------
    @abc.abstractmethod
    def sample(self, theta, sizes, rng, *, design=None):
        ...

    @abc.abstractmethod
    def shift_obs(self, data, sample_index, obs_index, shift):
        """Copy of data with one designated observation shifted."""

    @abc.abstractmethod
    def contamination_frame(self, ys, data, component=0):
        """Data object holding exactly the points ``ys`` in the given component.

        Used to evaluate estimating-function contributions of hypothetical
        observations.
        """

    def component_support(self, component=0):
        return (-np.inf, np.inf)

    def obs_center_scale(self, data, theta, component=0):
        """(center, scale) in observation space for influence grids."""
        raise NotImplementedError

    # ---- interest parameter ---------------------------------------------
    @abc.abstractmethod
    def interest(self, theta) -> float:
        ...

    @abc.abstractmethod
    def interest_grad(self, theta) -> np.ndarray:
        ...

    def interest_range(self):
        return (-np.inf, np.inf)

    # ---- profiling -------------------------------------------------------
    @abc.abstractmethod
    def profile_embed(self, psi, lam) -> np.ndarray:
        """Full parameter with interest fixed at psi and nuisance lam."""

    @abc.abstractmethod
    def profile_extract(self, theta) -> np.ndarray:
        """Nuisance coordinates of a full parameter."""

    def profile_embed_jac(self, psi, lam):
        """(d, d-1) Jacobian d theta / d lam; finite differences by default."""
        return _fd_jacobian(lambda v: self.profile_embed(psi, v), np.asarray(lam, dtype=float))

    def profile_embed_hess(self, psi, lam, grad):
        """(d-1, d-1) curvature ``sum_k grad_k Hess_lam theta_k`` of the
        embedding, contracted with a theta-gradient; None where theta is
        linear in lam. Finite differences of profile_embed_jac by default."""
        out = _fd_jacobian(lambda v: self.profile_embed_jac(psi, v).T @ grad,
                           np.asarray(lam, dtype=float))
        return 0.5 * (out + out.T)

    # ---- analytic expectations -------------------------------------------
    def expected_kj(self, rule_kind, gamma, data, theta):
        """Analytic E[K], E[J] of the total estimating function; None if unknown."""
        return None


class _CoordinateInterest(ModelSpec):
    """A model whose interest is the coordinate ``interest_index`` of theta
    and whose nuisance lam is theta without it."""

    def interest(self, theta):
        return float(theta[self.interest_index])

    def interest_grad(self, theta):
        g = np.zeros(len(theta))
        g[self.interest_index] = 1.0
        return g

    def profile_embed(self, psi, lam):
        lam = np.asarray(lam, dtype=float)
        i = self.interest_index
        return np.concatenate((lam[:i], [psi], lam[i:]))

    def profile_extract(self, theta):
        theta = np.asarray(theta, dtype=float)
        i = self.interest_index
        return np.concatenate((theta[:i], theta[i + 1:]))

    def profile_embed_jac(self, psi, lam):
        return np.delete(np.eye(len(lam) + 1), self.interest_index, axis=1)

    def profile_embed_hess(self, psi, lam, grad):
        return None

    def lam_positive_mask(self, data):
        mask = list(self.positive_mask(data))
        del mask[self.interest_index]
        return tuple(mask)


# ---------------------------------------------------------------------------
# Two-sample models
# ---------------------------------------------------------------------------

def _validate_two_samples(data):
    try:
        x, y = data
    except (TypeError, ValueError) as exc:
        raise DomainError("two-sample data must be a pair of arrays") from exc
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    # one component may be empty in internal single-point evaluation frames;
    # fitting entry points require both (see default_start)
    if x.size + y.size == 0:
        raise DomainError("data must be nonempty")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise DomainError("data contain non-finite values")
    return x, y


def _require_both_samples(data):
    x, y = data
    if len(x) == 0 or len(y) == 0:
        raise DomainError("fitting requires both samples to be nonempty")


class _TwoSampleBase(ModelSpec):
    """Shared plumbing for models on a pair of independent samples."""

    def validate_data(self, data):
        return _validate_two_samples(data)

    def nobs(self, data):
        x, y = data
        return len(x) + len(y)

    def shift_obs(self, data, sample_index, obs_index, shift):
        x, y = self.validate_data(data)
        x, y = x.copy(), y.copy()
        target = (x, y)[sample_index]
        if not (-len(target) <= obs_index < len(target)):
            raise IndexError(f"obs_index {obs_index} out of range for sample of size {len(target)}")
        target[obs_index] += shift
        return (x, y)

    def contamination_frame(self, ys, data, component=0):
        ys = np.atleast_1d(np.asarray(ys, dtype=float))
        empty = np.empty(0)
        return (ys, empty) if component == 0 else (empty, ys)

    def profile_embed_hess(self, psi, lam, grad):
        return None


class TwoSampleNormal(_TwoSampleBase):
    """Heteroscedastic two-sample normal model; interest is the mean difference."""

    name = "two-sample-normal"
    param_names = ("mu_x", "mu_y", "var_x", "var_y")
    positive = (False, False, True, True)
    interest_name = "mu_x - mu_y"
    lam_positive = (False, True, True)

    def logpdf_obs(self, data, theta):
        x, y = data
        mx, my, vx, vy = theta
        return np.concatenate([_norm_logpdf(x, mx, vx), _norm_logpdf(y, my, vy)])

    def dlogpdf_obs(self, data, theta):
        x, y = data
        mx, my, vx, vy = theta
        n1, n2 = len(x), len(y)
        out = np.zeros((n1 + n2, 4))
        zx, zy = x - mx, y - my
        out[:n1, 0] = zx / vx
        out[:n1, 2] = -0.5 / vx + zx ** 2 / (2 * vx ** 2)
        out[n1:, 1] = zy / vy
        out[n1:, 3] = -0.5 / vy + zy ** 2 / (2 * vy ** 2)
        return out

    def d2logpdf_obs(self, data, theta, weights):
        x, y = data
        n1 = len(x)
        out = np.zeros((4, 4))
        # (mean index, variance index, residuals, weights) per sample
        for m, v, z, w in ((0, 2, x - theta[0], weights[:n1]),
                           (1, 3, y - theta[1], weights[n1:])):
            var, sw = theta[v], w.sum()
            out[m, m] = -sw / var
            out[m, v] = out[v, m] = -(w @ z) / var ** 2
            out[v, v] = sw / (2 * var ** 2) - (w @ z ** 2) / var ** 3
        return out

    def tsallis_integral_obs(self, data, theta, gamma):
        x, y = data
        _, _, vx, vy = theta
        return np.concatenate([np.full(len(x), _normal_power(vx, gamma)),
                               np.full(len(y), _normal_power(vy, gamma))])

    def _integral_parts(self, data, theta, gamma):
        # I = gamma^{-1/2} (2 pi v)^{-a/2}: d log I / dv = -a / (2v)
        n1, a = len(data[0]), gamma - 1.0
        vx, vy = theta[2], theta[3]
        return ((slice(0, n1), 2, -a / (2 * vx), a / (2 * vx * vx)),
                (slice(n1, None), 3, -a / (2 * vy), a / (2 * vy * vy)))

    def default_start(self, data):
        _require_both_samples(data)
        x, y = data
        mx, sx = _mad_scale(x)
        my, sy = _mad_scale(y)
        return np.array([mx, my, sx ** 2, sy ** 2])

    def mle_start(self, data):
        _require_both_samples(data)
        x, y = data
        return np.array([x.mean(), y.mean(), max(x.var(), 1e-12), max(y.var(), 1e-12)])

    def sample(self, theta, sizes, rng, *, design=None):
        mx, my, vx, vy = theta
        n1, n2 = sizes
        return (rng.normal(mx, math.sqrt(vx), n1), rng.normal(my, math.sqrt(vy), n2))

    def obs_center_scale(self, data, theta, component=0):
        mx, my, vx, vy = theta
        return (mx, math.sqrt(vx)) if component == 0 else (my, math.sqrt(vy))

    def interest(self, theta):
        return theta[0] - theta[1]

    def interest_grad(self, theta):
        return np.array([1.0, -1.0, 0.0, 0.0])

    def profile_embed(self, psi, lam):
        my, vx, vy = lam
        return np.array([psi + my, my, vx, vy])

    def profile_extract(self, theta):
        return np.array([theta[1], theta[2], theta[3]])

    def profile_embed_jac(self, psi, lam):
        return np.array([[1.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])

    def expected_kj(self, rule_kind, gamma, data, theta):
        x, y = data
        _, _, vx, vy = theta
        (kmx, kvx), (jmx, jvx) = _normal_component_kj(vx, gamma, rule_kind)
        (kmy, kvy), (jmy, jvy) = _normal_component_kj(vy, gamma, rule_kind)
        n1, n2 = len(x), len(y)
        K = np.diag([n1 * kmx, n2 * kmy, n1 * kvx, n2 * kvy])
        J = np.diag([n1 * jmx, n2 * jmy, n1 * jvx, n2 * jvy])
        return K, J


class NormalAUC(TwoSampleNormal):
    """Stress-strength reliability P(X1 < X2) for two independent normal
    samples: the two-sample normal densities with the AUC as interest."""

    name = "auc-normal"
    param_names = ("mu_1", "mu_2", "var_1", "var_2")
    interest_name = "P(X1 < X2)"
    wald_scale = "logit"

    def interest(self, theta):
        return auc_from_normal(*theta)

    def interest_grad(self, theta):
        return auc_from_normal_grad(*theta)

    def interest_range(self):
        return (0.0, 1.0)

    def profile_embed(self, psi, lam):
        if not 0.0 < psi < 1.0:
            raise DomainError("AUC interest must lie in (0, 1)")
        mu1, v1, v2 = lam
        mu2 = mu1 + ndtri(psi) * math.sqrt(v1 + v2)
        return np.array([mu1, mu2, v1, v2])

    def profile_extract(self, theta):
        return np.array([theta[0], theta[2], theta[3]])

    def profile_embed_jac(self, psi, lam):
        mu1, v1, v2 = lam
        q = ndtri(psi)
        s = math.sqrt(v1 + v2)
        return np.array([
            [1.0, 0.0, 0.0],
            [1.0, q / (2 * s), q / (2 * s)],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
        ])

    def profile_embed_hess(self, psi, lam, grad):
        # mu_2 = mu_1 + q sqrt(v_1 + v_2): d^2 mu_2 / dv_i dv_j = -q / (4 s^3)
        _, v1, v2 = lam
        out = np.zeros((3, 3))
        out[1:, 1:] = -grad[1] * ndtri(psi) / (4.0 * (v1 + v2) ** 1.5)
        return out


class ExponentialAUC(_TwoSampleBase):
    """P(X1 < X2) for two independent exponential samples; psi = r1 / (r1 + r2)."""

    name = "auc-exponential"
    param_names = ("rate_1", "rate_2")
    positive = (True, True)
    interest_name = "P(X1 < X2)"
    wald_scale = "logit"
    lam_positive = (True,)

    def logpdf_obs(self, data, theta):
        x, y = data
        r1, r2 = theta
        return np.concatenate([np.log(r1) - r1 * x, np.log(r2) - r2 * y])

    def dlogpdf_obs(self, data, theta):
        x, y = data
        r1, r2 = theta
        n1, n2 = len(x), len(y)
        out = np.zeros((n1 + n2, 2))
        out[:n1, 0] = 1.0 / r1 - x
        out[n1:, 1] = 1.0 / r2 - y
        return out

    def d2logpdf_obs(self, data, theta, weights):
        r1, r2 = theta
        n1 = len(data[0])
        return np.diag([-weights[:n1].sum() / r1 ** 2, -weights[n1:].sum() / r2 ** 2])

    def tsallis_integral_obs(self, data, theta, gamma):
        x, y = data
        r1, r2 = theta
        return np.concatenate([np.full(len(x), _exponential_power(r1, gamma)),
                               np.full(len(y), _exponential_power(r2, gamma))])

    def _integral_parts(self, data, theta, gamma):
        # I = r^a / gamma: d log I / dr = a / r
        n1, a = len(data[0]), gamma - 1.0
        r1, r2 = theta
        return ((slice(0, n1), 0, a / r1, -a / (r1 * r1)),
                (slice(n1, None), 1, a / r2, -a / (r2 * r2)))

    def validate_data(self, data):
        x, y = _validate_two_samples(data)
        if np.any(x < 0) or np.any(y < 0):
            raise DomainError("exponential data must be nonnegative")
        return x, y

    def default_start(self, data):
        _require_both_samples(data)
        x, y = data
        # median of Exp(r) is log(2)/r
        return np.array([math.log(2.0) / np.median(x), math.log(2.0) / np.median(y)])

    def mle_start(self, data):
        _require_both_samples(data)
        x, y = data
        return np.array([1.0 / x.mean(), 1.0 / y.mean()])

    def sample(self, theta, sizes, rng, *, design=None):
        r1, r2 = theta
        n1, n2 = sizes
        return (rng.exponential(1.0 / r1, n1), rng.exponential(1.0 / r2, n2))

    def component_support(self, component=0):
        return (0.0, np.inf)

    def obs_center_scale(self, data, theta, component=0):
        r = theta[component]
        return (1.0 / r, 1.0 / r)

    def interest(self, theta):
        return auc_from_rates(*theta)

    def interest_grad(self, theta):
        return auc_from_rates_grad(*theta)

    def interest_range(self):
        return (0.0, 1.0)

    def profile_embed(self, psi, lam):
        if not 0.0 < psi < 1.0:
            raise DomainError("AUC interest must lie in (0, 1)")
        (r2,) = np.atleast_1d(lam)
        return np.array([psi * r2 / (1.0 - psi), r2])

    def profile_extract(self, theta):
        return np.array([theta[1]])

    def profile_embed_jac(self, psi, lam):
        return np.array([[psi / (1.0 - psi)], [1.0]])

    def expected_kj(self, rule_kind, gamma, data, theta):
        x, y = data
        r1, r2 = theta
        k1, j1 = _exponential_component_kj(r1, gamma, rule_kind)
        k2, j2 = _exponential_component_kj(r2, gamma, rule_kind)
        K = np.diag([len(x) * k1, len(y) * k2])
        J = np.diag([len(x) * j1, len(y) * j2])
        return K, J


# ---------------------------------------------------------------------------
# Linear regression
# ---------------------------------------------------------------------------

class LinearRegression(_CoordinateInterest):
    """Normal linear model y_i = x_i' beta + eps_i; interest is one coefficient.

    Parameters are (beta_1, ..., beta_p, var). The design matrix travels with
    the data as ``(y, X)`` and is treated as fixed.
    """

    name = "linear-regression"
    interest_name = "beta[interest_index]"

    def __init__(self, interest_index=1):
        self.interest_index = int(interest_index)

    def validate_data(self, data):
        try:
            y, X = data
        except (TypeError, ValueError) as exc:
            raise DomainError("regression data must be (y, X)") from exc
        y = np.asarray(y, dtype=float).ravel()
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[0] != y.size or y.size == 0:
            raise DomainError("design matrix must be (n, p) matching y")
        if not (np.all(np.isfinite(y)) and np.all(np.isfinite(X))):
            raise DomainError("data contain non-finite values")
        if not 0 <= self.interest_index < X.shape[1]:
            raise DomainError(
                f"interest index {self.interest_index} out of range for p={X.shape[1]}")
        return y, X

    def _require_full_rank(self, X):
        # identification check at fitting entry; single-point evaluation
        # frames legitimately repeat design rows
        if np.linalg.matrix_rank(X) < X.shape[1]:
            raise DomainError("design matrix is rank deficient")

    @property
    def dim(self):
        raise AttributeError("regression dimension depends on the design: p + 1 for p columns")

    def positive_mask(self, data):
        return tuple([False] * data[1].shape[1] + [True])

    def in_domain(self, theta):
        theta = np.asarray(theta, dtype=float)
        return bool(np.all(np.isfinite(theta)) and theta[-1] > 0)

    def nobs(self, data):
        return len(data[0])

    def logpdf_obs(self, data, theta):
        y, X = data
        beta, v = theta[:-1], theta[-1]
        return _norm_logpdf(y, X @ beta, v)

    def dlogpdf_obs(self, data, theta):
        y, X = data
        beta, v = theta[:-1], theta[-1]
        r = y - X @ beta
        out = np.empty((len(y), len(theta)))
        out[:, :-1] = X * (r / v)[:, None]
        out[:, -1] = -0.5 / v + r ** 2 / (2 * v ** 2)
        return out

    def d2logpdf_obs(self, data, theta, weights):
        y, X = data
        beta, v = theta[:-1], theta[-1]
        r = y - X @ beta
        out = np.empty((len(theta), len(theta)))
        out[:-1, :-1] = -(X.T * weights) @ X / v
        out[:-1, -1] = out[-1, :-1] = -(X.T @ (weights * r)) / v ** 2
        out[-1, -1] = weights.sum() / (2 * v ** 2) - (weights @ r ** 2) / v ** 3
        return out

    def tsallis_integral_obs(self, data, theta, gamma):
        y, _ = data
        return np.full(len(y), _normal_power(theta[-1], gamma))

    def _integral_parts(self, data, theta, gamma):
        a, v = gamma - 1.0, theta[-1]
        return ((slice(None), len(theta) - 1, -a / (2 * v), a / (2 * v * v)),)

    def default_start(self, data):
        y, X = data
        self._require_full_rank(X)
        beta = np.linalg.lstsq(X, y, rcond=None)[0]
        resid = y - X @ beta
        _, s = _mad_scale(resid)
        return np.concatenate([beta, [s ** 2]])

    def mle_start(self, data):
        y, X = data
        self._require_full_rank(X)
        beta = np.linalg.lstsq(X, y, rcond=None)[0]
        resid = y - X @ beta
        return np.concatenate([beta, [max(resid @ resid / len(y), 1e-12)]])

    def sample(self, theta, sizes, rng, *, design=None):
        if design is None:
            raise DomainError("regression sampling requires a fixed design matrix")
        X = np.asarray(design, dtype=float)
        beta, v = np.asarray(theta[:-1]), theta[-1]
        y = X @ beta + rng.normal(0.0, math.sqrt(v), X.shape[0])
        return (y, X)

    def shift_obs(self, data, sample_index, obs_index, shift):
        y, X = self.validate_data(data)
        y = y.copy()
        if not (-len(y) <= obs_index < len(y)):
            raise IndexError(f"obs_index {obs_index} out of range for n={len(y)}")
        y[obs_index] += shift
        return (y, X.copy())

    def contamination_frame(self, ys, data, component=0, x_row=None):
        _, X = data
        ys = np.atleast_1d(np.asarray(ys, dtype=float))
        row = np.asarray(x_row, dtype=float) if x_row is not None else X.mean(axis=0)
        return (ys, np.tile(row, (len(ys), 1)))

    def obs_center_scale(self, data, theta, component=0):
        _, X = data
        beta, v = theta[:-1], theta[-1]
        return (float(X.mean(axis=0) @ beta), math.sqrt(v))

    def expected_kj(self, rule_kind, gamma, data, theta):
        y, X = data
        v = theta[-1]
        n = len(y)
        (k_mu, k_v), (j_mu, j_v) = _normal_component_kj(v, gamma, rule_kind)
        xtx = X.T @ X
        d = X.shape[1] + 1
        K = np.zeros((d, d))
        J = np.zeros((d, d))
        K[:-1, :-1] = k_mu * xtx
        K[-1, -1] = n * k_v
        J[:-1, :-1] = j_mu * xtx
        J[-1, -1] = n * j_v
        return K, J


# ---------------------------------------------------------------------------
# Generic helpers used by the scoring layer
# ---------------------------------------------------------------------------

def quadrature_power_integral(pdf, support, gamma, tol=1e-10):
    """Adaptive quadrature of ``pdf(t)**gamma`` over the support interval."""
    import warnings

    lo, hi = support
    with warnings.catch_warnings():
        # convergence trouble is reported as a structured error below
        warnings.simplefilter("ignore")
        val, err = quad(lambda t: pdf(t) ** gamma, lo, hi, epsabs=tol, limit=200)
    if not np.isfinite(val) or err > max(1e-8, 1e-6 * abs(val)):
        raise NumericsError(
            "power-integral quadrature did not reach the requested tolerance",
            detail={"achieved": err},
        )
    return val


_REGISTRY = {
    "two-sample-normal": TwoSampleNormal,
    "auc-exponential": ExponentialAUC,
    "auc-normal": NormalAUC,
    "linear-regression": LinearRegression,
}

MODEL_NAMES = tuple(_REGISTRY)


def get_model(name, **options):
    """Instantiate a built-in model by its CLI name."""
    if name.startswith("expfam:"):
        from .expfam import load_expfam_model
        return load_expfam_model(name.split(":", 1)[1], **options)
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise DomainError(f"unknown model {name!r}; choose from {sorted(_REGISTRY)}") from None
    if cls is LinearRegression:
        return cls(interest_index=options.pop("interest_index", 1))
    if options:
        raise DomainError(f"model {name!r} accepts no options, got {sorted(options)}")
    return cls()
