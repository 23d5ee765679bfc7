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
from scipy.stats import norm

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
    return gamma ** -0.5 * (_TWO_PI * var) ** ((1.0 - gamma) / 2.0)


def tsallis_integral_exponential(rate, gamma):
    """Closed form of ``int Exp(y; rate)^gamma dy`` on [0, inf) = rate^{gamma-1} / gamma."""
    if np.any(np.asarray(rate) <= 0):
        raise DomainError("rate must be positive")
    if gamma <= 1:
        raise DomainError("gamma must exceed 1")
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


def auc_from_normal(mu1, mu2, var1, var2):
    """P(X1 < X2) for independent normals: Phi((mu2 - mu1) / sqrt(var1 + var2))."""
    if var1 <= 0 or var2 <= 0:
        raise DomainError("variances must be positive")
    return float(norm.cdf((mu2 - mu1) / math.sqrt(var1 + var2)))


def auc_from_normal_grad(mu1, mu2, var1, var2):
    s2 = var1 + var2
    s = math.sqrt(s2)
    eta = (mu2 - mu1) / s
    dens = float(norm.pdf(eta))
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

    def param_dim(self, data):
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

    def tsallis_integral_obs(self, data, theta, gamma):
        """Per-observation ``int f^gamma``; None if no closed form."""
        return None

    def tsallis_integral_grad_obs(self, data, theta, gamma):
        """(n, d) gradient of the per-observation power integral; None if no closed form."""
        return None

    def quad_components(self, data, theta):
        """Density groups [(pdf, (lo, hi), count), ...] for the quadrature fallback."""
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
        lam = np.asarray(lam, dtype=float)
        base = self.profile_embed(psi, lam)
        jac = np.empty((self.dim, lam.size))
        for j in range(lam.size):
            h = 1e-6 * (1.0 + abs(lam[j]))
            lp = lam.copy(); lp[j] += h
            lm = lam.copy(); lm[j] -= h
            jac[:, j] = (self.profile_embed(psi, lp) - self.profile_embed(psi, lm)) / (2 * h)
        return jac

    # ---- analytic expectations -------------------------------------------
    def expected_kj(self, rule_kind, gamma, data, theta):
        """Analytic E[K], E[J] of the total estimating function; None if unknown."""
        return None


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

    def tsallis_integral_obs(self, data, theta, gamma):
        x, y = data
        _, _, vx, vy = theta
        ix = tsallis_integral_normal(0.0, vx, gamma)
        iy = tsallis_integral_normal(0.0, vy, gamma)
        return np.concatenate([np.full(len(x), ix), np.full(len(y), iy)])

    def tsallis_integral_grad_obs(self, data, theta, gamma):
        x, y = data
        _, _, vx, vy = theta
        a = gamma - 1.0
        n1, n2 = len(x), len(y)
        out = np.zeros((n1 + n2, 4))
        out[:n1, 2] = -a * tsallis_integral_normal(0.0, vx, gamma) / (2 * vx)
        out[n1:, 3] = -a * tsallis_integral_normal(0.0, vy, gamma) / (2 * vy)
        return out

    def quad_components(self, data, theta):
        x, y = data
        mx, my, vx, vy = theta
        sx, sy = math.sqrt(vx), math.sqrt(vy)
        return [
            (lambda t, m=mx, s=sx: norm.pdf(t, m, s), (-np.inf, np.inf), len(x)),
            (lambda t, m=my, s=sy: norm.pdf(t, m, s), (-np.inf, np.inf), len(y)),
        ]

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


class NormalAUC(_TwoSampleBase):
    """Stress-strength reliability P(X1 < X2) for two independent normal samples."""

    name = "auc-normal"
    param_names = ("mu_1", "mu_2", "var_1", "var_2")
    positive = (False, False, True, True)
    interest_name = "P(X1 < X2)"
    wald_scale = "logit"
    lam_positive = (False, True, True)

    # density pieces are those of TwoSampleNormal with relabelled parameters
    def logpdf_obs(self, data, theta):
        return TwoSampleNormal.logpdf_obs(self, data, theta)

    def dlogpdf_obs(self, data, theta):
        return TwoSampleNormal.dlogpdf_obs(self, data, theta)

    def tsallis_integral_obs(self, data, theta, gamma):
        return TwoSampleNormal.tsallis_integral_obs(self, data, theta, gamma)

    def tsallis_integral_grad_obs(self, data, theta, gamma):
        return TwoSampleNormal.tsallis_integral_grad_obs(self, data, theta, gamma)

    def quad_components(self, data, theta):
        return TwoSampleNormal.quad_components(self, data, theta)

    def default_start(self, data):
        return TwoSampleNormal.default_start(self, data)

    def mle_start(self, data):
        return TwoSampleNormal.mle_start(self, data)

    def sample(self, theta, sizes, rng, *, design=None):
        return TwoSampleNormal.sample(self, theta, sizes, rng)

    def obs_center_scale(self, data, theta, component=0):
        return TwoSampleNormal.obs_center_scale(self, data, theta, component)

    def expected_kj(self, rule_kind, gamma, data, theta):
        return TwoSampleNormal.expected_kj(self, rule_kind, gamma, data, theta)

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
        mu2 = mu1 + norm.ppf(psi) * math.sqrt(v1 + v2)
        return np.array([mu1, mu2, v1, v2])

    def profile_extract(self, theta):
        return np.array([theta[0], theta[2], theta[3]])

    def profile_embed_jac(self, psi, lam):
        mu1, v1, v2 = lam
        q = norm.ppf(psi)
        s = math.sqrt(v1 + v2)
        return np.array([
            [1.0, 0.0, 0.0],
            [1.0, q / (2 * s), q / (2 * s)],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
        ])


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

    def tsallis_integral_obs(self, data, theta, gamma):
        x, y = data
        r1, r2 = theta
        i1 = tsallis_integral_exponential(r1, gamma)
        i2 = tsallis_integral_exponential(r2, gamma)
        return np.concatenate([np.full(len(x), i1), np.full(len(y), i2)])

    def tsallis_integral_grad_obs(self, data, theta, gamma):
        x, y = data
        r1, r2 = theta
        a = gamma - 1.0
        n1, n2 = len(x), len(y)
        out = np.zeros((n1 + n2, 2))
        out[:n1, 0] = a * r1 ** (a - 1.0) / gamma
        out[n1:, 1] = a * r2 ** (a - 1.0) / gamma
        return out

    def quad_components(self, data, theta):
        x, y = data
        r1, r2 = theta
        return [
            (lambda t, r=r1: r * np.exp(-r * t), (0.0, np.inf), len(x)),
            (lambda t, r=r2: r * np.exp(-r * t), (0.0, np.inf), len(y)),
        ]

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

class LinearRegression(ModelSpec):
    """Normal linear model y_i = x_i' beta + eps_i; interest is one coefficient.

    Parameters are (beta_1, ..., beta_p, var). The design matrix travels with
    the data as ``(y, X)`` and is treated as fixed.
    """

    name = "linear-regression"
    interest_name = "beta[interest_index]"

    def __init__(self, interest_index=1):
        self.interest_index = int(interest_index)

    def _layout(self, data):
        _, X = data
        p = X.shape[1]
        return p

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

    # parameter layout is data-dependent; dim queries go through param_dim
    def param_dim(self, data):
        return self._layout(data) + 1

    @property
    def dim(self):
        raise AttributeError("regression dimension depends on the design; use param_dim(data)")

    def positive_mask(self, data):
        p = self._layout(data)
        return tuple([False] * p + [True])

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

    def tsallis_integral_obs(self, data, theta, gamma):
        y, _ = data
        v = theta[-1]
        return np.full(len(y), tsallis_integral_normal(0.0, v, gamma))

    def tsallis_integral_grad_obs(self, data, theta, gamma):
        y, _ = data
        v = theta[-1]
        a = gamma - 1.0
        out = np.zeros((len(y), len(theta)))
        out[:, -1] = -a * tsallis_integral_normal(0.0, v, gamma) / (2 * v)
        return out

    def quad_components(self, data, theta):
        # the power integral of a normal density does not depend on its mean
        y, _ = data
        v = theta[-1]
        s = math.sqrt(v)
        return [(lambda t, s=s: norm.pdf(t, 0.0, s), (-np.inf, np.inf), len(y))]

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

    def interest(self, theta):
        return theta[self.interest_index]

    def interest_grad(self, theta):
        g = np.zeros(len(theta))
        g[self.interest_index] = 1.0
        return g

    def profile_embed(self, psi, lam):
        lam = np.asarray(lam, dtype=float)
        return np.insert(lam, self.interest_index, psi)

    def profile_extract(self, theta):
        return np.delete(np.asarray(theta, dtype=float), self.interest_index)

    def profile_embed_jac(self, psi, lam):
        d = len(lam) + 1
        jac = np.zeros((d, d - 1))
        rows = [i for i in range(d) if i != self.interest_index]
        for col, row in enumerate(rows):
            jac[row, col] = 1.0
        return jac

    def lam_positive_mask(self, data):
        mask = list(self.positive_mask(data))
        del mask[self.interest_index]
        return tuple(mask)

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
