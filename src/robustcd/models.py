"""Parametric model specifications used by the scoring machinery.

Each model exposes per-observation log densities with their gradients and
Hessians, closed forms for the power integral ``int f(y; theta)^gamma dy``
and its derivatives, samplers, the scalar interest parameter with its
gradient, and the (interest, nuisance) reparameterization used for profiling
with its Jacobian and curvature. The closed forms are part of the model
contract: the scoring layer has no quadrature or finite-difference stand-in
for them, and every model gives the expected sensitivity K and variability
J of its scores in closed form, which ``calibrate_gamma`` uses. New
families come in through ``expfam``, whose ``_Family`` gets every closed
form, K and J among them, from its cumulant ``c``, ``c_grad`` and
``c_hess``, written over stacks of parameters.

Built-in families: two-sample heteroscedastic normal, two-sample exponential
AUC, two-sample normal AUC, and the normal linear regression model.

Every per-observation method also takes a stack of datasets with a stack of
parameters: each data array and theta gain a leading row axis (regression
keeps its one design matrix), and row r of every result is what the method
returns for dataset r and theta[r] alone, bit for bit. The power-integral
methods and ``expected_kj`` take gamma as one value or, for a stack, one
per row, which they broadcast as a coordinate of theta (``_col``).
``ModelSpec.stack`` builds a stack and ``ModelSpec.take`` selects its rows.
Powers of parameters are ``np.power``, of a scalar too: its loop gives a
scalar the bits it gives that entry of an array, while ``**`` on a numpy
scalar calls the C library's pow, which can differ in the last bit. An
exponent that gamma sets is always an array (``_power``).
"""

from __future__ import annotations

import abc
import functools
import math
import statistics

import numpy as np

from .errors import DomainError

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
    return np.power(gamma, -0.5) * _power(_TWO_PI * var, (1.0 - gamma) / 2.0)


def tsallis_integral_exponential(rate, gamma):
    """Closed form of ``int Exp(y; rate)^gamma dy`` on [0, inf) = rate^{gamma-1} / gamma."""
    if np.any(np.asarray(rate) <= 0):
        raise DomainError("rate must be positive")
    if gamma <= 1:
        raise DomainError("gamma must exceed 1")
    return _exponential_power(rate, gamma)


def _exponential_power(rate, gamma):
    return _power(rate, gamma - 1.0) / gamma


def _power(base, exponent):
    """np.power for an exponent that gamma sets, always as numpy raises an
    array to an array of exponents. To one exponent numpy takes shortcuts
    (a square root for 1/2, a reciprocal for -1, a square for 2) that an
    array of them does not, so in this form a row computes the same bits
    whether its gamma is one value or one per row of a stack, and whether
    it is in a stack or alone."""
    if type(exponent) is np.ndarray:
        return np.power(base, exponent)
    if type(base) is np.ndarray:
        return np.power(base, np.full(base.shape, exponent))
    # one value: one entry of an array, as a stack of one takes it
    return np.power(np.array([base]), np.array([exponent]))[0]


def _cols(theta):
    """The coordinates of theta: scalars for one parameter vector, (rows, 1)
    columns, which broadcast against (rows, n) data, for a stack of them."""
    if type(theta) is not np.ndarray:
        theta = np.asarray(theta, dtype=float)
    return tuple(theta.T[..., None]) if theta.ndim == 2 else tuple(theta)


def _col(gamma):
    """gamma as ``_cols`` gives theta's coordinates: one value as it is, one
    per row of a stack as a (rows, 1) column."""
    return gamma[:, None] if type(gamma) is np.ndarray else gamma


def _coords(theta):
    """The coordinates of theta: scalars, or one (rows,) array each for a stack."""
    theta = np.asarray(theta, dtype=float)
    return tuple(theta.T) if theta.ndim == 2 else tuple(theta)


def _vec(*coords):
    """Coordinates stacked along a last axis: scalars give one vector,
    (rows,) arrays a contiguous (rows, d) stack."""
    out = np.array(coords)
    return out if out.ndim == 1 else np.ascontiguousarray(out.T)


def _diag(*entries):
    """Diagonal matrices with these entries, one per row where they are arrays."""
    v = _vec(*entries)
    if v.ndim == 1:
        return np.diag(v)
    i = np.arange(v.shape[-1])
    out = np.zeros(v.shape + v.shape[-1:])
    out[..., i, i] = v
    return out


def _lstsq_rows(X, y):
    """Least-squares coefficients of y on X, one row per row of a stack of
    responses. Each row is solved alone: LAPACK's solution for several
    right-hand sides at once can differ in the last bit."""
    if y.ndim == 1:
        return np.linalg.lstsq(X, y, rcond=None)[0]
    return np.stack([np.linalg.lstsq(X, yr, rcond=None)[0] for yr in y])


# ---------------------------------------------------------------------------
# AUC / stress-strength interest maps
# ---------------------------------------------------------------------------

def auc_from_rates(rate1, rate2):
    """P(X1 < X2) for independent exponentials: rate1 / (rate1 + rate2)."""
    if np.any(rate1 <= 0) or np.any(rate2 <= 0):
        raise DomainError("rates must be positive")
    return rate1 / (rate1 + rate2)


def auc_from_rates_grad(rate1, rate2):
    s = np.power(rate1 + rate2, 2)
    return _vec(rate2 / s, -rate1 / s)


def normal_pdf(x):
    """Standard normal density, by scipy.stats.norm.pdf's own formula (so
    equal to it bit for bit) without its per-call overhead."""
    return np.exp(-np.asarray(x, dtype=float) ** 2 / 2.0) / _SQRT_TWO_PI


_erfc = np.frompyfunc(math.erfc, 1, 1)
_STANDARD_NORMAL = statistics.NormalDist()


def _quantile(p):
    # NaN is tested first: ordering it sets the FPU's invalid flag, which
    # numpy reports as a RuntimeWarning
    if math.isnan(p):
        return math.nan
    if 0.0 < p < 1.0:
        return _STANDARD_NORMAL.inv_cdf(p)
    return -math.inf if p == 0.0 else math.inf if p == 1.0 else math.nan


_inv_cdf = np.frompyfunc(_quantile, 1, 1)


def ndtr(x):
    """Standard normal CDF, 0.5 erfc(-x / sqrt 2): scipy.special.ndtr's own
    formula with the C library's erfc. A scalar gives a float64 and an
    array an array of its shape."""
    return 0.5 * np.asarray(_erfc(np.multiply(x, -math.sqrt(0.5))), dtype=float)[()]


def ndtri(p):
    """Standard normal quantile, by Wichura's AS 241 as the standard library
    computes it; -inf at 0, +inf at 1 and NaN outside [0, 1], as
    scipy.special.ndtri gives them."""
    return np.asarray(_inv_cdf(p), dtype=float)[()]


def auc_from_normal(mu1, mu2, var1, var2):
    """P(X1 < X2) for independent normals: Phi((mu2 - mu1) / sqrt(var1 + var2))."""
    if np.any(var1 <= 0) or np.any(var2 <= 0):
        raise DomainError("variances must be positive")
    return ndtr((mu2 - mu1) / np.sqrt(var1 + var2))


def auc_from_normal_grad(mu1, mu2, var1, var2):
    s2 = var1 + var2
    s = np.sqrt(s2)
    eta = (mu2 - mu1) / s
    dens = normal_pdf(eta)
    return _vec(-dens / s, dens / s, -dens * eta / (2 * s2), -dens * eta / (2 * s2))


# ---------------------------------------------------------------------------
# Normal / exponential component ingredients shared by several models.
# a = gamma - 1 throughout.
# ---------------------------------------------------------------------------

def _xi(var, t):
    # (2 pi v)^{-t/2} (1+t)^{-3/2} / v : expected curvature scale of the
    # location estimating function under power downweighting t.
    return _power(_TWO_PI * var, -t / 2.0) * np.power(1.0 + t, -1.5) / var


def _varsigma(var, t):
    return (_power(_TWO_PI * var, -t / 2.0) * (2.0 + t * t) * np.power(1.0 + t, -2.5)
            / (4.0 * var * var))


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
    j_v = c * c * (_varsigma(var, 2 * a) - 0.25 * a * a * np.power(_xi(var, a), 2))
    return (k_mu, k_v), (j_mu, j_v)


def _exponential_component_kj(rate, gamma, rule_kind):
    """Per-observation expected scalar (K, J) for one Exp(rate) component."""
    if rule_kind == "log":
        k = 1.0 / np.power(rate, 2)
        return k, k
    a = gamma - 1.0
    g = gamma
    k = a * (1.0 + a * a) * _power(rate, a - 2.0) / np.power(g, 2)
    j = a * a * _power(rate, 2 * a - 2.0) * (
        np.power(g, 2) * (4 * a * a + 1.0) / np.power(1.0 + 2 * a, 3) - a * a / np.power(g, 2)
    )
    return k, j


def _norm_logpdf(y, mu, var):
    return -0.5 * np.log(_TWO_PI * var) - (y - mu) ** 2 / (2.0 * var)


def _mad_scale(y):
    """(median, 1.4826 MAD) of the last axis; the standard deviation, or 1,
    stands in for a zero MAD."""
    med = np.median(y, axis=-1)
    s = 1.4826 * np.median(np.abs(y - med[..., None]), axis=-1)
    std = y.std(axis=-1)
    return med, np.where(s > 0, s, np.where(std > 0, std, 1.0))


def _spread(y, var):
    """var, a start's variance per sample, with 0, outside the admissible
    set, for a sample whose values are all equal: a fit from it is given up
    where a positive start would only drive the variance to zero."""
    return np.where(np.ptp(y, axis=-1) > 0, var, 0.0)


def _fd_jacobian(func, x, rel_step=1e-6):
    """Central-difference Jacobian of ``func`` at the float array ``x``: one
    column per coordinate j, with step rel_step (1 + |x_j|). ``func`` maps a
    stack of points, a row each, to a value per row, and is called once, on
    the 2 d points x + h_j e_j, then x - h_j e_j."""
    d = len(x)
    h = rel_step * (1.0 + np.abs(x))
    points = np.tile(np.asarray(x, dtype=float), (2 * d, 1))
    i = np.arange(d)
    points[i, i] += h
    points[d + i, i] -= h
    vals = np.asarray(func(points))
    diff = (vals[:d] - vals[d:]) / (2 * h).reshape((d,) + (1,) * (vals.ndim - 1))
    return np.moveaxis(diff, 0, -1)


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
    observed_kj: bool = False     # estimate_KJ takes observed, not expected, K and J

    @property
    def dim(self):
        return len(self.param_names)

    def positive_mask(self, data):
        return self.positive

    def lam_positive_mask(self, data):
        """The positivity flags of the nuisance: every model's nuisance is a
        subset of theta's coordinates, which ``profile_extract`` picks."""
        return self.profile_extract(np.asarray(self.positive_mask(data), dtype=float)) > 0

    # ---- data handling ------------------------------------------------
    @abc.abstractmethod
    def validate_data(self, data):
        """Return data in canonical form; raise DomainError if unusable."""

    def checked(self, data):
        """``data`` in canonical form: ``data`` itself where this model
        checked it (a ``_Checked`` of this model, one dataset or a stack),
        else one dataset, validated, as a read-only copy."""
        if type(data) is _Checked and data.model is self:
            return data
        return _Checked(map(np.array, self.validate_data(data)), self)

    def one(self, data):
        """``checked(data)``, which must be one dataset: raises DomainError
        on a stack. The functions that give one result for one dataset
        (a profile, a CD, a TAIF, a calibration) take data through here;
        the kernel, ``fit`` and ``estimate_KJ`` take a stack and give one
        result per row."""
        data = self.checked(data)
        if data[0].ndim != 1:
            raise DomainError(f"{self.name}: a stack of datasets where one dataset is needed")
        return data

    def stack(self, datasets):
        """Datasets of equal sizes, each checked, as one checked stack, each
        data array gaining a leading row axis."""
        return _Checked(map(_stack_rows, zip(*map(self.one, datasets))), self)

    def take(self, data, rows):
        """Rows of a checked stack, themselves checked: one dataset for an
        integer, a smaller stack for an index array or a slice."""
        return _Checked((_take_rows(a, rows) for a in data), self)

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
        """Whether theta, or every row of a stack of them, is admissible."""
        theta = np.asarray(theta, dtype=float)
        if theta.ndim not in (1, 2) or theta.shape[-1] != self.dim:
            return False
        positive = _true_at(self.positive)
        return bool(np.isfinite(theta).all()
                    and (not positive.size or theta[..., positive].min() > 0))

    def require_domain(self, theta):
        if not self.in_domain(theta):
            # tolist, not repr: an array repr is some 40 times slower, and every
            # inadmissible trial point pays it
            shown = np.asarray(theta).tolist() if np.ndim(theta) < 2 else "in a row of a stack"
            raise DomainError(f"{self.name}: parameter {shown} outside admissible set")

    # ---- observation-level pieces --------------------------------------
    @abc.abstractmethod
    def logpdf_obs(self, data, theta) -> np.ndarray:
        """Per-observation log densities, flattened in canonical order; a
        fresh array, which the scoring kernel overwrites."""

    @abc.abstractmethod
    def dlogpdf_obs(self, data, theta) -> np.ndarray:
        """(n, d) array of per-observation gradients of the log density; a
        fresh array, which the scoring kernel overwrites."""

    @abc.abstractmethod
    def d2logpdf_obs(self, data, theta, weights):
        """(d, d) weighted sum ``sum_i w_i Hess log f(y_i; theta)`` of the
        per-observation Hessians of the log density."""

    @abc.abstractmethod
    def tsallis_integral_obs(self, data, theta, gamma):
        """Per-observation ``int f^gamma``. For a stack, gamma is one value
        or one per row, here and in the power integral's derivatives and
        ``_integral_parts``."""

    def tsallis_integral_grad_obs(self, data, theta, gamma, values):
        """(n, d) gradient of the per-observation power integral, from
        ``values``, the integrals at theta; a fresh array, which the scoring
        kernel overwrites."""
        return self._integral_derivs(data, theta, gamma, values, 1)

    def tsallis_integral_hess(self, data, theta, gamma, values):
        """(d, d) Hessian of the summed power integral, from ``values``, the
        integrals at theta."""
        return self._integral_derivs(data, theta, gamma, values, 2)

    def _integral_parts(self, data, theta, gamma):
        """For a model whose observations fall in components, each with a
        power integral I that depends on one coordinate j: one
        (rows, j, d log I / d theta_j, d^2 log I / d theta_j^2) per
        component, the derivatives as scalars or, for a stack, (rows, 1)
        columns. A model without such components defines
        tsallis_integral_grad_obs and tsallis_integral_hess instead."""
        raise NotImplementedError(
            f"{type(self).__name__} defines neither _integral_parts nor "
            "tsallis_integral_grad_obs and tsallis_integral_hess")

    def _integral_derivs(self, data, theta, gamma, values, order):
        parts = self._integral_parts(data, theta, gamma)
        d = np.asarray(theta).shape[-1]
        if order == 1:
            out = np.zeros(values.shape + (d,))
            for rows, j, dlog, _ in parts:
                out[..., rows, j] = dlog * values[..., rows]
        else:
            out = np.zeros(values.shape[:-1] + (d, d))
            for rows, j, dlog, d2log in parts:
                coef = d2log + dlog * dlog          # a scalar, or a (rows, 1) column
                coef = coef[..., 0] if type(coef) is np.ndarray else coef
                out[..., j, j] = coef * values[..., rows].sum(axis=-1)
        return out

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
        """Full parameter with interest fixed at psi and nuisance lam. For a
        stack of nuisances, psi is one value or a value per row, here and in
        profile_embed_jac and profile_embed_hess."""

    @abc.abstractmethod
    def profile_extract(self, theta) -> np.ndarray:
        """Nuisance coordinates of a full parameter."""

    @abc.abstractmethod
    def profile_embed_jac(self, psi, lam):
        """(d, d-1) Jacobian d theta / d lam; for a stack, one per row where
        it depends on the row."""

    @abc.abstractmethod
    def profile_embed_hess(self, psi, lam, grad):
        """(d-1, d-1) curvature ``sum_k grad_k Hess_lam theta_k`` of the
        embedding, contracted with a theta-gradient; None where theta is
        linear in lam."""

    # ---- analytic expectations -------------------------------------------
    @abc.abstractmethod
    def expected_kj(self, rule_kind, gamma, data, theta):
        """Expected K and J of the total estimating function at theta under
        the model; for a stack, a pair per row, gamma one value or one per
        row."""


class _Checked(tuple):
    """The arrays of data that ``model`` checked: of one dataset, each 1-D
    but a regression's design, or of a stack of datasets, each with a
    leading row axis. They are read-only and owned by this module, so
    checked data cannot change after their check. Only ``ModelSpec.checked``,
    ``stack`` and ``take`` make them."""

    def __new__(cls, arrays, model):
        self = super().__new__(cls, arrays)
        for a in self:
            a.flags.writeable = False
        self.model = model
        return self


def _stack_rows(arrays):
    """Arrays of one shape along a new leading axis; one array repeated
    becomes a read-only broadcast of it, which takes no memory."""
    if all(a is arrays[0] for a in arrays):
        return np.broadcast_to(arrays[0], (len(arrays),) + arrays[0].shape)
    return np.stack(arrays)


def _take_rows(a, rows):
    """a[rows]; rows of a repeated array (see _stack_rows) stay a broadcast."""
    if a.strides[0] == 0 and isinstance(rows, np.ndarray):
        return np.broadcast_to(a[0], rows.shape + a.shape[1:])
    return a[rows]


@functools.lru_cache(maxsize=None)
def _true_at(mask):
    """The indices where a tuple of flags holds; read-only."""
    index = np.flatnonzero(mask)
    index.flags.writeable = False
    return index


@functools.lru_cache(maxsize=None)
def _coordinate_jac(d, i):
    """d theta / d lam where lam is theta without coordinate i; read-only."""
    jac = np.delete(np.eye(d), i, axis=1)
    jac.flags.writeable = False
    return jac


class _CoordinateInterest(ModelSpec):
    """A model whose interest is the coordinate ``interest_index`` of theta
    and whose nuisance lam is theta without it."""

    def interest(self, theta):
        return np.asarray(theta, dtype=float)[..., self.interest_index]

    def interest_grad(self, theta):
        g = np.zeros(np.shape(theta))
        g[..., self.interest_index] = 1.0
        return g

    def profile_embed(self, psi, lam):
        lam = np.asarray(lam, dtype=float)
        i = self.interest_index
        psi = np.full(lam.shape[:-1] + (1,), np.asarray(psi, dtype=float)[..., None])
        return np.concatenate((lam[..., :i], psi, lam[..., i:]), axis=-1)

    def profile_extract(self, theta):
        theta = np.asarray(theta, dtype=float)
        i = self.interest_index
        return np.concatenate((theta[..., :i], theta[..., i + 1:]), axis=-1)

    def profile_embed_jac(self, psi, lam):
        return _coordinate_jac(np.shape(lam)[-1] + 1, self.interest_index)

    def profile_embed_hess(self, psi, lam, grad):
        return None


# ---------------------------------------------------------------------------
# Two-sample models
# ---------------------------------------------------------------------------

def _validate_two_samples(data):
    try:
        x, y = data
    except (TypeError, ValueError) as exc:
        raise DomainError("two-sample data must be a pair of arrays") from exc
    x, y = np.asarray(x, dtype=float).ravel(), np.asarray(y, dtype=float).ravel()
    # one component may be empty in internal single-point evaluation frames;
    # fitting entry points require both (see default_start)
    if x.size + y.size == 0:
        raise DomainError("data must be nonempty")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise DomainError("data contain non-finite values")
    return x, y


def _require_both_samples(data):
    x, y = data
    if x.shape[-1] == 0 or y.shape[-1] == 0:
        raise DomainError("fitting requires both samples to be nonempty")


class _TwoSampleBase(ModelSpec):
    """Shared plumbing for models on a pair of independent samples."""

    def validate_data(self, data):
        return _validate_two_samples(data)

    def nobs(self, data):
        x, y = data
        return x.shape[-1] + y.shape[-1]

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


# d theta / d lam of the two-sample mean-difference embedding; read-only
_TWO_SAMPLE_JAC = np.array([[1.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])
_TWO_SAMPLE_JAC.flags.writeable = False


class TwoSampleNormal(_TwoSampleBase):
    """Heteroscedastic two-sample normal model; interest is the mean difference."""

    name = "two-sample-normal"
    param_names = ("mu_x", "mu_y", "var_x", "var_y")
    positive = (False, False, True, True)
    interest_name = "mu_x - mu_y"

    def logpdf_obs(self, data, theta):
        x, y = data
        mx, my, vx, vy = _cols(theta)
        return np.concatenate([_norm_logpdf(x, mx, vx), _norm_logpdf(y, my, vy)], axis=-1)

    def dlogpdf_obs(self, data, theta):
        x, y = data
        mx, my, vx, vy = _cols(theta)
        n1, n2 = x.shape[-1], y.shape[-1]
        out = np.zeros(x.shape[:-1] + (n1 + n2, 4))
        zx, zy = x - mx, y - my
        out[..., :n1, 0] = zx / vx
        out[..., :n1, 2] = -0.5 / vx + zx ** 2 / (2 * np.power(vx, 2))
        out[..., n1:, 1] = zy / vy
        out[..., n1:, 3] = -0.5 / vy + zy ** 2 / (2 * np.power(vy, 2))
        return out

    def d2logpdf_obs(self, data, theta, weights):
        x, y = data
        n1 = x.shape[-1]
        mx, my, vx, vy = _cols(theta)
        out = np.zeros(np.shape(theta) + (4,))
        # (mean index, variance index, residuals, weights, variance) per sample
        for m, v, z, w, var in ((0, 2, x - mx, weights[..., :n1], vx),
                                (1, 3, y - my, weights[..., n1:], vy)):
            var, sw = (var[..., 0] if type(var) is np.ndarray else var), w.sum(axis=-1)
            var2 = np.power(var, 2)
            out[..., m, m] = -sw / var
            out[..., m, v] = out[..., v, m] = -np.vecdot(w, z) / var2
            out[..., v, v] = sw / (2 * var2) - np.vecdot(w, z ** 2) / np.power(var, 3)
        return out

    def tsallis_integral_obs(self, data, theta, gamma):
        x, y = data
        _, _, vx, vy = _cols(theta)
        gamma = _col(gamma)
        return np.concatenate([np.full(x.shape, _normal_power(vx, gamma)),
                               np.full(y.shape, _normal_power(vy, gamma))], axis=-1)

    def _integral_parts(self, data, theta, gamma):
        # I = gamma^{-1/2} (2 pi v)^{-a/2}: d log I / dv = -a / (2v)
        n1, a = data[0].shape[-1], _col(gamma) - 1.0
        _, _, vx, vy = _cols(theta)
        return ((slice(0, n1), 2, -a / (2 * vx), a / (2 * vx * vx)),
                (slice(n1, None), 3, -a / (2 * vy), a / (2 * vy * vy)))

    def default_start(self, data):
        _require_both_samples(data)
        x, y = data
        mx, sx = _mad_scale(x)
        my, sy = _mad_scale(y)
        return np.stack([mx, my, _spread(x, np.power(sx, 2)), _spread(y, np.power(sy, 2))], axis=-1)

    def mle_start(self, data):
        _require_both_samples(data)
        x, y = data
        return np.stack([x.mean(axis=-1), y.mean(axis=-1), _spread(x, x.var(axis=-1)),
                         _spread(y, y.var(axis=-1))], axis=-1)

    def sample(self, theta, sizes, rng, *, design=None):
        mx, my, vx, vy = theta
        n1, n2 = sizes
        return (rng.normal(mx, math.sqrt(vx), n1), rng.normal(my, math.sqrt(vy), n2))

    def obs_center_scale(self, data, theta, component=0):
        mx, my, vx, vy = theta
        return (mx, math.sqrt(vx)) if component == 0 else (my, math.sqrt(vy))

    def interest(self, theta):
        theta = np.asarray(theta, dtype=float)
        return theta[..., 0] - theta[..., 1]

    def interest_grad(self, theta):
        return np.broadcast_to([1.0, -1.0, 0.0, 0.0], np.shape(theta))

    def profile_embed(self, psi, lam):
        my, vx, vy = _coords(lam)
        return _vec(psi + my, my, vx, vy)

    def profile_extract(self, theta):
        return np.asarray(theta, dtype=float)[..., 1:].copy()

    def profile_embed_jac(self, psi, lam):
        return _TWO_SAMPLE_JAC

    def expected_kj(self, rule_kind, gamma, data, theta):
        x, y = data
        _, _, vx, vy = _coords(theta)
        (kmx, kvx), (jmx, jvx) = _normal_component_kj(vx, gamma, rule_kind)
        (kmy, kvy), (jmy, jvy) = _normal_component_kj(vy, gamma, rule_kind)
        n1, n2 = x.shape[-1], y.shape[-1]
        K = _diag(n1 * kmx, n2 * kmy, n1 * kvx, n2 * kvy)
        J = _diag(n1 * jmx, n2 * jmy, n1 * jvx, n2 * jvy)
        return K, J


class NormalAUC(TwoSampleNormal):
    """Stress-strength reliability P(X1 < X2) for two independent normal
    samples: the two-sample normal densities with the AUC as interest."""

    name = "auc-normal"
    param_names = ("mu_1", "mu_2", "var_1", "var_2")
    interest_name = "P(X1 < X2)"
    wald_scale = "logit"

    def interest(self, theta):
        return auc_from_normal(*_coords(theta))

    def interest_grad(self, theta):
        return auc_from_normal_grad(*_coords(theta))

    def interest_range(self):
        return (0.0, 1.0)

    def profile_embed(self, psi, lam):
        if not np.logical_and(0.0 < psi, psi < 1.0).all():
            raise DomainError("AUC interest must lie in (0, 1)")
        mu1, v1, v2 = _coords(lam)
        mu2 = mu1 + ndtri(psi) * np.sqrt(v1 + v2)
        return _vec(mu1, mu2, v1, v2)

    def profile_extract(self, theta):
        theta = np.asarray(theta, dtype=float)
        return theta[..., [0, 2, 3]]

    def profile_embed_jac(self, psi, lam):
        _, v1, v2 = _coords(lam)
        slope = ndtri(psi) / (2 * np.sqrt(v1 + v2))
        out = np.zeros(np.shape(v1) + (4, 3))
        out[..., 0, 0] = out[..., 1, 0] = out[..., 2, 1] = out[..., 3, 2] = 1.0
        out[..., 1, 1] = out[..., 1, 2] = slope
        return out

    def profile_embed_hess(self, psi, lam, grad):
        # mu_2 = mu_1 + q sqrt(v_1 + v_2): d^2 mu_2 / dv_i dv_j = -q / (4 s^3)
        _, v1, v2 = _coords(lam)
        out = np.zeros(np.shape(v1) + (3, 3))
        curv = -np.asarray(grad)[..., 1] * ndtri(psi) / (4.0 * np.power(v1 + v2, 1.5))
        out[..., 1:, 1:] = np.asarray(curv)[..., None, None]
        return out


class ExponentialAUC(_TwoSampleBase):
    """P(X1 < X2) for two independent exponential samples; psi = r1 / (r1 + r2)."""

    name = "auc-exponential"
    param_names = ("rate_1", "rate_2")
    positive = (True, True)
    interest_name = "P(X1 < X2)"
    wald_scale = "logit"

    def logpdf_obs(self, data, theta):
        x, y = data
        r1, r2 = _cols(theta)
        return np.concatenate([np.log(r1) - r1 * x, np.log(r2) - r2 * y], axis=-1)

    def dlogpdf_obs(self, data, theta):
        x, y = data
        r1, r2 = _cols(theta)
        n1, n2 = x.shape[-1], y.shape[-1]
        out = np.zeros(x.shape[:-1] + (n1 + n2, 2))
        out[..., :n1, 0] = 1.0 / r1 - x
        out[..., n1:, 1] = 1.0 / r2 - y
        return out

    def d2logpdf_obs(self, data, theta, weights):
        r1, r2 = _coords(theta)
        n1 = data[0].shape[-1]
        return _diag(-weights[..., :n1].sum(axis=-1) / np.power(r1, 2),
                     -weights[..., n1:].sum(axis=-1) / np.power(r2, 2))

    def tsallis_integral_obs(self, data, theta, gamma):
        x, y = data
        r1, r2 = _cols(theta)
        gamma = _col(gamma)
        return np.concatenate([np.full(x.shape, _exponential_power(r1, gamma)),
                               np.full(y.shape, _exponential_power(r2, gamma))], axis=-1)

    def _integral_parts(self, data, theta, gamma):
        # I = r^a / gamma: d log I / dr = a / r
        n1, a = data[0].shape[-1], _col(gamma) - 1.0
        r1, r2 = _cols(theta)
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
        return np.stack([math.log(2.0) / np.median(x, axis=-1),
                         math.log(2.0) / np.median(y, axis=-1)], axis=-1)

    def mle_start(self, data):
        _require_both_samples(data)
        x, y = data
        return np.stack([1.0 / x.mean(axis=-1), 1.0 / y.mean(axis=-1)], axis=-1)

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
        return auc_from_rates(*_coords(theta))

    def interest_grad(self, theta):
        return auc_from_rates_grad(*_coords(theta))

    def interest_range(self):
        return (0.0, 1.0)

    def profile_embed(self, psi, lam):
        if not np.logical_and(0.0 < psi, psi < 1.0).all():
            raise DomainError("AUC interest must lie in (0, 1)")
        r2 = np.asarray(lam, dtype=float)[..., 0]
        return _vec(psi * r2 / (1.0 - psi), r2)

    def profile_extract(self, theta):
        return np.asarray(theta, dtype=float)[..., 1:].copy()

    def profile_embed_jac(self, psi, lam):
        out = np.ones(np.shape(psi) + (2, 1))
        out[..., 0, 0] = psi / (1.0 - psi)
        return out

    def expected_kj(self, rule_kind, gamma, data, theta):
        x, y = data
        r1, r2 = _coords(theta)
        n1, n2 = x.shape[-1], y.shape[-1]
        k1, j1 = _exponential_component_kj(r1, gamma, rule_kind)
        k2, j2 = _exponential_component_kj(r2, gamma, rule_kind)
        return _diag(n1 * k1, n2 * k2), _diag(n1 * j1, n2 * j2)


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
        y, X = np.asarray(y, dtype=float).ravel(), np.asarray(X, dtype=float)
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
        return bool(np.isfinite(theta).all() and (theta[..., -1] > 0).all())

    def nobs(self, data):
        return data[0].shape[-1]

    def stack(self, datasets):
        # the responses stack; the design is the one all the datasets share
        ys, designs = zip(*map(self.one, datasets))
        X = designs[0]
        if any(D is not X and not np.array_equal(D, X) for D in designs):
            raise DomainError("a stack of regression datasets needs one design matrix")
        return _Checked((_stack_rows(ys), X), self)

    def take(self, data, rows):
        y, X = data
        return _Checked((_take_rows(y, rows), X), self)

    @staticmethod
    def _split(theta):
        """(beta, v): beta with a trailing axis for the design product, v
        as a scalar or a (rows, 1) column."""
        theta = np.asarray(theta, dtype=float)
        return theta[..., :-1, None], theta[:, -1:] if theta.ndim == 2 else theta[-1]

    def logpdf_obs(self, data, theta):
        y, X = data
        beta, v = self._split(theta)
        return _norm_logpdf(y, (X @ beta)[..., 0], v)

    def dlogpdf_obs(self, data, theta):
        y, X = data
        beta, v = self._split(theta)
        r = y - (X @ beta)[..., 0]
        out = np.empty(y.shape + (np.shape(theta)[-1],))
        out[..., :-1] = X * (r / v)[..., None]
        out[..., -1] = -0.5 / v + r ** 2 / (2 * np.power(v, 2))
        return out

    def d2logpdf_obs(self, data, theta, weights):
        y, X = data
        beta, _ = self._split(theta)
        v = np.asarray(theta, dtype=float)[..., -1]
        r = y - (X @ beta)[..., 0]
        d = np.shape(theta)[-1]
        out = np.empty(np.shape(theta)[:-1] + (d, d))
        out[..., :-1, :-1] = -(X.T * weights[..., None, :]) @ X / np.asarray(v)[..., None, None]
        out[..., :-1, -1] = out[..., -1, :-1] = (
            -(X.T @ (weights * r)[..., None])[..., 0] / np.asarray(np.power(v, 2))[..., None])
        out[..., -1, -1] = (weights.sum(axis=-1) / (2 * np.power(v, 2))
                            - np.vecdot(weights, r ** 2) / np.power(v, 3))
        return out

    def tsallis_integral_obs(self, data, theta, gamma):
        y, _ = data
        return np.full(y.shape, _normal_power(self._split(theta)[1], _col(gamma)))

    def _integral_parts(self, data, theta, gamma):
        a, v = _col(gamma) - 1.0, self._split(theta)[1]
        return ((slice(None), np.shape(theta)[-1] - 1, -a / (2 * v), a / (2 * v * v)),)

    def default_start(self, data):
        y, X = data
        self._require_full_rank(X)
        beta = _lstsq_rows(X, y)
        resid = y - (X @ beta[..., None])[..., 0]
        _, s = _mad_scale(resid)
        return np.concatenate([beta, np.power(s, 2)[..., None]], axis=-1)

    def mle_start(self, data):
        y, X = data
        self._require_full_rank(X)
        beta = _lstsq_rows(X, y)
        resid = y - (X @ beta[..., None])[..., 0]
        var = np.maximum(np.vecdot(resid, resid) / y.shape[-1], 1e-12)
        return np.concatenate([beta, var[..., None]], axis=-1)

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

    def contamination_frame(self, ys, data, component=0):
        """Responses ys at the mean design row."""
        _, X = data
        ys = np.atleast_1d(np.asarray(ys, dtype=float))
        return (ys, np.tile(X.mean(axis=0), (len(ys), 1)))

    def obs_center_scale(self, data, theta, component=0):
        _, X = data
        beta, v = theta[:-1], theta[-1]
        return (float(X.mean(axis=0) @ beta), math.sqrt(v))

    def expected_kj(self, rule_kind, gamma, data, theta):
        y, X = data
        v = np.asarray(theta, dtype=float)[..., -1]
        n = y.shape[-1]
        (k_mu, k_v), (j_mu, j_v) = _normal_component_kj(v, gamma, rule_kind)
        xtx = X.T @ X
        d = X.shape[1] + 1
        K = np.zeros(np.shape(v) + (d, d))
        J = np.zeros(np.shape(v) + (d, d))
        K[..., :-1, :-1] = np.asarray(k_mu)[..., None, None] * xtx
        K[..., -1, -1] = n * k_v
        J[..., :-1, :-1] = np.asarray(j_mu)[..., None, None] * xtx
        J[..., -1, -1] = n * j_v
        return K, J


_REGISTRY = {
    "two-sample-normal": TwoSampleNormal,
    "auc-exponential": ExponentialAUC,
    "auc-normal": NormalAUC,
    "linear-regression": LinearRegression,
}

MODEL_NAMES = tuple(_REGISTRY)


def _is_int(v):
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def get_model(name, **options):
    """The model that ``name``, a built-in name or ``expfam:<spec-file>``,
    and ``options`` give; the one place where a name and its options become
    a model. An option given as None counts as not given. Raises
    DomainError for an unknown name, an option the model does not take, or
    an ``interest_index`` that is not an integer."""
    options = {key: value for key, value in options.items() if value is not None}
    if not _is_int(options.get("interest_index", 0)):
        raise DomainError(f"interest_index must be an integer, got {options['interest_index']!r}")
    if name.startswith("expfam:"):
        from .expfam import load_expfam_model
        return load_expfam_model(name.split(":", 1)[1], **options)
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise DomainError(f"unknown model {name!r}; choose from {sorted(_REGISTRY)} "
                          "or expfam:<spec-file>") from None
    refused = sorted(options.keys() - ({"interest_index"} if cls is LinearRegression else set()))
    if refused:
        raise DomainError(f"model {name!r} does not accept the option(s) {refused}")
    return cls(**options)
