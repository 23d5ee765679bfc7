"""Canonical exponential families with carrier d(y) = 0.

For f(y; theta) = exp(theta' t(y) - c(theta)) the power integral has the
closed form int f^gamma dy = exp(c(gamma theta) - gamma c(theta)) whenever
gamma theta stays in the natural parameter space, which makes the Tsallis
score and its estimating function fully explicit. The module also provides
the boundedness check of the estimating function toward the support
boundary, which decides whether the resulting estimator is B-robust.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os

import numpy as np
from scipy.special import betaln, digamma, gammaln, polygamma

from .errors import DomainError
from .models import _CoordinateInterest

__all__ = [
    "ExpFamilyModel",
    "expfam_robustness_check",
    "BoundednessReport",
    "expfam_normal",
    "expfam_exponential",
    "expfam_gamma",
    "expfam_beta",
    "load_expfam_model",
]


@dataclasses.dataclass(frozen=True)
class _Family:
    name: str
    s: int
    t: callable                  # t(y) -> (n, s)
    c: callable                  # cumulant
    c_grad: callable
    c_hess: callable
    support: tuple
    in_natural: callable
    sample: callable             # (theta, n, rng) -> (n,)
    start: callable              # data -> theta
    open_left: bool = False
    open_right: bool = False
    scale: callable = None       # theta -> reference observation scale


class ExpFamilyModel(_CoordinateInterest):
    """ModelSpec wrapper around one canonical exponential family; the
    interest is one natural-parameter coordinate."""

    wald_scale = "identity"

    def __init__(self, family: _Family, interest_index=0):
        self.family = family
        self.name = f"expfam-{family.name}"
        self.param_names = tuple(f"theta_{i + 1}" for i in range(family.s))
        self.positive = tuple([False] * family.s)
        self.interest_index = int(interest_index)
        self.interest_name = f"theta_{self.interest_index + 1}"

    def in_domain(self, theta):
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.family.s,) or not np.all(np.isfinite(theta)):
            return False
        return bool(self.family.in_natural(theta))

    def validate_data(self, data):
        y = np.asarray(data, dtype=float).ravel()
        if y.size == 0:
            raise DomainError("data must be nonempty")
        if not np.all(np.isfinite(y)):
            raise DomainError("data contain non-finite values")
        lo, hi = self.family.support
        ok_lo = y > lo if self.family.open_left else y >= lo
        ok_hi = y < hi if self.family.open_right else y <= hi
        if not np.all(ok_lo & ok_hi):
            raise DomainError(f"data leave the support of {self.family.name}")
        return y

    def nobs(self, data):
        return len(data)

    def logpdf_obs(self, data, theta):
        fam = self.family
        return fam.t(data) @ np.asarray(theta, dtype=float) - fam.c(theta)

    def dlogpdf_obs(self, data, theta):
        fam = self.family
        return fam.t(data) - fam.c_grad(theta)[None, :]

    def d2logpdf_obs(self, data, theta, weights):
        return -weights.sum() * self.family.c_hess(theta)

    def _power_integral(self, theta, gamma):
        fam = self.family
        gt = gamma * np.asarray(theta, dtype=float)
        if not fam.in_natural(gt):
            raise DomainError(
                f"gamma * theta leaves the natural space of {fam.name}; "
                "no closed-form power integral")
        return math.exp(fam.c(gt) - gamma * fam.c(theta))

    def tsallis_integral_obs(self, data, theta, gamma):
        return np.full(len(data), self._power_integral(theta, gamma))

    def _log_integral_grad(self, theta, gamma):
        # gradient of log int f^gamma = c(gamma theta) - gamma c(theta)
        fam = self.family
        theta = np.asarray(theta, dtype=float)
        return gamma * (fam.c_grad(gamma * theta) - fam.c_grad(theta))

    def tsallis_integral_grad_obs(self, data, theta, gamma, values=None):
        if values is None:
            values = self.tsallis_integral_obs(data, theta, gamma)
        return values[:, None] * self._log_integral_grad(theta, gamma)

    def tsallis_integral_hess(self, data, theta, gamma, values=None):
        if values is None:
            values = self.tsallis_integral_obs(data, theta, gamma)
        fam = self.family
        theta = np.asarray(theta, dtype=float)
        u = self._log_integral_grad(theta, gamma)
        return values.sum() * (np.outer(u, u) + gamma * gamma * fam.c_hess(gamma * theta)
                               - gamma * fam.c_hess(theta))

    def default_start(self, data):
        return self.family.start(data)

    def sample(self, theta, sizes, rng, *, design=None):
        n = sizes if np.isscalar(sizes) else sizes[0]
        return self.family.sample(np.asarray(theta, dtype=float), int(n), rng)

    def shift_obs(self, data, sample_index, obs_index, shift):
        y = self.validate_data(data).copy()
        if not (-len(y) <= obs_index < len(y)):
            raise IndexError(f"obs_index {obs_index} out of range")
        y[obs_index] += shift
        return y

    def contamination_frame(self, ys, data, component=0):
        return np.atleast_1d(np.asarray(ys, dtype=float))

    def component_support(self, component=0):
        return self.family.support

    def obs_center_scale(self, data, theta, component=0):
        if self.family.scale is not None:
            return self.family.scale(np.asarray(theta, dtype=float))
        y = np.asarray(data, dtype=float)
        return float(np.median(y)), float(np.std(y) or 1.0)


# ---------------------------------------------------------------------------
# The boundedness check
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class BoundednessReport:
    """Per-coordinate verdicts of the estimating-function boundedness check."""

    bounded: tuple
    grid_max: tuple
    shell_max: tuple
    interior_max: tuple

    @property
    def all_bounded(self):
        return all(self.bounded)


def _boundary_grid(support, center, scale, open_left, open_right):
    lo, hi = support
    if math.isfinite(lo) and math.isfinite(hi):
        span = hi - lo
        interior = np.linspace(lo + 0.01 * span, hi - 0.01 * span, 201)
        left = lo + span * 10.0 ** -np.arange(3.0, 13.0)
        right = hi - span * 10.0 ** -np.arange(3.0, 13.0)
        return interior, np.sort(left), np.sort(right)[::-1]
    if math.isfinite(lo):
        interior = np.linspace(max(lo + 0.01 * scale, lo), center + 20 * scale, 201)
        left = lo + scale * 10.0 ** -np.arange(3.0, 13.0)
        right = center + scale * 10.0 ** np.arange(2.0, 8.0)
        return interior, np.sort(left), right
    interior = np.linspace(center - 20 * scale, center + 20 * scale, 201)
    left = center - scale * 10.0 ** np.arange(2.0, 8.0)
    right = center + scale * 10.0 ** np.arange(2.0, 8.0)
    return interior, left, right


def expfam_robustness_check(model: ExpFamilyModel, theta, gamma, decay_ratio=0.1):
    """Probe b_i(y) = f(y)^{gamma-1} (t_i(y) - E_theta t_i(y)) toward the
    support boundary and flag each coordinate bounded or not.

    A coordinate is bounded when the outermost probe values on every side
    have decayed below ``decay_ratio`` of the interior maximum.
    """
    fam = model.family
    theta = np.asarray(theta, dtype=float)
    if not model.in_domain(theta):
        raise DomainError("theta outside the natural parameter space")
    if fam.scale is not None:
        center, scale = fam.scale(theta)
    else:
        center, scale = 0.0, 1.0
    interior, left, right = _boundary_grid(
        fam.support, center, scale, fam.open_left, fam.open_right)

    def b(y):
        logf = model.logpdf_obs(y, theta)
        with np.errstate(over="ignore"):
            fa = np.exp((gamma - 1.0) * logf)
        tdiff = fam.t(y) - fam.c_grad(theta)[None, :]
        return np.abs(fa[:, None] * tdiff)

    b_int = b(interior)
    b_left = b(left)
    b_right = b(right)
    bounded, gmax, smax, imax = [], [], [], []
    for i in range(fam.s):
        interior_max = float(np.nanmax(b_int[:, i]))
        # outermost two probes per side
        outer = np.concatenate([b_left[:2, i], b_right[:2, i]])
        outer = outer[np.isfinite(outer)] if np.any(np.isfinite(outer)) else np.array([np.inf])
        shell = float(np.max(outer)) if outer.size else 0.0
        ok = np.all(np.isfinite(outer)) and shell <= decay_ratio * max(interior_max, 1e-300)
        bounded.append(bool(ok))
        gmax.append(float(max(interior_max, shell)))
        smax.append(shell)
        imax.append(interior_max)
    return BoundednessReport(tuple(bounded), tuple(gmax), tuple(smax), tuple(imax))


# ---------------------------------------------------------------------------
# Built-in families
# ---------------------------------------------------------------------------

def expfam_normal():
    """N(mu, v) in natural form theta = (mu/v, -1/(2v))."""
    def c(th):
        t1, t2 = th
        return -t1 * t1 / (4.0 * t2) + 0.5 * math.log(math.pi / (-t2))

    def c_grad(th):
        t1, t2 = th
        return np.array([-t1 / (2.0 * t2), t1 * t1 / (4.0 * t2 * t2) - 1.0 / (2.0 * t2)])

    def scale(th):
        t1, t2 = th
        v = -1.0 / (2.0 * t2)
        return (-t1 / (2.0 * t2), math.sqrt(v))

    def c_hess(th):
        t1, t2 = th
        off = t1 / (2.0 * t2 * t2)
        return np.array([[-1.0 / (2.0 * t2), off],
                         [off, 1.0 / (2.0 * t2 * t2) - t1 * t1 / (2.0 * t2 ** 3)]])

    def start(y):
        m, v = float(np.mean(y)), float(max(np.var(y), 1e-8))
        return np.array([m / v, -0.5 / v])

    def sample(th, n, rng):
        t1, t2 = th
        v = -1.0 / (2.0 * t2)
        return rng.normal(t1 * v, math.sqrt(v), n)

    return ExpFamilyModel(_Family(
        name="normal", s=2,
        t=lambda y: np.column_stack([y, y ** 2]),
        c=c, c_grad=c_grad, c_hess=c_hess,
        support=(-np.inf, np.inf),
        in_natural=lambda th: th[1] < 0,
        sample=sample, start=start, scale=scale,
    ))


def expfam_exponential():
    """Exp(rate) in natural form theta = (-rate,)."""
    def start(y):
        return np.array([-1.0 / max(float(np.mean(y)), 1e-12)])

    return ExpFamilyModel(_Family(
        name="exponential", s=1,
        t=lambda y: np.asarray(y, dtype=float).reshape(-1, 1),
        c=lambda th: -math.log(-th[0]),
        c_grad=lambda th: np.array([-1.0 / th[0]]),
        c_hess=lambda th: np.array([[1.0 / th[0] ** 2]]),
        support=(0.0, np.inf),
        in_natural=lambda th: th[0] < 0,
        sample=lambda th, n, rng: rng.exponential(-1.0 / th[0], n),
        start=start,
        scale=lambda th: (-1.0 / th[0], -1.0 / th[0]),
    ))


def expfam_gamma():
    """Gamma(shape, rate) in natural form theta = (shape - 1, -rate)."""
    def c(th):
        return gammaln(th[0] + 1.0) - (th[0] + 1.0) * math.log(-th[1])

    def c_grad(th):
        return np.array([digamma(th[0] + 1.0) - math.log(-th[1]),
                         -(th[0] + 1.0) / th[1]])

    def c_hess(th):
        return np.array([[polygamma(1, th[0] + 1.0), -1.0 / th[1]],
                         [-1.0 / th[1], (th[0] + 1.0) / th[1] ** 2]])

    def scale(th):
        shape, rate = th[0] + 1.0, -th[1]
        mean = shape / rate
        return (mean, math.sqrt(shape) / rate)

    def start(y):
        m, v = float(np.mean(y)), float(max(np.var(y), 1e-12))
        shape = max(m * m / v, 1e-3)
        rate = shape / m
        return np.array([shape - 1.0, -rate])

    def sample(th, n, rng):
        shape, rate = th[0] + 1.0, -th[1]
        return rng.gamma(shape, 1.0 / rate, n)

    return ExpFamilyModel(_Family(
        name="gamma", s=2,
        t=lambda y: np.column_stack([np.log(y), y]),
        c=c, c_grad=c_grad, c_hess=c_hess,
        support=(0.0, np.inf),
        in_natural=lambda th: th[0] > -1.0 and th[1] < 0,
        sample=sample, start=start, scale=scale,
        open_left=True,
    ))


def expfam_beta():
    """Beta(a, b) in natural form theta = (a - 1, b - 1)."""
    def c(th):
        return betaln(th[0] + 1.0, th[1] + 1.0)

    def c_grad(th):
        a, b = th[0] + 1.0, th[1] + 1.0
        d = digamma(a + b)
        return np.array([digamma(a) - d, digamma(b) - d])

    def c_hess(th):
        a, b = th[0] + 1.0, th[1] + 1.0
        ab = polygamma(1, a + b)
        return np.array([[polygamma(1, a) - ab, -ab], [-ab, polygamma(1, b) - ab]])

    def start(y):
        m, v = float(np.mean(y)), float(max(np.var(y), 1e-12))
        common = max(m * (1 - m) / v - 1.0, 1e-3)
        return np.array([m * common - 1.0, (1 - m) * common - 1.0])

    def sample(th, n, rng):
        return rng.beta(th[0] + 1.0, th[1] + 1.0, n)

    return ExpFamilyModel(_Family(
        name="beta", s=2,
        t=lambda y: np.column_stack([np.log(y), np.log1p(-y)]),
        c=c, c_grad=c_grad, c_hess=c_hess,
        support=(0.0, 1.0),
        in_natural=lambda th: th[0] > -1.0 and th[1] > -1.0,
        sample=sample, start=start,
        scale=lambda th: (0.5, 0.25),
        open_left=True, open_right=True,
    ))


_FAMILIES = {
    "normal": expfam_normal,
    "exponential": expfam_exponential,
    "gamma": expfam_gamma,
    "beta": expfam_beta,
}


def load_expfam_model(spec_path, **options):
    """Load an exponential-family model from a small JSON spec file.

    Schema: {"family": "normal" | "exponential" | "gamma" | "beta",
             "interest_index": 0}
    """
    if not os.path.exists(spec_path):
        raise DomainError(f"exponential-family spec file not found: {spec_path}")
    with open(spec_path) as fh:
        spec = json.load(fh)
    family = spec.get("family")
    if family not in _FAMILIES:
        raise DomainError(f"unknown exponential family {family!r}; "
                          f"choose from {sorted(_FAMILIES)}")
    model = _FAMILIES[family]()
    idx = int(spec.get("interest_index", options.pop("interest_index", 0)))
    if not 0 <= idx < model.family.s:
        raise DomainError("interest_index out of range")
    model.interest_index = idx
    model.interest_name = f"theta_{idx + 1}"
    return model
