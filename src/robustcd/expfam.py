"""Canonical exponential families with carrier d(y) = 0.

For f(y; theta) = exp(theta' t(y) - c(theta)) the power integral has the
closed form int f^gamma dy = exp(c(gamma theta) - gamma c(theta)) whenever
gamma theta stays in the natural parameter space, which makes the Tsallis
score and its estimating function fully explicit. The module also provides
the boundedness check of the estimating function toward the support
boundary, which decides whether the resulting estimator is B-robust.

The gamma and beta cumulants need log Gamma, digamma and trigamma. They
are the array functions ``gammaln`` (the C library's ``lgamma``),
``digamma``, ``trigamma`` and ``betaln`` below, in numpy alone, so the
package needs no scipy.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

from .errors import DomainError
from .models import _col, _CoordinateInterest, _is_int
from .robustness import _decay_verdict

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
    t: callable                  # t(y) -> (..., n, s)
    c: callable                  # cumulant, theta (..., s) -> (...)
    c_grad: callable             # (..., s) -> (..., s)
    c_hess: callable             # (..., s) -> (..., s, s)
    support: tuple
    in_natural: callable         # (..., s) -> (...) bool
    sample: callable             # (theta, n, rng) -> (n,)
    start: callable              # data (..., n) -> theta (..., s)
    scale: callable              # theta -> (center, scale) of an observation
    open_left: bool = False
    open_right: bool = False


class ExpFamilyModel(_CoordinateInterest):
    """ModelSpec wrapper around one canonical exponential family; the
    interest is one natural-parameter coordinate."""

    wald_scale = "identity"
    observed_kj = True      # fits and CDs keep the observed K and J

    def __init__(self, family: _Family, interest_index=0):
        self.family = family
        self.name = f"expfam-{family.name}"
        self.param_names = tuple(f"theta_{i + 1}" for i in range(family.s))
        self.positive = tuple([False] * family.s)
        self.interest_index = int(interest_index)
        self.interest_name = f"theta_{self.interest_index + 1}"

    def in_domain(self, theta):
        theta = np.asarray(theta, dtype=float)
        if theta.ndim not in (1, 2) or theta.shape[-1] != self.family.s:
            return False
        return bool(np.isfinite(theta).all() and self.family.in_natural(theta).all())

    def validate_data(self, data):
        # an array of observations, or the checked form (y,)
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
        return (y,)

    def nobs(self, data):
        return data[0].shape[-1]

    def logpdf_obs(self, data, theta):
        fam = self.family
        theta = np.asarray(theta, dtype=float)
        return (fam.t(data[0]) @ theta[..., None])[..., 0] - fam.c(theta)[..., None]

    def dlogpdf_obs(self, data, theta):
        fam = self.family
        return fam.t(data[0]) - fam.c_grad(theta)[..., None, :]

    def d2logpdf_obs(self, data, theta, weights):
        return -weights.sum(axis=-1)[..., None, None] * self.family.c_hess(theta)

    def _tilt(self, b, theta, what):
        """(b theta, int f^b = exp(c(b theta) - b c(theta))) for b one value
        or one per row of a stack; raises where b theta leaves the natural
        space, where the integral diverges."""
        fam = self.family
        bt = np.asarray(b)[..., None] * theta
        if not fam.in_natural(bt).all():
            raise DomainError(f"({what}) theta leaves the natural space of the {fam.name} "
                              f"family, so int f^({what}) diverges")
        return bt, np.exp(fam.c(bt) - b * fam.c(theta))

    def tsallis_integral_obs(self, data, theta, gamma):
        value = self._tilt(gamma, theta, "gamma")[1]
        return np.full(data[0].shape, value[..., None])

    def _log_integral_grad(self, theta, gamma):
        # gradient of log int f^gamma = c(gamma theta) - gamma c(theta)
        c_grad, gamma = self.family.c_grad, _col(gamma)
        return gamma * (c_grad(gamma * theta) - c_grad(theta))

    def tsallis_integral_grad_obs(self, data, theta, gamma, values):
        return values[..., None] * self._log_integral_grad(theta, gamma)[..., None, :]

    def tsallis_integral_hess(self, data, theta, gamma, values):
        c_hess = self.family.c_hess
        u = self._log_integral_grad(theta, gamma)
        g = _col(gamma)                           # over theta's coordinates
        gg = np.asarray(g)[..., None]             # over the (d, d) entries
        curvature = (u[..., :, None] * u[..., None, :] + gg * gg * c_hess(g * theta)
                     - gg * c_hess(theta))
        return values.sum(axis=-1)[..., None, None] * curvature

    def expected_kj(self, rule_kind, gamma, data, theta):
        """K = J = n Hess c(theta) for the log score. For the Tsallis score,
        with a = gamma - 1, b = 2 gamma - 1, mu = grad c(theta) and, at the
        tilt g theta, I_g = int f^g, d_g = grad c(g theta) - mu and
        S_g = Hess c(g theta) + d_g d_g':
        K = n gamma a I_gamma S_gamma and
        J = n (gamma a)^2 (I_b S_b - I_gamma^2 d_gamma d_gamma')."""
        fam, n = self.family, data[0].shape[-1]
        theta = np.asarray(theta, dtype=float)
        if rule_kind == "log":
            K = n * fam.c_hess(theta)
            return K, K
        mu = fam.c_grad(theta)

        def tilted(b, what):
            bt, integral = self._tilt(b, theta, what)
            d = fam.c_grad(bt) - mu
            dd = d[..., :, None] * d[..., None, :]
            return integral[..., None, None], dd, fam.c_hess(bt) + dd

        i_g, dd_g, s_g = tilted(gamma, "gamma")
        i_b, _, s_b = tilted(2.0 * gamma - 1.0, "2 gamma - 1")
        ga = np.asarray(gamma * (gamma - 1.0))[..., None, None]
        return n * ga * i_g * s_g, n * ga * ga * (i_b * s_b - i_g * i_g * dd_g)

    def default_start(self, data):
        return self.family.start(data[0])

    def sample(self, theta, sizes, rng, *, design=None):
        n = sizes if np.isscalar(sizes) else sizes[0]
        return self.family.sample(np.asarray(theta, dtype=float), int(n), rng)

    def contamination_frame(self, ys, data, component=0):
        return (np.atleast_1d(np.asarray(ys, dtype=float)),)

    def component_support(self, component=0):
        return self.family.support

    def obs_center_scale(self, data, theta, component=0):
        return self.family.scale(np.asarray(theta, dtype=float))


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


def _boundary_grid(support, center, scale):
    """(interior, left, right): 201 interior probes and the two shell probes
    of each side, in increasing y. A finite side's shell lies 10^-12 and
    10^-11 scales (spans, on a bounded support) from its edge, an infinite
    side's 10^2 and 10^3 scales out from the center."""
    lo, hi = support
    if math.isfinite(lo) and math.isfinite(hi):
        span = hi - lo
        steps = span * np.array([1e-12, 1e-11])
        return np.linspace(lo + 0.01 * span, hi - 0.01 * span, 201), lo + steps, hi - steps[::-1]
    out = center + scale * np.array([1e2, 1e3])
    if math.isfinite(lo):
        interior = np.linspace(max(lo + 0.01 * scale, lo), center + 20 * scale, 201)
        return interior, lo + scale * np.array([1e-12, 1e-11]), out
    interior = np.linspace(center - 20 * scale, center + 20 * scale, 201)
    return interior, center - scale * np.array([1e3, 1e2]), out


def expfam_robustness_check(model: ExpFamilyModel, theta, gamma):
    """Probe b_i(y) = f(y)^{gamma-1} (t_i(y) - E_theta t_i(y)) toward the
    support boundary and flag each coordinate bounded or not.

    The verdict is ``robustness._decay_verdict``, the one TAIF reads, on the
    two shell probes of each side from ``_boundary_grid``: a coordinate is
    bounded where, on each side, they are finite and at most DECAY_RATIO of
    the interior maximum or, on a finite side, where |b| no longer grows
    toward the edge (the probe nearer it is at most 1 + EDGE_GROWTH times
    the other), as where b tends to a finite limit there.
    """
    fam = model.family
    theta = np.asarray(theta, dtype=float)
    if not model.in_domain(theta):
        raise DomainError("theta outside the natural parameter space")
    interior, left, right = _boundary_grid(fam.support, *fam.scale(theta))

    def b(y):
        logf = model.logpdf_obs((y,), theta)
        with np.errstate(over="ignore"):
            fa = np.exp((gamma - 1.0) * logf)
        tdiff = fam.t(y) - fam.c_grad(theta)[None, :]
        return np.abs(fa[:, None] * tdiff)

    bounded, shell, interior_max = _decay_verdict(
        b(np.concatenate([left, interior, right])), 2, 2, tuple(map(math.isfinite, fam.support)))
    return BoundednessReport(*(tuple(a.tolist()) for a in (
        bounded, np.maximum(interior_max, shell), shell, interior_max)))


# ---------------------------------------------------------------------------
# Log-gamma, digamma and trigamma
# ---------------------------------------------------------------------------

_lgamma = np.frompyfunc(math.lgamma, 1, 1)
# psi and psi' at x > 0 come from their asymptotic series at z = x + 10 and
# the recurrence psi(x + 1) = psi(x) + 1/x, summed over x + 9, ..., x + 0 so
# that the smallest terms are added first. At z >= 10 the series' first
# omitted terms, in 1/z^20 and 1/z^21, are below 1e-18.
_SHIFT = 10.0
_STEPS = np.arange(_SHIFT - 1.0, -1.0, -1.0)
_POWERS = np.arange(1.0, 10.0)
# the Bernoulli numbers B_2, B_4, ..., B_18
_BERNOULLI = np.array([1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6,
                       -3617 / 510, 43867 / 798])
_DIGAMMA_SERIES = -_BERNOULLI / (2.0 * _POWERS)


def gammaln(x):
    """log |Gamma(x)| by the C library's lgamma; raises ValueError, as
    math.lgamma does, at the poles 0, -1, -2, ... A scalar gives a float64
    and an array an array of its shape."""
    return np.asarray(_lgamma(x), dtype=float)[()]


def _shifted(x):
    """(z = x + 10, the powers 1/z^2, ..., 1/z^18 along a last axis, and
    1/(x + k) for k = 9, ..., 0 along a last axis)."""
    x = np.asarray(x, dtype=float)
    z = x + _SHIFT
    return z, (1.0 / (z * z))[..., None] ** _POWERS, 1.0 / (x[..., None] + _STEPS)


def digamma(x):
    """psi(x) = d log Gamma(x) / dx for x > 0: psi(z) = log z - 1/(2z) -
    sum_k B_2k / (2k z^2k) less sum_k 1/(x + k). A scalar gives a float64
    and an array an array of its shape; each element depends on it alone."""
    z, powers, steps = _shifted(x)
    return (np.log(z) - (steps.sum(axis=-1)
                         + (0.5 / z - np.vecdot(powers, _DIGAMMA_SERIES))))[()]


def trigamma(x):
    """psi'(x) for x > 0: psi'(z) = 1/z + 1/(2z^2) + sum_k B_2k / z^(2k + 1)
    plus sum_k 1/(x + k)^2. A scalar gives a float64 and an array an array
    of its shape; each element depends on it alone."""
    z, powers, steps = _shifted(x)
    return (np.vecdot(steps, steps) + (1.0 + 0.5 / z + np.vecdot(powers, _BERNOULLI)) / z)[()]


def betaln(a, b):
    """log B(a, b) = log Gamma(a) + log Gamma(b) - log Gamma(a + b) for a, b > 0."""
    return gammaln(a) + gammaln(b) - gammaln(np.add(a, b))


def _remembered(f):
    """f of theta, remembering its values at the last two thetas it was
    given. An order-2 Tsallis kernel pass asks for c_grad at theta three
    times and at gamma theta twice, and for c_hess and c at theta twice;
    each is computed once. The values are shared, so read-only."""
    memo = ()

    def remembered(th):
        nonlocal memo
        th = np.asarray(th, dtype=float)
        key = (th.shape, th.tobytes())
        for known, value in memo:
            if known == key:
                return value
        value = f(th)
        value.setflags(write=False)
        memo = ((key, value), *memo[:1])
        return value

    return remembered


# ---------------------------------------------------------------------------
# Built-in families
# ---------------------------------------------------------------------------

def _last(entries):
    """Entries of one shape stacked along new last axes: (..., s) from a
    list of s, (..., s, s) from s lists of s."""
    if isinstance(entries[0], list):
        return np.stack([_last(row) for row in entries], axis=-2)
    return np.stack(entries, axis=-1)


def expfam_normal():
    """N(mu, v) in natural form theta = (mu/v, -1/(2v))."""
    def c(th):
        t1, t2 = th[..., 0], th[..., 1]
        return -t1 * t1 / (4.0 * t2) + 0.5 * np.log(math.pi / -t2)

    def c_grad(th):
        t1, t2 = th[..., 0], th[..., 1]
        return _last([-t1 / (2.0 * t2), t1 * t1 / (4.0 * t2 * t2) - 1.0 / (2.0 * t2)])

    def c_hess(th):
        t1, t2 = th[..., 0], th[..., 1]
        off = t1 / (2.0 * t2 * t2)
        return _last([[-1.0 / (2.0 * t2), off],
                      [off, 1.0 / (2.0 * t2 * t2) - t1 * t1 / (2.0 * t2 * t2 * t2)]])

    def scale(th):
        t1, t2 = th
        v = -1.0 / (2.0 * t2)
        return (-t1 / (2.0 * t2), math.sqrt(v))

    def start(y):
        m, v = np.mean(y, axis=-1), np.maximum(np.var(y, axis=-1), 1e-8)
        return _last([m / v, -0.5 / v])

    def sample(th, n, rng):
        t1, t2 = th
        v = -1.0 / (2.0 * t2)
        return rng.normal(t1 * v, math.sqrt(v), n)

    return ExpFamilyModel(_Family(
        name="normal", s=2,
        t=lambda y: np.concatenate([y[..., None], (y ** 2)[..., None]], axis=-1),
        c=c, c_grad=c_grad, c_hess=c_hess,
        support=(-np.inf, np.inf),
        in_natural=lambda th: th[..., 1] < 0,
        sample=sample, start=start, scale=scale,
    ))


def expfam_exponential():
    """Exp(rate) in natural form theta = (-rate,)."""
    def start(y):
        return -1.0 / np.maximum(np.mean(y, axis=-1), 1e-12)[..., None]

    return ExpFamilyModel(_Family(
        name="exponential", s=1,
        t=lambda y: np.asarray(y, dtype=float)[..., None],
        c=lambda th: -np.log(-th[..., 0]),
        c_grad=lambda th: -1.0 / th,
        c_hess=lambda th: (1.0 / (th * th))[..., None],
        support=(0.0, np.inf),
        in_natural=lambda th: th[..., 0] < 0,
        sample=lambda th, n, rng: rng.exponential(-1.0 / th[0], n),
        start=start,
        scale=lambda th: (-1.0 / th[0], -1.0 / th[0]),
    ))


def expfam_gamma():
    """Gamma(shape, rate) in natural form theta = (shape - 1, -rate)."""
    def c(th):
        shape, t2 = th[..., 0] + 1.0, th[..., 1]
        return gammaln(shape) - shape * np.log(-t2)

    def c_grad(th):
        shape, t2 = th[..., 0] + 1.0, th[..., 1]
        return _last([digamma(shape) - np.log(-t2), -shape / t2])

    def c_hess(th):
        shape, t2 = th[..., 0] + 1.0, th[..., 1]
        return _last([[trigamma(shape), -1.0 / t2], [-1.0 / t2, shape / (t2 * t2)]])

    def scale(th):
        shape, rate = th[0] + 1.0, -th[1]
        mean = shape / rate
        return (mean, math.sqrt(shape) / rate)

    def start(y):
        m, v = np.mean(y, axis=-1), np.maximum(np.var(y, axis=-1), 1e-12)
        shape = np.maximum(m * m / v, 1e-3)
        return _last([shape - 1.0, -(shape / m)])

    def sample(th, n, rng):
        shape, rate = th[0] + 1.0, -th[1]
        return rng.gamma(shape, 1.0 / rate, n)

    return ExpFamilyModel(_Family(
        name="gamma", s=2,
        t=lambda y: np.concatenate([np.log(y)[..., None], y[..., None]], axis=-1),
        c=_remembered(c), c_grad=_remembered(c_grad), c_hess=_remembered(c_hess),
        support=(0.0, np.inf),
        in_natural=lambda th: (th[..., 0] > -1.0) & (th[..., 1] < 0),
        sample=sample, start=start, scale=scale,
        open_left=True,
    ))


def expfam_beta():
    """Beta(a, b) in natural form theta = (a - 1, b - 1)."""
    def c(th):
        return betaln(th[..., 0] + 1.0, th[..., 1] + 1.0)

    def c_grad(th):
        a, b = th[..., 0] + 1.0, th[..., 1] + 1.0
        d = digamma(a + b)
        return _last([digamma(a) - d, digamma(b) - d])

    def c_hess(th):
        a, b = th[..., 0] + 1.0, th[..., 1] + 1.0
        ab = trigamma(a + b)
        return _last([[trigamma(a) - ab, -ab], [-ab, trigamma(b) - ab]])

    def start(y):
        m, v = np.mean(y, axis=-1), np.maximum(np.var(y, axis=-1), 1e-12)
        common = np.maximum(m * (1 - m) / v - 1.0, 1e-3)
        return _last([m * common - 1.0, (1 - m) * common - 1.0])

    def sample(th, n, rng):
        return rng.beta(th[0] + 1.0, th[1] + 1.0, n)

    return ExpFamilyModel(_Family(
        name="beta", s=2,
        t=lambda y: np.concatenate([np.log(y)[..., None], np.log1p(-y)[..., None]], axis=-1),
        c=_remembered(c), c_grad=_remembered(c_grad), c_hess=_remembered(c_hess),
        support=(0.0, 1.0),
        in_natural=lambda th: (th[..., 0] > -1.0) & (th[..., 1] > -1.0),
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
    The one option, ``interest_index``, overrides the spec's unless None.
    """
    idx = options.pop("interest_index", None)
    if options:
        raise DomainError(f"exponential-family models accept only interest_index, "
                          f"got {sorted(options)}")
    try:
        with open(spec_path) as fh:
            spec = json.load(fh)
    except FileNotFoundError:
        raise DomainError(f"exponential-family spec file not found: {spec_path}") from None
    except ValueError as exc:
        raise DomainError(f"{spec_path}: invalid JSON ({exc})") from None
    family = spec.get("family") if isinstance(spec, dict) else None
    if family not in _FAMILIES:
        raise DomainError(f"unknown exponential family {family!r}; "
                          f"choose from {sorted(_FAMILIES)}")
    model = _FAMILIES[family]()
    idx = spec.get("interest_index", 0) if idx is None else idx
    if not (_is_int(idx) and 0 <= idx < model.family.s):
        raise DomainError(f"interest_index must be an integer in [0, {model.family.s}), "
                          f"got {idx!r}")
    model.interest_index = int(idx)
    model.interest_name = f"theta_{idx + 1}"
    return model
