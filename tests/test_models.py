import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

import robustcd
from robustcd.errors import DomainError
from robustcd.expfam import ExpFamilyModel, expfam_beta, expfam_gamma, expfam_normal
from robustcd.models import (
    ExponentialAUC,
    LinearRegression,
    NormalAUC,
    TwoSampleNormal,
    auc_from_normal,
    auc_from_rates,
    get_model,
    normal_pdf,
    tsallis_integral_exponential,
    tsallis_integral_normal,
)
from robustcd.scoring import ScoreRule, _fd_jacobian, score_terms

from oracles import fd_gradient, power_integral_quadrature


# ---------------------------------------------------------------------------
# closed-form power integrals
# ---------------------------------------------------------------------------

def test_normal_power_integral_values():
    assert tsallis_integral_normal(0.0, 1.0, 2.0) == pytest.approx(
        1.0 / (2 * np.sqrt(np.pi)), rel=1e-12)
    assert tsallis_integral_normal(0.0, 1.0, 2.0) == pytest.approx(0.2820948, abs=1e-7)
    # unit integral in the gamma -> 1 limit
    assert tsallis_integral_normal(3.0, 2.0, 1.0 + 1e-8) == pytest.approx(1.0, abs=1e-6)
    # translation invariance is exact
    assert tsallis_integral_normal(0.0, 1.7, 1.4) == tsallis_integral_normal(17.0, 1.7, 1.4)


def test_exponential_power_integral_values():
    assert tsallis_integral_exponential(1.0, 2.0) == pytest.approx(0.5, rel=1e-14)
    assert tsallis_integral_exponential(2.0 / 3.0, 1.5) == pytest.approx(0.544331, abs=1e-6)
    assert tsallis_integral_exponential(2.5, 1.0 + 1e-9) == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("var,gamma", [(0.5, 1.2), (1.0, 1.5), (2.0, 2.0),
                                       (4.0, 2.5), (0.8, 3.0)])
def test_normal_integral_matches_quadrature(var, gamma):
    pdf = lambda t: np.exp(-t * t / (2 * var)) / np.sqrt(2 * np.pi * var)
    want = power_integral_quadrature(pdf, -np.inf, np.inf, gamma)
    assert tsallis_integral_normal(0.0, var, gamma) == pytest.approx(want, abs=1e-8)


@pytest.mark.parametrize("rate,gamma", [(0.5, 1.2), (1.0, 1.5), (2.0, 2.0),
                                        (3.7778, 2.5), (0.1, 3.0)])
def test_exponential_integral_matches_quadrature(rate, gamma):
    pdf = lambda t: rate * np.exp(-rate * t)
    want = power_integral_quadrature(pdf, 0.0, np.inf, gamma)
    assert tsallis_integral_exponential(rate, gamma) == pytest.approx(want, abs=1e-8)


def test_integral_domain_errors():
    with pytest.raises(DomainError):
        tsallis_integral_normal(0.0, -1.0, 2.0)
    with pytest.raises(DomainError):
        tsallis_integral_exponential(1.0, 0.9)


# ---------------------------------------------------------------------------
# AUC interest maps
# ---------------------------------------------------------------------------

def test_auc_from_rates():
    assert auc_from_rates(2.0, 2.0) == 0.5
    assert auc_from_rates(3.7778, 2.0 / 3.0) == pytest.approx(0.85, abs=5e-5)
    # the exact implied rate reproduces 0.85 to machine precision
    assert auc_from_rates(0.85 * (2 / 3) / 0.15, 2.0 / 3.0) == pytest.approx(0.85, abs=1e-14)
    with pytest.raises(DomainError):
        auc_from_rates(-1.0, 1.0)


def test_auc_from_normal():
    assert auc_from_normal(1.3, 1.3, 0.5, 2.0) == pytest.approx(0.5, abs=1e-14)
    assert auc_from_normal(0.0, 1.0, 1.0, 1.0) == pytest.approx(0.7602499, abs=1e-6)


def test_interest_gradients_match_finite_differences(all_models):
    for model, data in all_models:
        theta = model.default_start(data)
        g = model.interest_grad(theta)
        g_fd = fd_gradient(lambda t: model.interest(t), theta, step=1e-6)
        assert np.allclose(g, g_fd, rtol=1e-5, atol=1e-7), model.name


def test_exponential_auc_interest_monotone():
    m = ExponentialAUC()
    r1_grid = np.linspace(0.5, 5.0, 12)
    vals = [m.interest(np.array([r1, 1.0])) for r1 in r1_grid]
    assert np.all(np.diff(vals) > 0)
    r2_grid = np.linspace(0.5, 5.0, 12)
    vals2 = [m.interest(np.array([2.0, r2])) for r2 in r2_grid]
    assert np.all(np.diff(vals2) < 0)


# ---------------------------------------------------------------------------
# densities, samplers, reductions
# ---------------------------------------------------------------------------

def test_densities_integrate_to_one(all_models):
    # the density the scores use: exp(logpdf_obs) of a one-point frame
    for model, data in all_models:
        theta = model.default_start(data)
        for component in (0,) if isinstance(model, LinearRegression) else (0, 1):
            def pdf(t):
                frame = model.contamination_frame([t], data, component=component)
                return float(np.exp(model.logpdf_obs(frame, theta))[0])

            lo, hi = model.component_support(component)
            val, _err = quad(pdf, lo, hi, epsabs=1e-10, limit=200)
            assert val == pytest.approx(1.0, abs=1e-8), (model.name, component)


def test_sampler_moments():
    rng = np.random.default_rng(77)
    n = 100_000

    m = TwoSampleNormal()
    x, y = m.sample(np.array([2.0, 0.0, 1.5, 0.7]), (n, n), rng)
    for arr, mean, var in ((x, 2.0, 1.5), (y, 0.0, 0.7)):
        se_mean = np.sqrt(var / n)
        assert abs(arr.mean() - mean) < 4 * se_mean
        se_var = var * np.sqrt(2.0 / n)
        assert abs(arr.var() - var) < 4 * se_var

    me = ExponentialAUC()
    xe, ye = me.sample(np.array([3.7778, 2 / 3]), (n, n), rng)
    for arr, rate in ((xe, 3.7778), (ye, 2 / 3)):
        mean = 1 / rate
        se_mean = mean / np.sqrt(n)
        assert abs(arr.mean() - mean) < 4 * se_mean

    mr = LinearRegression()
    X = np.column_stack([np.ones(n), rng.standard_normal(n)])
    yr, _ = mr.sample(np.array([1.0, 2.0, 1.3]), (n,), rng, design=X)
    resid = yr - X @ np.array([1.0, 2.0])
    assert abs(resid.mean()) < 4 * np.sqrt(1.3 / n)
    assert abs(resid.var() - 1.3) < 4 * 1.3 * np.sqrt(2.0 / n)


def test_regression_intercept_only_reduces_to_one_sample_normal():
    rng = np.random.default_rng(5)
    y = rng.normal(1.7, 1.1, 25)
    model = LinearRegression(interest_index=0)
    data = (y, np.ones((25, 1)))
    theta = np.array([1.5, 1.2])
    for gamma in (None, 1.4):
        if gamma is None:
            got = score_terms(ScoreRule.log(model), data, theta)
            want = 0.5 * np.log(2 * np.pi * 1.2) + (y - 1.5) ** 2 / 2.4
        else:
            got = score_terms(ScoreRule.tsallis(model, gamma), data, theta)
            integral = tsallis_integral_normal(1.5, 1.2, gamma)
            fpow = np.exp(-(gamma - 1) * (y - 1.5) ** 2 / 2.4) * (
                2 * np.pi * 1.2) ** (-(gamma - 1) / 2)
            want = (gamma - 1) * integral - gamma * fpow
        assert np.allclose(got, want, atol=1e-12)


def test_validate_data_errors():
    m = TwoSampleNormal()
    with pytest.raises(DomainError):
        m.validate_data((np.array([np.nan]), np.array([1.0])))
    with pytest.raises(DomainError):
        m.validate_data("nope")
    me = ExponentialAUC()
    with pytest.raises(DomainError):
        me.validate_data((np.array([-1.0]), np.array([1.0])))
    mr = LinearRegression()
    with pytest.raises(DomainError):
        mr.default_start((np.ones(3), np.ones((3, 2))))  # rank deficient
    with pytest.raises(DomainError):
        mr.validate_data((np.ones(3), np.ones((4, 1))))


def test_shift_obs():
    m = TwoSampleNormal()
    data = (np.array([1.0, 2.0]), np.array([3.0]))
    shifted = m.shift_obs(data, 0, -1, -7.0)
    assert shifted[0][1] == -5.0 and data[0][1] == 2.0
    with pytest.raises(IndexError):
        m.shift_obs(data, 1, 5, 1.0)


def test_profile_embed_roundtrip(all_models):
    for model, data in all_models:
        theta = model.default_start(data)
        psi = model.interest(theta)
        lam = model.profile_extract(theta)
        assert np.allclose(model.profile_embed(psi, lam), theta, atol=1e-12)
        jac = model.profile_embed_jac(psi, lam)
        # finite-difference check of the embedding Jacobian
        for j in range(lam.size):
            h = 1e-6 * (1 + abs(lam[j]))
            lp = lam.copy(); lp[j] += h
            lm = lam.copy(); lm[j] -= h
            col = (model.profile_embed(psi, lp) - model.profile_embed(psi, lm)) / (2 * h)
            assert np.allclose(jac[:, j], col, atol=1e-6), model.name


def test_embedding_jacobians_match_finite_differences(all_models):
    cases = [(model, model.default_start(data)) for model, data in all_models]
    for maker, theta in ((expfam_normal, [0.5, -0.4]), (expfam_gamma, [1.5, -3.3]),
                         (expfam_beta, [1.0, 2.0])):
        for i in range(2):
            ef = maker()
            ef.interest_index = i
            cases.append((ef, np.array(theta)))
    for model, theta in cases:
        psi, lam = model.interest(theta), model.profile_extract(theta)
        jac = model.profile_embed_jac(psi, lam)
        fd = _fd_jacobian(lambda v: model.profile_embed(psi, v), lam)
        assert np.allclose(jac, fd, rtol=0.0, atol=1e-8), model.name
        if isinstance(model, (LinearRegression, ExpFamilyModel)):
            # a coordinate interest: theta is lam with psi inserted
            eye = np.eye(lam.size + 1)
            assert np.array_equal(jac, np.delete(eye, model.interest_index, axis=1)), model.name


def test_quadrature_failure_carries_tolerance():
    from robustcd.errors import NumericsError
    from robustcd.models import quadrature_power_integral

    # violently oscillatory integrand defeats the adaptive rule
    bad = lambda t: np.abs(np.cos(1e7 * t)) * np.exp(-t * t / 2)
    with pytest.raises(NumericsError) as err:
        quadrature_power_integral(bad, (-np.inf, np.inf), 1.5)
    assert "achieved" in (err.value.detail or {})


def test_import_leaves_scipy_stats_unloaded():
    src = os.path.dirname(os.path.dirname(robustcd.__file__))
    code = "import sys, robustcd, robustcd.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True, timeout=120)
    assert out.stdout.strip() == "False"


def test_registry():
    assert get_model("two-sample-normal").name == "two-sample-normal"
    assert get_model("linear-regression", interest_index=2).interest_index == 2
    with pytest.raises(DomainError):
        get_model("no-such-model")
    with pytest.raises(DomainError):
        get_model("auc-normal", interest_index=1)


def test_normal_auc_profile_embedding_hits_target():
    m = NormalAUC()
    lam = np.array([0.3, 1.2, 0.8])
    for psi in (0.2, 0.5, 0.85):
        theta = m.profile_embed(psi, lam)
        assert m.interest(theta) == pytest.approx(psi, abs=1e-12)
    me = ExponentialAUC()
    for psi in (0.15, 0.5, 0.85):
        theta = me.profile_embed(psi, np.array([2.0 / 3.0]))
        assert me.interest(theta) == pytest.approx(psi, abs=1e-12)


# ---------------------------------------------------------------------------
# nuisance embeddings
# ---------------------------------------------------------------------------

def test_normal_auc_embedding_equals_norm_ppf_form():
    m = NormalAUC()
    lam = np.array([0.3, 1.7, 0.6])
    s = np.sqrt(lam[1] + lam[2])
    for psi in np.linspace(0.01, 0.99, 981):
        q = norm.ppf(psi)
        assert np.array_equal(m.profile_embed(psi, lam),
                              [lam[0], lam[0] + q * s, lam[1], lam[2]])
        assert np.array_equal(m.profile_embed_jac(psi, lam), [
            [1.0, 0.0, 0.0],
            [1.0, q / (2 * s), q / (2 * s)],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
        ])


def test_coordinate_embeddings_equal_insert_and_delete():
    theta = np.array([0.7, -1.3, 2.9, 0.45])
    models = [LinearRegression(interest_index=i) for i in range(3)]
    for i in range(2):
        ef = expfam_gamma()
        ef.interest_index = i
        models.append(ef)
    for m in models:
        d = 4 if isinstance(m, LinearRegression) else 2
        full = theta[:d]
        i = m.interest_index
        lam = np.delete(full, i)
        assert np.array_equal(m.profile_extract(full), lam)
        assert np.array_equal(m.profile_embed(full[i], lam), np.insert(lam, i, full[i]))
        assert np.array_equal(m.profile_embed(full[i], lam), full)


def test_normal_density_and_auc_equal_scipy_stats():
    rng = np.random.default_rng(12)
    xs = np.concatenate([rng.normal(0.0, 3.0, 2500), rng.uniform(-40.0, 40.0, 2500)])
    assert np.array_equal(normal_pdf(xs), norm.pdf(xs))
    for x in xs[:500]:
        assert float(normal_pdf(x)) == float(norm.pdf(x))
        assert auc_from_normal(0.1, x, 0.4, 0.9) == float(
            norm.cdf((x - 0.1) / np.sqrt(0.4 + 0.9)))
