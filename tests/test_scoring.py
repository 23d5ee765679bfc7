import numpy as np
import pytest
import scipy.linalg

from robustcd.errors import DomainError, NumericsError
from robustcd.models import (
    ExponentialAUC,
    LinearRegression,
    TwoSampleNormal,
    tsallis_integral_normal,
)
from robustcd.scoring import (
    Fit,
    ScoreRule,
    eigenvalues_JKinv,
    empirical_J,
    empirical_K,
    estimate_KJ,
    fit,
    interest_information,
    minimize_smooth,
    partitioned_info,
    per_obs_gradient,
    sandwich,
    score_gradient,
    score_terms,
    total_score,
)

from oracles import fd_gradient, power_integral_quadrature


def test_rule_validation():
    m = TwoSampleNormal()
    with pytest.raises(DomainError):
        ScoreRule.tsallis(m, 1.0)
    with pytest.raises(DomainError):
        ScoreRule("tsallis", m, None)
    with pytest.raises(DomainError):
        ScoreRule("log", m, 1.5)
    with pytest.raises(DomainError):
        ScoreRule("brier", m)
    assert ScoreRule("logarithmic", m).kind == "log"


def test_log_score_is_negative_loglik(two_sample_data):
    m = TwoSampleNormal()
    rule = ScoreRule.log(m)
    theta = np.array([1.9, 0.1, 1.1, 1.4])
    x, y = two_sample_data
    nll = -(np.sum(-0.5 * np.log(2 * np.pi * 1.1) - (x - 1.9) ** 2 / 2.2)
            + np.sum(-0.5 * np.log(2 * np.pi * 1.4) - (y - 0.1) ** 2 / 2.8))
    assert total_score(rule, two_sample_data, theta) == pytest.approx(nll, abs=1e-12)


def test_tsallis_single_point_values():
    # N(0,1), gamma=2, y=0: (gamma-1) * Int phi^2 - gamma * phi(0)
    m = TwoSampleNormal()
    rule = ScoreRule.tsallis(m, 2.0)
    data = (np.array([0.0]), np.array([1.0]))
    terms = score_terms(rule, data, np.array([0.0, 1.0, 1.0, 1.0]))
    oracle = power_integral_quadrature(
        lambda t: np.exp(-t * t / 2) / np.sqrt(2 * np.pi), -np.inf, np.inf, 2.0)
    expect = 1.0 * oracle - 2.0 / np.sqrt(2 * np.pi)
    assert terms[0] == pytest.approx(expect, abs=1e-10)
    assert terms[0] == pytest.approx(-0.5157898, abs=1e-7)

    me = ExponentialAUC()
    rule_e = ScoreRule.tsallis(me, 2.0)
    data_e = (np.array([0.0]), np.array([1.0]))
    terms_e = score_terms(rule_e, data_e, np.array([1.0, 1.0]))
    oracle_e = power_integral_quadrature(lambda t: np.exp(-t), 0.0, np.inf, 2.0)
    assert terms_e[0] == pytest.approx(1.0 * oracle_e - 2.0, abs=1e-10)
    assert terms_e[0] == pytest.approx(-1.5, abs=1e-12)


@pytest.mark.parametrize("gamma", [None, 1.2, 1.8])
def test_gradient_matches_finite_differences(all_models, gamma):
    for model, data in all_models:
        rule = ScoreRule.log(model) if gamma is None else ScoreRule.tsallis(model, gamma)
        theta = model.default_start(data) * 1.07 + 0.01
        g = score_gradient(rule, data, theta)
        g_fd = fd_gradient(lambda t: total_score(rule, data, t), theta, step=1e-5)
        assert np.allclose(g, g_fd, rtol=1e-4, atol=1e-6), (model.name, gamma)


def test_gradient_vanishes_at_optimum(two_sample_data):
    m = TwoSampleNormal()
    for rule in (ScoreRule.log(m), ScoreRule.tsallis(m, 1.3)):
        fr = fit(rule, two_sample_data)
        assert fr.converged
        assert np.linalg.norm(score_gradient(rule, two_sample_data, fr.theta_hat)) <= 1e-6


def test_tsallis_normal_mean_estimating_function_redescends():
    # the mu-component of s(y; theta) vanishes at y = mu and decays in |y|
    m = TwoSampleNormal()
    rule = ScoreRule.tsallis(m, 1.5)
    theta = np.array([0.0, 0.0, 1.0, 1.0])

    def s_mu(y):
        return per_obs_gradient(rule, (np.array([y]), np.array([0.0])), theta)[0, 0]

    assert s_mu(0.0) == pytest.approx(0.0, abs=1e-15)
    grid = np.linspace(-5, 5, 101)
    vals = np.array([abs(s_mu(v)) for v in grid])
    at10 = abs(s_mu(10.0))
    at100 = abs(s_mu(100.0))
    assert at100 < at10 < vals.max()


def test_fit_log_recovers_closed_form_mle(two_sample_data, exp_auc_data):
    m = TwoSampleNormal()
    fr = fit(ScoreRule.log(m), two_sample_data)
    x, y = two_sample_data
    expect = np.array([x.mean(), y.mean(), x.var(), y.var()])
    assert np.allclose(fr.theta_hat, expect, rtol=1e-7)

    me = ExponentialAUC()
    fe = fit(ScoreRule.log(me), exp_auc_data)
    xe, ye = exp_auc_data
    assert np.allclose(fe.theta_hat, [1 / xe.mean(), 1 / ye.mean()], rtol=1e-7)


def test_fit_gradient_norm_contract(all_models):
    for model, data in all_models:
        fr = fit(ScoreRule.tsallis(model, 1.25), data)
        assert fr.converged
        assert fr.grad_norm <= 1e-8 * (1 + np.linalg.norm(fr.theta_hat))


def test_fit_permutation_invariance(two_sample_data):
    m = TwoSampleNormal()
    rule = ScoreRule.tsallis(m, 1.3)
    x, y = two_sample_data
    theta0 = m.default_start(two_sample_data)
    f1 = fit(rule, (x, y), theta0=theta0)
    rng = np.random.default_rng(0)
    f2 = fit(rule, (rng.permutation(x), rng.permutation(y)), theta0=theta0)
    assert np.allclose(f1.theta_hat, f2.theta_hat, atol=1e-9)


def test_minimize_smooth_names_its_stop():
    def quadratic(z):
        return float(z @ z), 2.0 * z

    z, f, _, reason = minimize_smooth(quadratic, np.array([1.0, -2.0]))
    assert reason == "gradient"
    assert f == pytest.approx(0.0, abs=1e-18)

    def nowhere_finite(z):
        return np.inf, np.zeros_like(z)

    *_, reason = minimize_smooth(nowhere_finite, np.array([1.0]))
    assert reason == "not_finite"


def test_fit_validates_data_once(two_sample_data, monkeypatch):
    calls = []
    original = TwoSampleNormal.validate_data

    def counted(self, data):
        calls.append(1)
        return original(self, data)

    monkeypatch.setattr(TwoSampleNormal, "validate_data", counted)
    m = TwoSampleNormal()
    fr = fit(ScoreRule.tsallis(m, 1.23), two_sample_data)
    assert fr.converged and fr.stop_reason
    assert len(calls) == 1
    # the kernels still check data they have not seen
    bad = (np.array([1.0, np.nan]), np.array([0.0, 1.0]))
    theta = np.array([0.0, 0.0, 1.0, 1.0])
    for kernel in (score_terms, per_obs_gradient):
        with pytest.raises(DomainError):
            kernel(ScoreRule.log(m), bad, theta)


def test_fit_rejects_bad_start(two_sample_data):
    m = TwoSampleNormal()
    with pytest.raises(DomainError):
        fit(ScoreRule.log(m), two_sample_data, theta0=np.array([0, 0, -1.0, 1.0]))


def test_sandwich_identities(all_models):
    for model, data in all_models:
        fr = fit(ScoreRule.tsallis(model, 1.3), data)
        Kinv = np.linalg.inv(fr.K)
        V = Kinv @ fr.J @ Kinv.T
        assert np.allclose(fr.V, V, rtol=1e-8, atol=1e-12)
        assert np.allclose(fr.G @ fr.V, np.eye(len(fr.theta_hat)), atol=1e-8)
        assert np.allclose(fr.V, fr.V.T, atol=1e-10)
        assert np.allclose(fr.G, fr.G.T, atol=1e-10)


def test_information_identity_under_log_score():
    # data simulated under the model: K and J agree up to Monte-Carlo error
    rng = np.random.default_rng(8)
    data = (rng.normal(2, 1, 1000), rng.normal(0, 1, 1000))
    m = TwoSampleNormal()
    rule = ScoreRule.log(m)
    fr = fit(rule, data)
    K_emp = empirical_K(rule, data, fr.theta_hat)
    J_emp = empirical_J(rule, data, fr.theta_hat)
    vals = np.linalg.eigvals(J_emp @ np.linalg.inv(K_emp))
    assert np.allclose(np.real(vals), 1.0, atol=1e-1)

    fit_emp = Fit(fr.theta_hat, fr.score_at_opt, K_emp, J_emp, fr.V, fr.G,
                  True, 0, 0.0, rule, data)
    eigs = eigenvalues_JKinv(fit_emp)
    assert np.all(eigs > 0)
    # analytic K and J coincide exactly for the log rule
    assert np.allclose(eigenvalues_JKinv(fr), 1.0, atol=1e-12)


def test_eigenvalues_scalar_and_oracle():
    rng = np.random.default_rng(3)
    data = (rng.exponential(1.0, 200),)
    from robustcd.expfam import expfam_exponential
    model = expfam_exponential()
    rule = ScoreRule.tsallis(model, 1.4)
    fr = fit(rule, data[0])
    eigs = eigenvalues_JKinv(fr)
    assert eigs.shape == (1,)
    assert eigs[0] == pytest.approx(fr.J[0, 0] / fr.K[0, 0], rel=1e-12)

    # random SPD pairs against a dense symmetric eigensolver
    for seed in range(5):
        r = np.random.default_rng(seed)
        A = r.normal(size=(4, 4)); K = A @ A.T + 4 * np.eye(4)
        B = r.normal(size=(4, 4)); J = B @ B.T + 1e-3 * np.eye(4)
        f = Fit(np.zeros(4), 0.0, K, J, None, None, True, 0, 0.0)
        got = eigenvalues_JKinv(f)
        Khalf = scipy.linalg.sqrtm(np.linalg.inv(K))
        want = np.sort(np.linalg.eigvalsh(Khalf @ J @ Khalf))[::-1]
        assert np.allclose(got, want, rtol=1e-8)
        assert np.all(got > 0)


def test_estimate_kj_modes(regression_data):
    model = LinearRegression(interest_index=1)
    rule = ScoreRule.tsallis(model, 1.22)
    theta = model.mle_start(regression_data)
    K_a, J_a = estimate_KJ(rule, regression_data, theta, k_mode="analytic", j_mode="analytic")
    K_e, J_e = estimate_KJ(rule, regression_data, theta, k_mode="empirical", j_mode="empirical")
    assert K_a.shape == K_e.shape == (4, 4)
    # scalar-positive check on a one-parameter family
    from robustcd.expfam import expfam_exponential
    me = expfam_exponential()
    re_ = ScoreRule.tsallis(me, 1.5)
    y = np.random.default_rng(1).exponential(1.0, 300)
    K1, J1 = estimate_KJ(re_, y, me.default_start(y))
    assert K1.shape == (1, 1) and K1[0, 0] > 0 and J1[0, 0] > 0


def test_regression_analytic_kj_matches_empirical_at_n500():
    rng = np.random.default_rng(12)
    n = 500
    X = np.column_stack([np.ones(n), rng.standard_normal(n), rng.uniform(size=n)])
    y = X @ np.array([1.0, 1.0, 0.0]) + rng.normal(0, 1, n)
    model = LinearRegression(interest_index=1)
    rule = ScoreRule.tsallis(model, 1.22)
    fr = fit(rule, (y, X))
    K_a, J_a = estimate_KJ(rule, (y, X), fr.theta_hat, k_mode="analytic", j_mode="analytic")
    K_e = empirical_K(rule, (y, X), fr.theta_hat)
    J_e = empirical_J(rule, (y, X), fr.theta_hat)
    assert np.linalg.norm(K_a - K_e) / np.linalg.norm(K_a) < 0.05
    assert np.linalg.norm(J_a - J_e) / np.linalg.norm(J_a) < 0.15
    # the analytic block structure: beta block proportional to X'X, no cross terms
    xtx = X.T @ X
    ratio = K_a[:3, :3] / xtx
    assert np.allclose(ratio, ratio[0, 0], rtol=1e-10)
    assert np.allclose(K_a[3, :3], 0.0)
    assert np.allclose(J_a[3, :3], 0.0)


def test_cross_check_warns_when_data_far_from_model():
    rng = np.random.default_rng(4)
    data = (rng.normal(2, 1, 30), rng.normal(0, 1, 30))
    m = TwoSampleNormal()
    rule = ScoreRule.log(m)
    # variances far above what the data show: observed and expected
    # sensitivities disagree strongly
    theta = np.array([2.0, 0.0, 9.0, 9.0])
    with pytest.warns(UserWarning, match="disagree"):
        estimate_KJ(rule, data, theta, cross_check=True)
    # at the fitted value the two agree and no warning fires
    import warnings as _w
    with _w.catch_warnings():
        _w.simplefilter("error")
        estimate_KJ(rule, data, m.mle_start(data), cross_check=True)


def test_tsallis_location_fit_monte_carlo_sanity():
    # clean N(2,1) samples: the location estimate stays within 4 reported
    # standard errors of the truth in essentially all seeds
    model = LinearRegression(interest_index=0)
    rule = ScoreRule.tsallis(model, 1.2324)
    n = 40
    X = np.ones((n, 1))
    hits = 0
    n_seeds = 1000
    for seed in range(n_seeds):
        y = np.random.default_rng(seed).normal(2.0, 1.0, n)
        fr = fit(rule, (y, X))
        if abs(fr.theta_hat[0] - 2.0) <= 4.0 * fr.stderr()[0]:
            hits += 1
    assert hits >= 0.995 * n_seeds


def test_partitioned_info_invariant():
    rng = np.random.default_rng(9)
    A = rng.normal(size=(4, 4)); K = A @ A.T + 4 * np.eye(4)
    B = rng.normal(size=(4, 4)); J = B @ B.T + np.eye(4)
    info = partitioned_info(K, J, interest_index=0)
    assert info.k_psipsi == pytest.approx(np.linalg.inv(K)[0, 0], rel=1e-10)
    V = np.linalg.inv(K) @ J @ np.linalg.inv(K).T
    G = np.linalg.inv(V)
    assert info.g_psipsi == pytest.approx(np.linalg.inv(G)[0, 0], rel=1e-8)
    assert info.K_blocks["pp"] == pytest.approx(K[0, 0])
    assert info.K_blocks["ll"].shape == (3, 3)

    # gradient form agrees with coordinate form under reordering
    grad = np.zeros(4); grad[2] = 1.0
    k_pp, g_pp = interest_information(K, J, grad)
    assert k_pp == pytest.approx(np.linalg.inv(K)[2, 2], rel=1e-10)


def test_quadrature_fallback_matches_closed_form(two_sample_data):
    class NoClosedForm(TwoSampleNormal):
        def tsallis_integral_obs(self, data, theta, gamma):
            return None

        def tsallis_integral_grad_obs(self, data, theta, gamma):
            return None

    theta = np.array([1.9, 0.2, 1.0, 1.3])
    val_closed = total_score(ScoreRule.tsallis(TwoSampleNormal(), 1.6),
                             two_sample_data, theta)
    val_quad = total_score(ScoreRule.tsallis(NoClosedForm(), 1.6),
                           two_sample_data, theta)
    assert val_quad == pytest.approx(val_closed, abs=1e-7)
    g_quad = score_gradient(ScoreRule.tsallis(NoClosedForm(), 1.6), two_sample_data, theta)
    g_closed = score_gradient(ScoreRule.tsallis(TwoSampleNormal(), 1.6), two_sample_data, theta)
    assert np.allclose(g_quad, g_closed, rtol=1e-5, atol=1e-8)


def test_weighted_score(two_sample_data):
    m = TwoSampleNormal()
    rule = ScoreRule.tsallis(m, 1.4)
    theta = m.default_start(two_sample_data)
    n = m.nobs(two_sample_data)
    w = np.ones(n)
    assert total_score(rule, two_sample_data, theta, weights=w) == pytest.approx(
        total_score(rule, two_sample_data, theta))
    w2 = np.zeros(n); w2[0] = 1.0
    assert total_score(rule, two_sample_data, theta, weights=w2) == pytest.approx(
        score_terms(rule, two_sample_data, theta)[0])


def test_singular_k_raises():
    K = np.array([[1.0, 1.0], [1.0, 1.0]])
    J = np.eye(2)
    with pytest.raises(NumericsError):
        sandwich(K, J)
