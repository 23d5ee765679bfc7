import numpy as np
import pytest
import scipy.linalg
from scipy.stats import norm

from robustcd import confidence, scoring
from robustcd.errors import DomainError, NumericsError
from robustcd.expfam import expfam_beta, expfam_exponential, expfam_gamma, expfam_normal
from robustcd.models import (
    ExponentialAUC,
    LinearRegression,
    ModelSpec,
    NormalAUC,
    TwoSampleNormal,
    tsallis_integral_normal,
)
from robustcd.scoring import (
    Fit,
    ScoreRule,
    _Objective,
    _from_z,
    _to_z,
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
        return float(z @ z), 2.0 * z, 2.0 * np.eye(z.size)

    z, f, _, reason = minimize_smooth(quadratic, np.array([1.0, -2.0]))
    assert reason == "gradient"
    assert f == pytest.approx(0.0, abs=1e-18)

    def nowhere_finite(z):
        return np.inf, np.zeros_like(z), np.zeros((z.size, z.size))

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
    K_a, J_a = model.expected_kj(rule.kind, rule.gamma, regression_data, theta)
    K_e, J_e = empirical_K(rule, regression_data, theta), empirical_J(rule, regression_data, theta)
    assert K_a.shape == K_e.shape == J_a.shape == J_e.shape == (4, 4)
    # estimate_KJ takes the analytic pair where the model has one
    K, J = estimate_KJ(rule, regression_data, theta)
    assert np.array_equal(K, K_a) and np.array_equal(J, J_a)
    # and the empirical pair where it has none: a one-parameter expfam family
    me = expfam_exponential()
    re_ = ScoreRule.tsallis(me, 1.5)
    y = np.random.default_rng(1).exponential(1.0, 300)
    t0 = me.default_start(y)
    K1, J1 = estimate_KJ(re_, y, t0)
    assert K1.shape == (1, 1) and K1[0, 0] > 0 and J1[0, 0] > 0
    assert np.array_equal(K1, empirical_K(re_, y, t0))
    assert np.array_equal(J1, empirical_J(re_, y, t0))


def test_regression_analytic_kj_matches_empirical_at_n500():
    rng = np.random.default_rng(12)
    n = 500
    X = np.column_stack([np.ones(n), rng.standard_normal(n), rng.uniform(size=n)])
    y = X @ np.array([1.0, 1.0, 0.0]) + rng.normal(0, 1, n)
    model = LinearRegression(interest_index=1)
    rule = ScoreRule.tsallis(model, 1.22)
    fr = fit(rule, (y, X))
    K_a, J_a = model.expected_kj(rule.kind, rule.gamma, (y, X), fr.theta_hat)
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


class NoClosedForm(TwoSampleNormal):
    """Two-sample normal model scored through the quadrature fallback."""

    def tsallis_integral_obs(self, data, theta, gamma):
        return None

    def tsallis_integral_grad_obs(self, data, theta, gamma):
        return None

    def quad_components(self, data, theta):
        x, y = data
        mx, my, vx, vy = theta
        return [
            (lambda t, m=mx, s=np.sqrt(vx): norm.pdf(t, m, s), (-np.inf, np.inf), len(x)),
            (lambda t, m=my, s=np.sqrt(vy): norm.pdf(t, m, s), (-np.inf, np.inf), len(y)),
        ]


def test_quadrature_fallback_matches_closed_form(two_sample_data):
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


# ---------------------------------------------------------------------------
# the fused kernel: one pass gives what the value and gradient paths gave
# ---------------------------------------------------------------------------

def _two_formula_terms(rule, data, theta):
    """Per-observation score terms by the separate value formula."""
    model = rule.model
    logf = model.logpdf_obs(data, theta)
    if rule.kind == "log":
        return -logf
    gamma = rule.gamma
    integrals = scoring._power_integrals(rule, data, theta)
    return (gamma - 1.0) * integrals - gamma * np.exp((gamma - 1.0) * logf)


def _two_formula_grads(rule, data, theta):
    """Per-observation gradients by the separate gradient formula."""
    model = rule.model
    dlogf = model.dlogpdf_obs(data, theta)
    if rule.kind == "log":
        return -dlogf
    gamma = rule.gamma
    a = gamma - 1.0
    fa = np.exp(a * model.logpdf_obs(data, theta))
    igrad = model.tsallis_integral_grad_obs(data, theta, gamma)
    if igrad is None:
        igrad = scoring._fd_jacobian(
            lambda t: scoring._power_integrals(rule, data, t), theta)
    return a * np.asarray(igrad, dtype=float) - gamma * a * fa[:, None] * dlogf


@pytest.fixture(scope="module")
def kernel_cases(all_models, two_sample_data):
    y = np.random.default_rng(11).gamma(3.0, 0.5, 80)
    cases = [(model, model.checked(data)) for model, data in all_models]
    cases.append((expfam_gamma(), y))
    cases.append((NoClosedForm(), NoClosedForm().checked(two_sample_data)))
    return cases


@pytest.mark.parametrize("gamma", [None, 1.2])
def test_kernel_equals_value_and_gradient_paths(kernel_cases, gamma):
    for model, data in kernel_cases:
        rule = ScoreRule.log(model) if gamma is None else ScoreRule.tsallis(model, gamma)
        theta = model.default_start(data)
        terms = score_terms(rule, data, theta)
        grads = per_obs_gradient(rule, data, theta)
        assert np.array_equal(terms, _two_formula_terms(rule, data, theta))
        assert np.array_equal(grads, _two_formula_grads(rule, data, theta))

        objective = _Objective(rule, data)
        val, g = objective.evaluate(theta)
        assert val == total_score(rule, data, theta)
        assert np.array_equal(g, score_gradient(rule, data, theta))
        # the unconstrained coordinates see the same numbers
        z = _to_z(theta, objective.positive)
        val_z, g_z, _ = objective(z)
        x = _from_z(z, objective.positive)
        want = score_gradient(rule, data, x) * np.where(objective.positive, x, 1.0)
        assert val_z == total_score(rule, data, x)
        assert np.array_equal(g_z, want)

        # the eps-mixture: (1 - eps) S_data + n eps S_frame, term by term
        eps, n = 1e-4, model.nobs(data)
        center, _ = model.obs_center_scale(data, theta, 0)
        frame = model.checked(model.contamination_frame([center + 0.3], data))
        mixed = _Objective(rule, data, mixture=(eps, frame))
        val_m, g_m = mixed.evaluate(theta)
        assert val_m == ((1.0 - eps) * total_score(rule, data, theta)
                         + n * eps * total_score(rule, frame, theta))
        assert np.array_equal(g_m, (1.0 - eps) * score_gradient(rule, data, theta)
                              + n * eps * score_gradient(rule, frame, theta))


def test_objective_gradient_reuses_the_last_evaluation(two_sample_data):
    m = TwoSampleNormal()
    data = m.checked(two_sample_data)
    rule = ScoreRule.tsallis(m, 1.2)
    objective = _Objective(rule, data, psi=2.0)
    lam = m.profile_extract(m.default_start(data))
    theta = objective.theta(lam)
    _, g = objective.evaluate(theta)
    assert objective.gradient(theta) is g
    other = theta + np.array([0.0, 1e-3, 0.0, 0.0])
    assert np.array_equal(objective.gradient(other), score_gradient(rule, data, other))


# ---------------------------------------------------------------------------
# no pass over the data follows a solve
# ---------------------------------------------------------------------------

@pytest.fixture
def kernel_calls(monkeypatch):
    """Kernel passes so far, and for each minimize_smooth call the count at
    its entry and at its return, with its stop reason."""
    calls, solves = [], []
    kernel = scoring._kernel

    def counted(*args, **kwargs):
        calls.append(1)
        return kernel(*args, **kwargs)

    solve = scoring.minimize_smooth

    def marked(*args):
        entry = len(calls)
        out = solve(*args)
        solves.append((entry, len(calls), out[3]))
        return out

    monkeypatch.setattr(scoring, "_kernel", counted)
    monkeypatch.setattr(scoring, "minimize_smooth", marked)
    monkeypatch.setattr(confidence, "minimize_smooth", marked)
    return calls, solves


@pytest.fixture(scope="module")
def cd_grid_auc_normal():
    """The benchmark's cd-grid auc-normal input: 350 + 700 points."""
    rng = np.random.default_rng([20251017, 1, 2, 0])
    return NormalAUC().checked((rng.normal(0.0, 1.0, 350), rng.normal(1.0, 1.0, 700)))


def _default_profile_grid(fr):
    model = fr.rule.model
    _, g_pp = interest_information(fr.K, fr.J, model.interest_grad(fr.theta_hat))
    return confidence.default_grid(fr.psi_tilde, np.sqrt(g_pp), model.interest_range())


def test_no_kernel_pass_after_a_solve(two_sample_data, cd_grid_auc_normal, kernel_calls):
    calls, solves = kernel_calls
    m = TwoSampleNormal()
    rule = ScoreRule.tsallis(m, 1.2)
    _, _, _, converged = confidence.constrained_fit(rule, two_sample_data, 2.0)
    assert converged and len(solves) == 1
    assert len(calls) == solves[-1][1]

    del calls[:], solves[:]
    fr = fit(rule, two_sample_data)
    assert fr.converged and len(solves) == 1     # the first start converged
    assert len(calls) == solves[-1][1]           # K and J are analytic here

    # A solve that stops after rejected trial points: the verdict reuses
    # the pass at its last accepted point.
    objective = _Objective(rule, m.checked(two_sample_data), 2.0)
    lam = m.profile_extract(fr.theta_hat)
    z = _to_z(lam, objective.positive)
    objective(z)
    objective(z + 0.1)
    objective(z + 1e3)                          # overflows: an inadmissible trial
    del calls[:]
    objective.verdict(_from_z(z, objective.positive))
    assert not calls

    # A warm-started profile on 1050 points: most of its solves stop on
    # "step". nu comes from the analytic K and J, so every pass belongs to
    # a solve.
    rule = ScoreRule.log(NormalAUC())
    fr = fit(rule, cd_grid_auc_normal)
    del calls[:], solves[:]
    trace = confidence.profile(rule, cd_grid_auc_normal, _default_profile_grid(fr),
                               fit_result=fr)
    assert not trace.failed.any() and len(solves) == 201
    assert "step" in {reason for _, _, reason in solves}
    ends = [0] + [end for _, end, _ in solves]
    assert [entry for entry, _, _ in solves] == ends[:-1]
    assert len(calls) == ends[-1]


def test_warm_profile_takes_few_kernel_passes(cd_grid_auc_normal, kernel_calls):
    # exact curvature: a constrained fit warm-started from its grid
    # neighbour converges in a few Newton steps
    calls, solves = kernel_calls
    rule = ScoreRule.tsallis(NormalAUC(), 1.23)
    fr = fit(rule, cd_grid_auc_normal)
    del calls[:], solves[:]
    trace = confidence.profile(rule, cd_grid_auc_normal, _default_profile_grid(fr),
                               fit_result=fr)
    assert not trace.failed.any() and len(solves) == 201
    assert len(calls) / len(solves) <= 5.0


def test_minimize_smooth_solves_a_quadratic_in_two_passes():
    # one evaluation at the start and one at the exact Newton step, where
    # the gradient vanishes
    evals = [0]

    def quadratic(z):
        evals[0] += 1
        return float(z @ z), 2.0 * z, 2.0 * np.eye(z.size)

    z, f, n_iter, reason = minimize_smooth(quadratic, np.array([1.0, -2.0]))
    assert reason == "gradient" and n_iter == 1
    assert evals[0] == 2
    assert np.array_equal(z, [0.0, 0.0]) and f == 0.0


# ---------------------------------------------------------------------------
# analytic curvature
# ---------------------------------------------------------------------------

def _assert_hessian(H, H_fd, what):
    assert np.abs(H - H_fd).max() <= 1e-6 * np.abs(H_fd).max(), what


@pytest.fixture(scope="module")
def curvature_cases(all_models):
    rng = np.random.default_rng(21)
    cases = [(model, model.checked(data)) for model, data in all_models]
    for family, y in ((expfam_normal, rng.normal(1.0, 2.0, 80)),
                      (expfam_exponential, rng.exponential(2.0, 80)),
                      (expfam_gamma, rng.gamma(3.0, 0.5, 80)),
                      (expfam_beta, rng.beta(2.0, 3.0, 80))):
        model = family()
        cases.append((model, model.checked(y)))
    return cases


@pytest.mark.parametrize("gamma", [None, 1.2])
def test_analytic_hessians_equal_finite_differences(curvature_cases, gamma):
    for model, data in curvature_cases:
        rule = ScoreRule.log(model) if gamma is None else ScoreRule.tsallis(model, gamma)
        theta = model.default_start(data)
        what = (model.name, rule.label())
        # theta: the kernel's Hessian of the total score
        H = scoring._kernel(rule, data, theta, order=2)[2]
        _assert_hessian(H, scoring._fd_jacobian(
            lambda t: score_gradient(rule, data, t), theta), what + ("theta",))

        center, _ = model.obs_center_scale(data, theta, 0)
        frame = model.checked(model.contamination_frame([center + 0.3], data))
        objectives = [("free z", _Objective(rule, data), theta),
                      ("mixture z", _Objective(rule, data, mixture=(1e-4, frame)), theta)]
        if len(theta) > 1:
            # constrained off the free start, where NormalAUC's embedding
            # curvature meets a nonzero gradient
            psi = model.interest(theta) * 0.98
            lam = model.profile_extract(theta)
            objectives.append(("constrained z", _Objective(rule, data, psi), lam))
            objectives.append(("constrained mixture z",
                               _Objective(rule, data, psi, (1e-4, frame)), lam))
        for name, objective, x in objectives:
            z = _to_z(x, objective.positive)
            val, _, H_z = objective(z)
            assert np.isfinite(val), what + (name,)
            _assert_hessian(H_z, scoring._fd_jacobian(lambda v: objective(v)[1], z),
                            what + (name,))


def test_normal_auc_embedding_curvature(normal_auc_data):
    # the constrained Hessian needs the embedding's curvature, and the
    # closed form equals the generic finite-difference default
    model = NormalAUC()
    data = model.checked(normal_auc_data)
    rule = ScoreRule.tsallis(model, 1.2)
    theta = model.default_start(data)
    objective = _Objective(rule, data, model.interest(theta) * 0.98)
    lam = model.profile_extract(theta)
    _, _, H = objective.derivatives(lam)
    H_fd = scoring._fd_jacobian(lambda v: objective.derivatives(v)[1], lam)
    g_theta = objective.gradient(objective.theta(lam))
    curvature = model.profile_embed_hess(objective.psi, lam, g_theta)
    assert np.abs(H - curvature - H_fd).max() > 1e-3 * np.abs(H_fd).max()
    generic = ModelSpec.profile_embed_hess(model, objective.psi, lam, g_theta)
    assert np.allclose(generic, curvature, rtol=1e-6, atol=1e-8 * np.abs(curvature).max())
