import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

import robustcd
from robustcd.errors import DomainError
from robustcd.expfam import (
    ExpFamilyModel,
    expfam_beta,
    expfam_exponential,
    expfam_gamma,
    expfam_normal,
)
from robustcd.models import (
    ExponentialAUC,
    LinearRegression,
    ModelSpec,
    NormalAUC,
    TwoSampleNormal,
    _fd_jacobian,
    auc_from_normal,
    auc_from_rates,
    get_model,
    ndtr,
    ndtri,
    normal_pdf,
    tsallis_integral_exponential,
    tsallis_integral_normal,
)
from robustcd.scoring import (
    Fit,
    ScoreRule,
    estimate_KJ,
    fit,
    per_obs_gradient,
    score_gradient,
    score_terms,
    total_score,
)

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


def test_checked_data_do_not_follow_their_source():
    # A check holds a read-only copy, so an edit of the caller's array after
    # the check moves neither the checked data nor a fit on them, and a fit
    # on the edited array validates it again.
    rng = np.random.default_rng(5)
    y = rng.gamma(3.0, 1.0, 30)
    pair = (rng.normal(2.0, 1.0, 10), rng.normal(0.0, 1.0, 20))
    for model, source, edited, bad, message in [
            (expfam_gamma(), y, y, -1.0, "support of gamma"),
            (TwoSampleNormal(), pair, pair[0], np.inf, "non-finite")]:
        rule = ScoreRule.tsallis(model, 1.2)
        d = model.checked(source)
        before = fit(rule, d)
        edited[0] = bad
        after = fit(rule, d)
        assert np.array_equal(after.theta_hat, before.theta_hat)
        assert np.array_equal(after.V, before.V)
        assert after.score_at_opt == before.score_at_opt
        with pytest.raises(ValueError):
            d[0][0] = 0.0
        with pytest.raises(DomainError, match=message):
            fit(rule, source)


# ---------------------------------------------------------------------------
# the stack contract: one dataset or a stack, by the checked data's type
# ---------------------------------------------------------------------------

def _three_datasets(name):
    """(model, three datasets of one size) for a model by name."""
    rng = np.random.default_rng(23)
    if name == "regression":
        X = np.column_stack([np.ones(30), rng.standard_normal(30)])
        return LinearRegression(1), [(X @ [1.0, 0.5] + rng.normal(0.0, 1.0, 30), X)
                                     for _ in range(3)]
    if name == "expfam-gamma":
        return expfam_gamma(), list(rng.gamma(3.0, 0.5, (3, 40)))
    if name == "auc-exponential":
        return ExponentialAUC(), [(rng.gamma(2.0, 1.0, 12), rng.gamma(1.0, 1.5, 24))
                                  for _ in range(3)]
    return TwoSampleNormal(), [(rng.normal(2.0, 1.0, 12), rng.normal(1.0, 1.5, 24))
                               for _ in range(3)]


@pytest.mark.parametrize("name", ["two-sample-normal", "auc-exponential", "regression",
                                  "expfam-gamma"])
def test_the_stack_contract(name):
    # The kernel's functions, fit and estimate_KJ give, for row r of a stack
    # of three, exactly what dataset r gives alone; every function that
    # gives one result for one dataset rejects the stack with DomainError.
    from robustcd.confidence import build_cd, constrained_fit, profile
    from robustcd.robustness import (
        calibrate_gamma, efficiency_ratio, influence_function, taif,
        taif_contamination_oracle)
    model, datasets = _three_datasets(name)
    rule = ScoreRule.tsallis(model, 1.23)
    stack = model.stack(datasets)
    thetas = np.stack([model.default_start(model.checked(d)) for d in datasets])
    per_row = {"total_score": total_score, "score_terms": score_terms,
               "per_obs_gradient": per_obs_gradient, "score_gradient": score_gradient}
    fits = fit(rule, stack)
    K, J = estimate_KJ(rule, stack, thetas)
    for r, data in enumerate(datasets):
        for label, func in per_row.items():
            assert np.array_equal(func(rule, stack, thetas)[r], func(rule, data, thetas[r])), label
        K_r, J_r = estimate_KJ(rule, data, thetas[r])
        assert np.array_equal(K[r], K_r) and np.array_equal(J[r], J_r)
        alone = fit(rule, data)
        assert isinstance(alone, Fit) and np.array_equal(fits[r].theta_hat, alone.theta_hat)
        assert (fits[r].score_at_opt, fits[r].n_iter) == (alone.score_at_opt, alone.n_iter)
    fr = fits[0]
    psi, theta, ys = fr.psi_tilde, fr.theta_hat, np.array([0.5, 1.0])
    one_only = {
        "constrained_fit": lambda: constrained_fit(rule, stack, psi),
        "profile": lambda: profile(rule, stack, psi + np.array([-0.1, 0.0, 0.1]),
                                   fit_result=fr),
        "build_cd": lambda: build_cd(rule, stack, "wald", fit_result=fr),
        "taif": lambda: taif(rule, stack, "wald", psi, fit_result=fr),
        "taif_contamination_oracle": lambda: taif_contamination_oracle(
            rule, stack, "wald", psi, ys, fit_result=fr),
        "influence_function": lambda: influence_function(rule, stack, theta, ys),
        "calibrate_gamma": lambda: calibrate_gamma(model, theta, 0.9, stack),
        "efficiency_ratio": lambda: efficiency_ratio(model, 1.2, stack, theta),
    }
    for call in one_only.values():
        with pytest.raises(DomainError, match="stack"):
            call()


def test_column_vectors_are_one_dataset():
    # a column holds one dataset, whatever the sizes: its fit is one Fit,
    # bit for bit the fit of the raveled data
    rng = np.random.default_rng(29)
    x, y = rng.normal(2.0, 1.0, (5, 1)), rng.normal(0.0, 1.0, (5, 1))
    g = rng.gamma(3.0, 0.5, (40, 1))
    X = np.column_stack([np.ones(20), rng.standard_normal(20)])
    yr = X @ [1.0, 0.5] + rng.normal(0.0, 1.0, 20)
    for model, column, flat in ((TwoSampleNormal(), (x, y), (x.ravel(), y.ravel())),
                                (expfam_gamma(), g, g.ravel()),
                                (LinearRegression(1), (yr[:, None], X), (yr, X))):
        for rule in (ScoreRule.log(model), ScoreRule.tsallis(model, 1.23)):
            got, want = fit(rule, column), fit(rule, flat)
            assert isinstance(got, Fit), model.name
            assert np.array_equal(got.theta_hat, want.theta_hat), model.name
            assert np.array_equal(got.V, want.V) and got.score_at_opt == want.score_at_opt


def test_checked_data_are_this_models_own():
    # checked data pass through their own model unchanged; raw data, and
    # data another model checked, are validated, also when stacked
    m, other = ExponentialAUC(), TwoSampleNormal()
    bad = (np.array([0.5, -1.0, 2.0]), np.array([1.0, 2.0]))
    with pytest.raises(DomainError, match="nonnegative"):
        m.checked(bad)
    with pytest.raises(DomainError, match="nonnegative"):
        m.stack([bad, bad])
    foreign = other.checked(bad)
    with pytest.raises(DomainError, match="nonnegative"):
        m.checked(foreign)
    with pytest.raises(DomainError, match="nonnegative"):
        m.stack([foreign, foreign])
    with pytest.raises(DomainError, match="nonnegative"):
        fit(ScoreRule.log(m), foreign)
    good = other.checked((np.array([0.5, 1.0, 2.0]), np.array([1.0, 2.0])))
    mine = m.checked(good)
    assert mine is not good and mine.model is m and m.checked(mine) is mine
    assert all(np.array_equal(a, b) for a, b in zip(mine, good))
    stack = m.stack([mine, mine])
    assert m.checked(stack) is stack
    with pytest.raises(DomainError, match="stack"):
        m.one(stack)


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
        fd = _fd_jacobian(lambda v: model.profile_embed(np.full(len(v), psi), v), lam)
        assert np.allclose(jac, fd, rtol=0.0, atol=1e-8), model.name
        if isinstance(model, (LinearRegression, ExpFamilyModel)):
            # a coordinate interest: theta is lam with psi inserted
            eye = np.eye(lam.size + 1)
            assert np.array_equal(jac, np.delete(eye, model.interest_index, axis=1)), model.name


def _fd_columns(func, x, rel_step=1e-6):
    """The central-difference Jacobian as it was: two calls of ``func`` on
    one point per column."""
    cols = []
    for j in range(len(x)):
        h = rel_step * (1.0 + abs(x[j]))
        xp = x.copy(); xp[j] += h
        xm = x.copy(); xm[j] -= h
        cols.append((func(xp) - func(xm)) / (2 * h))
    return np.stack(cols, axis=-1)


def test_fd_jacobian_equals_the_per_column_loop(all_models):
    # one call on the stack of the 2 d shifted points gives, bit for bit,
    # the Jacobian of the column loop, for scalar, vector and matrix values
    from robustcd.confidence import _nu_at
    from robustcd.robustness import _wald_pivot_of_theta
    for model, data in all_models:
        data = model.checked(data)
        for rule in (ScoreRule.log(model), ScoreRule.tsallis(model, 1.23)):
            theta = fit(rule, data).theta_hat
            psi, lam = model.interest(theta), model.profile_extract(theta)
            stack = model.stack([data] * 2 * theta.size)
            cases = [
                (lambda t: _nu_at(rule, data, t), lambda t: _nu_at(rule, stack, t),
                 theta, 1e-6),
                (lambda t: _wald_pivot_of_theta(rule, data, t, 0.9 * psi),
                 lambda t: _wald_pivot_of_theta(rule, stack, t, 0.9 * psi), theta, 1e-5),
                (lambda v: model.profile_embed(psi, v),
                 lambda v: model.profile_embed(np.full(len(v), psi), v), lam, 1e-6),
                (lambda t: estimate_KJ(rule, data, t)[0],
                 lambda t: estimate_KJ(rule, stack, t)[0], theta, 1e-6),
            ]
            for i, (one, stacked, x, step) in enumerate(cases):
                assert np.array_equal(_fd_jacobian(stacked, x, rel_step=step),
                                      _fd_columns(one, x, rel_step=step)), (model.name, i)


def test_closed_forms_are_required():
    # a model that lacks one of its closed forms cannot be instantiated
    def stub(self, *args, **kwargs):
        raise AssertionError("not called")

    abstract = ModelSpec.__abstractmethods__
    required = ("tsallis_integral_obs", "d2logpdf_obs", "profile_embed_jac",
                "profile_embed_hess")
    assert set(required) <= abstract
    for missing in required:
        partial = type("Partial", (ModelSpec,), {m: stub for m in abstract if m != missing})
        with pytest.raises(TypeError, match=missing):
            partial()
    # the integral's derivatives come from _integral_parts, or from the
    # model's own tsallis_integral_grad_obs and tsallis_integral_hess
    model = type("NoParts", (ModelSpec,), {m: stub for m in abstract})()
    values = np.ones(3)
    for method in (model.tsallis_integral_grad_obs, model.tsallis_integral_hess):
        with pytest.raises(NotImplementedError, match="_integral_parts"):
            method(np.zeros(3), np.zeros(2), 1.5, values)


def test_import_leaves_scipy_stats_unloaded():
    src = os.path.dirname(os.path.dirname(robustcd.__file__))
    code = ("import sys, robustcd, robustcd.cli; "
            "print('scipy.stats' in sys.modules, 'scipy.integrate' in sys.modules, "
            "'scipy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True, timeout=120)
    assert out.stdout.strip() == "False False False"


def test_registry():
    assert get_model("two-sample-normal").name == "two-sample-normal"
    assert get_model("linear-regression", interest_index=2).interest_index == 2
    with pytest.raises(DomainError, match="expfam:<spec-file>"):
        get_model("no-such-model")
    with pytest.raises(DomainError):
        get_model("auc-normal", interest_index=1)
    # an option given as None counts as not given
    assert get_model("auc-normal", interest_index=None).name == "auc-normal"
    assert get_model("linear-regression", interest_index=None).interest_index == 1
    for index in (1.5, True, "1"):
        with pytest.raises(DomainError, match="interest_index must be an integer"):
            get_model("linear-regression", interest_index=index)
    with pytest.raises(DomainError, match="bogus"):
        get_model("linear-regression", interest_index=2, bogus=5)


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
        q = ndtri(psi)
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


def test_nuisance_positivity_masks(regression_data):
    # the nuisance's flags are those of the theta coordinates it keeps
    cases = [(TwoSampleNormal(), None, (False, True, True)),
             (NormalAUC(), None, (False, True, True)),
             (ExponentialAUC(), None, (True,))]
    for i in range(3):
        m = LinearRegression(interest_index=i)
        cases.append((m, regression_data,
                      tuple(np.delete(m.positive_mask(regression_data), i))))
    for make in (expfam_normal, expfam_exponential, expfam_gamma, expfam_beta):
        m = make()
        cases.append((m, None, (False,) * (m.family.s - 1)))
    for m, data, mask in cases:
        assert tuple(map(bool, m.lam_positive_mask(data))) == mask, m.name


def test_normal_density_and_auc_equal_scipy_stats():
    rng = np.random.default_rng(12)
    xs = np.concatenate([rng.normal(0.0, 3.0, 2500), rng.uniform(-40.0, 40.0, 2500)])
    assert np.array_equal(normal_pdf(xs), norm.pdf(xs))
    for x in xs[:500]:
        assert float(normal_pdf(x)) == float(norm.pdf(x))
        assert auc_from_normal(0.1, x, 0.4, 0.9) == float(ndtr((x - 0.1) / np.sqrt(0.4 + 0.9)))


def test_ndtr_is_accurate_to_mpmath():
    # relative error at most 1e-15 max(1, x^2): erfc's argument -x / sqrt 2
    # rounds, which costs about x^2 ulps far in the lower tail, scipy's too
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(31)
    xs = np.concatenate([np.linspace(-37.5, 8.5, 1001), rng.uniform(-37.5, 8.5, 1000)])
    got = ndtr(xs)
    with mpmath.workdps(50):
        for x, value in zip(xs.tolist(), got.tolist()):
            true = mpmath.ncdf(x)
            assert abs(value - true) / true <= 1e-15 * max(1.0, x * x), x


def test_ndtri_is_accurate_to_mpmath():
    # absolute error at most 2e-15 max(1, |x|) for p in (1e-300, 1 - 1e-16)
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(32)
    lower = 10.0 ** rng.uniform(-300.0, np.log10(0.5), 600)
    upper = 1.0 - 10.0 ** rng.uniform(-16.0, np.log10(0.5), 600)
    ps = np.concatenate([lower, upper, np.linspace(0.001, 0.999, 999)])
    got = ndtri(ps)
    with mpmath.workdps(50):
        for p, value in zip(ps.tolist(), got.tolist()):
            x = mpmath.mpf(value)
            for _ in range(4):      # Newton on ncdf(x) = p, from the double
                x -= (mpmath.ncdf(x) - p) / mpmath.npdf(x)
            assert abs(value - x) <= 2e-15 * max(1.0, abs(value)), p


def test_normal_cdf_and_quantile_edges_are_scipys_without_warnings():
    from scipy import special

    x = np.array([-np.inf, np.inf, np.nan, -40.0, 40.0, 0.0, -0.0])
    p = np.array([0.0, -0.0, 1.0, np.nan, -0.5, 1.5, np.inf, -np.inf, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(ndtr(x), special.ndtr(x), equal_nan=True)
        assert np.array_equal(ndtri(p), special.ndtri(p), equal_nan=True)
        assert ndtr(-np.inf) == 0.0 and ndtr(np.inf) == 1.0
        assert ndtri(0.0) == -np.inf and ndtri(1.0) == np.inf
        assert np.isnan(ndtr(np.nan)) and np.isnan(ndtri(np.nan)) and np.isnan(ndtri(2.0))
    # a scalar gives a float64, an array keeps its shape
    for f in (ndtr, ndtri):
        assert type(f(0.25)) is np.float64 and type(f(np.array(0.25))) is np.float64
        assert f(np.full((2, 3), 0.25)).shape == (2, 3) and f(np.zeros(0)).shape == (0,)
        assert f([0.25, 0.5]).dtype == np.float64
