"""Acceptance suite: one test (or clause) per shipping criterion.

Each criterion prints a single PASS/FAIL line with its headline numbers so
the suite output doubles as a run report. Monte-Carlo studies run at
desk scale (2000 replicates unless stated) with frozen seeds.
"""

import time

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from robustcd.confidence import build_cd, ci, p_value, profile
from robustcd.models import (
    LinearRegression,
    TwoSampleNormal,
    auc_from_rates,
    get_model,
    tsallis_integral_exponential,
    tsallis_integral_normal,
)
from robustcd.robustness import calibrate_gamma, taif, taif_contamination_oracle
from robustcd.scoring import (
    ScoreRule,
    empirical_J,
    empirical_K,
    fit,
    interest_information,
    score_gradient,
    total_score,
)
from robustcd.simulate import (
    _point_pivots,
    Contamination,
    H0Spec,
    MethodSpec,
    SimDesign,
    contaminate,
    default_regression_design,
    pvalue_uniformity,
    run_study,
)

from oracles import fd_gradient, power_integral_quadrature, profile_likelihood_cd


def report(name, ok, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


# ---------------------------------------------------------------------------
# 1. log-score degeneracy against an independent profile-likelihood CD
# ---------------------------------------------------------------------------

def test_criterion_1_log_score_degeneracy():
    t0 = time.time()
    cases = []
    rng = np.random.default_rng(1001)
    cases.append(("two-sample-normal", TwoSampleNormal(),
                  (rng.normal(2, 1, 50), rng.normal(0, 1.2, 70)), {}))
    rng = np.random.default_rng(1002)
    cases.append(("auc-exponential", get_model("auc-exponential"),
                  (rng.exponential(1 / 3.7778, 60), rng.exponential(1.5, 90)), {}))
    rng = np.random.default_rng(1003)
    n = 120
    X = np.column_stack([np.ones(n), rng.standard_normal(n), rng.uniform(size=n)])
    yr = X @ np.array([1.0, 1.0, -0.5]) + rng.normal(0, 1, n)
    cases.append(("linear-regression", get_model("linear-regression", interest_index=1),
                  (yr, X), {"interest_index": 1}))

    worst_dc, worst_nu = 0.0, 0.0
    for name, model, data, opts in cases:
        rule = ScoreRule.log(model)
        fr = fit(rule, data)
        cd = build_cd(rule, data, "root", fit_result=fr, n_grid=81)
        oracle_cdf, _ = profile_likelihood_cd(name, data, cd.psi_grid, **opts)
        dc = float(np.max(np.abs(cd.cdf_values - oracle_cdf)))
        tr = profile(rule, data, cd.psi_grid, fit_result=fr)
        dnu = float(np.max(np.abs(tr.nu - 1.0)))
        worst_dc, worst_nu = max(worst_dc, dc), max(worst_nu, dnu)
        assert dc <= 1e-3, (name, dc)
        assert dnu <= 0.05, (name, dnu)
    elapsed = time.time() - t0
    ok = worst_dc <= 1e-3 and worst_nu <= 0.05 and elapsed < 60
    assert report("1 log-score degeneracy", ok,
                  f"max|dC|={worst_dc:.2e}, max|nu-1|={worst_nu:.2e}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 2. two-sample normal coverage study
# ---------------------------------------------------------------------------

# +-10 x MC-SE band per the desk-scale convention: sqrt(.95*.05/2000)=0.0049
COVERAGE_BAND_95 = 0.049


@pytest.fixture(scope="module")
def two_sample_studies():
    t0 = time.time()
    base = dict(
        model="two-sample-normal", theta=(2.0, 0.0, 1.0, 1.0), sizes=(10, 20),
        n_reps=2000, seed=20250801,
        methods=(MethodSpec("tsallis", "root", None), MethodSpec("log", "root")),
        levels=(0.95,), h0=H0Spec(2.0, "less"),
    )
    clean = run_study(SimDesign(**base))
    cont = run_study(SimDesign(**dict(base, contamination=Contamination(0, -1, -7.0))))
    return clean, cont, time.time() - t0


def _method_label(report_, prefix):
    return next(k for k in report_.results if k.startswith(prefix))


@pytest.mark.slow
def test_criterion_2a_clean_coverage(two_sample_studies):
    clean, _, elapsed = two_sample_studies
    lab = _method_label(clean, "tsallis")
    cov, _mcse = clean.results[lab].coverage()[0.95]
    ok = abs(cov - 0.95) <= COVERAGE_BAND_95 and elapsed < 600
    assert report("2a clean robust coverage", ok,
                  f"coverage={cov:.4f} in 0.95+-{COVERAGE_BAND_95}, study time {elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_2c_clean_pvalue_uniformity(two_sample_studies):
    # the clean-data robust root CD's p-values for H0: psi=2 vs psi<2 are
    # uniform: KS below the 1% critical value
    clean, _, _ = two_sample_studies
    lab = _method_label(clean, "tsallis")
    ks, _qq = pvalue_uniformity(clean, lab)
    crit = 1.63 / np.sqrt(clean.results[lab].n_used)
    ok = ks < crit
    assert report("2c clean p-value uniformity", ok, f"KS={ks:.4f} < {crit:.4f}")


@pytest.mark.slow
def test_criterion_2b_contaminated_coverage_ordering(two_sample_studies):
    # Under the -7 shift the robust root CD's 95% intervals are the more
    # accurate ones: nearer nominal, and moved less from their clean coverage.
    # Accuracy is judged by distance from 0.95, not by robust coverage above
    # log coverage. The shift biases the log-score estimate by -7/10 while its
    # sampling sd stays sqrt(1/10 + 1/20) = 0.39, but the outlier also adds
    # about 49*0.1*0.9 = 4.4 to sample 1's variance estimate. The 95% half-width
    # grows to about 1.96*sqrt(5.4/10 + 1/20) = 1.5, so the log CD covers with
    # probability P(|N(-0.7, 0.39^2)| <= 1.5) = 0.98: it over-covers. In
    # criterion 3 the exponential model has no variance parameter to absorb the
    # outlier, so the bias is not met by wider intervals and the log CD
    # under-covers; there robust coverage above log coverage is the right check.
    clean, cont, _ = two_sample_studies
    lab_t = _method_label(cont, "tsallis")
    parts, cov = [], {}
    for name, lab in (("robust", lab_t), ("log", "log-root")):
        r_clean, r_cont = clean.results[lab], cont.results[lab]
        (c_clean, se_clean), (c_cont, se_cont) = (
            r_clean.coverage()[0.95], r_cont.coverage()[0.95])
        bias = float(np.mean(r_cont.medians)) - cont.psi_true
        cov[name] = (c_clean, c_cont)
        parts.append(f"{name}: clean={c_clean:.4f}+-{se_clean:.4f} (n={r_clean.n_used}), "
                     f"contaminated={c_cont:.4f}+-{se_cont:.4f} (n={r_cont.n_used}), "
                     f"centre bias={bias:+.3f}")
    dev_t, dev_l = (abs(cov[m][1] - 0.95) for m in ("robust", "log"))
    move_t, move_l = (abs(cov[m][1] - cov[m][0]) for m in ("robust", "log"))
    ok = dev_t < dev_l and move_t < move_l and dev_t <= COVERAGE_BAND_95
    assert report("2b contaminated coverage ordering", ok,
                  "; ".join(parts) + f"; |robust-0.95|={dev_t:.4f} < |log-0.95|={dev_l:.4f}; "
                  f"|robust-clean|={move_t:.4f} < |log-clean|={move_l:.4f}; "
                  f"robust in 0.95+-{COVERAGE_BAND_95}")


@pytest.mark.slow
def test_criterion_2_stacked_replicates_equal_single_dataset_fits(two_sample_studies):
    # The study solves its replicates as stacks. Replicates 0-29, and 622 and
    # 1671 (whose free Tsallis fit takes the undercut refit), fitted alone
    # give the study's p-value (the root pivot at psi = 2, Phi(-pivot)) and
    # median to 1e-8, and the same 95% coverage decision.
    clean, cont, _ = two_sample_studies
    model = TwoSampleNormal()
    theta = np.array([2.0, 0.0, 1.0, 1.0])
    gamma = calibrate_gamma(model, theta, 0.90,
                            model.sample(theta, (10, 20), np.random.default_rng(0)))
    z = float(ndtri(0.975))
    for report, shift in ((clean, 0.0), (cont, -7.0)):
        for label, rule in ((_method_label(report, "tsallis"), ScoreRule.tsallis(model, gamma)),
                            ("log-root", ScoreRule.log(model))):
            res = report.results[label]
            assert res.n_failed == 0
            for rep in list(range(30)) + [622, 1671]:
                data = model.sample(theta, (10, 20), np.random.default_rng([20250801, rep]))
                data = contaminate(model, data, Contamination(0, -1, shift))
                pivots, psi_hat, _, _ = _point_pivots(
                    rule, fit(rule, model.stack([data])), [2.0], "root")
                piv = pivots[0, 0]
                assert abs(float(ndtr(-piv)) - res.pvalues[rep]) <= 1e-8
                assert abs(psi_hat[0] - res.medians[rep]) <= 1e-8
                if abs(abs(piv) - z) > 1e-8:
                    assert (abs(piv) <= z) == (abs(float(ndtri(res.pvalues[rep]))) <= z)


# ---------------------------------------------------------------------------
# 3. AUC study
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_3_auc_study():
    t0 = time.time()
    lam2 = 2.0 / 3.0
    lam1 = 0.85 * lam2 / 0.15
    assert auc_from_rates(lam1, lam2) == pytest.approx(0.85, abs=1e-14)
    assert auc_from_rates(3.7778, lam2) == pytest.approx(0.85, abs=5e-5)

    design = SimDesign(
        model="auc-exponential", theta=(lam1, lam2), sizes=(20, 40),
        n_reps=2000, seed=20250803,
        methods=(MethodSpec("tsallis", "root", None), MethodSpec("log", "root")),
        levels=(0.95,), h0=H0Spec(0.85, "less"),
        contamination=Contamination(0, -1, 3.0),
    )
    rep = run_study(design)
    lab_t = _method_label(rep, "tsallis")
    ks_t, _ = pvalue_uniformity(rep, lab_t)
    ks_l, _ = pvalue_uniformity(rep, "log-root")
    # with no variance nuisance to inflate, contamination costs the log-score
    # intervals coverage outright; the robust intervals hold up
    cov_t, _ = rep.results[lab_t].coverage()[0.95]
    cov_l, _ = rep.results["log-root"].coverage()[0.95]
    elapsed = time.time() - t0
    ok = ks_t < ks_l and cov_t > cov_l and elapsed < 600
    assert report("3 AUC contaminated study", ok,
                  f"KS robust={ks_t:.4f} < KS log={ks_l:.4f}; coverage robust="
                  f"{cov_t:.3f} > log={cov_l:.3f}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 4. gamma calibration
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_4_gamma_calibration():
    t0 = time.time()
    n = 500
    X = default_regression_design(n, 123)
    model = LinearRegression(interest_index=1)
    beta_true = np.array([1.0, 0.0, 1.0])
    theta_true = np.concatenate([beta_true, [1.0]])
    template = model.sample(theta_true, (n,), np.random.default_rng(0), design=X)
    gamma = calibrate_gamma(model, theta_true, 0.90, template)
    in_band = 1.15 <= gamma <= 1.30

    # Monte-Carlo efficiency at the returned gamma over 5000 replicates
    B = 5000
    rule_t = ScoreRule.tsallis(model, gamma)
    pinv = np.linalg.pinv(X)
    est_mle = np.empty((B, 4))
    ys = np.empty((B, n))
    for b in range(B):
        rng = np.random.default_rng([777, b])
        y = X @ beta_true + rng.normal(0, 1, n)
        beta_hat = pinv @ y
        resid = y - X @ beta_hat
        est_mle[b] = np.concatenate([beta_hat, [resid @ resid / n]])
        ys[b] = y
    # fitted as one stack of replicates, each row as it fits alone
    est_rob = fit(rule_t, model.stack([(y, X) for y in ys]), theta0=est_mle).theta_hat
    are_mc = float(np.min(est_mle.var(axis=0) / est_rob.var(axis=0)))
    elapsed = time.time() - t0
    ok = in_band and abs(are_mc - 0.90) <= 0.02 and elapsed < 300
    assert report("4 gamma calibration", ok,
                  f"gamma={gamma:.4f} in [1.15,1.30], MC efficiency={are_mc:.4f} "
                  f"in 0.90+-0.02, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 5. TAIF boundedness dichotomy and oracle agreement
# ---------------------------------------------------------------------------

def test_criterion_5_taif_dichotomy():
    t0 = time.time()
    rng = np.random.default_rng(505)
    data = (rng.normal(2, 1, 12), rng.normal(0, 1, 24))
    m = TwoSampleNormal()
    rule_t = ScoreRule.tsallis(m, 1.23)
    rule_l = ScoreRule.log(m)
    fr_t, fr_l = fit(rule_t, data), fit(rule_l, data)
    prof_t = taif(rule_t, data, "wald", 2.0, fit_result=fr_t)
    prof_l = taif(rule_l, data, "wald", 2.0, fit_result=fr_l)
    dichotomy = prof_t.bounded_verdict and not prof_l.bounded_verdict

    worst = 0.0
    ys = np.array([0.4, 1.2, 2.6, 3.5])
    for rule, fr in ((rule_t, fr_t), (rule_l, fr_l)):
        for pivot in ("wald", "root"):
            chain = taif(rule, data, pivot, 2.0, y_grid=ys, fit_result=fr).taif_values
            oracle = taif_contamination_oracle(rule, data, pivot, 2.0, ys, fit_result=fr)
            rel = np.abs(chain - oracle) / np.maximum(np.abs(oracle), 1e-10)
            worst = max(worst, float(np.max(rel)))
    elapsed = time.time() - t0
    ok = dichotomy and worst < 0.05 and elapsed < 120
    assert report("5 TAIF dichotomy + oracle", ok,
                  f"tsallis bounded={prof_t.bounded_verdict}, "
                  f"log bounded={prof_l.bounded_verdict}, "
                  f"max chain-vs-oracle rel err={worst:.4f}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 6. property suite
# ---------------------------------------------------------------------------

def test_criterion_6_property_suite():
    t0 = time.time()
    failures = []

    # gradient / finite-difference consistency
    rng = np.random.default_rng(606)
    data_ts = (rng.normal(2, 1, 30), rng.normal(0, 1.3, 40))
    m = TwoSampleNormal()
    for rule in (ScoreRule.log(m), ScoreRule.tsallis(m, 1.4)):
        theta = m.default_start(data_ts) * 1.05
        g = score_gradient(rule, data_ts, theta)
        g_fd = fd_gradient(lambda t: total_score(rule, data_ts, t), theta, step=1e-5)
        if not np.allclose(g, g_fd, rtol=1e-4, atol=1e-7):
            failures.append("gradient-fd")

    # closed-form power integrals vs quadrature
    for var, gamma in ((0.7, 1.3), (1.5, 2.0)):
        pdf = lambda t: np.exp(-t * t / (2 * var)) / np.sqrt(2 * np.pi * var)
        if abs(tsallis_integral_normal(0, var, gamma)
               - power_integral_quadrature(pdf, -np.inf, np.inf, gamma)) > 1e-8:
            failures.append("integral-normal")
    for rate, gamma in ((0.5, 1.5), (3.7778, 2.2)):
        pdf = lambda t: rate * np.exp(-rate * t)
        if abs(tsallis_integral_exponential(rate, gamma)
               - power_integral_quadrature(pdf, 0, np.inf, gamma)) > 1e-8:
            failures.append("integral-exponential")

    # regression analytic vs empirical K and J at n=500
    n = 500
    X = default_regression_design(n, 42)
    mr = LinearRegression(interest_index=1)
    yr = X @ np.array([1.0, 1.0, 0.0]) + np.random.default_rng(43).normal(0, 1, n)
    rule_r = ScoreRule.tsallis(mr, 1.22)
    fr = fit(rule_r, (yr, X))
    K_a, _ = mr.expected_kj(rule_r.kind, rule_r.gamma, (yr, X), fr.theta_hat)
    K_e = empirical_K(rule_r, (yr, X), fr.theta_hat)
    if np.linalg.norm(K_a - K_e) / np.linalg.norm(K_a) > 0.05:
        failures.append("regression-KJ")

    # CD identities, interval nesting, p-value complementarity
    rule = ScoreRule.tsallis(m, 1.23)
    cd = build_cd(rule, data_ts, "root", n_grid=81)
    if not np.all(np.diff(cd.cdf_values) >= -1e-15):
        failures.append("cd-monotone")
    if np.max(np.abs(cd.cc_values - np.abs(1 - 2 * cd.cdf_values))) > 1e-12:
        failures.append("cc-identity")
    iv50, iv95 = ci(cd, 0.5), ci(cd, 0.95)
    if not (iv95.lo < iv50.lo < iv50.hi < iv95.hi):
        failures.append("ci-nesting")
    for psi0 in (1.7, 2.2):
        if abs(p_value(cd, psi0, "less") + p_value(cd, psi0, "greater") - 1) > 1e-12:
            failures.append("p-complement")

    elapsed = time.time() - t0
    ok = not failures and elapsed < 120
    assert report("6 property suite", ok,
                  f"failures={failures or 'none'}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 7. qualitative case-study pattern with planted outliers
# ---------------------------------------------------------------------------

def make_outlier_regression(seed=4, n=30, beta3=-3.0, n_out=3, out_shift=32.0):
    """GFR-style synthetic dataset: a real negative age effect masked for
    least squares by a few high-leverage, high-response subjects."""
    rng = np.random.default_rng(seed)
    inv_marker = rng.uniform(0.4, 2.0, n)
    age = rng.uniform(25.0, 80.0, n)
    X = np.column_stack([np.ones(n), inv_marker, age / 10.0])
    y = X @ np.array([30.0, 25.0, beta3]) + rng.normal(0.0, 5.0, n)
    y[np.argsort(age)[-n_out:]] += out_shift
    return y, X


def test_criterion_7_planted_outlier_pattern():
    data = make_outlier_regression()
    model = LinearRegression(interest_index=2)

    def p_at_zero(rule):
        fr = fit(rule, data)
        _, g_pp = interest_information(fr.K, fr.J,
                                       model.interest_grad(fr.theta_hat))
        span = max(6.0, abs(fr.psi_tilde) / np.sqrt(g_pp) + 2.0)
        cd = build_cd(rule, data, "root", fit_result=fr, span=span)
        return p_value(cd, 0.0, "two_sided")

    p_rob = p_at_zero(ScoreRule.tsallis(model, 1.22))
    p_log = p_at_zero(ScoreRule.log(model))
    ok = p_rob < 0.05 < p_log
    assert report("7 planted-outlier direction", ok,
                  f"robust p={p_rob:.4f} < 0.05 < log p={p_log:.4f}")
