import numpy as np
import pytest
from scipy.optimize import isotonic_regression
from scipy.special import ndtr, ndtri

from robustcd.confidence import (
    ConfidenceObject,
    build_cd,
    ci,
    constrained_fit,
    default_grid,
    evidence,
    p_value,
    pivot_root,
    pivot_wald,
    profile,
)
from robustcd.errors import DomainError
from robustcd.models import ExponentialAUC, TwoSampleNormal
from robustcd.scoring import ScoreRule, fit, interest_information
from robustcd.simulate import H0Spec, MethodSpec, SimDesign, run_study

from oracles import (
    nll_two_sample_normal,
    profile_likelihood_cd,
    wald_pivot_profile_information,
    _profile_nll_two_sample,
)


@pytest.fixture(scope="module")
def ts_fits(two_sample_data):
    m = TwoSampleNormal()
    rules = {"log": ScoreRule.log(m), "tsallis": ScoreRule.tsallis(m, 1.23)}
    return {k: fit(r, two_sample_data) for k, r in rules.items()}


# ---------------------------------------------------------------------------
# profile
# ---------------------------------------------------------------------------

def test_constrained_fit_does_not_stall(monkeypatch):
    # A Tsallis constrained fit whose Newton polish once spent 656 objective
    # evaluations accepting steps that left f unchanged at round-off. The
    # stalled answer agrees with the optimum to 1e-9.
    import robustcd.confidence as conf

    model = ExponentialAUC()
    lam2 = 2.0 / 3.0
    data = model.sample((0.85 * lam2 / 0.15, lam2), (20, 40), np.random.default_rng([1, 8]))
    evals, reasons = [0], []
    solve = conf.minimize_smooth

    def counted(fun_grad, z0, **kw):
        def fg(z):
            evals[0] += 1
            return fun_grad(z)
        out = solve(fg, z0, **kw)
        reasons.append(out[3])
        return out

    monkeypatch.setattr(conf, "minimize_smooth", counted)
    theta, _, _, converged = constrained_fit(ScoreRule.tsallis(model, 1.2), data, 0.8)
    assert converged
    assert evals[0] <= 40
    assert reasons == ["gradient"]
    assert np.allclose(theta, [2.56056006545055, 0.6401400163626374], rtol=1e-9, atol=0)


def test_profile_passes_through_optimum(two_sample_data, ts_fits):
    fr = ts_fits["tsallis"]
    m = fr.rule.model
    psi_t = m.interest(fr.theta_hat)
    grid = np.array([psi_t - 0.5, psi_t, psi_t + 0.5])
    tr = profile(fr.rule, two_sample_data, grid, fit_result=fr)
    assert np.allclose(tr.lam_hat[1], m.profile_extract(fr.theta_hat), atol=1e-6)
    assert tr.score_profile[1] == pytest.approx(fr.score_at_opt, abs=1e-9)
    assert np.argmin(tr.score_profile) == 1


def test_profile_nuisance_matches_grid_search_oracle(two_sample_data):
    m = TwoSampleNormal()
    rule = ScoreRule.log(m)
    fr = fit(rule, two_sample_data)
    psi = 1.4
    _, _, lam, conv = constrained_fit(rule, two_sample_data, psi,
                                      lam0=m.profile_extract(fr.theta_hat))
    assert conv
    # independent 1-D zoomed grid search over mu_y with closed-form variances
    x, y = two_sample_data

    def nll_of_my(my):
        vx = np.mean((x - psi - my) ** 2)
        vy = np.mean((y - my) ** 2)
        return nll_two_sample_normal(two_sample_data, (psi + my, my, vx, vy))

    lo, hi = lam[0] - 0.5, lam[0] + 0.5
    for _ in range(6):
        grid = np.linspace(lo, hi, 41)
        vals = [nll_of_my(g) for g in grid]
        i = int(np.argmin(vals))
        lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, 40)]
    my_star = 0.5 * (lo + hi)
    vx_star = np.mean((x - psi - my_star) ** 2)
    vy_star = np.mean((y - my_star) ** 2)
    assert lam[0] == pytest.approx(my_star, abs=1e-4)
    assert lam[1] == pytest.approx(vx_star, abs=1e-4)
    assert lam[2] == pytest.approx(vy_star, abs=1e-4)


def test_profile_nu_is_one_under_log_score(two_sample_data, ts_fits):
    fr = ts_fits["log"]
    grid = default_grid(fr.psi_tilde, np.sqrt(fr.V[0, 0] + fr.V[1, 1]),
                        (-np.inf, np.inf), n_points=41)
    tr = profile(fr.rule, two_sample_data, grid, fit_result=fr)
    assert np.all(np.abs(tr.nu - 1.0) <= 0.05)
    assert np.all(tr.nu > 0)


def test_profile_flags_degenerate_grid_points(exp_auc_data):
    m = ExponentialAUC()
    rule = ScoreRule.tsallis(m, 1.2)
    fr = fit(rule, exp_auc_data)
    psi_t = m.interest(fr.theta_hat)
    grid = np.sort(np.concatenate([np.linspace(psi_t - 0.1, psi_t + 0.05, 11),
                                   [1.0 - 1e-12]]))
    with pytest.warns(UserWarning, match="interpolating"):
        tr = profile(rule, exp_auc_data, grid, fit_result=fr)
    assert tr.failed.any()
    assert np.all(np.isfinite(tr.score_profile))


# ---------------------------------------------------------------------------
# pivots
# ---------------------------------------------------------------------------

def test_wald_pivot_shape(ts_fits):
    fr = ts_fits["tsallis"]
    psi_t = fr.psi_tilde
    assert pivot_wald(fr, psi_t) == pytest.approx(0.0, abs=1e-12)
    _, g_pp = interest_information(fr.K, fr.J, fr.rule.model.interest_grad(fr.theta_hat))
    se = np.sqrt(g_pp)
    for delta in (0.2, -0.7, 1.3):
        assert pivot_wald(fr, psi_t + delta) == pytest.approx(-delta / se, rel=1e-12)


def test_wald_pivot_matches_profile_information_oracle():
    rng = np.random.default_rng(21)
    data = (rng.normal(2, 1, 100), rng.normal(0, 1.3, 100))
    m = TwoSampleNormal()
    fr = fit(ScoreRule.log(m), data)
    psi_t = fr.psi_tilde
    prof = lambda p: _profile_nll_two_sample(data, p)
    for psi in (psi_t - 0.3, psi_t + 0.25):
        want = wald_pivot_profile_information(prof, psi_t, psi)
        got = pivot_wald(fr, psi)
        assert got == pytest.approx(want, rel=0.02)


def test_root_pivot_properties(two_sample_data, ts_fits):
    fr = ts_fits["tsallis"]
    psi_t = fr.psi_tilde
    grid = np.linspace(psi_t - 1.2, psi_t + 1.2, 41)
    tr = profile(fr.rule, two_sample_data, grid, fit_result=fr)
    r_at_opt = pivot_root(tr, fr, psi_t)
    assert r_at_opt == pytest.approx(0.0, abs=1e-4)
    vals = np.array([pivot_root(tr, fr, p) for p in grid[::4]])
    assert np.all(np.diff(vals) < 0)
    with pytest.raises(DomainError):
        pivot_root(tr, fr, grid[-1] + 1.0)


def test_root_pivot_rejects_profile_below_optimum(two_sample_data, ts_fits):
    import dataclasses
    from robustcd.errors import NumericsError

    fr = ts_fits["tsallis"]
    psi_t = fr.psi_tilde
    grid = np.linspace(psi_t - 1.0, psi_t + 1.0, 11)
    tr = profile(fr.rule, two_sample_data, grid, fit_result=fr)
    # a fake non-optimal "fit" makes the profile dip below the optimum
    fake = dataclasses.replace(fr, score_at_opt=fr.score_at_opt + 5.0)
    with pytest.raises(NumericsError, match="optimum"):
        pivot_root(tr, fake, psi_t + 0.5)


def test_build_cd_warns_on_irregular_profile(two_sample_data, ts_fits, monkeypatch):
    import robustcd.confidence as conf

    fr = ts_fits["log"]
    rng = np.random.default_rng(0)

    def noisy_wald(fit_result, psi):
        vals = conf_pivot_orig(fit_result, psi)
        return vals + rng.normal(0, 0.5, np.shape(vals))

    conf_pivot_orig = conf.pivot_wald
    monkeypatch.setattr(conf, "pivot_wald", noisy_wald)
    with pytest.warns(UserWarning, match="repair"):
        cd = conf.build_cd(fr.rule, two_sample_data, "wald", fit_result=fr)
    assert cd.n_repaired > 0.10 * cd.psi_grid.size
    assert np.all(np.diff(cd.cdf_values) >= -1e-15)


def test_root_pivot_matches_likelihood_root_oracle(two_sample_data):
    m = TwoSampleNormal()
    rule = ScoreRule.log(m)
    fr = fit(rule, two_sample_data)
    cd = build_cd(rule, two_sample_data, "root", fit_result=fr, n_grid=61)
    oracle_cdf, _ = profile_likelihood_cd("two-sample-normal", two_sample_data,
                                          cd.psi_grid)
    assert np.max(np.abs(cd.cdf_values - oracle_cdf)) < 1e-3


# ---------------------------------------------------------------------------
# CD construction and identities
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["wald", "root"])
@pytest.mark.parametrize("rule_key", ["log", "tsallis"])
def test_cd_identities(two_sample_data, ts_fits, kind, rule_key):
    fr = ts_fits[rule_key]
    cd = build_cd(fr.rule, two_sample_data, kind, fit_result=fr, n_grid=101)
    assert cd.cdf_at(cd.psi_tilde) == pytest.approx(0.5, abs=1e-2)
    assert np.all(np.abs(cd.cc_values - np.abs(1 - 2 * cd.cdf_values)) < 1e-12)
    assert np.all(np.diff(cd.cdf_values) >= -1e-15)
    assert np.all((cd.cdf_values >= 0) & (cd.cdf_values <= 1))
    # pivot orientation: at most 10% of points needed repair
    assert cd.n_repaired <= 0.10 * cd.psi_grid.size


def test_wald_cd_symmetry(two_sample_data, ts_fits):
    fr = ts_fits["log"]
    cd = build_cd(fr.rule, two_sample_data, "wald", fit_result=fr)
    for delta in (0.1, 0.4, 1.0):
        s = cd.cdf_at(cd.psi_tilde + delta) + cd.cdf_at(cd.psi_tilde - delta)
        assert s == pytest.approx(1.0, abs=1e-12)


def test_root_cd_reflects_asymmetry_on_auc(exp_auc_data):
    m = ExponentialAUC()
    rule = ScoreRule.tsallis(m, 1.2)
    cd_root = build_cd(rule, exp_auc_data, "root")
    cd_wald = build_cd(rule, exp_auc_data, "wald")
    iv_r = ci(cd_root, 0.95)
    lo_half = cd_root.psi_tilde - iv_r.lo
    hi_half = iv_r.hi - cd_root.psi_tilde
    assert abs(lo_half - hi_half) > 0.005
    # the Wald interval is symmetric on the logit scale, exactly
    iv_w = ci(cd_wald, 0.95)
    logit = lambda p: np.log(p / (1 - p))
    assert (logit(cd_wald.psi_tilde) - logit(iv_w.lo)) == pytest.approx(
        logit(iv_w.hi) - logit(cd_wald.psi_tilde), rel=1e-9)


def test_ci_contracts(two_sample_data, ts_fits):
    fr = ts_fits["tsallis"]
    cd = build_cd(fr.rule, two_sample_data, "root", fit_result=fr)
    iv = ci(cd, 0.9)
    assert cd.cdf_at(iv.lo) == pytest.approx(0.05, abs=1e-3)
    assert cd.cdf_at(iv.hi) == pytest.approx(0.95, abs=1e-3)
    # nesting
    iv50 = ci(cd, 0.5)
    iv95 = ci(cd, 0.95)
    assert iv95.lo < iv50.lo < iv50.hi < iv95.hi

    cdw = build_cd(fr.rule, two_sample_data, "wald", fit_result=fr)
    z = ndtri(0.975)
    ivw = ci(cdw, 0.95)
    assert ivw.lo == pytest.approx(cdw.psi_tilde - z * cdw.se, rel=1e-12)
    assert ivw.hi == pytest.approx(cdw.psi_tilde + z * cdw.se, rel=1e-12)
    with pytest.raises(DomainError):
        ci(cd, 1.5)


def test_ci_open_ended_flag(two_sample_data, ts_fits):
    fr = ts_fits["tsallis"]
    psi_t = fr.psi_tilde
    narrow = np.linspace(psi_t - 0.15, psi_t + 0.15, 31)
    cd = build_cd(fr.rule, two_sample_data, "root", psi_grid=narrow, fit_result=fr)
    with pytest.warns(UserWarning, match="hull"):
        iv = ci(cd, 0.999)
    assert iv.lo_open and iv.hi_open
    assert iv.lo == narrow[0] and iv.hi == narrow[-1]


def test_p_values(two_sample_data, ts_fits):
    fr = ts_fits["log"]
    cd = build_cd(fr.rule, two_sample_data, "root", fit_result=fr)
    assert p_value(cd, cd.psi_tilde, "two_sided") == pytest.approx(1.0, abs=1e-3)
    for psi0 in (1.5, 2.0, 2.3):
        less = p_value(cd, psi0, "less")
        greater = p_value(cd, psi0, "greater")
        assert less + greater == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(DomainError):
        p_value(cd, cd.psi_tilde, "weird")
    with pytest.raises(DomainError):
        p_value(cd, cd.psi_grid[-1] + 1.0)


def test_evidence(two_sample_data, ts_fits):
    fr = ts_fits["log"]
    cd = build_cd(fr.rule, two_sample_data, "root", fit_result=fr)
    lo, hi = cd.psi_grid[0], cd.psi_grid[-1]
    assert evidence(cd, lo, hi) == pytest.approx(1.0, abs=2e-3)
    a, b, c = cd.psi_tilde - 0.4, cd.psi_tilde + 0.1, cd.psi_tilde + 0.6
    assert evidence(cd, a, c) == pytest.approx(
        evidence(cd, a, b) + evidence(cd, b, c), abs=1e-12)
    deltas = [0.1, 0.3, 0.6]
    ev = [evidence(cd, cd.psi_tilde - d, cd.psi_tilde + d) for d in deltas]
    assert 0 < ev[0] < ev[1] < ev[2]
    with pytest.raises(DomainError):
        evidence(cd, 2.0, 1.0)


def test_serialization_roundtrip(two_sample_data, ts_fits, tmp_path):
    fr = ts_fits["tsallis"]
    cd = build_cd(fr.rule, two_sample_data, "root", fit_result=fr)
    path = tmp_path / "cd.json"
    cd.save(str(path), levels=(0.5, 0.95))
    cd2 = ConfidenceObject.load(str(path))
    for level in (0.5, 0.95):
        iv1, iv2 = ci(cd, level), ci(cd2, level)
        assert iv1.lo == iv2.lo and iv1.hi == iv2.hi
    for psi0 in (1.8, 2.1):
        for alt in ("less", "greater", "two_sided"):
            assert p_value(cd, psi0, alt) == p_value(cd2, psi0, alt)
    import json
    doc = json.loads(path.read_text())
    iv = ci(cd2, 0.95)
    assert doc["ci"]["0.95"] == [iv.lo, iv.hi]


def _repair(y):
    # the monotonicity repair build_cd applies to the clipped raw pivot
    return isotonic_regression(y, increasing=False).x


def test_pav_projection():
    y = np.array([3.0, 2.5, 2.6, 1.0, 1.2, 0.0, -0.5, -0.4, -2.0])
    out = _repair(y)
    assert np.all(np.diff(out) <= 1e-12)
    # projection leaves already-monotone input unchanged
    mono = np.linspace(5, -5, 11)
    assert np.allclose(_repair(mono), mono)


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=40))
def test_pav_is_monotone_idempotent_mean_preserving(values):
    y = np.array(values)
    out = _repair(y)
    assert np.all(np.diff(out) <= 1e-9)
    assert np.allclose(_repair(out), out, atol=1e-12)
    assert out.mean() == pytest.approx(y.mean(), abs=1e-9)


def test_supplied_grid_must_cover_estimate(two_sample_data, ts_fits):
    fr = ts_fits["log"]
    with pytest.raises(DomainError):
        build_cd(fr.rule, two_sample_data, "wald",
                 psi_grid=np.linspace(10.0, 11.0, 5), fit_result=fr)
    with pytest.raises(DomainError):
        build_cd(fr.rule, two_sample_data, "banana", fit_result=fr)


# ---------------------------------------------------------------------------
# sampling-distribution checks (Monte Carlo)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def clean_log_study():
    design = SimDesign(
        model="two-sample-normal", theta=(2.0, 0.0, 1.0, 1.0), sizes=(100, 150),
        n_reps=1200, seed=555, methods=(MethodSpec("log", "root"),),
        levels=(0.5, 0.9, 0.95), h0=H0Spec(2.0, "less"),
    )
    return run_study(design)


def test_cd_value_at_truth_is_uniform(clean_log_study):
    # C(psi_0) across replicates behaves like U(0,1): KS below the 1% critical value
    res = clean_log_study.results["log-root"]
    p = np.sort(np.asarray(res.pvalues))
    n = p.size
    i = np.arange(1, n + 1)
    ks = max(np.max(i / n - p), np.max(p - (i - 1) / n))
    assert ks < 1.63 / np.sqrt(n)


def test_confidence_curve_validity(clean_log_study):
    # P(cc(psi_0) <= alpha) = alpha within 2 Monte-Carlo standard errors
    res = clean_log_study.results["log-root"]
    for level, (cov, mcse) in res.coverage().items():
        assert abs(cov - level) <= 2 * mcse + 1e-9, (level, cov, mcse)
