import warnings

import numpy as np
import pytest
from scipy.optimize import brentq, isotonic_regression

from robustcd.confidence import (
    ConfidenceObject,
    _constrained_at,
    _decreasing_fit,
    _signed_root,
    _tail_p,
    _tangent_starts,
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
from robustcd.errors import DomainError, NumericsError
from robustcd.models import (ExponentialAUC, LinearRegression, NormalAUC, TwoSampleNormal,
                             ndtr, ndtri)
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
    import robustcd.scoring as scoring

    model = ExponentialAUC()
    lam2 = 2.0 / 3.0
    data = model.sample((0.85 * lam2 / 0.15, lam2), (20, 40), np.random.default_rng([1, 8]))
    evals, reasons = [0], []
    solve = scoring.minimize_smooth

    def counted(fun, z0):
        def fg(z, rows):
            evals[0] += len(rows)
            return fun(z, rows)
        out = solve(fg, z0)
        reasons.extend(out[3])
        return out

    monkeypatch.setattr(scoring, "minimize_smooth", counted)
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


def test_profile_reaches_the_far_tails_of_a_tsallis_regression():
    # Started at the free fit's nuisance, 15 of these 201 constrained fits
    # run off to a variance without bound; started on the continuation
    # predictor, every one converges.
    from test_acceptance import make_outlier_regression

    model = LinearRegression(interest_index=2)
    data = model.checked(make_outlier_regression())
    rule = ScoreRule.tsallis(model, 1.22)
    fr = fit(rule, data)
    _, g_pp = interest_information(fr.K, fr.J, model.interest_grad(fr.theta_hat))
    grid = default_grid(fr.psi_tilde, np.sqrt(g_pp), model.interest_range(), span=10.7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tr = profile(rule, data, grid, fit_result=fr)
    assert not tr.failed.any()


@pytest.mark.parametrize("gamma", [1.0001, 1.001])
def test_constrained_solves_converge_as_gamma_nears_one(gamma):
    # The Tsallis objective shrinks with gamma - 1, so an absolute gradient
    # stop ended these solves before the relative convergence verdict held.
    m = ExponentialAUC()
    rng = np.random.default_rng(0)
    data = m.checked((rng.exponential(0.2, 20), rng.exponential(1.5, 40)))
    rule = ScoreRule.tsallis(m, gamma)
    fr = fit(rule, data)
    *_, converged = constrained_fit(rule, data, 0.7, lam0=m.profile_extract(fr.theta_hat))
    assert converged
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cd = build_cd(rule, data, "root", fit_result=fr)
    assert not profile(rule, data, cd.psi_grid, fit_result=fr).failed.any()


@pytest.mark.parametrize("kind", ["wald", "root"])
@pytest.mark.parametrize("case", ["two-sample-normal", "auc-exponential",
                                  "linear-regression"])
def test_tsallis_cd_tends_to_the_log_cd_as_gamma_nears_one(
        case, kind, two_sample_data, exp_auc_data, regression_data):
    # The Tsallis score with gamma = 1 + a is the log score to first order
    # in a, so the largest CD difference on the log CD's grid shrinks about
    # tenfold per decade of a (measured 9.7 to 13.1).
    model, data = {
        "two-sample-normal": (TwoSampleNormal(), two_sample_data),
        "auc-exponential": (ExponentialAUC(), exp_auc_data),
        "linear-regression": (LinearRegression(interest_index=1), regression_data),
    }[case]
    log_cd = build_cd(ScoreRule.log(model), data, kind)
    errors = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")       # no profile point may fail
        for a in (1e-1, 1e-2, 1e-3):
            cd = build_cd(ScoreRule.tsallis(model, 1.0 + a), data, kind,
                          psi_grid=log_cd.psi_grid)
            errors.append(np.max(np.abs(cd.cdf_at(log_cd.psi_grid) - log_cd.cdf_values)))
    ratios = np.array(errors[:-1]) / np.array(errors[1:])
    assert np.all((5.0 <= ratios) & (ratios <= 20.0)), errors


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
    assert pivot_root(fr, psi_t) == pytest.approx(0.0, abs=1e-4)
    # off any grid, nu is the exact nu of the constrained fit at psi, as a
    # fresh solve from the continuation predictor gives it
    psis = np.linspace(psi_t - 1.2, psi_t + 1.2, 11) + 0.0137
    vals = np.array([pivot_root(fr, p) for p in psis])
    assert np.all(np.diff(vals) < 0)
    model = fr.rule.model
    for psi, val in zip(psis, vals):
        psi_row = np.array([psi])
        (_, s_con, _, nu), failed, _ = _constrained_at(
            fr.rule, model.stack([two_sample_data]), psi_row,
            _tangent_starts(model, two_sample_data, fr, psi_row))
        assert not failed.any()
        s_con, nu = s_con[0], nu[0]
        assert val == pytest.approx(_signed_root(psi_t, fr.score_at_opt, psi, s_con, nu),
                                    rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("caller", ["pivot_root", "taif", "oracle", "unconverged"])
def test_root_pivot_rejects_profile_below_optimum(two_sample_data, ts_fits, caller):
    # Every root-pivot caller shares one below-optimum check; none clamps
    # W < 0 to a zero pivot. A fit that has not converged gives no root
    # pivot either.
    import dataclasses
    from robustcd.errors import NumericsError
    from robustcd.robustness import taif, taif_contamination_oracle

    fr = ts_fits["tsallis"]
    psi = fr.psi_tilde + 0.5
    # a fake non-optimal "fit" makes the profile dip below the optimum
    fake = dataclasses.replace(fr, score_at_opt=fr.score_at_opt + 5.0)
    ys = np.array([0.0, 1.0])
    with pytest.raises(NumericsError, match="converged" if caller == "unconverged" else "optimum"):
        if caller == "pivot_root":
            pivot_root(fake, psi)
        elif caller == "taif":
            taif(fr.rule, two_sample_data, "root", psi, y_grid=ys, fit_result=fake)
        elif caller == "oracle":
            taif_contamination_oracle(fr.rule, two_sample_data, "root", psi, ys,
                                      fit_result=fake)
        else:
            pivot_root(dataclasses.replace(fr, converged=False), psi)


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


@pytest.mark.parametrize("kind", ["wald", "root"])
def test_build_cd_refuses_a_fit_of_other_data_or_another_rule(kind):
    # a fit of other data would centre the CD on their estimate, and a fit
    # of another rule would take its name; both raise, as in the TAIF
    rng = np.random.default_rng(1)
    a = (rng.normal(2.0, 1.0, 12), rng.normal(0.0, 1.0, 24))
    b = (rng.normal(5.0, 1.0, 12), rng.normal(0.0, 1.0, 24))
    m = TwoSampleNormal()
    tsallis, log = ScoreRule.tsallis(m, 1.23), ScoreRule.log(m)
    for rule, fit_result in ((tsallis, fit(tsallis, b)), (log, fit(tsallis, a))):
        with pytest.raises(DomainError, match="not a fit of this rule to these data"):
            build_cd(rule, a, kind, fit_result=fit_result)
    with pytest.raises(DomainError, match="not a fit of this rule to these data"):
        profile(tsallis, a, np.linspace(1.5, 2.5, 5), fit_result=fit(tsallis, b))
    assert build_cd(tsallis, a, kind, fit_result=fit(tsallis, a)).rule_kind == "tsallis"


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


@pytest.mark.parametrize("q", [0.5, 9.0, 20.0])
def test_two_sided_p_value_keeps_its_far_tail(q):
    # 2 (1 - Phi(|q|)) rounds to 0 from |q| of about 8.3; 2 Phi(-|q|) does not
    for pivot in (q, -q):
        p = _tail_p(pivot, "two_sided")
        assert p == 2.0 * ndtr(-abs(q)) and p > 0.0


def test_tail_p_of_an_array_is_each_pivot_alone_bit_for_bit():
    # run_study takes the p-values of all its replicates in one call
    q = np.random.default_rng(5).normal(0.0, 4.0, 200)
    q[:3] = (0.0, -9.0, 20.0)
    for alternative in ("less", "greater", "two_sided"):
        got = _tail_p(q, alternative)
        assert got.shape == q.shape
        assert got.tolist() == [float(_tail_p(float(v), alternative)) for v in q]


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


@pytest.mark.parametrize("kind", ["wald", "root"])
def test_p_value_and_evidence_outside_the_hull_are_hull_bounds(two_sample_data, ts_fits, kind):
    # a null far outside the grid gives the p-value at the hull edge, which
    # bounds the true one, and says so
    fr = ts_fits["tsallis"]
    cd = build_cd(fr.rule, two_sample_data, kind, fit_result=fr)
    lo, hi = cd.psi_grid[0], cd.psi_grid[-1]
    assert hi < 10.0 and lo > -10.0
    for psi0, edge in ((10.0, hi), (-10.0, lo)):
        for alt in ("less", "greater", "two_sided"):
            with pytest.warns(UserWarning, match="hull"):
                p = p_value(cd, psi0, alt)
            assert p == p_value(cd, edge, alt)
        with pytest.warns(UserWarning, match="hull"):
            assert p_value(cd, psi0) <= 2e-8          # about 6 se out, on either side
    # the confidence mass of an interval reaching past the hull is that of
    # its part inside, a lower bound
    with pytest.warns(UserWarning, match="hull"):
        assert evidence(cd, lo - 1.0, hi + 1.0) == evidence(cd, lo, hi)
    with pytest.warns(UserWarning, match="hull"):
        assert evidence(cd, fr.psi_tilde, 10.0) == evidence(cd, fr.psi_tilde, hi)


def test_serialization_roundtrip(two_sample_data, ts_fits):
    import json

    fr = ts_fits["tsallis"]
    cd = build_cd(fr.rule, two_sample_data, "root", fit_result=fr)
    doc = json.loads(json.dumps(cd.to_dict(levels=(0.5, 0.95))))
    cd2 = ConfidenceObject.from_dict(doc)
    for level in (0.5, 0.95):
        iv1, iv2 = ci(cd, level), ci(cd2, level)
        assert iv1.lo == iv2.lo and iv1.hi == iv2.hi
    for psi0 in (1.8, 2.1):
        for alt in ("less", "greater", "two_sided"):
            assert p_value(cd, psi0, alt) == p_value(cd2, psi0, alt)
    iv = ci(cd2, 0.95)
    assert doc["ci"]["0.95"] == [iv.lo, iv.hi]


# the monotonicity repair build_cd applies to the clipped raw pivot
_repair = _decreasing_fit


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


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=60))
def test_the_repair_is_scipys_antitonic_regression(values):
    # scipy is the oracle; the package itself imports no scipy.optimize
    y = np.array(values)
    assert np.allclose(_repair(y), isotonic_regression(y, increasing=False).x,
                       rtol=0.0, atol=1e-12)
    # monotone input is a fit already and comes back bit for bit; scipy
    # pools tied values too, whose mean can move them by an ulp, so it is
    # bit-equal on strictly decreasing input
    mono = np.sort(y)[::-1]
    assert np.array_equal(_repair(mono), mono)
    strict = np.unique(y)[::-1]
    assert np.array_equal(_repair(strict), isotonic_regression(strict, increasing=False).x)


def _root_cd(grid, pivot):
    return ConfidenceObject(kind="root", model_name="m", rule_kind="log", gamma=None,
                            psi_grid=grid, pivot_values=pivot, cdf_values=ndtr(-pivot),
                            cc_values=np.abs(1.0 - 2.0 * ndtr(-pivot)),
                            psi_tilde=0.0, se=1.0, wald_scale="identity")


def _brentq_ci(cd, level):
    # the interpolated pivot's roots, to within 1e-14, on the brackets
    # either side of the estimate
    z = ndtri(0.5 * (1.0 + level))
    grid, pv = cd.psi_grid, cd.pivot_values
    f = lambda p, target: np.interp(p, grid, pv) - target
    return (brentq(f, grid[0], cd.psi_tilde, args=(z,), xtol=1e-14),
            brentq(f, cd.psi_tilde, grid[-1], args=(-z,), xtol=1e-14))


def test_root_ci_endpoints_are_the_crossings_of_the_interpolated_pivot():
    grid = np.linspace(-3.0, 3.0, 61)                   # psi_tilde = 0 is grid point 30
    raw = -1.1 * grid - 0.05 * grid ** 3
    # violations on both sides, next to the 0.9 crossings, pool into flat blocks
    raw[[14, 15, 16]] = raw[[16, 15, 14]]
    raw[[44, 45, 46]] = raw[[46, 45, 44]]
    raw[30] = 0.0
    pivot = _decreasing_fit(raw)
    assert np.sum(np.diff(pivot) == 0.0) == 4
    real, tight = _root_cd(grid, pivot), {}
    for level in (0.5, 0.8, 0.9, 0.95, 0.99):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            iv = ci(real, level)
        lo, hi = _brentq_ci(real, level)
        assert (iv.lo_open, iv.hi_open) == (False, False)
        assert iv.lo == pytest.approx(lo, rel=0.0, abs=1e-13)
        assert iv.hi == pytest.approx(hi, rel=0.0, abs=1e-13)
        tight[level] = (lo, hi)
    # the 0.9 endpoints lie on the segments next to the pooled blocks
    lo, hi = tight[0.9]
    assert grid[16] < lo < grid[17] and grid[43] < hi < grid[44]

    # a pivot flat at z from the first grid point: the interval's lower end
    # is that point, closed
    edge = _root_cd(grid, np.minimum(pivot, ndtri(0.95)))
    iv = ci(edge, 0.9)
    assert (iv.lo, iv.lo_open) == (grid[0], False) == (_brentq_ci(edge, 0.9)[0], False)

    # one tail past the hull: that bound and its flag, the other tail solved
    short = _root_cd(grid, np.where(grid < 0.0, 0.3 * pivot, pivot))
    with pytest.warns(UserWarning, match="hull"):
        iv = ci(short, 0.95)
    assert (iv.lo, iv.lo_open, iv.hi_open) == (grid[0], True, False)
    assert iv.hi == pytest.approx(tight[0.95][1], rel=0.0, abs=1e-13)


@pytest.mark.parametrize("n_grid", [3, 4, 200, 201])
def test_default_grid_has_the_requested_points(two_sample_data, ts_fits, n_grid):
    fr = ts_fits["log"]
    grid = build_cd(fr.rule, two_sample_data, "wald", fit_result=fr, n_grid=n_grid).psi_grid
    assert grid.size == n_grid
    assert np.all(np.diff(grid) > 0) and fr.psi_tilde in grid


@pytest.mark.parametrize("kind", ["wald", "root"])
@pytest.mark.parametrize("n_grid", [1, 2])
def test_a_default_grid_of_fewer_than_3_points_is_refused(kind, n_grid):
    # two points are the grid's edges and one its lower edge, neither the
    # estimate: the Wald CD of two points read C = 0.5 at the lower edge,
    # far below the estimate, and its root 95% interval opened there
    model = TwoSampleNormal()
    rng = np.random.default_rng(1)
    data = (rng.normal(2.0, 1.0, 12), rng.normal(0.0, 1.0, 24))
    with pytest.raises(DomainError, match="at least 3 points"):
        build_cd(ScoreRule.tsallis(model, 1.23), data, kind, n_grid=n_grid)
    with pytest.raises(DomainError, match="at least 3 points"):
        default_grid(2.0, 1.0, model.interest_range(), n_points=n_grid)


def test_supplied_grid_must_cover_estimate(two_sample_data, ts_fits):
    fr = ts_fits["log"]
    with pytest.raises(DomainError):
        build_cd(fr.rule, two_sample_data, "wald",
                 psi_grid=np.linspace(10.0, 11.0, 5), fit_result=fr)
    with pytest.raises(DomainError):
        build_cd(fr.rule, two_sample_data, "banana", fit_result=fr)


@pytest.mark.parametrize("kind", ["wald", "root"])
def test_a_supplied_grid_must_be_a_strictly_increasing_line(two_sample_data, ts_fits, kind):
    # Both kinds check the grid alike. An unsorted grid that holds the
    # estimate once gave a Wald CD whose p-value at psi~ + 0.3 read 0.540
    # where the exact Wald value is 0.168.
    fr = ts_fits["log"]
    psi = fr.psi_tilde
    for grid in (psi + np.array([-1.0, 0.5, 0.0, -0.5, 1.0]),    # unsorted
                 psi + np.array([-1.0, 0.0, 0.0, 1.0]),          # a repeated point
                 psi + np.array([[-1.0, 0.0, 1.0]]),             # not 1-D
                 np.array([psi])):                               # one point
        with pytest.raises(DomainError, match="strictly increasing"):
            build_cd(fr.rule, two_sample_data, kind, psi_grid=grid, fit_result=fr)
    cd = build_cd(fr.rule, two_sample_data, kind, psi_grid=psi + np.linspace(-1.0, 1.0, 5),
                  fit_result=fr)
    assert np.all(np.diff(cd.psi_grid) > 0)


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


# ---------------------------------------------------------------------------
# affine maps of the data
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["wald", "root"])
@pytest.mark.parametrize("gamma", [None, 1.23])
@pytest.mark.parametrize("model, data_name, c, b, psi_scale", [
    # P(X1 < X2) is invariant when both samples are multiplied by c > 0
    (ExponentialAUC(), "exp_auc_data", 2.7, 0.0, 1.0),
    # ... and, for normal samples, under y -> c y + b
    (NormalAUC(), "normal_auc_data", 2.7, 1.3, 1.0),
    # the mean difference is equivariant: psi -> c psi
    (TwoSampleNormal(), "two_sample_data", 3.0, 5.0, 3.0),
], ids=["auc-exponential", "auc-normal", "two-sample-normal"])
def test_cd_follows_affine_maps_of_the_data(request, model, data_name, c, b, psi_scale,
                                            gamma, kind):
    data = request.getfixturevalue(data_name)
    rule = ScoreRule.log(model) if gamma is None else ScoreRule.tsallis(model, gamma)
    cd = build_cd(rule, data, kind, n_grid=41)
    moved = build_cd(rule, tuple(c * s + b for s in data), kind, n_grid=41)
    assert np.allclose(moved.psi_grid, psi_scale * cd.psi_grid, rtol=1e-9, atol=1e-12)
    assert np.abs(moved.cdf_values - cd.cdf_values).max() <= 1e-9


# ---------------------------------------------------------------------------
# edge cases: ties, a zero MAD, tiny samples and psi near the AUC boundary
# ---------------------------------------------------------------------------

def _rules(model):
    return [ScoreRule.log(model), ScoreRule.tsallis(model, 1.2)]


def test_a_sample_with_zero_mad_fits_and_converges():
    # 8 of the 12 values in the first sample are tied, so its MAD is zero
    # and the start takes the standard deviation for the scale
    m = TwoSampleNormal()
    rng = np.random.default_rng(5)
    x = np.r_[np.full(8, 1.5), rng.normal(1.5, 1.0, 4)]
    y = rng.normal(0.0, 1.0, 12)
    assert np.median(np.abs(x - np.median(x))) == 0.0
    for rule in _rules(m):
        fr = fit(rule, (x, y))
        assert fr.converged and fr.stop_reason == "gradient", rule.label()
        assert np.isfinite(fr.V).all() and (fr.theta_hat[2:] > 0).all(), rule.label()


def test_a_constant_sample_is_given_up_at_its_start():
    # a constant sample has no spread, so both starts give it a variance
    # of 0, outside the admissible set: the fit raises there, where a
    # positive start would only drive the variance toward zero. Ten 0.3s
    # have a standard deviation of round-off, not 0, and no spread.
    m = TwoSampleNormal()
    y = np.random.default_rng(6).normal(0.0, 1.0, 10)
    for rule in _rules(m):
        for data in ((np.full(10, 2.0), y), (np.full(10, 2.0), np.full(10, 1.0)),
                     (np.full(10, 0.3), y)):
            with pytest.raises(DomainError, match="starting value outside the admissible set"):
                fit(rule, data)
    with pytest.raises(DomainError, match="outside admissible set"):
        constrained_fit(ScoreRule.tsallis(m, 1.2), (np.full(10, 2.0), y), 1.0)


def test_two_points_per_sample_give_a_closed_root_interval():
    m = TwoSampleNormal()
    data = (np.array([0.3, 1.9]), np.array([-0.4, 0.2]))
    for rule in _rules(m):
        fr = fit(rule, data)
        assert fr.converged, rule.label()
        with warnings.catch_warnings():
            warnings.simplefilter("error")          # no failed grid point, no open end
            cd = build_cd(rule, data, "root", fit_result=fr)
            iv = ci(cd, 0.95)
        assert not (iv.lo_open or iv.hi_open), rule.label()
        assert iv.lo < cd.psi_tilde < iv.hi, rule.label()


def test_an_auc_near_one_keeps_its_grid_and_intervals_inside_the_unit_interval():
    # P(X1 < X2) = 24 / 25 for rates (24, 1): the grid stops 1e-4 short of
    # the boundary and the 95% intervals close inside (0, 1)
    m = ExponentialAUC()
    data = m.sample((24.0, 1.0), (20, 40), np.random.default_rng([1, 9]))
    for rule in _rules(m):
        fr = fit(rule, data)
        assert fr.psi_tilde > 0.95, rule.label()
        for kind in ("wald", "root"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                cd = build_cd(rule, data, kind, fit_result=fr)
                iv = ci(cd, 0.95)
            what = (rule.label(), kind)
            assert cd.psi_grid[-1] == pytest.approx(1.0 - 1e-4, rel=0, abs=1e-15), what
            assert not (iv.lo_open or iv.hi_open), what
            assert 0.0 < iv.lo < cd.psi_tilde < iv.hi < cd.psi_grid[-1], what
