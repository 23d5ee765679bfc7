import collections
import dataclasses
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from robustcd import confidence, robustness, scoring
from robustcd.confidence import pivot_root, profile
from robustcd.errors import DomainError, NumericsError
from robustcd.expfam import expfam_beta, expfam_gamma, expfam_robustness_check
from robustcd.models import ExponentialAUC, LinearRegression, TwoSampleNormal
from robustcd.robustness import (
    calibrate_gamma,
    efficiency_ratio,
    influence_function,
    taif,
    taif_contamination_oracle,
)
from robustcd.scoring import ScoreRule, _Objective, fit, per_obs_gradient, sandwich


@pytest.fixture(scope="module")
def ts_small(small_two_sample_data):
    m = TwoSampleNormal()
    rules = {"log": ScoreRule.log(m), "tsallis": ScoreRule.tsallis(m, 1.23)}
    return {k: (r, fit(r, small_two_sample_data)) for k, r in rules.items()}


# ---------------------------------------------------------------------------
# influence function
# ---------------------------------------------------------------------------

def test_if_log_score_one_sample_mean_is_linear():
    rng = np.random.default_rng(13)
    n = 30
    y = rng.normal(1.5, 1.0, n)
    model = LinearRegression(interest_index=0)
    data = (y, np.ones((n, 1)))
    rule = ScoreRule.log(model)
    fr = fit(rule, data)
    mu_hat = fr.theta_hat[0]
    ys = np.array([-3.0, 0.0, 2.0, 8.0])
    vals = influence_function(rule, data, fr.theta_hat, ys)[:, 0]
    assert np.allclose(vals, ys - mu_hat, rtol=1e-9, atol=1e-9)


def test_if_tsallis_redescends(small_two_sample_data, ts_small):
    rule, fr = ts_small["tsallis"]
    theta = fr.theta_hat
    mu, sd = theta[0], np.sqrt(theta[2])
    at3 = influence_function(rule, small_two_sample_data, theta,
                             np.array([mu + 3 * sd]))[0, 0]
    at100 = influence_function(rule, small_two_sample_data, theta,
                               np.array([mu + 100 * sd]))[0, 0]
    at0 = influence_function(rule, small_two_sample_data, theta, np.array([mu]))[0, 0]
    assert abs(at100) < abs(at3)
    assert at0 == pytest.approx(0.0, abs=1e-12)


def test_if_bounded_on_every_builtin(all_models):
    # the far tail must not grow: it settles at (or below) a finite plateau
    # given by the power-integral term, always inside the interior supremum
    for model, data in all_models:
        rule = ScoreRule.tsallis(model, 1.3)
        fr = fit(rule, data)
        center, scale = model.obs_center_scale(data, fr.theta_hat, 0)
        lo_s, _ = model.component_support(0)
        interior = np.linspace(max(center - 10 * scale, lo_s + 1e-9),
                               center + 10 * scale, 101)
        far = center + scale * np.array([1e2, 1e3, 1e4])
        vals_int = influence_function(rule, data, fr.theta_hat, interior)
        vals_far = np.abs(influence_function(rule, data, fr.theta_hat, far))
        sup_int = np.abs(vals_int).max()
        assert np.isfinite(sup_int)
        assert vals_far.max() <= 1.05 * sup_int, model.name
        assert np.all(vals_far[2] <= vals_far[0] + 1e-12 * sup_int), model.name

        # the log-score influence grows without bound in contrast
        rule_l = ScoreRule.log(model)
        fr_l = fit(rule_l, data)
        far_l = np.abs(influence_function(rule_l, data, fr_l.theta_hat, far))
        int_l = np.abs(influence_function(rule_l, data, fr_l.theta_hat, interior))
        assert far_l.max() > 10 * int_l.max(), model.name


# ---------------------------------------------------------------------------
# tail-area influence
# ---------------------------------------------------------------------------

def test_taif_boundedness_dichotomy(small_two_sample_data, ts_small):
    for pivot in ("wald", "root"):
        _, fr_t = ts_small["tsallis"]
        prof_t = taif(ts_small["tsallis"][0], small_two_sample_data, pivot, 2.0,
                      fit_result=fr_t)
        assert prof_t.bounded_verdict, pivot
        _, fr_l = ts_small["log"]
        prof_l = taif(ts_small["log"][0], small_two_sample_data, pivot, 2.0,
                      fit_result=fr_l)
        assert not prof_l.bounded_verdict, pivot
        # unbounded means growing toward the far shells
        absv = np.abs(prof_l.taif_values)
        assert absv[-1] > absv[-prof_l.shells[1] - 1]


@pytest.mark.parametrize("shape", [(2.0, 3.0), (0.6, 0.7)])
@pytest.mark.parametrize("gamma", [None, 1.2, 1.5])
def test_taif_verdict_on_a_compact_support_is_the_boundedness_check(shape, gamma):
    # both edges of the beta support are finite: the TAIF grid probes them
    # with the check's shells, so its verdict is the check's; the log
    # score's log y and log(1 - y) are unbounded there at every shape
    model = expfam_beta()
    y = np.random.default_rng(1).beta(*shape, 50)
    rule = ScoreRule.log(model) if gamma is None else ScoreRule.tsallis(model, gamma)
    fr = fit(rule, y)
    check = all(expfam_robustness_check(model, fr.theta_hat, gamma or 1.0).bounded)
    for pivot in ("wald", "root"):
        prof = taif(rule, y, pivot, fr.psi_tilde + 0.3, fit_result=fr)
        assert prof.bounded_verdict == check, pivot
        assert prof.shells == (2, 2)


def test_taif_vanishes_with_estimating_function(exp_auc_data):
    # scalar first-sample score has a proper root y*; TAIF crosses zero there
    m = ExponentialAUC()
    rule = ScoreRule.tsallis(m, 1.5)
    fr = fit(rule, exp_auc_data)
    theta = fr.theta_hat

    def s1(y):
        frame = m.contamination_frame(np.array([y]), exp_auc_data)
        return per_obs_gradient(rule, frame, theta)[0, 0]

    r1 = theta[0]
    y_star = brentq(s1, 0.5 / r1, 10.0 / r1)
    prof = taif(rule, exp_auc_data, "wald", 0.85, y_grid=np.array([y_star]),
                fit_result=fr)
    assert prof.taif_values[0] == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("pivot", ["wald", "root"])
def test_taif_chain_matches_contamination_oracle(all_models, pivot):
    for model, data in all_models:
        rule = ScoreRule.tsallis(model, 1.25)
        fr = fit(rule, data)
        center, scale = model.obs_center_scale(data, fr.theta_hat, 0)
        lo_s, _ = model.component_support(0)
        ys = center + scale * np.array([-1.5, -0.5, 0.8, 2.0])
        ys = ys[ys > lo_s]
        psi = model.interest(fr.theta_hat) + 0.8 * np.sqrt(
            fr.V @ model.interest_grad(fr.theta_hat) @ model.interest_grad(fr.theta_hat))
        lo_r, hi_r = model.interest_range()
        psi = min(max(psi, lo_r + 1e-3), hi_r - 1e-3) if np.isfinite(hi_r) else psi
        chain = taif(rule, data, pivot, psi, y_grid=ys, fit_result=fr).taif_values
        oracle = taif_contamination_oracle(rule, data, pivot, psi, ys, fit_result=fr)
        ok = np.isfinite(oracle)
        assert ok.any()
        rel = np.abs(chain[ok] - oracle[ok]) / np.maximum(np.abs(oracle[ok]), 1e-10)
        assert np.max(rel) < 0.05, (model.name, pivot, rel)


@pytest.mark.parametrize("gamma", [None, 1.23])
@pytest.mark.parametrize("pivot", ["wald", "root"])
def test_oracle_stack_equals_its_points_alone(all_models, gamma, pivot):
    # the refits at all points are solved as one stack; each point's value
    # is, bit for bit, the value of a call with that point alone
    gamma_model = expfam_gamma()
    cases = all_models + [(gamma_model, np.random.default_rng(11).gamma(3.0, 0.5, 40))]
    for model, data in cases:
        rule = ScoreRule.log(model) if gamma is None else ScoreRule.tsallis(model, gamma)
        fr = fit(rule, data)
        center, scale = model.obs_center_scale(data, fr.theta_hat, 0)
        ys = center + scale * np.array([-1.5, -0.5, 0.8, 2.0, 30.0])
        grad = model.interest_grad(fr.theta_hat)
        psi = model.interest(fr.theta_hat) + 0.8 * np.sqrt(grad @ fr.V @ grad)
        lo_r, hi_r = model.interest_range()
        psi = min(max(psi, lo_r + 1e-3), hi_r - 1e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")      # a point outside the support warns
            together = taif_contamination_oracle(rule, data, pivot, psi, ys, fit_result=fr)
            alone = np.concatenate([taif_contamination_oracle(rule, data, pivot, psi, [y],
                                                              fit_result=fr) for y in ys])
        assert np.isfinite(together).sum() >= 4, (model.name, rule.label(), together)
        assert np.array_equal(together, alone, equal_nan=True), (model.name, rule.label())


def test_oracle_refits_start_at_the_constrained_fit(all_models, monkeypatch):
    # a root pivot's eps-mixture constrained refits start at the base
    # constrained nuisance, O(eps) from their solutions
    iters = []
    solve = _Objective.solve

    def counted(self, z0):
        out = solve(self, z0)
        if self.psi is not None and self.mixture is not None:
            iters.extend(out[2].tolist())
        return out

    monkeypatch.setattr(_Objective, "solve", counted)
    for model, data in all_models:
        for rule in (ScoreRule.log(model), ScoreRule.tsallis(model, 1.23)):
            fr = fit(rule, data)
            center, scale = model.obs_center_scale(data, fr.theta_hat, 0)
            grad = model.interest_grad(fr.theta_hat)
            psi = model.interest(fr.theta_hat) + 0.8 * np.sqrt(grad @ fr.V @ grad)
            lo_r, hi_r = model.interest_range()
            psi = min(max(psi, lo_r + 1e-3), hi_r - 1e-3)
            ys = center + scale * np.array([-0.8, -0.3, 0.7, 1.8])
            vals = taif_contamination_oracle(rule, data, "root", psi, ys, fit_result=fr)
            assert np.isfinite(vals).all(), (model.name, rule.label())
    assert len(iters) == 4 * 2 * 2 * len(all_models)
    assert np.mean(iters) <= 2.5, np.mean(iters)


@pytest.mark.parametrize("pivot", ["wald", "root"])
def test_oracle_point_that_fails_is_nan_alone(exp_auc_data, pivot, monkeypatch):
    model = ExponentialAUC()
    rule = ScoreRule.tsallis(model, 1.25)
    fr = fit(rule, exp_auc_data)
    ys = np.array([-1.0, 0.1, 0.5, 2.0])

    def oracle(ys, fr):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            vals = taif_contamination_oracle(rule, exp_auc_data, pivot, 0.8, ys, fit_result=fr)
        return vals, [str(w.message) for w in caught]

    # -1 lies outside the support: its frame is rejected before any refit
    vals, messages = oracle(ys, fr)
    assert messages == ["oracle refit failed at y=-1; point skipped"]
    assert np.isnan(vals[0]) and np.isfinite(vals[1:]).all()
    rest, messages = oracle(ys[1:], fr)
    assert messages == [] and np.array_equal(vals[1:], rest)

    # a point whose refit rows cannot be scored fail inside the stack, and
    # only those rows
    logpdf = model.logpdf_obs

    def refuses(data, theta):
        if np.any(data[0] == 0.5):
            raise DomainError("planted")
        return logpdf(data, theta)

    monkeypatch.setattr(model, "logpdf_obs", refuses)
    # a fresh fit: fr holds the refits made before the patch in its memo
    vals, messages = oracle(ys[1:], fit(rule, exp_auc_data))
    assert messages == ["oracle refit failed at y=0.5; point skipped"]
    assert np.isnan(vals[1])
    assert np.array_equal(vals[[0, 2]], rest[[0, 2]])


def test_oracle_drops_a_free_refit_that_did_not_converge(exp_auc_data, monkeypatch):
    # With no iterations left, every free eps-mixture refit stops at its
    # start, the estimate itself, with a finite score and no convergence;
    # differencing its tail area would read a TAIF of 0. Such a refit is
    # dropped: each point is NaN, with its warning.
    rule = ScoreRule.tsallis(ExponentialAUC(), 1.25)
    fr = fit(rule, exp_auc_data)
    ys = np.array([0.1, 0.5, 2.0])
    want = taif_contamination_oracle(rule, exp_auc_data, "wald", 0.8, ys, fit_result=fr)
    assert np.isfinite(want).all() and np.all(np.abs(want) > 0.1)
    monkeypatch.setattr(scoring, "MAX_ITER", 0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        # a copy of the fit, with an empty memo, refits under the patch
        got = taif_contamination_oracle(rule, exp_auc_data, "wald", 0.8, ys,
                                        fit_result=dataclasses.replace(fr))
    assert np.isnan(got).all()
    assert [str(w.message) for w in caught] == [
        f"oracle refit failed at y={y:g}; point skipped" for y in ys]


def test_taif_input_validation(small_two_sample_data, ts_small):
    rule, fr = ts_small["tsallis"]
    with pytest.raises(DomainError):
        taif(rule, small_two_sample_data, "likelihood", 2.0, fit_result=fr)
    with pytest.raises(DomainError, match="pivot_kind"):
        taif_contamination_oracle(rule, small_two_sample_data, "likelihood", 2.0, [0.0],
                                  fit_result=fr)


@pytest.mark.parametrize("pivot", ["wald", "root"])
@pytest.mark.parametrize("diagnostic", [taif, taif_contamination_oracle])
def test_diagnostics_need_a_converged_fit_of_their_rule_and_data(small_two_sample_data,
                                                                 ts_small, pivot, diagnostic):
    # the diagnostics of one fit share the solves held in its memo, so a
    # fit that has not converged, or is of another rule or other data, raises
    rule, fr = ts_small["tsallis"]
    ys = np.array([0.0, 1.0])

    def run(rule, data, fit_result):
        if diagnostic is taif:
            return taif(rule, data, pivot, 2.0, y_grid=ys, fit_result=fit_result)
        return taif_contamination_oracle(rule, data, pivot, 2.0, ys, fit_result=fit_result)

    with pytest.raises(NumericsError, match="converged fit"):
        run(rule, small_two_sample_data, dataclasses.replace(fr, converged=False))
    x1, x2 = small_two_sample_data
    with pytest.raises(DomainError, match="not a fit of this rule to these data"):
        run(rule, (x1 + 0.1, x2), fr)
    with pytest.raises(DomainError, match="not a fit of this rule to these data"):
        run(rule, (x1, x2[:-1]), fr)
    with pytest.raises(DomainError, match="not a fit of this rule to these data"):
        run(ts_small["log"][0], small_two_sample_data, fr)
    # the same data, as another copy, are these data
    run(rule, (x1.copy(), x2.copy()), fr)


def test_diagnostics_and_the_profile_take_the_fit(small_two_sample_data, ts_small):
    # fit_result is required: none of them fits the data behind the caller
    rule, _ = ts_small["tsallis"]
    ys = np.array([0.0, 1.0])
    for call in (lambda: taif(rule, small_two_sample_data, "wald", 2.0, ys),
                 lambda: taif_contamination_oracle(rule, small_two_sample_data, "wald", 2.0, ys),
                 lambda: profile(rule, small_two_sample_data, np.linspace(1.5, 2.5, 5))):
        with pytest.raises(TypeError, match="fit_result"):
            call()


def test_diagnostics_of_one_fit_share_their_solves(all_models, monkeypatch):
    # the root pivot, the root TAIF and the root oracle share one
    # constrained fit at psi, and the Wald and the root oracle one stack of
    # free mixture refits; every value is, bit for bit, that of a call on a
    # fresh fit
    kinds = collections.Counter()
    solve = _Objective.solve

    def counted(self, z0):
        kinds[("free", "constrained")[self.psi is not None]
              + ("", "-mixture")[self.mixture is not None]] += 1
        return solve(self, z0)

    monkeypatch.setattr(_Objective, "solve", counted)
    for model, data in all_models:
        rule = ScoreRule.tsallis(model, 1.23)
        fr = fit(rule, data)
        center, scale = model.obs_center_scale(data, fr.theta_hat, 0)
        grad = model.interest_grad(fr.theta_hat)
        psi = model.interest(fr.theta_hat) + 0.8 * np.sqrt(grad @ fr.V @ grad)
        lo_r, hi_r = model.interest_range()
        psi = min(max(psi, lo_r + 1e-3), hi_r - 1e-3)
        ys = center + scale * np.array([-0.8, -0.3, 0.7, 1.8])
        diagnostics = [
            lambda fr: pivot_root(fr, psi),
            lambda fr: taif(rule, data, "wald", psi, fit_result=fr).taif_values,
            lambda fr: taif(rule, data, "root", psi, fit_result=fr).taif_values,
            lambda fr: taif_contamination_oracle(rule, data, "wald", psi, ys, fit_result=fr),
            lambda fr: taif_contamination_oracle(rule, data, "root", psi, ys, fit_result=fr),
        ]
        kinds.clear()
        shared = [diagnostic(fr) for diagnostic in diagnostics]
        assert kinds == {"constrained": 1, "free-mixture": 1, "constrained-mixture": 1}, (
            model.name, kinds)
        for diagnostic, value in zip(diagnostics, shared):
            assert np.array_equal(diagnostic(fit(rule, data)), value), model.name
        # what the memo holds is read-only, and a replaced fit starts afresh
        assert not confidence._root_fit(fr, psi)[0].flags.writeable
        assert fr._memo and not dataclasses.replace(fr)._memo
        with pytest.raises(dataclasses.FrozenInstanceError):
            fr.converged = False


# ---------------------------------------------------------------------------
# gamma calibration
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def regression_template():
    rng = np.random.default_rng(31)
    n = 500
    X = np.column_stack([np.ones(n), rng.standard_normal(n), rng.uniform(size=n)])
    y = X @ np.array([1.0, 0.0, 1.0]) + rng.normal(0, 1, n)
    return (y, X)


def test_calibrate_gamma_regression(regression_template):
    model = LinearRegression(interest_index=1)
    theta_ref = np.array([1.0, 0.0, 1.0, 1.0])
    gamma = calibrate_gamma(model, theta_ref, 0.90, regression_template)
    assert 1.15 <= gamma <= 1.30
    eff = efficiency_ratio(model, gamma, model.validate_data(regression_template),
                           theta_ref)
    assert eff == pytest.approx(0.90, abs=5e-3)
    # deterministic
    gamma2 = calibrate_gamma(model, theta_ref, 0.90, regression_template)
    assert gamma == gamma2


def _plain_bisection(model, theta_ref, target, data, measure):
    """calibrate_gamma as it was, the reference: one efficiency evaluation
    per probe and per bisection step, each on one gamma."""
    data = model.checked(data)
    V0 = robustness._log_variance(model, data, theta_ref)

    def are(gamma):
        Vg, _ = sandwich(*model.expected_kj("tsallis", gamma, data, theta_ref))
        if measure == "interest":
            grad = model.interest_grad(theta_ref)
            return float((grad @ V0 @ grad) / (grad @ Vg @ grad))
        if measure == "trace":
            return float(np.trace(V0) / np.trace(Vg))
        ratios = np.diag(V0) / np.diag(Vg)
        return float(np.min(ratios)) if measure == "min" else float(ratios[int(measure)])

    lo, hi = 1.0 + robustness.GAMMA_TOL, robustness.GAMMA_MAX
    vals = [are(g) for g in np.linspace(lo, hi, 6)]
    assert vals[-1] <= target < vals[0]
    a, b = lo, hi
    while b - a > robustness.GAMMA_TOL:
        mid = 0.5 * (a + b)
        if are(mid) > target:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b), vals


def _stacked_one_by_one(stage, rows, out):
    """scoring._stacked without its halving, the reference: where the
    stack raises, every row alone, each a stack of one, written at its
    destination row of out (one array, as calibrate_gamma passes)."""
    try:
        out[rows] = stage(slice(None))
        return {}
    except (DomainError, NumericsError):
        errors = {}
        for j, r in enumerate(rows.tolist()):
            try:
                out[r] = stage(slice(j, j + 1))[0]
            except (DomainError, NumericsError) as exc:
                errors[r] = exc
        return errors


def test_calibrate_gamma_halves_the_stack_where_J_is_infinite(monkeypatch):
    # at theta_ref (-0.25, -1) the expfam gamma family's J is infinite for
    # gamma >= 2.5: halving the stack isolates those rows in fewer
    # efficiency evaluations than running every row alone, for the same gamma
    model = expfam_gamma()
    y = np.random.default_rng(17).gamma(0.75, 1.0, 40)
    theta_ref = np.array([-0.25, -1.0])
    calls = []
    efficiency = robustness._efficiency

    def counted(*args):
        calls.append(np.size(args[2]))
        return efficiency(*args)

    monkeypatch.setattr(robustness, "_efficiency", counted)
    gamma = calibrate_gamma(model, theta_ref, 0.9, y)
    halved = len(calls)
    calls.clear()
    monkeypatch.setattr(robustness, "_stacked", _stacked_one_by_one)
    assert calibrate_gamma(model, theta_ref, 0.9, y) == gamma == 1.145020732116699
    assert halved < len(calls) == 40, (halved, len(calls))


@pytest.mark.parametrize("kind", ["log", "tsallis"])
def test_a_sandwich_variance_without_a_positive_diagonal_raises(two_sample_data, monkeypatch,
                                                                kind):
    # J with a zero first row and column gives V a zero first diagonal entry
    # while K stays well conditioned: the efficiency of that coordinate
    # would read 0 or inf, so efficiency_ratio and calibrate_gamma raise
    model = TwoSampleNormal()
    theta_ref = np.array([2.0, 0.0, 1.0, 1.0])
    expected_kj = model.expected_kj

    def degenerate(kind_, *args):
        K, J = expected_kj(kind_, *args)
        if kind_ == kind:
            J = np.array(J, dtype=float)
            J[..., 0, :] = J[..., :, 0] = 0.0
        return K, J

    monkeypatch.setattr(model, "expected_kj", degenerate)
    for measure in ("min", "interest", "trace", 0):
        with pytest.raises(NumericsError, match="sandwich variance V"):
            efficiency_ratio(model, 1.25, two_sample_data, theta_ref, measure=measure)
    with pytest.raises(NumericsError, match="sandwich variance V"):
        calibrate_gamma(model, theta_ref, 0.9, two_sample_data)


@pytest.mark.parametrize("measure", ["min", "interest", "trace", 0])
def test_calibrate_gamma_equals_plain_bisection(regression_template, measure):
    # the stacked rounds of bisection return plain bisection's gamma, bit
    # for bit
    rng = np.random.default_rng(17)
    cases = [
        (TwoSampleNormal(), [2.0, 0.0, 1.3, 0.7],
         (rng.normal(2.0, 1.0, 12), rng.normal(0.0, 1.0, 24))),
        (ExponentialAUC(), [0.5, 2.0], (rng.exponential(2.0, 20), rng.exponential(0.5, 40))),
        (LinearRegression(interest_index=1), [1.0, 0.0, 1.0, 1.0], regression_template),
        (expfam_gamma(), [1.1, -2.2], rng.gamma(3.0, 0.5, 40)),
    ]
    for model, theta_ref, data in cases:
        theta_ref = np.array(theta_ref)
        expected, probes = _plain_bisection(model, theta_ref, 0.9, data, measure)
        assert calibrate_gamma(model, theta_ref, 0.9, data, measure=measure) == expected
        # each row of a stacked evaluation is the evaluation of its gamma alone
        gammas = np.linspace(1.0 + robustness.GAMMA_TOL, robustness.GAMMA_MAX, 6)
        V0 = robustness._log_variance(model, model.checked(data), theta_ref)
        stacked = robustness._efficiency(model, V0, gammas, model.checked(data), theta_ref,
                                         measure)
        assert stacked.tolist() == probes, (model.name, measure)


def test_calibrate_gamma_full_efficiency_edge(regression_template):
    model = LinearRegression(interest_index=1)
    theta_ref = np.array([1.0, 0.0, 1.0, 1.0])
    with pytest.warns(UserWarning, match="lower bracket"):
        gamma = calibrate_gamma(model, theta_ref, 1.0, regression_template)
    assert gamma == pytest.approx(1.0, abs=1e-3)


def test_calibrate_gamma_out_of_range(regression_template):
    model = LinearRegression(interest_index=1)
    theta_ref = np.array([1.0, 0.0, 1.0, 1.0])
    with pytest.raises(DomainError, match="efficiency"):
        calibrate_gamma(model, theta_ref, 0.05, regression_template)
    with pytest.raises(DomainError):
        calibrate_gamma(model, theta_ref, 1.5, regression_template)


def test_efficiency_decreasing_in_gamma(regression_template, two_sample_data):
    model = LinearRegression(interest_index=1)
    theta_ref = np.array([1.0, 0.0, 1.0, 1.0])
    data = model.validate_data(regression_template)
    gammas = np.linspace(1.01, 3.0, 20)
    for measure in ("min", "interest", "trace"):
        vals = [efficiency_ratio(model, g, data, theta_ref, measure=measure)
                for g in gammas]
        assert np.all(np.diff(vals) < 0), measure
        assert np.all(np.isfinite(vals))

    mts = TwoSampleNormal()
    theta_ts = np.array([2.0, 0.0, 1.0, 1.0])
    vals = [efficiency_ratio(mts, g, two_sample_data, theta_ts) for g in gammas]
    assert np.all(np.diff(vals) < 0)


def test_efficiency_measures_are_distinct(regression_template):
    model = LinearRegression(interest_index=1)
    theta_ref = np.array([1.0, 0.0, 1.0, 1.0])
    data = model.validate_data(regression_template)
    e_min = efficiency_ratio(model, 1.25, data, theta_ref, measure="min")
    e_int = efficiency_ratio(model, 1.25, data, theta_ref, measure="interest")
    # the interest coefficient is more efficient than the scale coordinate
    assert e_int > e_min
    e_coord = efficiency_ratio(model, 1.25, data, theta_ref, measure=3)
    assert e_coord == pytest.approx(e_min, rel=1e-9)
