import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustcd.confidence import constrained_fit, pivot_wald
from robustcd.errors import DomainError, NumericsError
from robustcd.models import ExponentialAUC, TwoSampleNormal, ndtr
from robustcd.scoring import ScoreRule, fit
from robustcd.simulate import (
    Contamination,
    H0Spec,
    MethodSpec,
    SimDesign,
    contaminate,
    default_regression_design,
    pvalue_uniformity,
    run_study,
    _point_pivots,
)


# ---------------------------------------------------------------------------
# contamination
# ---------------------------------------------------------------------------

def test_contaminate_identity_and_shift():
    m = TwoSampleNormal()
    rng = np.random.default_rng(1)
    data = (rng.normal(2, 1, 10), rng.normal(0, 1, 20))
    same = contaminate(m, data, Contamination(0, -1, 0.0))
    assert same is data
    shifted = contaminate(m, data, Contamination(0, -1, -7.0))
    # linearity of the mean: sample-1 mean drops by 7/n1
    assert shifted[0].mean() == pytest.approx(data[0].mean() - 0.7, abs=1e-12)
    assert np.array_equal(shifted[0][:-1], data[0][:-1])
    assert np.array_equal(shifted[1], data[1])

    ma = ExponentialAUC()
    d2 = (rng.exponential(0.26, 20), rng.exponential(1.5, 40))
    s2 = contaminate(ma, d2, Contamination(0, -1, 3.0))
    assert s2[0][-1] == pytest.approx(d2[0][-1] + 3.0)


@settings(max_examples=25, deadline=None)
@given(shift=st.floats(-10, 10, allow_nan=False), idx=st.integers(-10, 9))
def test_contaminate_touches_exactly_one_value(shift, idx):
    m = TwoSampleNormal()
    rng = np.random.default_rng(2)
    data = (rng.normal(size=10), rng.normal(size=5))
    out = contaminate(m, data, Contamination(0, idx, shift))
    diff = out[0] - data[0]
    assert np.count_nonzero(diff) <= 1
    assert diff.sum() == pytest.approx(shift, abs=1e-12)
    assert np.array_equal(out[1], data[1])


def test_contaminate_index_errors():
    m = TwoSampleNormal()
    data = (np.ones(3), np.ones(4))
    with pytest.raises(IndexError):
        contaminate(m, data, Contamination(0, 3, 1.0))


def test_a_shift_checks_only_the_value_it_moves(monkeypatch):
    # Checked data are not validated again: the shifted copy is checked data
    # of the model, read-only, with the other sample shared. A value moved
    # outside the inside of the support gets the model's whole check and
    # its message: 0 is an exponential observation, -0.5 and NaN are not.
    calls = []
    validate = ExponentialAUC.validate_data
    monkeypatch.setattr(ExponentialAUC, "validate_data",
                        lambda self, data: calls.append(1) or validate(self, data))
    m = ExponentialAUC()
    data = m.checked((np.array([1.0, 2.0, 0.5]), np.array([3.0, 4.0])))
    assert len(calls) == 1
    out = contaminate(m, data, Contamination(1, 0, 2.5))
    assert len(calls) == 1 and m.checked(out) is out
    assert out[1].tolist() == [5.5, 4.0] and data[1].tolist() == [3.0, 4.0]
    assert out[0] is data[0] and not out[1].flags.writeable
    assert contaminate(m, data, Contamination(0, -1, -0.5))[0].tolist() == [1.0, 2.0, 0.0]
    assert len(calls) == 2
    for shift, message in ((-1.0, "nonnegative"), (np.nan, "non-finite")):
        with pytest.raises(DomainError, match=message):
            contaminate(m, data, Contamination(0, -1, shift))
    with pytest.raises(IndexError):
        m.shift_obs(data, 2, 0, 1.0)


def test_a_contaminated_study_validates_each_replicate_once(monkeypatch):
    # n_reps samples and the calibration template, one validate_data call
    # each: a shifted replicate is not validated again
    calls = []
    validate = TwoSampleNormal.validate_data
    monkeypatch.setattr(TwoSampleNormal, "validate_data",
                        lambda self, data: calls.append(1) or validate(self, data))
    design = SimDesign(model="two-sample-normal", theta=(2.0, 0.0, 1.0, 1.0), sizes=(10, 20),
                       n_reps=7, seed=3, levels=(0.9,),
                       contamination=Contamination(0, -1, -7.0))
    run_study(design)
    assert len(calls) == 7 + 1


# ---------------------------------------------------------------------------
# design validation
# ---------------------------------------------------------------------------

def test_design_validation():
    with pytest.raises(DomainError):
        SimDesign(model="two-sample-normal", theta=(2, 0, 1, 1), sizes=(10, 20),
                  n_reps=0)
    with pytest.raises(DomainError):
        SimDesign(model="two-sample-normal", theta=(2, 0, 1, 1), sizes=(10, 20),
                  n_reps=5, levels=(1.2,))
    with pytest.raises(DomainError):
        SimDesign(model="two-sample-normal", theta=(2, 0, 1, 1), sizes=(10, 20),
                  n_reps=5, contamination=Contamination(0, 10, -7.0))
    with pytest.raises(DomainError):
        MethodSpec("huber", "root")


@pytest.mark.parametrize("cont", [Contamination(0, 1.5, 3.0), Contamination(0.9, 1, 3.0),
                                  Contamination(True, 1, 3.0)])
def test_contamination_indices_must_be_integers(cont):
    with pytest.raises(DomainError, match="integers"):
        SimDesign(model="two-sample-normal", theta=(2, 0, 1, 1), sizes=(10, 20),
                  n_reps=5, contamination=cont)


@pytest.mark.parametrize("psi0", [1.5, 0.0, 1.0, -0.2])
def test_null_must_lie_in_the_interest_range(psi0):
    # the AUC lies in the open interval (0, 1)
    with pytest.raises(DomainError, match="range"):
        SimDesign(model="auc-exponential", theta=(1.0, 1.5), sizes=(20, 20), n_reps=5,
                  methods=(MethodSpec("log", "wald"),), h0=H0Spec(psi0))
    SimDesign(model="auc-exponential", theta=(1.0, 1.5), sizes=(20, 20), n_reps=5,
              methods=(MethodSpec("log", "wald"),), h0=H0Spec(0.5))


def test_h0_alternative_is_validated_and_sets_the_p_value():
    with pytest.raises(DomainError):
        H0Spec(2.0, "grater")
    model = TwoSampleNormal()
    pvalues = {}
    for alt in ("less", "greater", "two_sided", "two-sided"):
        design = SimDesign(model="two-sample-normal", theta=(2, 0, 1, 1), sizes=(10, 20),
                           n_reps=4, seed=6, methods=(MethodSpec("log", "wald"),),
                           levels=(0.9,), h0=H0Spec(1.5, alt))
        pvalues[alt] = run_study(design).results["log-wald"].pvalues
    for rep in range(4):
        data = model.sample((2, 0, 1, 1), (10, 20), np.random.default_rng([6, rep]))
        q = float(pivot_wald(fit(ScoreRule.log(model), data), 1.5))
        assert pvalues["less"][rep] == float(ndtr(-q))
        assert pvalues["greater"][rep] == float(ndtr(q))
        two = float(2.0 * ndtr(-abs(q)))
        assert pvalues["two_sided"][rep] == pvalues["two-sided"][rep] == two


def test_design_from_dict_roundtrip():
    doc = {
        "model": "auc-exponential",
        "theta": [3.7778, 0.6666666666666666],
        "sizes": [20, 40],
        "n_reps": 4,
        "seed": 3,
        "methods": [{"rule": "tsallis", "pivot": "root", "gamma": 1.2},
                    {"rule": "log", "pivot": "wald"}],
        "levels": [0.9, 0.95],
        "h0": {"psi0": 0.85, "alternative": "less"},
        "contamination": {"sample_index": 0, "obs_index": -1, "shift": 3.0},
    }
    design = SimDesign.from_dict(doc)
    assert design.methods[0].gamma == 1.2
    assert design.h0.psi0 == 0.85
    assert design.contamination.shift == 3.0


# ---------------------------------------------------------------------------
# the study loop
# ---------------------------------------------------------------------------

def test_run_study_reproducible():
    design = SimDesign(model="two-sample-normal", theta=(2, 0, 1, 1), sizes=(10, 20),
                       n_reps=3, seed=9, methods=(MethodSpec("log", "wald"),),
                       levels=(0.9,), h0=H0Spec(2.0, "less"))
    r1 = run_study(design)
    r2 = run_study(design)
    assert r1.to_dict() == r2.to_dict()


def test_run_study_bookkeeping():
    design = SimDesign(model="auc-exponential", theta=(3.7778, 2 / 3), sizes=(20, 40),
                       n_reps=40, seed=4,
                       methods=(MethodSpec("log", "wald"), MethodSpec("tsallis", "wald", 1.2)),
                       levels=(0.9,), h0=H0Spec(0.85, "less"))
    rep = run_study(design)
    assert rep.psi_true == pytest.approx(0.85, abs=5e-5)
    for res in rep.results.values():
        assert res.n_used + res.n_failed == 40
        assert len(res.pvalues) == res.n_used
        assert len(res.medians) == res.n_used
        cov = res.coverage()
        for lv, (c, se) in cov.items():
            assert 0 <= c <= 1
            assert se == pytest.approx(np.sqrt(c * (1 - c) / res.n_used))


def test_coverage_estimator_sanity():
    # feed the bookkeeping a synthetic method whose interval contains the
    # truth with known probability 0.9
    from robustcd.simulate import MethodResult
    rng = np.random.default_rng(11)
    n = 4000
    res = MethodResult(label="oracle", levels=(0.9,))
    for _ in range(n):
        res.n_used += 1
        if rng.random() < 0.9:
            res.cover_counts[0.9] = res.cover_counts.get(0.9, 0) + 1
    cov, se = res.coverage()[0.9]
    assert abs(cov - 0.9) <= 4 * np.sqrt(0.9 * 0.1 / n)
    assert se == pytest.approx(np.sqrt(cov * (1 - cov) / n))


def test_regression_study_runs():
    design = SimDesign(model="linear-regression", theta=(1.0, 0.0, 1.0, 1.0),
                       sizes=(50,), n_reps=8, seed=21,
                       methods=(MethodSpec("tsallis", "root", 1.22),
                                MethodSpec("log", "root")),
                       levels=(0.95,), h0=H0Spec(0.0, "less"),
                       contamination=Contamination(0, -1, -7.0))
    rep = run_study(design)
    for res in rep.results.values():
        assert res.n_used == 8
    X = default_regression_design(50, 21)
    assert X.shape == (50, 3)
    assert np.allclose(X[:, 0], 1.0)
    assert np.array_equal(X, default_regression_design(50, 21))


def test_a_design_builds_its_model_through_get_model(tmp_path):
    # interest_index goes to get_model, which keeps the spec's where it is
    # not given, and the study runs the model the design built
    spec = tmp_path / "gamma.json"
    spec.write_text('{"family": "gamma", "interest_index": 1}')
    base = {"model": f"expfam:{spec}", "theta": [1.0, -1.0], "sizes": [30], "n_reps": 2,
            "methods": [{"rule": "log", "pivot": "wald"}]}
    assert SimDesign.from_dict(base).spec.interest_index == 1
    design = SimDesign.from_dict({**base, "interest_index": 0})
    assert design.spec.interest_index == 0 and run_study(design).psi_true == 1.0
    regression = SimDesign(model="linear-regression", theta=(1.0, 0.5, 0.2, 1.0), sizes=(30,),
                           n_reps=1)
    assert regression.spec.interest_index == 1
    with pytest.raises(DomainError, match="does not accept"):
        SimDesign(model="two-sample-normal", theta=(2.0, 0.0, 1.0, 1.0), sizes=(10, 20),
                  n_reps=1, interest_index=2)


def test_expfam_study_samples_and_contaminates(tmp_path):
    # a gamma family from a spec file, interest -rate: one observation moved
    # 30 out drags every log-score estimate of -rate toward 0, and the
    # Tsallis estimates by far less
    spec = tmp_path / "gamma.json"
    spec.write_text('{"family": "gamma", "interest_index": 1}')
    medians = {}
    for cont in (None, Contamination(0, -1, 30.0)):
        design = SimDesign(model=f"expfam:{spec}", theta=(1.0, -1.0), sizes=(30,), n_reps=4,
                           seed=5, methods=(MethodSpec("log", "wald"),
                                            MethodSpec("tsallis", "root", 1.2)),
                           levels=(0.9,), h0=H0Spec(-1.0, "less"), contamination=cont)
        rep = run_study(design)
        assert all(res.n_used == 4 for res in rep.results.values())
        medians[cont] = {k: np.array(res.medians) for k, res in rep.results.items()}
    clean, dirty = medians.values()
    log_moved = dirty["log-wald"] - clean["log-wald"]
    assert np.all(log_moved > 0.2)
    assert np.all(np.abs(dirty["tsallis(1.2)-root"] - clean["tsallis(1.2)-root"]) < log_moved / 3)


def test_clean_data_estimator_agreement():
    # efficiency-matched robust and log medians nearly coincide on clean data
    design = SimDesign(model="two-sample-normal", theta=(2, 0, 1, 1), sizes=(10, 20),
                       n_reps=60, seed=31,
                       methods=(MethodSpec("tsallis", "wald", 1.2324),
                                MethodSpec("log", "wald")),
                       levels=(0.9,))
    rep = run_study(design)
    med_t = np.asarray(rep.results["tsallis(1.2324)-wald"].medians)
    med_l = np.asarray(rep.results["log-wald"].medians)
    se_psi = np.sqrt(1 / 10 + 1 / 20)
    assert np.mean(np.abs(med_t - med_l)) < 0.5 * se_psi


def test_contamination_pulls_log_median():
    design = SimDesign(model="two-sample-normal", theta=(2, 0, 1, 1), sizes=(10, 20),
                       n_reps=60, seed=32,
                       methods=(MethodSpec("tsallis", "wald", 1.2324),
                                MethodSpec("log", "wald")),
                       levels=(0.9,), contamination=Contamination(0, -1, -7.0))
    rep = run_study(design)
    bias_t = np.mean(rep.results["tsallis(1.2324)-wald"].medians) - 2.0
    bias_l = np.mean(rep.results["log-wald"].medians) - 2.0
    assert bias_l < 0                      # pulled toward the -7 shift
    assert abs(bias_l) > abs(bias_t)
    assert bias_l == pytest.approx(-0.7, abs=0.1)


def test_pvalue_uniformity_stat():
    design = SimDesign(model="two-sample-normal", theta=(2, 0, 1, 1), sizes=(10, 20),
                       n_reps=2, seed=1, methods=(MethodSpec("log", "wald"),),
                       levels=(0.9,), h0=H0Spec(2.0, "less"))
    rep = run_study(design)
    # an exactly uniform grid of p-values has KS distance 1/(2k)
    res = rep.results["log-wald"]
    res.pvalues = list(np.arange(0.005, 1.0, 0.01))
    res.n_used = len(res.pvalues)
    ks, qq = pvalue_uniformity(rep, "log-wald")
    assert ks == pytest.approx(0.005, abs=1e-12)
    assert qq.shape == (99, 2)
    with pytest.raises(DomainError):
        pvalue_uniformity(rep, "nope")


def test_failure_rate_guard(monkeypatch):
    import dataclasses

    import robustcd.simulate as sim

    fit_rows = sim._fit_rows

    def broken_fit(rule, data, theta0):
        # every replicate's fit is given up
        fits = fit_rows(rule, data, theta0)
        return dataclasses.replace(fits, converged=np.zeros(len(fits), dtype=bool),
                                   errors={r: NumericsError("boom") for r in range(len(fits))})

    monkeypatch.setattr(sim, "_fit_rows", broken_fit)
    design = SimDesign(model="two-sample-normal", theta=(2, 0, 1, 1), sizes=(10, 20),
                       n_reps=4, seed=1, methods=(MethodSpec("log", "wald"),),
                       levels=(0.9,))
    with pytest.raises(NumericsError, match="failed"):
        run_study(design)


def _refit(rule, data, fr, psis):
    """The free refit that _point_pivots makes of the spurious fit fr, as
    the fits of a stack of one: from the constrained estimate of lowest
    score among psis, each solved from fr."""
    lam0 = rule.model.profile_extract(fr.theta_hat)
    theta_c = min((constrained_fit(rule, data, psi, lam0) for psi in psis), key=lambda c: c[1])[0]
    return fit(rule, rule.model.stack([data]), theta0=theta_c[None])


@pytest.mark.parametrize("rep, shift, score, pivot", [
    (622, 0.0, -22.13438, 1.12281),
    (1671, -7.0, -20.07127, -2.20172),
])
def test_point_pivot_refits_a_spurious_free_optimum(rep, shift, score, pivot):
    # Replicates of the criterion-2 studies whose free Tsallis fit stops at a
    # small-variance local minimum that the constrained fit at psi = 2 undercuts.
    m = TwoSampleNormal()
    rule = ScoreRule.tsallis(m, 1.23236)
    data = m.sample((2.0, 0.0, 1.0, 1.0), (10, 20), np.random.default_rng([20250801, rep]))
    data = contaminate(m, data, Contamination(0, -1, shift))
    fr = fit(rule, data)
    assert fr.converged and fr.score_at_opt > score + 0.1
    pivots, psi_hat, failed, _ = _point_pivots(rule, fit(rule, m.stack([data])), [2.0], "root")
    kept = _refit(rule, data, fr, [2.0])[0]
    assert not failed[0] and kept.psi_tilde == psi_hat[0]
    assert kept.converged
    assert kept.score_at_opt == pytest.approx(score, abs=1e-4)
    assert pivots[0, 0] == pytest.approx(pivot, abs=1e-4)


def test_point_pivots_solve_again_from_the_refit():
    # Replicate 1671 of the criterion-2b design with a null value of 1.5.
    # The constrained solve at psi = 1.5 warm-started at the spurious free
    # optimum stops in a constrained local minimum (score -18.40, against
    # -19.90 from the refit), which would move the pivot there to about -4.6.
    m = TwoSampleNormal()
    rule = ScoreRule.tsallis(m, 1.23236)
    data = m.sample((2.0, 0.0, 1.0, 1.0), (10, 20), np.random.default_rng([20250801, 1671]))
    data = contaminate(m, data, Contamination(0, -1, -7.0))
    fr = fit(rule, data)
    pivots, psi_hat, _, _ = _point_pivots(rule, fit(rule, m.stack([data])), [2.0, 1.5], "root")
    piv_true, piv0 = pivots[0]
    refits = _refit(rule, data, fr, [2.0, 1.5])
    kept = refits[0]
    assert kept.psi_tilde == psi_hat[0]
    assert kept.score_at_opt == pytest.approx(-20.07119, abs=1e-4)
    assert piv_true == pytest.approx(-2.20172, abs=1e-4)
    assert piv0 == pytest.approx(-1.45739, abs=1e-4)
    assert [piv0] == _point_pivots(rule, refits, [1.5], "root")[0][0].tolist()


@pytest.mark.parametrize("gamma", [None, 1.23])
def test_point_pivots_fail_per_row_as_each_replicate_alone(gamma):
    # Tiny samples with a +30 shift: some stacked stages raise for a few
    # rows. Every row of the stacked fit and pivots is then what that
    # replicate gives alone, its failure included.
    m = TwoSampleNormal()
    rule = ScoreRule.log(m) if gamma is None else ScoreRule.tsallis(m, gamma)
    reps = [contaminate(m, m.sample((2.0, 0.0, 1.0, 1.0), (2, 3), np.random.default_rng([7, r])),
                        Contamination(0, -1, 30.0)) for r in range(60)]
    fits = fit(rule, m.stack([m.checked(d) for d in reps]))
    alone = [fit(rule, m.stack([d])) for d in reps]
    for kind in ("root", "wald"):
        pivots, psi_hat, failed, errors = _point_pivots(rule, fits, [2.0, 1.5], kind)
        for r, fits_r in enumerate(alone):
            want, want_psi, want_failed, want_errors = _point_pivots(
                rule, fits_r, [2.0, 1.5], kind)
            assert failed[r] == want_failed[0]
            if want_failed[0]:
                assert type(errors[r]) is type(want_errors[0])
            else:
                assert pivots[r].tolist() == want[0].tolist() and psi_hat[r] == want_psi[0]
        if gamma is not None and kind == "root":
            # the stacked K of the free fits and the stacked nu both raise
            fit_failed = np.isin(np.arange(len(reps)), list(fits.errors))
            assert np.count_nonzero(fit_failed) == 4
            assert np.count_nonzero(failed & ~fit_failed) == 3


def test_no_warning_escapes_a_solve():
    # Cold Newton trials on these inputs overflow exp in the log transform
    # and divide by zero in the regression gradient; such a trial is a
    # rejected step, not a warning.
    import warnings

    from robustcd.confidence import build_cd
    from robustcd.models import LinearRegression
    from test_acceptance import make_outlier_regression

    design = SimDesign(
        model="two-sample-normal", theta=(2.0, 0.0, 1.0, 1.0), sizes=(10, 20),
        n_reps=50, seed=20250801,
        methods=(MethodSpec("tsallis", "root", None), MethodSpec("log", "root")),
        levels=(0.95,), h0=H0Spec(2.0, "less"),
        contamination=Contamination(0, -1, -7.0))
    data = make_outlier_regression()
    model = LinearRegression(interest_index=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_study(design)
        for rule in (ScoreRule.tsallis(model, 1.22), ScoreRule.log(model)):
            fr = fit(rule, data)
            assert fr.converged
            build_cd(rule, data, "root", fit_result=fr, span=8.0)
    assert all(res.n_failed == 0 for res in report.results.values())


# ---------------------------------------------------------------------------
# methods grouped by rule: each keeps the results it has alone
# ---------------------------------------------------------------------------

def _benchmark_study_designs():
    """The benchmark's study designs, with its methods, loaded read-only."""
    import importlib.util
    import pathlib

    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [SimDesign.from_dict(dict(base, methods=workloads.STUDY_METHODS,
                                     levels=[0.5, 0.8, 0.9, 0.95], seed=workloads.STREAM + d))
            for d, (_, base) in enumerate(workloads.STUDY_DESIGNS)]


def _methods_alone(design):
    """The methods of design's report, which must equal, bit for bit, the
    report of each method run alone and of the methods in reverse order."""
    methods = run_study(design).to_dict()["methods"]
    assert list(methods) == [m.label() for m in design.methods]
    for meth in design.methods:
        alone = run_study(dataclasses.replace(design, methods=(meth,))).to_dict()["methods"]
        assert alone == {meth.label(): methods[meth.label()]}, meth.label()
    reverse = dataclasses.replace(design, methods=design.methods[::-1])
    assert run_study(reverse).to_dict()["methods"] == methods
    return methods


@pytest.mark.parametrize("d", [0, 1], ids=["two-sample-normal", "auc-exponential"])
def test_a_grouped_study_keeps_each_benchmark_methods_results(d):
    # the calibrated tsallis root and the tsallis(1.23) wald: two gammas of one solve
    _methods_alone(_benchmark_study_designs()[d])


def test_a_grouped_study_keeps_each_methods_results_on_regression():
    design = SimDesign(model="linear-regression", theta=(1.0, 0.0, 1.0, 1.0), sizes=(40,),
                       n_reps=12, seed=21,
                       methods=(MethodSpec("tsallis", "root", 1.22), MethodSpec("log", "root"),
                                MethodSpec("tsallis", "wald", 1.5), MethodSpec("log", "wald"),
                                MethodSpec("tsallis", "wald", 1.22)),
                       levels=(0.9, 0.95), h0=H0Spec(0.0, "less"),
                       contamination=Contamination(0, -1, -7.0))
    _methods_alone(design)


def test_log_root_and_wald_share_one_block(monkeypatch):
    # the two log methods share one rule, so the study makes one free fit of
    # its replicates
    import robustcd.simulate as sim

    rows = []
    fit_rows = sim._fit_rows

    def counted(rule, data, theta0):
        rows.append(len(theta0))
        return fit_rows(rule, data, theta0)

    monkeypatch.setattr(sim, "_fit_rows", counted)
    design = SimDesign(model="auc-exponential", theta=(3.7778, 2 / 3), sizes=(20, 40),
                       n_reps=15, seed=3, methods=(MethodSpec("log", "root"),
                                                   MethodSpec("log", "wald")),
                       levels=(0.9,), h0=H0Spec(0.85, "less"))
    methods = _methods_alone(design)
    # one free fit of the 15 replicates in each of the four studies
    assert rows == [15] * 4
    assert methods["log-root"]["medians"] == methods["log-wald"]["medians"]


def test_two_auto_gamma_methods_calibrate_once(monkeypatch):
    # a design whose Tsallis root and wald methods both leave gamma null
    # calibrates it once, and reports what a calibration per method did
    import robustcd.simulate as sim

    calls = []
    calibrate = sim.calibrate_gamma

    def counted(*args):
        calls.append(args)
        return calibrate(*args)

    monkeypatch.setattr(sim, "calibrate_gamma", counted)
    design = SimDesign(model="two-sample-normal", theta=(2.0, 0.0, 1.0, 1.0), sizes=(10, 20),
                       n_reps=5, seed=3, methods=(MethodSpec("tsallis", "root"),
                                                  MethodSpec("tsallis", "wald")),
                       levels=(0.9, 0.95), h0=H0Spec(2.0, "less"))
    methods = run_study(design).to_dict()["methods"]
    assert len(calls) == 1
    medians = [1.6902244888585745, 2.440461090688352, 1.7894888920111367, 2.1108838249907564,
               2.277755904493774]
    assert methods["tsallis(auto)-root"] == {
        "label": "tsallis(auto)-root", "n_used": 5, "n_failed": 0,
        "coverage": {"0.9": [1.0, 0.0], "0.95": [1.0, 0.0]},
        "pvalues": [0.706908559675568, 0.09803640008158081, 0.7466096985698498,
                    0.3932190032771082, 0.28051572787943535],
        "medians": medians, "rejection": {"0.01": 0.0, "0.05": 0.0, "0.1": 0.2}}
    assert methods["tsallis(auto)-wald"] == {
        "label": "tsallis(auto)-wald", "n_used": 5, "n_failed": 0,
        "coverage": {"0.9": [1.0, 0.0], "0.95": [1.0, 0.0]},
        "pvalues": [0.7114693131328809, 0.09115594237638346, 0.7473061043924885,
                    0.39279000385869056, 0.28034572958554616],
        "medians": medians, "rejection": {"0.01": 0.0, "0.05": 0.0, "0.1": 0.2}}


@pytest.mark.slow
@pytest.mark.parametrize("shift, refitted", [(0.0, (342, 622)), (-7.0, (1617, 1671))])
def test_a_grouped_study_keeps_each_methods_results_through_the_refit(monkeypatch, shift,
                                                                     refitted):
    # The criterion-2 design, clean and with its -7 shift, over replicates
    # 0 to 1671: the calibrated tsallis root refits two replicates whose
    # free fits stop at a local minimum, from their profiles (_point_pivots).
    import robustcd.simulate as sim

    refits = []
    fit_rows = sim._fit_rows

    def watched(rule, data, theta0):
        if len(theta0) < 1672:
            refits.append(data[0].tolist())
        return fit_rows(rule, data, theta0)

    monkeypatch.setattr(sim, "_fit_rows", watched)
    model, theta, cont = TwoSampleNormal(), (2.0, 0.0, 1.0, 1.0), Contamination(0, -1, shift)
    design = SimDesign(model="two-sample-normal", theta=theta, sizes=(10, 20), n_reps=1672,
                       seed=20250801,
                       methods=(MethodSpec("tsallis", "root", None), MethodSpec("log", "root"),
                                MethodSpec("tsallis", "wald", 1.23)),
                       levels=(0.95,), h0=H0Spec(2.0, "less"), contamination=cont)
    _methods_alone(design)
    want = [contaminate(model, model.sample(theta, (10, 20), np.random.default_rng(
        [20250801, r])), cont)[0].tolist() for r in refitted]
    # the grouped study, the method alone and the reversed study
    assert refits == [want] * 3


def test_a_grouped_study_keeps_each_methods_failures(monkeypatch):
    # Tiny samples with a +30 shift: some replicates fail, differently per
    # method. Each method's n_failed, and the MAX_FAILURE_RATE that aborts
    # the study, are those it has alone.
    import warnings

    import robustcd.simulate as sim

    design = SimDesign(model="two-sample-normal", theta=(2.0, 0.0, 1.0, 1.0), sizes=(2, 3),
                       n_reps=60, seed=7,
                       methods=(MethodSpec("tsallis", "root", 1.23), MethodSpec("log", "root"),
                                MethodSpec("tsallis", "wald", 1.23),
                                MethodSpec("tsallis", "root", 1.5), MethodSpec("log", "wald")),
                       levels=(0.9,), h0=H0Spec(2.0, "less"),
                       contamination=Contamination(0, -1, 30.0))
    with pytest.raises(NumericsError, match=r"method tsallis\(1.23\)-root failed on 6/60"):
        run_study(design)
    monkeypatch.setattr(sim, "MAX_FAILURE_RATE", 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        methods = _methods_alone(design)
    assert {k: m["n_failed"] for k, m in methods.items()} == {
        "tsallis(1.23)-root": 6, "log-root": 0, "tsallis(1.23)-wald": 4,
        "tsallis(1.5)-root": 9, "log-wald": 0}
