import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from robustcd.confidence import pivot_wald
from robustcd.errors import DomainError, NumericsError
from robustcd.models import ExponentialAUC, TwoSampleNormal
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
    _point_pivot,
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
        two = float(2.0 * (1.0 - ndtr(abs(q))))
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
    import robustcd.simulate as sim

    def broken_fit(rule, data, **kw):
        raise NumericsError("boom")

    monkeypatch.setattr(sim, "fit_rule", broken_fit)
    design = SimDesign(model="two-sample-normal", theta=(2, 0, 1, 1), sizes=(10, 20),
                       n_reps=4, seed=1, methods=(MethodSpec("log", "wald"),),
                       levels=(0.9,))
    with pytest.raises(NumericsError, match="failed"):
        run_study(design)


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
    piv, kept = _point_pivot(rule, fr, 2.0, "root")
    assert kept.converged
    assert kept.score_at_opt == pytest.approx(score, abs=1e-4)
    assert piv == pytest.approx(pivot, abs=1e-4)


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
