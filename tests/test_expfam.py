import json

import numpy as np
import pytest

from robustcd.errors import DomainError
from robustcd.expfam import (
    expfam_beta,
    expfam_exponential,
    expfam_gamma,
    expfam_normal,
    expfam_robustness_check,
    load_expfam_model,
)
from robustcd.models import TwoSampleNormal
from robustcd.scoring import ScoreRule, fit, score_terms

from oracles import expfam_score_gradient, expfam_tsallis_score, fd_gradient


def test_normal_natural_form_matches_density_model():
    ef = expfam_normal()
    theta_nat = np.array([0.0, -0.5])      # N(0, 1)
    s = expfam_tsallis_score(ef, 0.0, theta_nat, 2.0)
    assert s == pytest.approx(-0.5157898, abs=1e-7)
    # cross-check against the generic machinery on the two-sample model
    m = TwoSampleNormal()
    term = score_terms(ScoreRule.tsallis(m, 2.0),
                       (np.array([0.0]), np.array([0.0])),
                       np.array([0.0, 0.0, 1.0, 1.0]))[0]
    assert s == pytest.approx(term, rel=1e-12)
    # arbitrary y as well
    for y in (-1.3, 0.4, 2.2):
        s_y = expfam_tsallis_score(ef, y, theta_nat, 1.7)
        term_y = score_terms(ScoreRule.tsallis(m, 1.7),
                             (np.array([y]), np.array([0.0])),
                             np.array([0.0, 0.0, 1.0, 1.0]))[0]
        assert s_y == pytest.approx(term_y, rel=1e-12)


def test_exponential_natural_form_value():
    ef = expfam_exponential()
    assert expfam_tsallis_score(ef, 0.0, np.array([-1.0]), 2.0) == pytest.approx(-1.5)
    # matches the closed-form power integral path on the AUC model
    from robustcd.models import tsallis_integral_exponential
    val = expfam_tsallis_score(ef, 0.7, np.array([-2.0]), 1.5)
    want = 0.5 * tsallis_integral_exponential(2.0, 1.5) - 1.5 * (2 * np.exp(-1.4)) ** 0.5
    assert val == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("maker,theta,gamma", [
    (expfam_normal, np.array([0.5, -0.4]), 1.6),
    (expfam_exponential, np.array([-1.7]), 2.0),
    (expfam_gamma, np.array([1.5, -2.0]), 1.4),
    (expfam_beta, np.array([1.0, 2.0]), 1.3),
])
def test_expfam_gradient_matches_finite_differences(maker, theta, gamma):
    ef = maker()
    for y in ef.family.sample(theta, 3, np.random.default_rng(0)):
        g = expfam_score_gradient(ef, y, theta, gamma)
        g_fd = fd_gradient(lambda t: expfam_tsallis_score(ef, y, t, gamma), theta,
                           step=1e-6)
        assert np.allclose(g, g_fd, rtol=1e-5, atol=1e-8)


def test_expfam_gradient_matches_generic_machinery():
    ef = expfam_gamma()
    theta = np.array([1.5, -2.0])
    y = np.array([0.4, 1.1, 2.0])
    rule = ScoreRule.tsallis(ef, 1.4)
    from robustcd.scoring import per_obs_gradient
    got = per_obs_gradient(rule, y, theta)
    want = expfam_score_gradient(ef, y, theta, 1.4)
    assert np.allclose(got, want, rtol=1e-10)


def test_natural_space_violation_raises():
    ef = expfam_gamma()
    # shape 0.5: gamma * theta_1 = 2.2 * (-0.5) = -1.1 < -1 leaves the space
    with pytest.raises(DomainError):
        score_terms(ScoreRule.tsallis(ef, 2.2), np.array([1.0]), np.array([-0.5, -1.0]))


def test_boundedness_verdicts():
    # normal: bounded for any gamma > 1
    rep = expfam_robustness_check(expfam_normal(), np.array([0.0, -0.5]), 1.5)
    assert rep.all_bounded
    # gamma family with shape < 1: unbounded near the origin
    rep = expfam_robustness_check(expfam_gamma(), np.array([-0.5, -1.0]), 1.5)
    assert not rep.all_bounded
    # gamma family with shape > 1: bounded
    rep = expfam_robustness_check(expfam_gamma(), np.array([1.0, -1.0]), 1.5)
    assert rep.all_bounded
    # beta(2, 2): bounded; beta(0.5, 0.5): not
    rep = expfam_robustness_check(expfam_beta(), np.array([1.0, 1.0]), 1.5)
    assert rep.all_bounded
    rep = expfam_robustness_check(expfam_beta(), np.array([-0.5, -0.5]), 1.5)
    assert not rep.all_bounded


def test_expfam_model_fits():
    rng = np.random.default_rng(11)
    y = rng.normal(1.0, 2.0, 400)
    ef = expfam_normal()
    fr = fit(ScoreRule.log(ef), y)
    assert fr.converged
    m, v = y.mean(), y.var()
    assert np.allclose(fr.theta_hat, [m / v, -0.5 / v], rtol=1e-6)

    ye = rng.exponential(0.5, 300)
    efe = expfam_exponential()
    fe = fit(ScoreRule.log(efe), ye)
    assert fe.theta_hat[0] == pytest.approx(-1.0 / ye.mean(), rel=1e-8)

    # robust fit shrugs off one wild point
    y_c = y.copy(); y_c[0] += 60.0
    fr_t = fit(ScoreRule.tsallis(ef, 1.5), y_c)
    assert fr_t.converged
    v_t = -0.5 / fr_t.theta_hat[1]
    assert abs(v_t - 4.0) < 1.0


def test_load_expfam_model(tmp_path):
    spec = tmp_path / "fam.json"
    spec.write_text(json.dumps({"family": "gamma", "interest_index": 1}))
    model = load_expfam_model(str(spec))
    assert model.name == "expfam-gamma"
    assert model.interest_index == 1
    with pytest.raises(DomainError):
        load_expfam_model(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"family": "cauchy"}))
    with pytest.raises(DomainError):
        load_expfam_model(str(bad))


def test_expfam_support_validation():
    ef = expfam_gamma()
    with pytest.raises(DomainError):
        ef.validate_data(np.array([0.0, 1.0]))  # open left support
    efb = expfam_beta()
    with pytest.raises(DomainError):
        efb.validate_data(np.array([0.5, 1.0]))
