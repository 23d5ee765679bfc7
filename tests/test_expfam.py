import json
import warnings

import numpy as np
import pytest

from robustcd.errors import DomainError
from robustcd.expfam import (
    betaln,
    digamma,
    expfam_beta,
    expfam_exponential,
    expfam_gamma,
    expfam_normal,
    expfam_robustness_check,
    gammaln,
    load_expfam_model,
    trigamma,
)
from robustcd.models import TwoSampleNormal
from robustcd.robustness import _decay_verdict, calibrate_gamma, efficiency_ratio
from robustcd.scoring import ScoreRule, empirical_J, empirical_K, fit, score_terms

from oracles import SCALAR_FAMILIES, expfam_score_gradient, expfam_tsallis_score, fd_gradient

# (family, three natural parameters)
FAMILY_THETAS = [
    (expfam_normal, [[0.5, -0.4], [-1.2, -0.05], [3.0, -2.5]]),
    (expfam_exponential, [[-1.7], [-0.02], [-40.0]]),
    (expfam_gamma, [[1.5, -2.0], [-0.6, -0.3], [7.0, -11.0]]),
    (expfam_beta, [[1.0, 2.0], [-0.5, -0.7], [12.0, 0.3]]),
]


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


@pytest.mark.parametrize("maker,thetas", FAMILY_THETAS)
def test_array_family_equals_its_scalar_form(maker, thetas):
    # c, c_grad, c_hess and start on one theta (one dataset) and on a stack
    # of three equal the scalar forms within 1e-14 relative
    fam = maker().family
    thetas = np.array(thetas, dtype=float)
    rng = np.random.default_rng(3)
    data = np.stack([fam.sample(th, 30, rng) for th in thetas])
    for array_form, scalar_form, args in zip(
            (fam.c, fam.c_grad, fam.c_hess, fam.start), SCALAR_FAMILIES[fam.name],
            (thetas,) * 3 + (data,)):
        want = np.array([scalar_form(a) for a in args])
        np.testing.assert_allclose(array_form(args), want, rtol=1e-14, atol=0)
        one = array_form(args[0])
        assert np.shape(one) == want.shape[1:]
        np.testing.assert_allclose(one, want[0], rtol=1e-14, atol=0)
    assert fam.in_natural(thetas).all() and fam.in_natural(thetas[0])


def test_family_cumulants_are_remembered_at_the_last_two_thetas():
    # a kernel pass asks for c_grad and c_hess at theta and gamma theta
    # several times; equal thetas share one read-only value
    for maker in (expfam_gamma, expfam_beta):
        fam = maker().family
        theta = np.array([[1.5, -2.0], [-0.6, -0.3]])
        if maker is expfam_beta:
            theta = -theta
        for f in (fam.c, fam.c_grad, fam.c_hess):
            first = f(theta)
            assert f(1.23 * theta) is not first and f(theta.copy()) is first
            with pytest.raises(ValueError):
                first[0] = 1.0
            assert np.array_equal(f(theta[1]), first[1])


SPECIAL_XS = np.concatenate([np.logspace(-3.0, 4.0, 701), np.linspace(1.40, 1.52, 401)])


def test_special_functions_are_accurate_to_mpmath():
    # absolute error at most 2e-15 max(1, |f|) for log Gamma, digamma and
    # trigamma on log-spaced x in [1e-3, 1e4] and a dense band around
    # digamma's zero near 1.4616, where its shifted sum cancels
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        for f, true in ((gammaln, mpmath.loggamma), (digamma, mpmath.digamma),
                        (trigamma, lambda x: mpmath.polygamma(1, x))):
            for x, value in zip(SPECIAL_XS.tolist(), f(SPECIAL_XS).tolist()):
                exact = true(mpmath.mpf(x))
                assert abs(value - exact) <= 2e-15 * max(1.0, abs(exact)), (f.__name__, x)


def test_betaln_is_accurate_to_mpmath():
    # log B(a, b) is a difference of three log Gammas: its absolute error is
    # at most 2e-15 times the sum of their magnitudes (each at least 1)
    mpmath = pytest.importorskip("mpmath")
    grid = np.logspace(-3.0, 4.0, 29)
    a, b = (g.ravel() for g in np.meshgrid(grid, grid))
    with mpmath.workdps(50):
        for x, y, value in zip(a.tolist(), b.tolist(), betaln(a, b).tolist()):
            x, y = mpmath.mpf(x), mpmath.mpf(y)
            scale = sum(max(1.0, abs(mpmath.loggamma(v))) for v in (x, y, x + y))
            assert abs(value - mpmath.log(mpmath.beta(x, y))) <= 2e-15 * scale, (x, y)


def test_special_functions_recur_and_keep_their_shapes():
    # psi(x + 1) = psi(x) + 1/x and psi'(x + 1) = psi'(x) - 1/x^2
    x = SPECIAL_XS
    assert np.all(np.abs(digamma(x + 1.0) - digamma(x) - 1.0 / x)
                  <= 4e-15 * (1.0 + np.abs(digamma(x)) + 1.0 / x))
    assert np.all(np.abs(trigamma(x + 1.0) - trigamma(x) + 1.0 / (x * x))
                  <= 4e-15 * (1.0 + trigamma(x)))
    # each element depends on it alone; a scalar gives a float64 and an
    # array keeps its shape
    for f in (gammaln, digamma, trigamma, lambda v: betaln(v, 2.5)):
        assert f(x[:50]).tolist() == [f(v) for v in x[:50].tolist()]
        assert type(f(0.25)) is np.float64 and type(f(np.array(0.25))) is np.float64
        assert f(np.full((2, 3), 0.25)).shape == (2, 3) and f(np.zeros(0)).shape == (0,)
        assert f([0.25, 0.5]).dtype == np.float64


@pytest.mark.parametrize("gamma", [None, 1.23, 1.8])
@pytest.mark.parametrize("maker,thetas", FAMILY_THETAS)
def test_expected_kj_matches_a_large_sample(maker, thetas, gamma):
    # the closed-form K and J against the observed ones on 40 batches of
    # 5000 draws, within 5 standard errors of the batch mean
    model = maker()
    theta = np.array(thetas[0])
    rule = ScoreRule.log(model) if gamma is None else ScoreRule.tsallis(model, gamma)
    batches = model.stack(list(model.family.sample(theta, 200000, np.random.default_rng(8))
                               .reshape(40, 5000)))
    thetas = np.tile(theta, (40, 1))
    K, J = model.expected_kj(rule.kind, gamma, model.take(batches, 0), theta)
    for closed, observed in ((K, empirical_K(rule, batches, thetas)),
                             (J, empirical_J(rule, batches, thetas))):
        se = observed.std(axis=0, ddof=1) / np.sqrt(40)
        assert np.all(np.abs(observed.mean(axis=0) - closed)
                      <= 5 * se + 1e-12 * np.abs(closed)), (model.name, gamma)
    if gamma is not None:
        # a gamma per row of a stack gives each row's pair alone, bit for bit
        gammas = np.array([gamma, 1.5, 1.0001])
        stacked = model.expected_kj("tsallis", gammas, model.take(batches, np.arange(3)),
                                    thetas[:3])
        for r, g in enumerate(gammas):
            alone = model.expected_kj("tsallis", g, model.take(batches, r), theta)
            assert all(np.array_equal(a[r], b) for a, b in zip(stacked, alone))


def test_calibrate_gamma_bisects_below_where_J_is_infinite():
    # at theta = (-0.25, -1) the tilt gamma theta stays in the natural space
    # on the whole bracket, but (2 gamma - 1) theta leaves it for gamma >= 2.5,
    # where J is infinite and the efficiency counts as its limit 0; the
    # target 0.9 lies between the efficiencies at 1.1 (0.948) and 1.2 (0.831)
    model = expfam_gamma()
    y = np.random.default_rng(17).gamma(0.75, 1.0, 40)
    K, J = model.expected_kj("tsallis", 2.4, model.checked(y), np.array([-0.25, -1.0]))
    assert np.isfinite(K).all() and np.isfinite(J).all()
    with pytest.raises(DomainError, match="natural space"):
        model.expected_kj("tsallis", 2.5, model.checked(y), np.array([-0.25, -1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # no monotonicity warning from the undefined probes
        gamma = calibrate_gamma(model, np.array([-0.25, -1.0]), 0.9, y)
    assert 1.1 < gamma < 1.2
    assert efficiency_ratio(model, gamma, y, np.array([-0.25, -1.0])) == pytest.approx(
        0.9, abs=1e-3)


def test_natural_space_violation_raises():
    ef = expfam_gamma()
    # shape 0.5: gamma * theta_1 = 2.2 * (-0.5) = -1.1 < -1 leaves the space
    with pytest.raises(DomainError):
        score_terms(ScoreRule.tsallis(ef, 2.2), np.array([1.0]), np.array([-0.5, -1.0]))


def test_boundedness_verdicts():
    # normal: bounded for any gamma > 1
    rep = expfam_robustness_check(expfam_normal(), np.array([0.0, -0.5]), 1.5)
    assert all(rep.bounded)
    # gamma family with shape < 1: unbounded near the origin
    rep = expfam_robustness_check(expfam_gamma(), np.array([-0.5, -1.0]), 1.5)
    assert not all(rep.bounded)
    # gamma family with shape > 1: bounded
    rep = expfam_robustness_check(expfam_gamma(), np.array([1.0, -1.0]), 1.5)
    assert all(rep.bounded)
    # beta(2, 2): bounded; beta(0.5, 0.5): not
    rep = expfam_robustness_check(expfam_beta(), np.array([1.0, 1.0]), 1.5)
    assert all(rep.bounded)
    rep = expfam_robustness_check(expfam_beta(), np.array([-0.5, -0.5]), 1.5)
    assert not all(rep.bounded)
    # exponential: b(y) tends to the finite -rate^(gamma - 1) / rate as y -> 0,
    # above a tenth of the interior maximum, so only the edge limit reads it
    for gamma in (1.1, 1.5, 2.5):
        rep = expfam_robustness_check(expfam_exponential(), np.array([-1.0]), gamma)
        assert all(rep.bounded) and rep.shell_max[0] > 0.1 * rep.interior_max[0]
    # the shared verdict: two leading and two trailing shell probes, two
    # interior rows; a non-finite shell probe reads as unbounded even where
    # the finite ones have decayed
    absvals = np.array([[np.inf, 0.0, 0.0], [0.0, 0.0, 0.1], [1.0, 1.0, 1.0],
                        [2.0, 2.0, 2.0], [0.0, np.nan, 0.2], [0.0, 0.0, 0.0]])
    bounded, shell, interior = _decay_verdict(absvals, 2, 2, (False, False))
    assert bounded.tolist() == [False, False, True]
    assert np.array_equal(interior, [2.0, 2.0, 2.0]) and shell[2] == 0.2
    # toward a finite left edge, a column that no longer grows there holds
    # its side; one that still grows, or a non-finite probe, does not
    absvals = np.array([[1.5, 1.6, np.inf], [1.5, 1.5, 1.0], [1.0, 1.0, 1.0],
                        [2.0, 2.0, 2.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert _decay_verdict(absvals, 2, 2, (True, False))[0].tolist() == [True, False, False]
    assert not _decay_verdict(absvals, 2, 2, (False, False))[0].any()


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
    # an explicit interest_index overrides the spec's; None keeps it
    assert load_expfam_model(str(spec), interest_index=0).interest_name == "theta_1"
    assert load_expfam_model(str(spec), interest_index=None).interest_index == 1
    with pytest.raises(DomainError, match="interest_index"):
        load_expfam_model(str(spec), intercept=True)
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
