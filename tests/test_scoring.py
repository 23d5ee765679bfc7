import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

from robustcd import confidence, scoring
from robustcd.errors import DomainError, NumericsError
from robustcd.expfam import expfam_beta, expfam_exponential, expfam_gamma, expfam_normal
from robustcd.models import (
    ExponentialAUC,
    LinearRegression,
    NormalAUC,
    TwoSampleNormal,
    _fd_jacobian,
    tsallis_integral_normal,
)
from robustcd.scoring import (
    ScoreRule,
    _Objective,
    _derivatives,
    _evaluate,
    _from_z,
    _to_z,
    checked_inverse,
    empirical_J,
    empirical_K,
    estimate_KJ,
    fit,
    interest_information,
    minimize_smooth,
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


def test_a_gamma_of_1_is_a_log_row_of_a_stack_only(two_sample_data):
    # One gamma must exceed 1, as a number of any type; in a gamma per row
    # of a stack, a 1-D array, exactly 1 marks a row scored by the log
    # score, and below 1 is refused
    m = TwoSampleNormal()
    for gamma in (1.0, 1, np.float64(1.0), 0.9):
        with pytest.raises(DomainError):
            ScoreRule.tsallis(m, gamma)
        with pytest.raises(DomainError):
            ScoreRule("tsallis", m, gamma)
    with pytest.raises(DomainError):
        ScoreRule("tsallis", m, np.array([1.0, 0.9, 1.2]))
    for gamma in (np.array(1.2), np.array([[1.2, 1.0]])):
        with pytest.raises(DomainError, match="1-D"):
            ScoreRule("tsallis", m, gamma)
    rule = ScoreRule("tsallis", m, np.array([1.0, 1.2, 1.0]))
    # the rows selected: the log rule where all are log rows
    assert scoring._rule_rows(rule, 0) == ScoreRule.log(m)
    assert scoring._rule_rows(rule, np.array([0, 2])) == ScoreRule.log(m)
    assert scoring._rule_rows(rule, 1) == ScoreRule.tsallis(m, 1.2)
    assert scoring._rule_rows(rule, np.array([1, 2])).gamma.tolist() == [1.2, 1.0]
    # a fit of the stack: each Fit carries its row's plain rule
    fits = fit(rule, m.stack([two_sample_data] * 3))
    assert [fits[r].rule for r in range(3)] == [ScoreRule.log(m), ScoreRule.tsallis(m, 1.2),
                                                ScoreRule.log(m)]
    assert fits[0].rule.gamma is None and fits[0].rule.label() == "log"
    log_fit = fit(ScoreRule.log(m), two_sample_data)
    assert np.array_equal(fits[0].theta_hat, log_fit.theta_hat)
    assert np.array_equal(fits[2].V, log_fit.V)


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


def _rows_of(fun):
    """The stacked ``fun(z, rows)`` of a one-problem ``fun(z) -> (value,
    gradient, Hessian, ||g||, converged)``, evaluated row by row."""
    def stacked(z, rows):
        return tuple(map(np.array, zip(*(fun(z_r) for z_r in z))))
    return stacked


def _quadratic(converged):
    """f(z) = z'z, its verdict ``converged`` everywhere."""
    def quadratic(z):
        return float(z @ z), 2.0 * z, 2.0 * np.eye(z.size), np.linalg.norm(2.0 * z), converged
    return _rows_of(quadratic)


def test_minimize_smooth_names_its_stop():
    z, f, _, reason, _, _ = minimize_smooth(_quadratic(True), np.array([[1.0, -2.0]]))
    assert list(reason) == ["gradient"]
    assert f[0] == pytest.approx(0.0, abs=1e-18)

    # the gradient stop needs the verdict too; without it the solve runs on
    # until its steps vanish
    _, _, _, reason, _, _ = minimize_smooth(_quadratic(False), np.array([[1.0, -2.0]]))
    assert list(reason) == ["step"]

    def nowhere_finite(z):
        return np.inf, np.zeros_like(z), np.zeros((z.size, z.size)), np.inf, False

    _, _, _, reason, _, _ = minimize_smooth(_rows_of(nowhere_finite), np.array([[1.0]]))
    assert list(reason) == ["not_finite"]


def test_minimize_smooth_stops_a_row_whose_newton_system_is_singular(monkeypatch):
    # The spectrum shift leaves no finite system that reliably cannot be
    # solved, so the failure is injected: a zero Hessian is refused. Row 1
    # stops where it started; the other rows solve on.
    _refusing_zero_hessians(monkeypatch)
    quadratic = _quadratic(True)

    def fun(z, rows):
        f, g, H, gnorm, converged = quadratic(z, rows)
        H[rows == 1] = 0.0
        return f, g, H, gnorm, converged

    z0 = np.array([[1.0, -2.0], [3.0, 4.0], [-1.0, 0.5]])
    z, f, n_iter, reason, _, _ = minimize_smooth(fun, z0)
    assert list(reason) == ["gradient", "singular", "gradient"]
    assert n_iter[1] == 0 and np.array_equal(z[1], z0[1]) and f[1] == 25.0
    assert np.array_equal(z[[0, 2]], np.zeros((2, 2)))


def _stop_case(kind, z):
    """(value, gradient, Hessian, ||g||, converged) at z of a problem whose
    solve from (1, -2) stops for the reason ``kind``, MAX_ITER being 3 and a
    zero Hessian refused (see ``_refusing_zero_hessians``)."""
    if kind in ("gradient", "step"):
        # z'z: one exact step; without the verdict the next step vanishes
        converged = kind == "gradient"
        return float(z @ z), 2.0 * z, 2.0 * np.eye(z.size), np.linalg.norm(2.0 * z), converged
    if kind == "no_decrease":
        # a gradient that is not finite gives a step that is not finite, so
        # no trial point is finite and no step floor is reached: only the
        # 40-backtrack cap stops the row (a finite step, at most 1 + ||z||
        # long, reaches the floor within 34 backtracks and stops for "step")
        return float(z.sum()), np.full_like(z, np.nan), 1e-3 * np.eye(z.size), 1.0, False
    if kind == "singular":
        return float(z @ z), 2.0 * z, np.zeros((z.size, z.size)), np.linalg.norm(2.0 * z), False
    if kind == "not_finite":
        return np.inf, np.zeros_like(z), np.zeros((z.size, z.size)), np.inf, False
    # sum z^4 / 4: each Newton step shrinks z by a third, so the cap comes first
    return (float((z ** 4).sum() / 4.0), z ** 3, np.diag(3.0 * z ** 2),
            np.linalg.norm(z ** 3), False)


def _refusing_zero_hessians(monkeypatch):
    """Make _newton_steps refuse, as singular, a stack with a zero Hessian."""
    solve = scoring._newton_steps

    def refusing(H, g):
        if np.any(H[..., 0, 0] == 0.0):
            raise NumericsError("the Newton system cannot be solved")
        return solve(H, g)

    monkeypatch.setattr(scoring, "_newton_steps", refusing)


def _stop_cases(kinds, calls):
    """The stacked fun(z, rows) of _stop_case, row i of the stack being
    kinds[i]; each call's row count is appended to calls."""
    def fun(z, rows):
        calls.append(len(rows))
        return tuple(map(np.array, zip(*(_stop_case(kinds[i], z_i) for i, z_i in zip(rows, z)))))
    return fun


STOP_REASONS = ["gradient", "step", "no_decrease", "singular", "not_finite", "max_iter"]


def test_minimize_smooth_stops_each_row_for_its_reason_as_alone(monkeypatch):
    # one stack whose rows stop for the six reasons: every row's z, f,
    # n_iter, reason and verdict are, bit for bit, its stack of one's
    monkeypatch.setattr(scoring, "MAX_ITER", 3)
    _refusing_zero_hessians(monkeypatch)
    z0 = np.tile([1.0, -2.0], (len(STOP_REASONS), 1))
    out = minimize_smooth(_stop_cases(STOP_REASONS, []), z0)
    assert list(out[3]) == STOP_REASONS
    assert list(out[2]) == [1, 2, 1, 0, 0, 3]
    for r, kind in enumerate(STOP_REASONS):
        alone = minimize_smooth(_stop_cases([kind], []), z0[r:r + 1])
        assert np.array_equal(out[0][r], alone[0][0]), kind
        assert [a[r] for a in out[1:]] == [a[0] for a in alone[1:]], kind


def test_a_round_evaluates_its_trial_points_in_one_call(monkeypatch):
    # rows that take different numbers of rounds, backtracking or not, and
    # none raising: each round evaluates every pending trial point in one
    # call, so the stack takes as many calls as its slowest row alone, and
    # evaluates each row as often as that row alone
    _refusing_zero_hessians(monkeypatch)
    z0 = np.tile([1.0, -2.0], (len(STOP_REASONS), 1))
    calls = []
    minimize_smooth(_stop_cases(STOP_REASONS, calls), z0)
    alone = []
    for r, kind in enumerate(STOP_REASONS):
        alone.append([])
        minimize_smooth(_stop_cases([kind], alone[-1]), z0[r:r + 1])
    assert len(calls) == max(map(len, alone)) > 40
    assert sum(calls) == sum(map(sum, alone))


def test_newton_steps_shift_a_spectrum_small_next_to_its_largest():
    # [[1, 3], [3, 9]] is singular, but its smallest eigenvalue reads as a
    # round-off positive; shifted relative to the largest, its system is
    # solved, alone and in a stack, where the other row is not shifted
    H = np.array([[1.0, 3.0], [3.0, 9.0]])
    step = scoring._newton_steps(H, np.array([1.0, -1.0]))
    assert np.isfinite(step).all()
    steps = scoring._newton_steps(np.stack([H, 2.0 * np.eye(2)]),
                                  np.array([[1.0, -1.0], [1.0, 1.0]]))
    assert np.array_equal(steps[0], step) and np.array_equal(steps[1], [-0.5, -0.5])


def _double_well(z, rows):
    """sum_j z_j^4 / 4 - z_j^2 / 2 per row, its minima at {-1, 1}^d and its
    Hessian indefinite where some |z_j| < 3^-1/2, with the verdict
    ||g|| <= 1e-8."""
    g = z ** 3 - z
    H = np.eye(z.shape[1]) * (3 * z ** 2 - 1)[:, None]
    gnorm = np.linalg.norm(g, axis=1)
    return (z ** 4 / 4 - z ** 2 / 2).sum(axis=1), g, H, gnorm, gnorm <= 1e-8


def test_every_step_is_at_most_one_plus_the_norm_of_z_long(monkeypatch):
    # Rows 0 and 1 start where the double well's Hessian is negative
    # definite, so their shifted Newton steps are some 1e7 long; row 2
    # starts where it is convex. The solve accepts no step longer than
    # 1 + ||z||, rows 0 and 1 take steps of that length, and each row ends,
    # bit for bit, where it ends alone. The accepted points are read off by
    # capping the iterations at k = 1, 2, ...
    z0 = np.array([[0.1, -0.05], [0.2, 0.1], [2.0, -3.0]])
    _, g0, H0, _, _ = _double_well(z0, np.arange(3))
    assert (np.linalg.eigvalsh(H0)[:2, -1] < 0).all() and (np.linalg.eigvalsh(H0)[2] > 0).all()
    assert (scoring._norm(scoring._newton_steps(H0[:2], g0[:2])) > 1e6).all()
    out = minimize_smooth(_double_well, z0)
    assert list(out[3]) == ["gradient"] * 3
    assert np.allclose(np.abs(out[0]), 1.0, rtol=0.0, atol=1e-9)
    for r in range(3):
        alone = minimize_smooth(_double_well, z0[r:r + 1])
        assert np.array_equal(out[0][r], alone[0][0])
        assert [a[r] for a in out[1:]] == [a[0] for a in alone[1:]]
    path = [z0]
    for k in range(1, out[2].max() + 1):
        monkeypatch.setattr(scoring, "MAX_ITER", k)
        path.append(minimize_smooth(_double_well, z0)[0])
    path = np.array(path)                           # (iterations + 1, rows, 2)
    steps, bound = scoring._norm(np.diff(path, axis=0)), 1.0 + scoring._norm(path[:-1])
    assert (steps <= bound * (1.0 + 1e-12)).all()
    at_bound = np.isclose(steps, bound, rtol=1e-12, atol=0.0).any(axis=0)
    assert list(at_bound) == [True, True, False]


def test_fit_gives_up_a_row_whose_start_cannot_be_scored():
    # gamma theta_1 = 1.5 * -0.9 leaves the gamma family's natural space, so
    # the Tsallis score of row 1's admissible start raises: the row is given
    # up with what scoring it alone raises, and the other rows fit as alone
    rule = ScoreRule.tsallis(expfam_gamma(), 1.5)
    y = np.random.default_rng(8).gamma(3.0, 0.5, (3, 40))
    starts = np.array([[1.0, -1.0], [-0.9, -1.0], [1.0, -1.5]])
    out = fit(rule, rule.model.stack(list(y)), theta0=starts)
    with pytest.raises(DomainError) as alone:
        total_score(rule, y[1], starts[1])
    assert list(out.errors) == [1] and not out.converged[1]
    assert type(out.errors[1]) is DomainError and str(out.errors[1]) == str(alone.value)
    with pytest.raises(DomainError):
        out[1]
    for r in (0, 2):
        ref = fit(rule, y[r], theta0=starts[r])
        assert out[r].converged and np.array_equal(out[r].theta_hat, ref.theta_hat)


def test_fit_restarts_a_row_from_jittered_starts_until_it_converges(monkeypatch):
    # from a start far from the data the first solve stops short, and the
    # jittered restarts run while a row has not converged: Tsallis 1.05
    # converges in the second restart, Tsallis 1.5 from tiny variances in
    # neither. Each restart is one solve of the rows still running, and a
    # row keeps its fit alone bit for bit in a stack whose other row
    # converges at once.
    rng = np.random.default_rng(0)
    data = (rng.normal(2.0, 1.0, 12), rng.normal(0.0, 1.0, 24))
    model = TwoSampleNormal()
    solves = []
    solve = _Objective.solve
    monkeypatch.setattr(_Objective, "solve",
                        lambda self, z0: solves.append(len(z0)) or solve(self, z0))
    rule, far = ScoreRule.tsallis(model, 1.05), np.array([1e5, -1e5, 1.0, 1.0])
    fr = fit(rule, data, theta0=far)
    assert (fr.converged, fr.stop_reason, fr.n_iter, solves) == (True, "gradient", 195, [1, 1, 1])
    solves.clear()
    stuck = fit(ScoreRule.tsallis(model, 1.5), data, theta0=np.array([1e5, -1e5, 1e-8, 1e-8]))
    assert (stuck.converged, stuck.stop_reason, solves) == (False, "max_iter", [1, 1, 1])
    solves.clear()
    starts = np.array([far, [2.0, 0.0, 1.0, 1.0]])
    out = fit(rule, model.stack([data, data]), theta0=starts)
    assert solves == [2, 1, 1] and out.n_iter[1] < out.n_iter[0]
    for r in (0, 1):
        alone = fit(rule, data, theta0=starts[r])
        for name in ("theta_hat", "score_at_opt", "K", "J", "converged", "n_iter",
                     "grad_norm", "stop_reason"):
            assert np.array_equal(getattr(out[r], name), getattr(alone, name)), (r, name)


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
    # analytic K and J coincide exactly for the log rule
    assert np.allclose(fr.J @ np.linalg.inv(fr.K), np.eye(4), atol=1e-12)


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
    y = me.checked(np.random.default_rng(1).exponential(1.0, 300))
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
    # the interest entries of K^-1 and G^-1 for a coordinate interest
    rng = np.random.default_rng(9)
    A = rng.normal(size=(4, 4)); K = A @ A.T + 4 * np.eye(4)
    B = rng.normal(size=(4, 4)); J = B @ B.T + np.eye(4)
    V = np.linalg.inv(K) @ J @ np.linalg.inv(K).T
    G = np.linalg.inv(V)
    for i in (0, 2):
        grad = np.zeros(4); grad[i] = 1.0
        k_pp, g_pp = interest_information(K, J, grad)
        assert k_pp == pytest.approx(np.linalg.inv(K)[i, i], rel=1e-10)
        assert g_pp == pytest.approx(np.linalg.inv(G)[i, i], rel=1e-8)


def test_singular_k_raises():
    K = np.array([[1.0, 1.0], [1.0, 1.0]])
    J = np.eye(2)
    with pytest.raises(NumericsError):
        sandwich(K, J)


def test_checked_inverse_raises_on_non_finite_matrices():
    # a non-finite matrix, alone or in a stack, raises NumericsError (not
    # numpy's LinAlgError), with no numpy warning, so the per-row rule
    # catches it and its row fails alone
    bad = np.diag([1.0, np.nan, 1.0])        # eigvalsh raises LinAlgError on it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a in (bad, np.array([[np.nan, 0.0], [0.0, 1.0]]),
                  np.array([[np.inf, 0.0], [0.0, 1.0]]), np.stack([np.eye(3), bad])):
            with pytest.raises(NumericsError):
                checked_inverse(a)
        stack = np.stack([2.0 * np.eye(3), bad, np.eye(3)])
        out = np.full((3, 3, 3), np.nan)
        errors = scoring._stacked(lambda at: checked_inverse(stack[at]), np.arange(3), out)
    assert list(errors) == [1] and isinstance(errors[1], NumericsError)
    assert np.array_equal(out[0], 0.5 * np.eye(3)) and np.array_equal(out[2], np.eye(3))
    assert np.isnan(out[1]).all()


def test_stacked_halves_a_stack_until_its_failing_rows_stand_alone():
    # one failing row of 64 costs about 2 log2(64) stacked calls, not 64
    # single ones, and every row gets what it gets alone, written at its
    # destination row: here rows 100 to 163 of a 200-row output
    values = np.arange(64.0)
    calls = []

    def stage(at):
        calls.append(at)
        part = values[at]
        if np.any(part == 37.0):
            raise DomainError("planted")
        return 2.0 * part, -part

    rows = np.arange(100, 164)
    out = (np.full(200, np.nan), np.full(200, np.inf))
    errors = scoring._stacked(stage, rows, out)
    assert list(errors) == [137] and isinstance(errors[137], DomainError)
    kept = rows[rows != 137]
    assert out[0][kept].tolist() == [2.0 * r for r in range(64) if r != 37]
    assert out[1][kept].tolist() == [-float(r) for r in range(64) if r != 37]
    # the failed row and every row outside the range keep the fill
    outside = np.r_[0:100, 137, 164:200]
    assert np.isnan(out[0][outside]).all() and np.isposinf(out[1][outside]).all()
    # the whole stack, each failing part's two halves, and rows 36 and 37
    # alone, each a stack of one, the halves of the last failing pair
    assert calls[0] == slice(None) and len(calls) == 2 * 6 + 1
    assert all(isinstance(at, slice) for at in calls)
    assert [at for at in calls[1:] if at.stop - at.start == 1] == [slice(36, 37), slice(37, 38)]

    # a failing stack of one is that row alone: it is not evaluated again
    values = np.array([37.0])
    del calls[:]
    out = np.full(3, np.nan)
    errors = scoring._stacked(lambda at: stage(at)[0], np.array([2]), out)
    assert list(errors) == [2] and isinstance(errors[2], DomainError)
    assert np.isnan(out).all() and calls == [slice(None)]


def test_checked_inverse_caps_the_two_norm_condition_number():
    # the cap reads the eigenvalue form of the 2-norm condition number,
    # which np.linalg.cond computes from singular values
    rng = np.random.default_rng(8)
    for log_cond in np.linspace(10.0, 14.0, 41):
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        a = (q * np.array([1.0, -10.0 ** (log_cond / 3), 10.0 ** (log_cond / 2),
                           10.0 ** log_cond])) @ q.T
        cond = np.linalg.cond(0.5 * (a + a.T))
        if abs(np.log10(cond) - 12.0) < 1e-6:
            continue
        if cond <= scoring.MAX_CONDITION:
            assert np.array_equal(checked_inverse(a), checked_inverse(np.stack([a]))[0])
        else:
            with pytest.raises(NumericsError):
                checked_inverse(a)


def test_total_score_and_gradient_give_one_per_row_of_a_stack():
    model = TwoSampleNormal()
    rng = np.random.default_rng(3)
    datasets = [model.checked((rng.normal(2.0, 1.0, 12), rng.normal(0.0, 1.0, 24)))
                for _ in range(3)]
    thetas = np.array([[2.0, 0.0, 1.0, 1.0], [1.8, 0.2, 1.3, 0.8], [2.1, -0.1, 0.9, 1.1]])
    stack = model.stack(datasets)
    for rule in (ScoreRule.log(model), ScoreRule.tsallis(model, 1.23)):
        totals = total_score(rule, stack, thetas)
        grads = score_gradient(rule, stack, thetas)
        assert totals.shape == (3,) and grads.shape == (3, 4)
        for r, (data, theta) in enumerate(zip(datasets, thetas)):
            assert totals[r] == total_score(rule, data, theta)
            assert np.array_equal(grads[r], score_gradient(rule, data, theta))
            # one dataset keeps the bits of the sums over all entries
            assert total_score(rule, data, theta) == score_terms(rule, data, theta).sum()
            assert np.array_equal(score_gradient(rule, data, theta),
                                  per_obs_gradient(rule, data, theta).sum(axis=0))


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
    integrals = model.tsallis_integral_obs(data, theta, gamma)
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
    igrad = model.tsallis_integral_grad_obs(data, theta, gamma,
                                            model.tsallis_integral_obs(data, theta, gamma))
    return a * igrad - gamma * a * fa[:, None] * dlogf


@pytest.fixture(scope="module")
def kernel_cases(all_models):
    y = np.random.default_rng(11).gamma(3.0, 0.5, 80)
    cases = [(model, model.checked(data)) for model, data in all_models + [(expfam_gamma(), y)]]
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

        # the objective on the dataset as a stack of one
        objective = _Objective(rule, model.stack([data]))
        val, g, _, _ = _evaluate(rule, objective.data, None, theta[None])
        assert val[0] == total_score(rule, data, theta)
        assert np.array_equal(g[0], score_gradient(rule, data, theta))
        # the unconstrained coordinates see the same numbers
        z = _to_z(theta, objective.positive)
        val_z, g_z, *_ = objective(z[None], np.arange(1))
        x = _from_z(z, objective.positive)
        want = score_gradient(rule, data, x) * np.where(objective.positive, x, 1.0)
        assert val_z[0] == total_score(rule, data, x)
        assert np.array_equal(g_z[0], want)

        # the eps-mixture: (1 - eps) S_data + n eps S_frame, term by term
        eps, n = 1e-4, model.nobs(data)
        center, _ = model.obs_center_scale(data, theta, 0)
        frame = model.checked(model.contamination_frame([center + 0.3], data))
        val_m, g_m, _, _ = _evaluate(rule, model.stack([data]),
                                     (np.array([eps]), model.stack([frame])), theta[None])
        assert val_m[0] == ((1.0 - eps) * total_score(rule, data, theta)
                            + n * eps * total_score(rule, frame, theta))
        assert np.array_equal(g_m[0], (1.0 - eps) * score_gradient(rule, data, theta)
                              + n * eps * score_gradient(rule, frame, theta))


# ---------------------------------------------------------------------------
# no pass over the data follows a solve
# ---------------------------------------------------------------------------

@pytest.fixture
def kernel_calls(monkeypatch):
    """Row-passes of the kernel so far, one per call on one dataset and one
    per row on a stack, and for each minimize_smooth call the count at its
    entry and at its return, with its stop reason or a row's reasons."""
    calls, solves = [], []
    kernel = scoring._kernel

    def counted(rule, data, theta, *args, **kwargs):
        calls.append(len(theta) if np.ndim(theta) == 2 else 1)
        return kernel(rule, data, theta, *args, **kwargs)

    solve = scoring.minimize_smooth

    def marked(*args):
        entry = sum(calls)
        out = solve(*args)
        solves.append((entry, sum(calls), out[3]))
        return out

    monkeypatch.setattr(scoring, "_kernel", counted)
    monkeypatch.setattr(scoring, "minimize_smooth", marked)
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
    assert sum(calls) == solves[-1][1]

    del calls[:], solves[:]
    fr = fit(rule, two_sample_data)
    assert fr.converged and len(solves) == 1     # the first start converged
    assert sum(calls) == solves[-1][1]           # K and J are analytic here

    # A solve that stops after rejected trial points: the verdict is the
    # one returned with the pass at its last accepted point, arrays that
    # the later passes leave as they were.
    objective = _Objective(rule, m.stack([m.checked(two_sample_data)]), np.array([2.0]))
    lam = m.profile_extract(fr.theta_hat)
    z = _to_z(lam, objective.positive)[None]
    *_, gnorm, converged = objective(z, np.arange(1))
    kept = gnorm.copy(), converged.copy()
    objective(z + 0.1, np.arange(1))
    with pytest.raises(NumericsError):          # overflows: an inadmissible trial
        objective(z + 1e3, np.arange(1))
    assert np.isfinite(gnorm[0])
    assert np.array_equal(gnorm, kept[0]) and np.array_equal(converged, kept[1])

    # A profile on 1050 points: its 201 grid points take more than one
    # kernel pass, so it solves the Chebyshev-Lobatto levels of 9, 17 and 33
    # nodes, the new nodes of each level one solve, and the rows of the
    # first level stop on "step". nu comes from the analytic K and J, so
    # every pass belongs to a solve.
    rule = ScoreRule.log(NormalAUC())
    fr = fit(rule, cd_grid_auc_normal)
    del calls[:], solves[:]
    grid = _default_profile_grid(fr)
    trace = confidence.profile(rule, cd_grid_auc_normal, grid, fit_result=fr)
    assert not trace.failed.any() and trace.n_nodes == 33
    assert [len(reasons) for _, _, reasons in solves] == [9, 8, 16]
    assert "step" in set(solves[0][2])
    ends = [0] + [end for _, end, _ in solves]
    assert [entry for entry, _, _ in solves] == ends[:-1]
    assert sum(calls) == ends[-1]


def test_warm_profile_takes_few_kernel_passes(cd_grid_auc_normal, kernel_calls):
    # exact curvature: a constrained fit started on the continuation
    # predictor converges in a few Newton steps, on each node of the
    # profile's first level, and a node of a later level started on the
    # last level's interpolant meets the solver's stop in a pass or two;
    # 33 nodes fix the 201-point grid, so under either rule
    calls, solves = kernel_calls
    model = NormalAUC()
    for rule in (ScoreRule.log(model), ScoreRule.tsallis(model, 1.23)):
        fr = fit(rule, cd_grid_auc_normal)
        del calls[:], solves[:]
        grid = _default_profile_grid(fr)
        trace = confidence.profile(rule, cd_grid_auc_normal, grid, fit_result=fr)
        assert not trace.failed.any() and len(solves) == 3 and trace.n_nodes == 33
        assert 0.0 < trace.interp_error <= confidence.PROFILE_TOL
        assert sum(calls) / grid.size <= 0.5


def _cd_grid_rng(family):
    return np.random.default_rng([20251017, 1, family, 0])


@pytest.fixture(scope="module")
def cd_grid_regression():
    """The benchmark's cd-grid regression input: 1000 rows, two covariates."""
    rng = _cd_grid_rng(3)
    x1, x2 = rng.standard_normal(1000), rng.uniform(size=1000)
    y = 1.0 + 0.5 * x1 - 0.3 * x2 + rng.normal(0.0, 1.0, 1000)
    return LinearRegression(1).checked((y, np.column_stack([np.ones(1000), x1, x2])))


@pytest.fixture(scope="module")
def cd_grid_two_sample_normal():
    """The benchmark's cd-grid two-sample normal input: 350 + 700 points."""
    rng = _cd_grid_rng(0)
    return TwoSampleNormal().checked((rng.normal(2.0, 1.0, 350), rng.normal(0.0, 1.5, 700)))


@pytest.fixture(scope="module")
def cd_grid_auc_exponential():
    """The benchmark's cd-grid exponential AUC input: 350 + 700 points with
    P(X1 < X2) = 0.85."""
    rng, lam2 = _cd_grid_rng(1), 2.0 / 3.0
    lam1 = 0.85 * lam2 / 0.15
    return ExponentialAUC().checked((rng.exponential(1.0 / lam1, 350),
                                     rng.exponential(1.0 / lam2, 700)))


@pytest.fixture(scope="module")
def cd_grid_expfam_gamma():
    """The benchmark's cd-grid exponential-family input: 1000 Gamma(3, 2)
    draws."""
    return expfam_gamma().checked(_cd_grid_rng(4).gamma(3.0, 0.5, 1000))


@pytest.mark.parametrize("model,data_name", [
    (NormalAUC(), "cd_grid_auc_normal"), (LinearRegression(1), "cd_grid_regression"),
    (TwoSampleNormal(), "cd_grid_two_sample_normal"),
    (ExponentialAUC(), "cd_grid_auc_exponential"), (expfam_gamma(), "cd_grid_expfam_gamma")])
@pytest.mark.parametrize("gamma", [None, 1.23])
def test_two_wave_profile_equals_a_single_wave(request, model, data_name, gamma):
    # On each of the benchmark's cd-grid inputs, the profile filled from the
    # Chebyshev-Lobatto interpolant lands where the whole grid, solved point
    # by point from the continuation predictor, does: its score, nu and
    # root pivot.
    data = request.getfixturevalue(data_name)
    rule = ScoreRule.log(model) if gamma is None else ScoreRule.tsallis(model, gamma)
    fr = fit(rule, data)
    grid = _default_profile_grid(fr)
    assert grid.size > scoring._row_cap(model, data)     # more than one kernel pass
    trace = confidence.profile(rule, data, grid, fit_result=fr)
    assert trace.n_nodes in confidence.PROFILE_LEVELS and trace.n_nodes < grid.size
    starts = confidence._tangent_starts(model, data, fr, grid)
    (_, score, _, nu), failed, _ = confidence._constrained_at(
        rule, model.stack([data] * grid.size), grid, starts)
    assert not failed.any()
    assert not trace.failed.any()
    np.testing.assert_allclose(trace.score_profile, score, rtol=1e-10, atol=0)
    np.testing.assert_allclose(trace.nu, nu, rtol=1e-8, atol=0)
    pivots = [confidence._signed_root(fr.psi_tilde, fr.score_at_opt, grid, s, v)
              for s, v in ((trace.score_profile, trace.nu), (score, nu))]
    np.testing.assert_allclose(*pivots, rtol=0, atol=1e-9)


@pytest.mark.parametrize("n_nodes", [4, 5, 7, 8, 20])
def test_lagrange_starts_reproduce_polynomials_through_their_window(n_nodes):
    # A later level starts from the last level's Lagrange interpolant in
    # barycentric form, whose window is all of that level's nodes: through
    # N + 1 Chebyshev-Lobatto nodes it reproduces every polynomial of degree
    # at most N, between the nodes, near them and at them, and no
    # polynomial of degree N + 1.
    # The polynomials are Chebyshev series in the span's coordinate, which
    # evaluate them to round-off at degree 19 where a power series does not.
    rng = np.random.default_rng(n_nodes)
    nodes = confidence._lobatto(-0.3, 1.7, n_nodes)
    at = np.r_[np.linspace(-0.3, 1.7, 41), nodes[1:] - 1e-3, nodes]

    def poly(x, coef):
        return np.polynomial.chebyshev.chebval(x - 0.7, coef).T

    coef = rng.standard_normal((n_nodes, 3))
    got = confidence._barycentric(nodes, poly(nodes, coef), at)
    np.testing.assert_allclose(got, poly(at, coef), rtol=0, atol=1e-12)
    assert np.array_equal(got[-n_nodes:], poly(nodes, coef))
    # one degree more is out of its reach
    coef = np.vstack([coef, np.ones(3)])
    got = confidence._barycentric(nodes, poly(nodes, coef), at)
    assert np.abs(got - poly(at, coef)).max() > 1e-6


def test_lobatto_levels_are_nested():
    # each level holds the last level's nodes at its even positions, bit for
    # bit, so a node is solved once; both ends are the span's ends
    lo, hi = 0.6612345, 0.8598765
    levels = [confidence._lobatto(lo, hi, size) for size in confidence.PROFILE_LEVELS]
    for coarse, fine in zip(levels, levels[1:]):
        assert np.array_equal(fine[::2], coarse)
    assert all(x[0] == hi and x[-1] == lo and np.all(np.diff(x) < 0) for x in levels)


@pytest.mark.parametrize("n_failed", [1, "all but three"])
def test_a_failed_first_wave_point_is_dropped_from_the_interpolant(
        cd_grid_auc_normal, monkeypatch, kernel_calls, n_failed):
    # A failed node of the first level, one or all but three of them, drops
    # the interpolant: the whole grid is solved point by point from the
    # predictor, and only the grid points whose own solve fails (here one
    # planted off the nodes, and those of the lost nodes that are grid
    # points, the grid's ends among them) are flagged.
    _, solves = kernel_calls
    rule = ScoreRule.tsallis(NormalAUC(), 1.23)
    fr = fit(rule, cd_grid_auc_normal)
    grid = _default_profile_grid(fr)
    nodes = confidence._lobatto(grid[0], grid[-1], confidence.PROFILE_LEVELS[0])
    lost = np.r_[nodes[2:3] if n_failed == 1 else np.delete(nodes, [1, 4, 6]), grid[37]]
    constrained_solve = confidence._constrained_solve

    def failing(objective, lam0):
        # a planted failure: the rows at the lost interest values do not converge
        theta, score, lam, converged = constrained_solve(objective, lam0)
        return theta, score, lam, converged & ~np.isin(objective.psi, lost)

    monkeypatch.setattr(confidence, "_constrained_solve", failing)
    del solves[:]
    flagged = np.flatnonzero(np.isin(grid, lost))
    assert 37 in flagged and (n_failed == 1 or {0, 200} <= set(flagged))
    with pytest.warns(UserWarning, match=f"{flagged.size} profile grid point"):
        trace = confidence.profile(rule, cd_grid_auc_normal, grid, fit_result=fr)
    np.testing.assert_array_equal(np.flatnonzero(trace.failed), flagged)
    assert (trace.n_nodes, trace.interp_error) == (grid.size, 0.0)
    # the first level, then the grid, one solve
    assert [len(reasons) for _, _, reasons in solves] == [9, grid.size]


def test_a_profile_that_never_meets_the_tolerance_is_solved_point_by_point(
        cd_grid_auc_normal, monkeypatch):
    # No level meets a tolerance of 0: after the 65-node level, the grid is
    # solved as a grid that fits in one kernel pass is, point by point from the
    # predictor, bit for bit
    rule = ScoreRule.tsallis(NormalAUC(), 1.23)
    model, fr = rule.model, fit(rule, cd_grid_auc_normal)
    grid = _default_profile_grid(fr)
    monkeypatch.setattr(confidence, "PROFILE_TOL", 0.0)
    trace = confidence.profile(rule, cd_grid_auc_normal, grid, fit_result=fr)
    (_, score, lam, nu), failed, _ = confidence._constrained_at(
        rule, model.stack([cd_grid_auc_normal] * grid.size), grid,
        confidence._tangent_starts(model, cd_grid_auc_normal, fr, grid))
    assert not failed.any() and not trace.failed.any()
    assert (trace.n_nodes, trace.interp_error) == (grid.size, 0.0)
    for got, want in ((trace.score_profile, score), (trace.nu, nu), (trace.lam_hat, lam)):
        assert np.array_equal(got, want)


def test_profile_memory_is_a_few_chunk_arrays(cd_grid_auc_normal):
    # The 201-point Tsallis profile peaks at about 3.2 times one chunk's
    # (rows, n, d) array: the kernel's log-density and integral gradients
    # and its (rows, n) arrays. A record that kept a pass's per-observation
    # gradients alive would add at least one more such array per round.
    rule = ScoreRule.tsallis(NormalAUC(), 1.23)
    fr = fit(rule, cd_grid_auc_normal)
    grid = _default_profile_grid(fr)
    rows = scoring.STACK_ELEMENTS // (1050 * 4)
    chunk_bytes = rows * 1050 * 4 * 8
    tracemalloc.start()
    try:
        trace = confidence.profile(rule, cd_grid_auc_normal, grid, fit_result=fr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not trace.failed.any()
    assert peak < 4.0 * chunk_bytes, peak / chunk_bytes


def test_point_by_point_profile_memory_is_a_few_slice_arrays(cd_grid_auc_normal, monkeypatch):
    # With no level meeting a tolerance of 0, the 201 grid points are one
    # stack, solved point by point: the objective passes over 31 of them at
    # a time, so the peak stays that of a few slices' (rows, n, d) arrays.
    rule = ScoreRule.tsallis(NormalAUC(), 1.23)
    fr = fit(rule, cd_grid_auc_normal)
    grid = _default_profile_grid(fr)
    monkeypatch.setattr(confidence, "PROFILE_TOL", 0.0)
    rows = scoring._row_cap(rule.model, cd_grid_auc_normal)
    slice_bytes = rows * 1050 * 4 * 8
    tracemalloc.start()
    try:
        trace = confidence.profile(rule, cd_grid_auc_normal, grid, fit_result=fr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (trace.n_nodes, grid.size) == (201, 201) and not trace.failed.any()
    assert peak < 4.0 * slice_bytes, peak / slice_bytes


def test_minimize_smooth_solves_a_quadratic_in_two_passes():
    # one evaluation at the start and one at the exact Newton step, where
    # the gradient vanishes
    evals = [0]
    quadratic = _quadratic(True)

    def counted(z, rows):
        evals[0] += len(rows)
        return quadratic(z, rows)

    z, f, n_iter, reason, _, _ = minimize_smooth(counted, np.array([[1.0, -2.0]]))
    assert list(reason) == ["gradient"] and list(n_iter) == [1]
    assert evals[0] == 2
    assert np.array_equal(z, [[0.0, 0.0]]) and list(f) == [0.0]


# ---------------------------------------------------------------------------
# stacks of datasets: every row is its dataset alone, bit for bit
# ---------------------------------------------------------------------------

def _stack_cases(all_models):
    """(model, datasets of one size) per model, the last two rows of each
    drawn by a different stream."""
    cases = []
    for model, data in all_models:
        data = model.checked(data)
        if isinstance(model, LinearRegression):
            y, X = data
            rows = [(y, X), (y[::-1].copy(), X), (np.sort(y), X)]
        else:
            x, y = data
            rows = [(x, y), (x[::-1] * 1.1, y + 0.3), (np.sort(x), y[::-1])]
        cases.append((model, [model.checked(r) for r in rows]))
    rng = np.random.default_rng(11)
    for model, y in ((expfam_gamma(), rng.gamma(3.0, 0.5, (3, 40))),
                     (expfam_normal(), rng.normal(1.0, 2.0, (3, 40))),
                     (expfam_exponential(), rng.exponential(0.5, (3, 40))),
                     (expfam_beta(), rng.beta(2.0, 3.0, (3, 40)))):
        cases.append((model, [model.checked(r) for r in y]))
    return cases


@pytest.mark.parametrize("gamma", [None, 1.23])
def test_a_stack_row_scores_and_fits_as_its_dataset_alone(all_models, gamma):
    for model, datasets in _stack_cases(all_models):
        rule = ScoreRule.log(model) if gamma is None else ScoreRule.tsallis(model, gamma)
        stack = model.stack(datasets)
        thetas = np.stack([model.default_start(d) for d in datasets])
        assert np.array_equal(model.default_start(stack), thetas)
        stacked = scoring._kernel(rule, stack, thetas, order=2)
        K, J = estimate_KJ(rule, stack, thetas)
        fits = fit(rule, stack)
        for r, data in enumerate(datasets):
            alone = scoring._kernel(rule, data, thetas[r], order=2)
            for a, b in zip(stacked, alone):
                assert np.array_equal(a[r], b)
            K_r, J_r = estimate_KJ(rule, data, thetas[r])
            assert np.array_equal(K[r], K_r) and np.array_equal(J[r], J_r)
            fr = fit(rule, data)
            assert np.array_equal(fits[r].theta_hat, fr.theta_hat)
            assert np.array_equal(fits[r].V, fr.V)
            assert (fits[r].score_at_opt, fits[r].n_iter, fits[r].stop_reason,
                    fits[r].grad_norm, fits[r].converged) == (
                fr.score_at_opt, fr.n_iter, fr.stop_reason, fr.grad_norm, fr.converged)


def test_a_stack_over_the_row_cap_fits_a_slice_at_a_time(kernel_calls):
    # A stack of 70 two-sample datasets of 350 + 700 points takes three
    # slices of at most 31 rows (2^17 numbers per (rows, n, d) array), and
    # 150 gamma samples of 1000 points three of at most 65: no kernel pass
    # carries more rows than that, and a row fits, and has the observed K
    # and J, that it has alone.
    calls, _ = kernel_calls
    rng = np.random.default_rng(41)
    model = TwoSampleNormal()
    datasets = [model.checked((rng.normal(2.0, 1.0, 350), rng.normal(0.0, 1.5, 700)))
                for _ in range(70)]
    rule, stack = ScoreRule.tsallis(model, 1.23), model.stack(datasets)
    assert scoring._row_cap(model, stack) == 31
    del calls[:]
    fits = fit(rule, stack)
    assert max(calls) == 31
    for r in (0, 31, 62, 69):
        fr = fit(rule, datasets[r])
        assert np.array_equal(fits[r].theta_hat, fr.theta_hat)
        assert np.array_equal(fits[r].V, fr.V)
        assert (fits[r].score_at_opt, fits[r].n_iter, fits[r].stop_reason, fits[r].grad_norm,
                fits[r].converged) == (
            fr.score_at_opt, fr.n_iter, fr.stop_reason, fr.grad_norm, fr.converged)

    model = expfam_gamma()
    y = rng.gamma(3.0, 0.5, (150, 1000))
    rule, stack = ScoreRule.tsallis(model, 1.23), model.stack(list(y))
    thetas = np.stack([model.default_start(model.checked(row)) for row in y])
    assert scoring._row_cap(model, stack) == 65
    del calls[:]
    K, J = estimate_KJ(rule, stack, thetas)
    assert calls == [65, 65, 20]
    for r in (0, 65, 130, 149):
        K_r, J_r = estimate_KJ(rule, y[r], thetas[r])
        assert np.array_equal(K[r], K_r) and np.array_equal(J[r], J_r)


def _frames(model, data, theta):
    """Three one-point contamination frames, at 0.5, 1 and 3 fitted scales
    above the fitted center, kept inside a bounded support."""
    center, scale = model.obs_center_scale(data, theta, 0)
    hi = model.component_support(0)[1]
    ys = np.minimum(center + np.array([0.5, 1.0, 3.0]) * scale, center + 0.75 * (hi - center))
    return [model.checked(model.contamination_frame([y], data)) for y in ys]


def _constrained_alone(rule, data, psi, lam0, mixture=None):
    """The constrained solve and nu of one dataset at psi from lam0, with
    the mixture (eps, frame) if given, as a stack of one; raises the
    row's error where it fails."""
    model = rule.model
    if mixture is not None:
        mixture = (np.array([mixture[0]]), model.stack([mixture[1]]))
    out, _, errors = confidence._constrained_at(
        rule, model.stack([data]), np.array([psi]), lam0[None], mixture)
    if errors:
        raise errors[0]
    return tuple(a[0] for a in out)


@pytest.mark.parametrize("gamma", [None, 1.23])
def test_a_psi_per_row_stack_solves_each_row_as_alone(all_models, gamma):
    # (dataset, psi) rows, each started at its dataset's free fit: every
    # row's (theta_psi, S(theta_psi), lam_psi, nu) is the single solve's at
    # its psi from the same start. The first dataset repeated is the
    # profile's stack, a broadcast of one dataset.
    for model, datasets in _stack_cases(all_models):
        rule = ScoreRule.log(model) if gamma is None else ScoreRule.tsallis(model, gamma)
        fits = [fit(rule, d) for d in datasets]
        reps, psis = [], []
        for r, fr in enumerate(fits):
            _, g_pp = interest_information(fr.K, fr.J, model.interest_grad(fr.theta_hat))
            for step in (-1.5, 0.0, 2.0):
                reps.append(r)
                psis.append(fr.psi_tilde + step * np.sqrt(g_pp))
        reps, psis = np.array(reps), np.array(psis)
        lam0 = np.stack([model.profile_extract(fits[r].theta_hat) for r in reps])
        for stack, at in ((model.stack([datasets[r] for r in reps]), reps),
                          (model.stack([datasets[0]] * 3), np.zeros(3, dtype=int))):
            out, failed, _ = confidence._constrained_at(rule, stack, psis[:len(at)],
                                                        lam0[:len(at)])
            assert not failed.any(), (model.name, rule.label())
            for r, psi, lam, row in zip(at, psis, lam0, zip(*out)):
                alone = _constrained_alone(rule, datasets[r], psi, lam)
                assert len(row) == 4, (model.name, psi, row)
                for a, b in zip(row, alone):
                    assert np.array_equal(a, b), (model.name, rule.label(), psi)


@pytest.mark.parametrize("gamma", [None, 1.23])
def test_a_mixture_per_row_stack_solves_each_row_as_alone(all_models, gamma):
    # (psi, eps, frame) rows on one dataset, as the TAIF's oracle makes them:
    # every row's (theta_psi, S(theta_psi), lam_psi, nu) is the single solve's
    # on its own eps-mixture objective, which differs from the uncontaminated
    # one
    for model, datasets in _stack_cases(all_models):
        rule = ScoreRule.log(model) if gamma is None else ScoreRule.tsallis(model, gamma)
        data = datasets[0]
        fr = fit(rule, data)
        _, g_pp = interest_information(fr.K, fr.J, model.interest_grad(fr.theta_hat))
        psis = fr.psi_tilde + np.array([-1.5, 0.0, 2.0]) * np.sqrt(g_pp)
        eps = np.array([1e-4, 5e-5, 1e-2])
        frames = _frames(model, data, fr.theta_hat)
        lam0 = np.tile(model.profile_extract(fr.theta_hat), (3, 1))
        out, failed, _ = confidence._constrained_at(rule, model.stack([data] * 3), psis, lam0,
                                                    (eps, model.stack(frames)))
        assert not failed.any(), (model.name, rule.label())
        for psi, lam, e, frame, row in zip(psis, lam0, eps, frames, zip(*out)):
            alone = _constrained_alone(rule, data, psi, lam, (e, frame))
            assert len(row) == 4, (model.name, psi, row)
            for a, b in zip(row, alone):
                assert np.array_equal(a, b), (model.name, rule.label(), psi)
            assert row[1] != _constrained_alone(rule, data, psi, lam)[1]


# 1.5 and 2.0 give exponents of 1/2 and -1 (gamma - 1, a - 2, 2 a - 2 and
# -a, a = gamma - 1), which numpy raises to by a shortcut where the exponent
# is one value and not an array; 1.0 makes a log row. A stack of Tsallis
# rows alone and a stack with log rows among them take different paths.
GAMMA_ROWS = ((1.1, 1.23, 1.5, 2.0), (1.1, 1.0, 1.23, 1.5, 2.0))


def _plain(model, gamma):
    """The rule of one row of gamma alone: the log rule for a log row."""
    return ScoreRule.log(model) if gamma == 1.0 else ScoreRule.tsallis(model, gamma)


def _gamma_per_row_cases(all_models):
    """(model, rule, stack, pairs) per stack case and tuple of GAMMA_ROWS: a
    row per (dataset, gamma) pair, gamma in the tuple, and the rule carrying
    each row's."""
    for (model, datasets), gammas in itertools.product(_stack_cases(all_models), GAMMA_ROWS):
        pairs = [(data, gamma) for data in datasets for gamma in gammas]
        rule = ScoreRule("tsallis", model, np.array([gamma for _, gamma in pairs]))
        yield model, rule, model.stack([data for data, _ in pairs]), pairs


def _fit_outcome(fits, r):
    """Row r of a Fits as comparable values, or the error that gives it up."""
    try:
        fr = fits[r]
    except (DomainError, NumericsError) as exc:
        return type(exc), str(exc)
    return (fr.theta_hat.tobytes(), fr.K.tobytes(), fr.J.tobytes(), fr.V.tobytes(),
            fr.score_at_opt, fr.n_iter, fr.stop_reason, fr.grad_norm, fr.converged, fr.rule)


@pytest.mark.parametrize("sliced", [False, True])
def test_a_gamma_per_row_stack_computes_each_row_as_its_rule_alone(all_models, sliced,
                                                                    monkeypatch):
    # A stack whose rows carry different gammas, log rows (gamma 1) among
    # them: each row's kernel at orders 0, 1 and 2, its K and J, its start
    # and its free fit are, bit for bit, those of its own rule on the row
    # as a stack of one, and its kernel, K and J those of its rule on the
    # dataset alone. Sliced, every kernel pass of estimate_KJ and of the
    # objective takes one row.
    if sliced:
        monkeypatch.setattr(scoring, "STACK_ELEMENTS", 1)
    for model, rule, stack, pairs in _gamma_per_row_cases(all_models):
        thetas = model.default_start(stack)
        kernels = [scoring._kernel(rule, stack, thetas, order) for order in (0, 1, 2)]
        K, J = estimate_KJ(rule, stack, thetas)
        starts = scoring._start(rule, stack)
        fits = fit(rule, stack)
        for r, (data, gamma) in enumerate(pairs):
            alone, one = _plain(model, gamma), model.stack([data])
            assert np.array_equal(starts[r], scoring._start(alone, one)[0]), (model.name, gamma)
            for order, stacked in enumerate(kernels):
                for a, b, c in zip(stacked, scoring._kernel(alone, one, thetas[r:r + 1], order),
                                   scoring._kernel(alone, data, thetas[r], order)):
                    assert (a is b is c is None) or (
                        np.array_equal(a[r], b[0]) and np.array_equal(a[r], c)), (
                            model.name, gamma, order)
            K_one, J_one = estimate_KJ(alone, one, thetas[r:r + 1])
            K_alone, J_alone = estimate_KJ(alone, data, thetas[r])
            for a, b in ((K[r], K_one[0]), (K[r], K_alone), (J[r], J_one[0]), (J[r], J_alone)):
                assert np.array_equal(a, b), (model.name, gamma)
            assert _fit_outcome(fits, r) == _fit_outcome(fit(alone, one), 0), (model.name, gamma)


def test_a_gamma_per_row_objective_evaluates_and_solves_each_row_as_its_rule_alone(all_models):
    # The free, constrained (a psi per row) and eps-mixture objectives of a
    # stack whose rows carry different gammas, log rows (gamma 1) among
    # them: each row's value, gradient, Hessian and verdict at a point, on
    # the whole stack and on every other row, its solve, and its
    # constrained solve and nu (_constrained_at) are those of its own rule
    # on the row as a stack of one.
    for model, rule, stack, pairs in _gamma_per_row_cases(all_models):
        alone = [_plain(model, gamma) for _, gamma in pairs]
        theta = np.stack([fit(a, data).theta_hat for a, (data, _) in zip(alone, pairs)])
        psis, lam = 0.98 * model.interest(theta), model.profile_extract(theta)
        eps = np.geomspace(1e-4, 1e-2, len(pairs))
        frames = [_frames(model, data, t)[r % 3]
                  for r, ((data, _), t) in enumerate(zip(pairs, theta))]
        mixture = (eps, model.stack(frames))
        every_other = np.arange(0, len(pairs), 2)
        for psi, mix, x in ((None, None, theta), (psis, None, lam), (None, mixture, theta),
                            (psis, mixture, lam)):
            objective = _Objective(rule, stack, psi, mix)
            z = _to_z(x, objective.positive)
            whole = objective(z, np.arange(len(pairs)))
            part = objective(z[every_other], every_other)
            solved = objective.solve(z)
            for r, (data, _) in enumerate(pairs):
                one = _Objective(alone[r], model.stack([data]),
                                 None if psi is None else psi[r:r + 1],
                                 mix and (eps[r:r + 1], model.stack([frames[r]])))
                at_point, one_solved = one(z[r:r + 1], np.arange(1)), one.solve(z[r:r + 1])
                for a, b in zip(whole, at_point):
                    assert np.array_equal(a[r], b[0]), (model.name, alone[r].label())
                if r % 2 == 0:
                    for a, b in zip(part, at_point):
                        assert np.array_equal(a[r // 2], b[0]), (model.name, alone[r].label())
                for a, b in zip(solved, one_solved):
                    assert np.array_equal(a[r], b[0]), (model.name, alone[r].label())
            if psi is None:
                continue
            out, failed, errors = confidence._constrained_at(rule, stack, psis, lam, mix)
            for r, (data, _) in enumerate(pairs):
                args = (alone[r], data, psis[r], lam[r], mix and (eps[r], frames[r]))
                if failed[r]:
                    with pytest.raises(type(errors[r])):
                        _constrained_alone(*args)
                    continue
                for a, b in zip(out, _constrained_alone(*args)):
                    assert np.array_equal(a[r], b), (model.name, alone[r].label())


def _verdict_oracle(rule, data, x, psi=None, mixture=None):
    """(||g||, GRAD_TOL sum_i w_i ||s_i||) at x from a fresh pass of
    per_obs_gradient, the gradients pulled back to x by hand."""
    model = rule.model
    theta = x if psi is None else model.profile_embed(psi, x)
    parts = [(1.0, per_obs_gradient(rule, data, theta))]
    if mixture is not None:
        eps, frame = mixture
        parts = [(1.0 - eps, parts[0][1]),
                 (model.nobs(data) * eps, per_obs_gradient(rule, frame, theta))]
    if psi is not None:
        jac = model.profile_embed_jac(psi, x)
        parts = [(w, s @ jac) for w, s in parts]
    g = sum(w * s.sum(axis=0) for w, s in parts)
    scale = sum(w * np.linalg.norm(s, axis=1).sum() for w, s in parts)
    return np.linalg.norm(g), scoring.GRAD_TOL * scale


@pytest.mark.parametrize("gamma", [None, 1.23])
def test_a_record_is_the_verdict_at_its_point(all_models, gamma):
    # Free, constrained (a psi per row) and mixture (an eps and a frame per
    # row) objectives on stacks. Each row's record is (||g||,
    # ||g|| <= GRAD_TOL sum_i w_i ||s_i||) as a fresh per-observation pass
    # gives it, and the record of that row evaluated alone: at the solved
    # point, and just inside and just outside the bound on the line from it
    # along (0.1, ..., 0.1) in z. That line leaves the expfam normal's
    # domain before it crosses the bound, and the exponential family has no
    # nuisance to profile, so neither is a case here.
    for model, datasets in _stack_cases(all_models):
        if model.name in ("expfam-normal", "expfam-exponential"):
            continue
        rule = ScoreRule.log(model) if gamma is None else ScoreRule.tsallis(model, gamma)
        stack = model.stack(datasets)
        fits = fit(rule, stack)
        theta = np.stack([fr.theta_hat for fr in fits])
        psis = np.array([fr.psi_tilde for fr in fits])
        psis += np.array([0.0, -0.02, 0.03]) * np.abs(psis)
        frames = _frames(model, datasets[0], theta[0])
        mixture = (np.array([1e-4, 5e-5, 1e-2]), model.stack(frames))
        cases = [(_Objective(rule, stack), theta, datasets, None, None),
                 (_Objective(rule, stack, psis), model.profile_extract(theta), datasets,
                  psis, None),
                 (_Objective(rule, model.stack([datasets[0]] * 3), mixture=mixture), theta,
                  [datasets[0]] * 3, None, mixture)]
        for objective, x0, data_rows, psi, mix in cases:
            z_solved = _to_z(objective.solve(_to_z(x0, objective.positive))[0],
                             objective.positive)

            def oracle(r, z):
                return _verdict_oracle(rule, data_rows[r], _from_z(z, objective.positive),
                                       None if psi is None else psi[r],
                                       None if mix is None else (mix[0][r], frames[r]))

            def ratio(r, t):
                g, bound = oracle(r, z_solved[r] + 0.1 * t)
                return g / bound

            crossing = []
            for r in range(len(z_solved)):
                lo, hi = 0.0, 1.0
                assert ratio(r, lo) < 1.0 < ratio(r, hi), (model.name, rule.label(), r)
                for _ in range(60):
                    mid = 0.5 * (lo + hi)
                    lo, hi = (mid, hi) if ratio(r, mid) <= 1.0 else (lo, mid)
                crossing.append(hi)
            crossing = np.array(crossing)[:, None]
            for z in (z_solved, z_solved + 0.1 * crossing * (1.0 - 1e-4),
                      z_solved + 0.1 * crossing * (1.0 + 1e-4)):
                gnorms, convergeds = objective(z, np.arange(len(z)))[3:]
                for r, (gnorm, converged) in enumerate(zip(gnorms, convergeds)):
                    what = (model.name, rule.label(), psi is not None, mix is not None, r)
                    [gnorm_alone], [converged_alone] = objective(z[r:r + 1], np.array([r]))[3:]
                    assert (gnorm, converged) == (gnorm_alone, converged_alone), what
                    g_oracle, bound = oracle(r, z[r])
                    assert abs(g_oracle - bound) > 1e-5 * bound, what   # not round-off
                    assert abs(gnorm - g_oracle) <= 1e-6 * bound, what
                    assert converged == (g_oracle <= bound), what


def test_minimize_smooth_solves_each_row_of_a_stack_as_alone():
    # Three rows: one converges from the default start, one starts where the
    # log-variance overflows (not finite), and one starts at a variance of
    # 1e-6 with its second mean 300 from its sample. That mean makes ||z||
    # about 300, so steps bounded by 1 + ||z|| still send trial points to
    # log-variances where the score overflows before the row converges.
    m = TwoSampleNormal()
    rule = ScoreRule.tsallis(m, 1.23)
    rng = np.random.default_rng(3)
    datasets = [m.checked((rng.normal(2, 1, 10), rng.normal(0, 1, 20))) for _ in range(3)]
    starts = [m.default_start(datasets[0]), np.array([2.0, 0.0, 1.0, 1.0]),
              np.array([2.0, 300.0, 1e-6, 1.0])]
    objective = _Objective(rule, m.stack(datasets))
    z0 = _to_z(np.stack(starts), objective.positive)
    z0[1, 2] = 800.0
    overflowed = []

    def rows_fun(z, rows):
        try:
            return objective(z, rows)
        except NumericsError:
            if len(rows) == 1:          # the row fails alone
                overflowed.extend(rows)
            raise

    z, f, n_iter, reason, gnorm, converged = minimize_smooth(rows_fun, z0)
    assert list(reason) == ["gradient", "not_finite", "gradient"]
    assert 2 in overflowed
    for r, data in enumerate(datasets):
        # each row's reference is its own stack of one
        alone = _Objective(rule, m.stack([data]))
        z_r, f_r, n_r, reason_r, gnorm_r, converged_r = minimize_smooth(
            alone, z0[r:r + 1])
        assert np.array_equal(z[r], z_r[0])
        assert f[r] == f_r[0] or np.isinf(f[r]) and np.isinf(f_r[0])
        assert (n_iter[r], reason[r]) == (n_r[0], reason_r[0])
        assert (gnorm_r[0], converged_r[0]) == (gnorm[r], converged[r])


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
        _assert_hessian(H, _fd_jacobian(
            lambda t: score_gradient(rule, model.stack([data] * len(t)), t), theta),
            what + ("theta",))

        # the objectives in z, on the dataset as a stack of one
        center, _ = model.obs_center_scale(data, theta, 0)
        frame = model.checked(model.contamination_frame([center + 0.3], data))
        stack, mixture = model.stack([data]), (np.array([1e-4]), model.stack([frame]))
        objectives = [("free z", _Objective(rule, stack), theta),
                      ("mixture z", _Objective(rule, stack, mixture=mixture), theta)]
        if len(theta) > 1:
            # constrained off the free start, where NormalAUC's embedding
            # curvature meets a nonzero gradient
            psi = np.array([model.interest(theta) * 0.98])
            lam = model.profile_extract(theta)
            objectives.append(("constrained z", _Objective(rule, stack, psi), lam))
            objectives.append(("constrained mixture z",
                               _Objective(rule, stack, psi, mixture), lam))
        for name, objective, x in objectives:
            z = _to_z(x, objective.positive)
            val, _, H_z, *_ = objective(z[None], np.arange(1))
            assert np.isfinite(val[0]), what + (name,)
            _assert_hessian(H_z[0], _fd_jacobian(
                lambda v: objective(v, np.zeros(len(v), dtype=int))[1], z), what + (name,))


def test_normal_auc_embedding_curvature(normal_auc_data):
    # the constrained Hessian needs the embedding's curvature, and the
    # closed form equals a central difference of the embedding's Jacobian
    model = NormalAUC()
    data = model.checked(normal_auc_data)
    rule = ScoreRule.tsallis(model, 1.2)
    theta = model.default_start(data)
    psi, lam = model.interest(theta) * 0.98, model.profile_extract(theta)
    _, _, H, _ = _derivatives(rule, data, psi, None, lam)
    H_fd = _fd_jacobian(lambda v: _derivatives(rule, model.stack([data] * 2 * lam.size),
                                               np.full(2 * lam.size, psi), None, v)[1], lam)
    g_theta = _evaluate(rule, data, None, model.profile_embed(psi, lam))[1]
    curvature = model.profile_embed_hess(psi, lam, g_theta)
    assert np.abs(H - curvature - H_fd).max() > 1e-3 * np.abs(H_fd).max()
    fd = _fd_jacobian(
        lambda v: model.profile_embed_jac(np.full(len(v), psi), v).mT @ g_theta, lam)
    fd = 0.5 * (fd + fd.T)
    assert np.allclose(fd, curvature, rtol=1e-6, atol=1e-8 * np.abs(curvature).max())
