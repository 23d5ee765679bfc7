"""Independent reference implementations used to validate the package.

Everything here is deliberately written from scratch against textbook
definitions (direct negative log likelihoods, quadrature, grid searches,
finite differences) and must not import the package's scoring or profiling
internals, so that agreement is a genuine two-route check.
"""

import numpy as np
from scipy.integrate import quad
from scipy.optimize import minimize, minimize_scalar
from scipy.special import ndtr


def power_integral_quadrature(pdf, lo, hi, gamma):
    val, _ = quad(lambda t: pdf(t) ** gamma, lo, hi, epsabs=1e-12, limit=400)
    return val


def fd_gradient(fun, theta, step=1e-5):
    theta = np.asarray(theta, dtype=float)
    out = np.empty(theta.size)
    for j in range(theta.size):
        tp = theta.copy(); tp[j] += step
        tm = theta.copy(); tm[j] -= step
        out[j] = (fun(tp) - fun(tm)) / (2 * step)
    return out


# ---------------------------------------------------------------------------
# Exponential-family Tsallis score from the family's t, c and c_grad
# ---------------------------------------------------------------------------

def expfam_tsallis_score(model, y, theta, gamma):
    """Tsallis score of observations y under the canonical exponential family
    f(y) = exp(theta' t(y) - c(theta)) of ``model``:
    (gamma - 1) exp(c(gamma theta) - gamma c(theta)) - gamma f(y)^(gamma - 1)."""
    fam = model.family
    theta = np.asarray(theta, dtype=float)
    y = np.atleast_1d(np.asarray(y, dtype=float))
    integral = np.exp(fam.c(gamma * theta) - gamma * fam.c(theta))
    f = np.exp(fam.t(y) @ theta - fam.c(theta))
    out = (gamma - 1.0) * integral - gamma * f ** (gamma - 1.0)
    return float(out[0]) if out.size == 1 else out


def expfam_score_gradient(model, y, theta, gamma):
    """Gradient in theta of ``expfam_tsallis_score``, one row per y:
    gamma (gamma - 1) [I (c'(gamma theta) - c'(theta)) - f^(gamma - 1) (t(y) - c'(theta))]."""
    fam = model.family
    theta = np.asarray(theta, dtype=float)
    y = np.atleast_1d(np.asarray(y, dtype=float))
    integral = np.exp(fam.c(gamma * theta) - gamma * fam.c(theta))
    f = np.exp(fam.t(y) @ theta - fam.c(theta))
    cdiff = fam.c_grad(gamma * theta) - fam.c_grad(theta)
    tdiff = fam.t(y) - fam.c_grad(theta)[None, :]
    out = gamma * (gamma - 1.0) * (integral * cdiff[None, :]
                                   - (f ** (gamma - 1.0))[:, None] * tdiff)
    return out[0] if out.shape[0] == 1 else out


# ---------------------------------------------------------------------------
# Hand-written negative log likelihoods
# ---------------------------------------------------------------------------

def nll_two_sample_normal(data, theta):
    x, y = data
    mx, my, vx, vy = theta
    n1, n2 = len(x), len(y)
    return (0.5 * n1 * np.log(2 * np.pi * vx) + np.sum((x - mx) ** 2) / (2 * vx)
            + 0.5 * n2 * np.log(2 * np.pi * vy) + np.sum((y - my) ** 2) / (2 * vy))


def nll_exponential_pair(data, rates):
    x, y = data
    r1, r2 = rates
    return (-len(x) * np.log(r1) + r1 * np.sum(x)
            - len(y) * np.log(r2) + r2 * np.sum(y))


def nll_regression(data, theta):
    y, X = data
    beta, v = theta[:-1], theta[-1]
    r = y - X @ beta
    return 0.5 * len(y) * np.log(2 * np.pi * v) + r @ r / (2 * v)


# ---------------------------------------------------------------------------
# From-scratch profile-likelihood confidence distributions
# ---------------------------------------------------------------------------

def _profile_nll_two_sample(data, psi):
    """min over (mu_y, sd_x, sd_y) of the NLL with mu_x - mu_y = psi,
    parameterized directly in standard deviations with box bounds."""
    x, y = data

    def obj(p):
        my, sx, sy = p
        return nll_two_sample_normal(data, (psi + my, my, sx ** 2, sy ** 2))

    p0 = np.array([np.mean(y), max(np.std(x), 1e-3), max(np.std(y), 1e-3)])
    res = minimize(obj, p0, method="Nelder-Mead",
                   options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 4000})
    return res.fun


def _profile_nll_exponential_auc(data, psi):
    """min over r2 > 0 of the NLL with r1 = psi r2 / (1 - psi)."""
    def obj(r2):
        return nll_exponential_pair(data, (psi * r2 / (1 - psi), r2))

    res = minimize_scalar(obj, bounds=(1e-8, 1e4), method="bounded",
                          options={"xatol": 1e-12})
    return res.fun


def _profile_nll_regression(data, psi, interest_index):
    """Closed form: residual sum of squares with one coefficient fixed."""
    y, X = data
    n, p = X.shape
    keep = [j for j in range(p) if j != interest_index]
    y_adj = y - X[:, interest_index] * psi
    Xr = X[:, keep]
    beta_r = np.linalg.lstsq(Xr, y_adj, rcond=None)[0]
    rss = float(np.sum((y_adj - Xr @ beta_r) ** 2))
    v = rss / n
    return 0.5 * n * np.log(2 * np.pi * v) + n / 2.0


def profile_likelihood_cd(model_name, data, psi_grid, interest_index=1):
    """C(psi) = Phi(r_p(psi)) from a from-scratch profile likelihood."""
    if model_name == "two-sample-normal":
        prof = lambda p: _profile_nll_two_sample(data, p)
    elif model_name == "auc-exponential":
        prof = lambda p: _profile_nll_exponential_auc(data, p)
    elif model_name == "linear-regression":
        prof = lambda p: _profile_nll_regression(data, p, interest_index)
    else:
        raise ValueError(model_name)
    values = np.array([prof(p) for p in psi_grid])
    i_hat = int(np.argmin(values))
    # refine the maximizer location by a parabolic pass on the grid minimum
    nll_hat = values[i_hat]
    psi_hat = psi_grid[i_hat]
    res = minimize_scalar(prof, bracket=None,
                          bounds=(psi_grid[max(i_hat - 1, 0)],
                                  psi_grid[min(i_hat + 1, len(psi_grid) - 1)]),
                          method="bounded", options={"xatol": 1e-10})
    if res.fun < nll_hat:
        nll_hat, psi_hat = res.fun, res.x
    W = np.maximum(2.0 * (values - nll_hat), 0.0)
    r = np.sign(psi_hat - psi_grid) * np.sqrt(W)
    return ndtr(-r), psi_hat


def wald_pivot_profile_information(prof_nll, psi_hat, psi, h=1e-4):
    """Classical Wald pivot using observed profile information by central
    second differences of the profile NLL."""
    j_p = (prof_nll(psi_hat + h) - 2 * prof_nll(psi_hat) + prof_nll(psi_hat - h)) / h ** 2
    return (psi_hat - psi) * np.sqrt(j_p)


def constrained_mle_grid_search(data, psi, my_grid, sx_grid, sy_grid):
    """Brute-force nuisance minimizer for the two-sample normal at fixed psi."""
    best = (np.inf, None)
    for my in my_grid:
        for sx in sx_grid:
            for sy in sy_grid:
                val = nll_two_sample_normal(data, (psi + my, my, sx ** 2, sy ** 2))
                if val < best[0]:
                    best = (val, (my, sx ** 2, sy ** 2))
    return best
