"""Confidence distributions and curves from scoring-rule pivots.

Two pivot constructions are provided for a scalar interest parameter:

* the profile Wald pivot ``(psi_tilde - psi) / se`` with ``se^2`` the
  interest entry of the inverse Godambe information, and
* the adjusted profile score-ratio root: the signed square root of
  ``2 (S(theta_psi) - S(theta_hat)) / nu`` with ``nu`` the scale factor that
  restores a chi-square(1) null law when sensitivity and variability differ.

A confidence distribution C is obtained as ``Phi(-pivot)`` so that C is
increasing in psi; the confidence curve is ``|1 - 2 C|``.
"""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np

from .errors import DomainError, NumericsError
from .models import ndtr, ndtri
from .scoring import (
    _Objective,
    _from_z,
    _row_cap,
    _rule_rows,
    _stacked,
    _to_z,
    estimate_KJ,
    fit as fit_rule,
    interest_information,
)

__all__ = [
    "ProfileTrace",
    "ConfidenceObject",
    "ConfidenceInterval",
    "constrained_fit",
    "profile",
    "pivot_wald",
    "pivot_root",
    "build_cd",
    "ci",
    "p_value",
    "evidence",
]

# A constrained score below the free optimum by more than W_TOL (1 + |S|)
# means the free fit is not the optimum; a smaller dip is round-off.
W_TOL = 1e-8
# A profile of more grid points than one kernel pass takes
# (``scoring._row_cap``) is solved at nested Chebyshev-Lobatto levels of
# the grid's span, each holding the last level's nodes (Trefethen 2013).
# It stops at the first level whose new nodes the last level's
# interpolant reads within PROFILE_TOL (1 + |v|), v each node's score, nu
# and nuisance in the solver's coordinates.
PROFILE_LEVELS = (9, 17, 33, 65)
PROFILE_TOL = 1e-10


# ---------------------------------------------------------------------------
# Constrained estimation
# ---------------------------------------------------------------------------

def constrained_fit(rule, data, psi, lam0=None):
    """Minimize the total score over the nuisance with the interest fixed.

    Returns (theta, score, lam, converged).
    """
    model = rule.model
    data = model.one(data)
    if lam0 is None:
        start = model.default_start(data)
        model.require_domain(start)
        lam0 = model.profile_extract(start)
    objective = _Objective(rule, model.stack([data]), np.array([psi], dtype=float))
    return tuple(a[0] for a in _constrained_solve(objective, np.asarray(lam0, dtype=float)[None]))


def _constrained_solve(objective, lam0):
    """(theta, score, lam, converged) of a constrained objective from lam0,
    a start per row, each output with a row axis; converged is the
    objective's verdict at each row's end point."""
    lam, val, *_, converged = objective.solve(_to_z(lam0, objective.positive))
    return objective.theta(lam), val, lam, converged


def _constrained_at(rule, data, psi, lam0, mixture=None):
    """The constrained solves on a stack of datasets, at psi, a value per
    row, from lam0, a start per row, on the eps-mixture objective when
    ``mixture=(eps, frames)`` holds an eps and a frame per row (see
    ``_Objective``), and nu at their estimates. Returns ((theta_psi,
    S(theta_psi), lam_psi, nu), failed, errors): the four with a row axis
    and NaN in the rows that failed, failed their mask, and errors each
    failed row's exception by its row, a NumericsError where its solve did
    not converge, else what nu raises at its estimate alone. The rows are
    solved together, one stack and one solve (the objective bounds a kernel
    pass's memory, see ``scoring._row_cap``); nu is evaluated on the
    converged rows only.

    Every constrained solve of a profile or a root pivot comes from here.
    """
    model, objective = rule.model, _Objective(rule, data, psi, mixture)
    theta, score, lam, converged = _constrained_solve(objective, lam0)
    errors = {r: NumericsError("constrained fit did not converge", detail={"psi": float(psi[r])})
              for r in np.flatnonzero(~converged).tolist()}
    rows = np.flatnonzero(converged)
    kept = data if rows.size == len(converged) else model.take(data, rows)
    theta_kept, nu = theta[rows], np.full(len(converged), np.nan)
    rule_kept = _rule_rows(rule, rows)
    errors.update(_stacked(
        lambda j: _nu_at(_rule_rows(rule_kept, j), model.take(kept, j), theta_kept[j]), rows, nu))
    failed = np.isin(np.arange(len(lam0)), list(errors))
    theta[failed], score[failed], lam[failed] = np.nan, np.nan, np.nan
    return (theta, score, lam, nu), failed, errors


def _nu_at(rule, data, theta):
    """nu = g_psipsi / k_psipsi evaluated at a (possibly constrained) estimate,
    or one per row of a stack."""
    K, J = estimate_KJ(rule, data, theta)
    k_pp, g_pp = interest_information(K, J, rule.model.interest_grad(theta))
    return g_pp / k_pp


@dataclasses.dataclass(eq=False)
class ProfileTrace:
    """Constrained estimates, profile score and nu along an interest grid."""

    psi_grid: np.ndarray
    lam_hat: np.ndarray          # (n_grid, d-1)
    score_profile: np.ndarray
    nu: np.ndarray
    failed: np.ndarray           # bool flags for grid points whose own solve failed
    n_nodes: int                 # points solved: the nodes, or the grid point by point
    interp_error: float          # the last level's error estimate, or 0.0


def _tangent_starts(model, data, fit_result, psi_grid):
    """A start per grid point from the first-order continuation predictor at
    the free fit (Allgower & Georg 1990): where the constrained gradient
    J' grad S vanishes, the nuisance moves with psi as
    dlam/dpsi = -(J' K J)^-1 J' K dtheta/dpsi, J the embedding's Jacobian and
    K the Hessian of the total score. The line is drawn in the solver's
    coordinates, logs for the positive nuisances."""
    psi, lam = fit_result.psi_tilde, model.profile_extract(fit_result.theta_hat)
    jac, K, h = model.profile_embed_jac(psi, lam), fit_result.K, 1e-6 * (1.0 + abs(psi))
    dtheta = (model.profile_embed(psi + h, lam) - model.profile_embed(psi - h, lam)) / (2 * h)
    dlam = -np.linalg.solve(jac.T @ K @ jac, jac.T @ K @ dtheta)
    positive = model.lam_positive_mask(data)
    with np.errstate(over="ignore"):     # a start that overflows fails its row alone
        return _from_z(_to_z(lam, positive) + np.outer(psi_grid - psi, np.where(
            positive, dlam / lam, dlam)), positive)


def _lobatto(lo, hi, size):
    """The size Chebyshev-Lobatto points of [lo, hi], hi first, both ends
    exact. The points of size 2 m - 1 hold those of size m at their even
    positions, bit for bit."""
    x = 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos(np.pi * np.arange(size) / (size - 1))
    x[0], x[-1] = hi, lo
    return x


def _barycentric(nodes, values, at):
    """The polynomial through values, a row per point of ``_lobatto`` nodes,
    at each point of at: the barycentric formula of the second kind, with
    weights (-1)^j halved at the ends (Berrut & Trefethen 2004); exactly the
    node's row at a node."""
    w = (-1.0) ** np.arange(nodes.size)
    w[[0, -1]] *= 0.5
    diff = at[:, None] - nodes
    hit, node = np.nonzero(diff == 0)
    diff[hit, node] = 1.0
    c = w / diff
    out = (c @ values) / c.sum(1)[:, None]
    out[hit] = values[node]
    return out


def _lobatto_profile(rule, data, fit_result, lo, hi):
    """The profile at the PROFILE_LEVELS nested Chebyshev-Lobatto levels of
    [lo, hi], each level's new nodes one stack, the first started on the
    continuation predictor and each later one from the last level's
    interpolant. Returns (nodes, table, error) at the first level whose new
    nodes the last level's interpolant reads within PROFILE_TOL: table a row
    per node of its score, nu and nuisance in the solver's coordinates, and
    error the largest |estimate - solved| / (1 + |solved|) at the new nodes.
    Returns None where a node fails or no level meets the tolerance."""
    model = rule.model
    positive = model.lam_positive_mask(data)

    def solve(at, lam0):
        (_, score, lam, nu), failed, _ = _constrained_at(
            rule, model.stack([data] * at.size), at, lam0)
        return None if failed.any() else np.column_stack([score, nu, _to_z(lam, positive)])

    nodes = _lobatto(lo, hi, PROFILE_LEVELS[0])
    table = solve(nodes, _tangent_starts(model, data, fit_result, nodes))
    for size in PROFILE_LEVELS[1:]:
        if table is None:
            return None
        at = _lobatto(lo, hi, size)
        estimate = _barycentric(nodes, table, at[1::2])
        with np.errstate(over="ignore"):     # a start that overflows fails its row alone
            lam0 = _from_z(estimate[:, 2:], positive)
        solved = solve(at[1::2], lam0)
        if solved is None:
            return None
        error = float(np.max(np.abs(estimate - solved) / (1.0 + np.abs(solved))))
        # the last level's nodes are this level's even ones
        nodes, table = at, np.insert(table, np.arange(1, nodes.size), solved, axis=0)
        if error <= PROFILE_TOL:
            return nodes, table, error
    return None


def _fit_for(rule, data, fit_result):
    """fit_result, checked. The pivots and diagnostics of one fit start from
    its estimate and share the solves held in its memo, so it must be a fit
    of this rule to these data: raises NumericsError where it has not
    converged and DomainError where its rule or its data differ."""
    if fit_result.rule != rule or not _same_data(fit_result.data, data):
        raise DomainError("fit_result is not a fit of this rule to these data")
    if not fit_result.converged:
        raise NumericsError("fit_result is not a converged fit")
    return fit_result


def _same_data(a, b):
    """Whether a and b, checked datasets of one model, hold equal arrays."""
    return len(a) == len(b) and all(map(np.array_equal, a, b))


def profile(rule, data, psi_grid, fit_result):
    """Constrained fits and nu along the interest grid. A grid of at most
    ``scoring._row_cap`` points is solved point by point, one stack, each
    point started on the first-order continuation predictor at the free
    fit. A larger grid is solved at the nested Chebyshev-Lobatto levels
    PROFILE_LEVELS of its span (``_lobatto_profile``) and filled from the
    last level's interpolant; where a node fails, or no level meets PROFILE_TOL, the
    grid is solved point by point. A grid point whose own solve fails is
    interpolated from its neighbors and flagged. ``fit_result`` is the free
    fit of rule to data, from which the predictor starts (``_fit_for``)."""
    model = rule.model
    data = model.one(data)
    fit_result = _fit_for(rule, data, fit_result)
    psi_grid = _checked_grid(psi_grid)
    positive = model.lam_positive_mask(data)
    failed = np.zeros(psi_grid.size, dtype=bool)
    levels = (psi_grid.size > _row_cap(model, data)
              and _lobatto_profile(rule, data, fit_result, psi_grid[0], psi_grid[-1]))
    if levels:
        nodes, table, interp_error = levels
        # per grid point: the score, nu, then the nuisance
        table = _barycentric(nodes, table, psi_grid)
        table[:, 2:] = _from_z(table[:, 2:], positive)
        n_nodes = nodes.size
    else:
        (_, score, lam, nu), failed, _ = _constrained_at(
            rule, model.stack([data] * psi_grid.size), psi_grid,
            _tangent_starts(model, data, fit_result, psi_grid))
        table, n_nodes, interp_error = np.column_stack([score, nu, lam]), psi_grid.size, 0.0
    if failed.any():
        warnings.warn(f"{int(failed.sum())} profile grid point(s) failed; "
                      "interpolating from neighbors", stacklevel=2)
        ok = ~failed
        if ok.sum() < 2:
            raise NumericsError("profile failed on nearly the whole grid")
        for col in table.T:
            col[failed] = np.interp(psi_grid[failed], psi_grid[ok], col[ok])
    score, nu, lam_hat = table[:, 0], table[:, 1], table[:, 2:]
    if np.any(nu <= 0):
        raise NumericsError("nonpositive nu along the profile")
    return ProfileTrace(psi_grid=psi_grid, lam_hat=lam_hat, score_profile=score, nu=nu,
                        failed=failed, n_nodes=n_nodes, interp_error=interp_error)


# ---------------------------------------------------------------------------
# Pivots
# ---------------------------------------------------------------------------

def _wald_pivot(model, theta, K, J, psi):
    """(pivot, se) of the estimate theta: the Wald pivot
    (psi_tilde - psi) / se at psi, elementwise, and its standard error se
    from the sensitivity K and variability J at theta. Both are on the
    model's Wald scale: the identity, or the logit for a (0,1)-valued
    interest. A stack of estimates, with their K and J, gives a pivot and
    se per row."""
    psi_tilde = model.interest(theta)
    _, g_pp = interest_information(K, J, model.interest_grad(theta))
    se = np.sqrt(g_pp)
    psi = np.asarray(psi, dtype=float)
    if model.wald_scale == "logit":
        eta = np.log(psi_tilde / (1.0 - psi_tilde))
        se = se / (psi_tilde * (1.0 - psi_tilde))
        return (eta - np.log(psi / (1.0 - psi))) / se, se
    return (psi_tilde - psi) / se, se


def pivot_wald(fit_result, psi):
    """Profile Wald pivot (psi_tilde - psi) / se, decreasing in psi.

    For (0,1)-valued interest parameters the pivot is formed on the logit
    scale and intervals are transformed back.
    """
    if not fit_result.converged:
        raise NumericsError("Wald pivot requires a converged fit")
    return _wald_pivot(fit_result.rule.model, fit_result.theta_hat, fit_result.K,
                       fit_result.J, psi)[0]


def _signed_root(psi_tilde, s_opt, psi, s_con, nu):
    """Adjusted score-ratio root sign(psi_tilde - psi) sqrt(W / nu), with
    W = 2 (S(theta_psi) - S(theta_hat)); elementwise over arrays.

    W below -W_TOL (1 + |S(theta_hat)|) raises NumericsError; a smaller
    negative W is clamped to 0.
    """
    W = 2.0 * (s_con - s_opt)
    if np.any(_undercut(s_opt, s_con)):
        raise NumericsError("profile score below the optimum; the free fit is suspect",
                            detail={"W_min": float(np.min(W))})
    return np.sign(psi_tilde - psi) * np.sqrt(np.maximum(W, 0.0) / nu)


def _undercut(s_opt, s_con):
    """Where a constrained score s_con lies below the free optimum s_opt by
    more than round-off: W < -W_TOL (1 + |s_opt|); elementwise."""
    return 2.0 * (s_con - s_opt) < -W_TOL * (1.0 + np.abs(s_opt))


def _root_fit(fit_result, psi):
    """The root pivot's constrained fit at psi, started on the continuation
    predictor: (theta_psi, S(theta_psi), lam_psi, nu), or the DomainError
    or NumericsError of that solve, raised. Made once per fit and psi and
    shared by ``pivot_root``, the root TAIF and the root oracle."""
    model, data, psi_row = fit_result.rule.model, fit_result.data, np.array([psi], dtype=float)
    out, _, errors = fit_result._derived(("root", float(psi)), lambda: _constrained_at(
        fit_result.rule, model.stack([data]), psi_row,
        _tangent_starts(model, data, fit_result, psi_row)))
    if errors:
        raise errors[0]
    return tuple(a[0] for a in out)


def pivot_root(fit_result, psi):
    """Adjusted profile score-ratio root at one interest value,
    sign(psi_tilde - psi) sqrt(W / nu) with W = 2 (S(theta_psi) - S(theta_hat))
    and nu at the constrained estimate theta_psi. The constrained fit at psi
    is the one the root TAIF and its oracle share (``_root_fit``). Raises
    NumericsError where the fit has not converged, the constrained solve
    does not, or W is below the optimum.
    """
    if not fit_result.converged:
        raise NumericsError("root pivot requires a converged fit")
    _, s_con, _, nu = _root_fit(fit_result, psi)
    return float(_signed_root(fit_result.psi_tilde, fit_result.score_at_opt, psi, s_con, nu))


# ---------------------------------------------------------------------------
# Confidence objects
# ---------------------------------------------------------------------------

@dataclasses.dataclass(eq=False)
class ConfidenceObject:
    """A confidence distribution on a grid: pivot values, C and cc."""

    kind: str                    # "wald" | "root"
    model_name: str
    rule_kind: str
    gamma: float | None
    psi_grid: np.ndarray
    pivot_values: np.ndarray
    cdf_values: np.ndarray
    cc_values: np.ndarray
    psi_tilde: float
    se: float                    # pivot-scale standard error at the fit
    wald_scale: str
    n_repaired: int = 0
    repair_max: float = 0.0

    def pivot_at(self, psi):
        """The pivot at psi, interpolated on the grid. Outside the grid hull
        it is the pivot at the hull edge, which bounds the true value (the
        pivot decreases in psi), with a warning."""
        psi = np.asarray(psi, dtype=float)
        if np.any(psi < self.psi_grid[0]) or np.any(psi > self.psi_grid[-1]):
            warnings.warn("psi outside the grid hull; returning the bound at the hull edge",
                          stacklevel=2)
        return np.interp(psi, self.psi_grid, self.pivot_values)

    def cdf_at(self, psi):
        return ndtr(-self.pivot_at(psi))

    def to_dict(self, levels=()):
        out = {
            "model": self.model_name,
            "rule": self.rule_kind,
            "gamma": self.gamma,
            "kind": self.kind,
            "psi_grid": self.psi_grid.tolist(),
            "pivot": self.pivot_values.tolist(),
            "cdf": self.cdf_values.tolist(),
            "cc": self.cc_values.tolist(),
            "psi_tilde": self.psi_tilde,
            "se": self.se,
            "wald_scale": self.wald_scale,
            "ci": {},
        }
        for level in levels:
            interval = ci(self, level)
            out["ci"][f"{level:g}"] = [interval.lo, interval.hi]
        return out

    @classmethod
    def from_dict(cls, d):
        return cls(
            kind=d["kind"], model_name=d["model"], rule_kind=d["rule"],
            gamma=d["gamma"],
            psi_grid=np.asarray(d["psi_grid"], dtype=float),
            pivot_values=np.asarray(d["pivot"], dtype=float),
            cdf_values=np.asarray(d["cdf"], dtype=float),
            cc_values=np.asarray(d["cc"], dtype=float),
            psi_tilde=float(d["psi_tilde"]), se=float(d["se"]),
            wald_scale=d.get("wald_scale", "identity"),
        )


@dataclasses.dataclass(frozen=True)
class ConfidenceInterval:
    lo: float
    hi: float
    lo_open: bool = False
    hi_open: bool = False


def default_grid(psi_tilde, se_natural, interest_range, n_points=201, span=6.0):
    """Grid of n_points around the estimate, clipped to the admissible range,
    always containing the estimate as a grid point: (n_points + 1) // 2
    points up to the estimate, the rest above it, so an odd grid is
    symmetric in its point counts. DomainError where n_points is below 3,
    which would leave the estimate off the grid."""
    if n_points < 3:
        raise DomainError(f"a grid needs at least 3 points around the estimate, got {n_points}")
    lo_r, hi_r = interest_range
    width = hi_r - lo_r if np.isfinite(hi_r - lo_r) else np.inf
    # keep a finite-boundary margin wide enough that the constrained model
    # does not degenerate numerically at the grid edge
    inset = 1e-4 * width if np.isfinite(width) else 0.0
    lo = max(psi_tilde - span * se_natural, lo_r + inset)
    hi = min(psi_tilde + span * se_natural, hi_r - inset)
    if not lo < psi_tilde < hi:
        raise NumericsError("interest estimate too close to the admissible boundary")
    half = (n_points + 1) // 2
    left = np.linspace(lo, psi_tilde, half)
    right = np.linspace(psi_tilde, hi, n_points - half + 1)[1:]
    return np.concatenate([left, right])


def _checked_grid(psi_grid):
    """psi_grid as a float array; DomainError unless it is 1-D, strictly
    increasing and of at least 2 points."""
    psi_grid = np.asarray(psi_grid, dtype=float)
    if psi_grid.ndim != 1 or psi_grid.size < 2 or not np.all(np.diff(psi_grid) > 0):
        raise DomainError("psi_grid must be a strictly increasing 1-D grid of at least 2 points")
    return psi_grid


def _decreasing_fit(y):
    """The least-squares non-increasing fit of y by pooling adjacent
    violators: a block whose mean exceeds that of the block before it is
    merged into it. A non-increasing y is returned as it is."""
    means, sizes = [], []
    for v in y.tolist():
        means.append(v)
        sizes.append(1)
        while len(means) > 1 and means[-2] < means[-1]:
            m, n = means.pop(), sizes.pop()
            means[-1] = (sizes[-1] * means[-1] + n * m) / (sizes[-1] + n)
            sizes[-1] += n
    return np.repeat(means, sizes)


def build_cd(rule, data, kind, psi_grid=None, fit_result=None, n_grid=201,
             span=6.0):
    """Construct a confidence distribution of the requested kind.

    C is Phi(-pivot) with the pivot decreasing in psi; any monotonicity
    violations of the raw pivot are repaired by an isotonic projection
    anchored at the estimate (C(psi_tilde) stays 1/2), and the repair size is
    recorded on the C scale. A given ``fit_result`` must be a converged fit
    of rule to data (``_fit_for``); without one, build_cd fits the data.
    """
    if kind not in ("wald", "root"):
        raise DomainError("kind must be 'wald' or 'root'")
    model = rule.model
    data = model.one(data)
    fit_result = fit_rule(rule, data) if fit_result is None else _fit_for(rule, data, fit_result)
    theta = fit_result.theta_hat
    psi_tilde = float(model.interest(theta))
    _, g_pp = interest_information(fit_result.K, fit_result.J, model.interest_grad(theta))
    se_natural = float(np.sqrt(g_pp))
    if psi_grid is None:
        psi_grid = default_grid(psi_tilde, se_natural, model.interest_range(),
                                n_points=n_grid, span=span)
    else:
        psi_grid = _checked_grid(psi_grid)
        if psi_tilde < psi_grid[0] or psi_tilde > psi_grid[-1]:
            raise DomainError("supplied grid does not cover the interest estimate")
        if not np.any(np.isclose(psi_grid, psi_tilde, rtol=0, atol=1e-12)):
            psi_grid = np.sort(np.append(psi_grid, psi_tilde))

    i0 = int(np.argmin(np.abs(psi_grid - psi_tilde)))
    if kind == "wald":
        raw = np.asarray(pivot_wald(fit_result, psi_grid), dtype=float)
    else:
        trace = profile(rule, data, psi_grid, fit_result=fit_result)
        raw = _signed_root(psi_tilde, fit_result.score_at_opt, psi_grid,
                           trace.score_profile, trace.nu)
    raw[i0] = 0.0

    # orientation clip + isotonic repair, anchored at the estimate
    clipped = raw.copy()
    clipped[:i0] = np.maximum(clipped[:i0], 0.0)
    clipped[i0 + 1:] = np.minimum(clipped[i0 + 1:], 0.0)
    pivot = _decreasing_fit(clipped)
    cdf = ndtr(-pivot)
    # the repair on the C scale, zero where it left the raw pivot as it was
    moved = pivot != raw
    delta_c = np.zeros_like(cdf)
    delta_c[moved] = np.abs(cdf[moved] - ndtr(-raw[moved]))
    n_repaired = int(np.sum(delta_c > 1e-12))
    if n_repaired > 0.10 * psi_grid.size:
        warnings.warn(
            f"monotonicity repair touched {n_repaired}/{psi_grid.size} grid points; "
            "the profile looks irregular", stacklevel=2)

    cc = np.abs(1.0 - 2.0 * cdf)
    _, se_pivot = _wald_pivot(model, theta, fit_result.K, fit_result.J, psi_tilde)
    return ConfidenceObject(
        kind=kind, model_name=model.name, rule_kind=rule.kind, gamma=rule.gamma,
        psi_grid=psi_grid, pivot_values=pivot, cdf_values=cdf, cc_values=cc,
        psi_tilde=psi_tilde, se=se_pivot, wald_scale=model.wald_scale,
        n_repaired=n_repaired, repair_max=float(delta_c.max() if delta_c.size else 0.0),
    )


# ---------------------------------------------------------------------------
# Interval, p-value, evidence
# ---------------------------------------------------------------------------

def _logit_inv(x):
    return 1.0 / (1.0 + np.exp(-x))


def ci(cd, level):
    """Equi-tailed interval {psi : |pivot(psi)| <= z_(1+level)/2}.

    Wald intervals are closed-form on the pivot scale. A root interval runs
    from the first point where the piecewise-linear pivot through the grid
    values falls to z to the last where it is -z, both found exactly.
    Endpoints that fall outside the grid hull are returned as the hull bound
    with an open flag.
    """
    if not 0.0 < level < 1.0:
        raise DomainError("level must be in (0, 1)")
    z = float(ndtri(0.5 * (1.0 + level)))
    if cd.kind == "wald":
        if cd.wald_scale == "logit":
            eta = np.log(cd.psi_tilde / (1.0 - cd.psi_tilde))
            return ConfidenceInterval(float(_logit_inv(eta - z * cd.se)),
                                      float(_logit_inv(eta + z * cd.se)))
        return ConfidenceInterval(cd.psi_tilde - z * cd.se, cd.psi_tilde + z * cd.se)

    grid, pv = cd.psi_grid, cd.pivot_values

    def crossing(i, o, target):
        # on the segment from grid point i (inside) to o (outside the interval)
        return float(grid[i] + (pv[i] - target) / (pv[i] - pv[o]) * (grid[o] - grid[i]))

    # the pivot is non-increasing, so -pv is sorted and a binary search
    # finds the segment that crosses each level
    lo_open, hi_open = bool(pv[0] < z), bool(pv[-1] > -z)
    lo, hi = float(grid[0]), float(grid[-1])
    i = int(np.searchsorted(-pv, -z, side="left"))       # the first pv[i] <= z
    if i > 0:
        lo = crossing(i, i - 1, z)
    i = int(np.searchsorted(-pv, z, side="right")) - 1   # the last pv[i] >= -z
    if i < pv.size - 1:
        hi = crossing(i, i + 1, -z)
    if lo_open or hi_open:
        warnings.warn(f"{level:g} interval endpoint(s) outside the grid hull; "
                      "returning hull bounds", stacklevel=2)
    return ConfidenceInterval(lo, hi, lo_open, hi_open)


_ALTERNATIVES = ("less", "greater", "two_sided", "two-sided")


def _check_alternative(alternative):
    if alternative not in _ALTERNATIVES:
        raise DomainError("alternative must be 'less', 'greater' or 'two_sided'")


def _tail_p(q, alternative):
    """P-value of the pivot value q, or of each in an array: Phi(-q), Phi(q)
    or 2 Phi(-|q|), which stays positive where 1 - Phi(|q|) rounds to 0
    (|q| above about 8.3)."""
    _check_alternative(alternative)
    if alternative == "less":
        return ndtr(-q)
    if alternative == "greater":
        return ndtr(q)
    return 2.0 * ndtr(-np.abs(q))


def p_value(cd, psi0, alternative="two_sided"):
    """P-value for H0: psi = psi0 against the given alternative.

    "less" and "greater" are the CD tail areas C(psi0) and 1 - C(psi0); the
    two-sided p-value is 2 Phi(-|pivot(psi0)|). A psi0 outside the
    grid hull gives the bound at the hull edge, with a warning.
    """
    return float(_tail_p(float(cd.pivot_at(psi0)), alternative))


def evidence(cd, psi1, psi2):
    """Confidence mass C(psi2) - C(psi1) assigned to the interval (psi1, psi2).
    An endpoint outside the grid hull is taken at the hull edge, with a
    warning, which gives a lower bound on the mass."""
    if not psi1 < psi2:
        raise DomainError("require psi1 < psi2")
    return float(cd.cdf_at(psi2) - cd.cdf_at(psi1))
