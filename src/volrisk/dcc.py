"""Dynamic conditional correlation over a panel of standardized residuals.

Stage 2 of the two-stage estimator.  Stage-1 volatility fits supply
standardized residuals z_t; here a single (alpha, beta) pair drives the
correlation recursion

    Q_t = Qbar (1 - alpha - beta) + alpha z_{t-1} z_{t-1}' + beta Q_{t-1}
    R_t = diag(Q_t)^{-1/2} Q_t diag(Q_t)^{-1/2}

with Q_0 = Qbar and Qbar fixed at its sample value (covariance
targeting).  The joint likelihood is the standardized multivariate t with one shape
parameter on one Cholesky factor of R_t per date, maximized with stage-1 results frozen.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distributions import _t_const, _t_const_dnu
from .egarch import _BURN, EgarchFit, EgarchParams, _apply_mean, _egarch_shocks, aic
from .market_data import DataError, DegenerateSeriesError
from .optimize import ParamSpace, _fit, _objectives, _scan, _std_errors

__all__ = [
    "DccParams",
    "DccFit",
    "unconditional_corr",
    "dcc_filter",
    "dcc_loglik",
    "dcc_score",
    "fit_dcc",
    "conditional_covariance",
    "simulate_dcc_panel",
]


@dataclass(frozen=True)
class DccParams:
    alpha: float
    beta: float
    joint_shape: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise ValueError(f"alpha must be > 0, got {self.alpha}")
        if not (math.isfinite(self.beta) and self.beta >= 0.0):
            raise ValueError(f"beta must be >= 0, got {self.beta}")
        if not self.alpha + self.beta < 1.0:
            raise ValueError(f"alpha + beta must be < 1, got {self.alpha + self.beta}")
        if not (math.isfinite(self.joint_shape) and self.joint_shape > 2.0):
            raise ValueError(f"joint_shape must be > 2, got {self.joint_shape}")


@dataclass(frozen=True)
class DccFit:
    params: DccParams
    Qbar: np.ndarray
    R_path: np.ndarray
    loglik_joint: float
    aic_joint: float
    aic_joint_per_obs: float
    std_errors: dict
    converged: bool
    symbols: tuple
    dates: tuple
    n_obs: int
    k_stage1: int
    k_stage2: int

    @property
    def k_total(self) -> int:
        # joint parameter count: every stage-1 parameter plus (alpha, beta, shape)
        return self.k_stage1 + self.k_stage2

    def to_dict(self) -> dict:
        corr = {f"{a}/{b}": self.R_path[:, i, j].tolist()
                for (i, a), (j, b) in itertools.combinations(enumerate(self.symbols), 2)}
        return {
            "symbols": list(self.symbols),
            "params": dict(vars(self.params)),
            "std_errors": dict(self.std_errors),
            "converged": self.converged,
            "n_obs": self.n_obs,
            "k_stage1": self.k_stage1,
            "k_stage2": self.k_stage2,
            "k_total": self.k_total,
            "loglik_joint": self.loglik_joint,
            "aic_joint": self.aic_joint,
            "aic_joint_per_obs": self.aic_joint_per_obs,
            "dates": [dt.isoformat() for dt in self.dates],
            "dynamic_correlation": corr,
        }


def _as_panel(Z) -> np.ndarray:
    if isinstance(Z, np.ndarray) and Z.ndim == 2:
        return np.asarray(Z, dtype=float)
    cols = [np.asarray(c, dtype=float) for c in Z]
    lengths = {c.size for c in cols}
    if len(lengths) != 1:
        raise DataError(f"residual series lengths differ: {sorted(lengths)}")
    return np.column_stack(cols)


def _target(Qbar, k: int) -> np.ndarray:
    Qbar = np.asarray(Qbar, dtype=float)
    if Qbar.shape != (k, k):
        raise ValueError(f"Qbar has shape {Qbar.shape}, expected ({k}, {k})")
    return Qbar


def unconditional_corr(Z) -> np.ndarray:
    """Qbar = (1/n) sum_t z_t z_t', exactly symmetric."""
    Z = _as_panel(Z)
    n, k = Z.shape
    if n < k + 10:
        raise DataError(f"need at least k + 10 = {k + 10} observations, got {n}")
    for i in range(k):
        if not np.all(np.isfinite(Z[:, i])):
            raise DataError(f"residual column {i}: not finite")
        if float(Z[:, i].var()) == 0.0:
            raise DegenerateSeriesError(f"residual column {i}: degenerate: zero variance")
    Q = Z.T @ Z / n
    return 0.5 * (Q + Q.T)


def _filter_core(Z: np.ndarray, alpha: float, beta: float, Qbar: np.ndarray):
    # With x_0 = Qbar and x_t = C + alpha z_{t-1} z_{t-1}', the recursion
    # Q_t = x_t + beta Q_{t-1} is first-order linear, so it runs as a
    # doubling scan on the upper-triangle entries, one row per date, so
    # each shifted slice is a single contiguous block.
    T, k = Z.shape
    iu, ju = np.triu_indices(k)
    Y = np.empty((T, iu.size))
    Y[0] = Qbar[iu, ju]
    Y[1:] = alpha * (Z[:-1, iu] * Z[:-1, ju])
    Y[1:] += Qbar[iu, ju] * (1.0 - alpha - beta)
    _scan(Y, beta)
    Q = np.empty((T, k, k))
    Q[:, iu, ju] = Y
    Q[:, ju, iu] = Y
    d = np.sqrt(np.diagonal(Q, axis1=1, axis2=2))
    # an infinite residual gives inf / inf here; the likelihood rejects the path
    with np.errstate(invalid="ignore"):
        R = Q / (d[:, :, None] * d[:, None, :])
    idx = np.arange(k)
    R[:, idx, idx] = 1.0
    return Q, R


def dcc_filter(Z, params: DccParams, Qbar) -> tuple:
    """Run the correlation recursion; returns the paths (Q, R) of Q_t and R_t.

    Positive definiteness of every R_t is checked defensively via the same
    factorization the likelihood uses.
    """
    Z = _as_panel(Z)
    Q, R = _filter_core(Z, params.alpha, params.beta, _target(Qbar, Z.shape[1]))
    try:
        np.linalg.cholesky(R)
    except np.linalg.LinAlgError as exc:
        raise ValueError("correlation path left the positive-definite cone; "
                         "check Qbar comes from the same Z") from exc
    Q.setflags(write=False)
    R.setflags(write=False)
    return Q, R


def _mvt_terms(Z: np.ndarray, R: np.ndarray, nu: float) -> "tuple | None":
    # (loglik, M, w, q) of the standardized multivariate t at z_t under R_t,
    # with R_t = L_t L_t', M_t = L_t^{-1}, w_t = M_t z_t and q_t = w_t'w_t;
    # None when a path is not finite or leaves the positive-definite cone
    if not np.all(np.isfinite(R)):
        return None
    try:
        L = np.linalg.cholesky(R)
    except np.linalg.LinAlgError:
        return None
    T, k = Z.shape
    M = np.zeros((T, k, k))
    for i in range(k):  # substitution, row i of M from rows 0..i-1, each over all T
        M[:, i, i] = 1.0 / L[:, i, i]
        M[:, i, :i] = -np.einsum("tj,tjc->tc", L[:, i, :i], M[:, :i, :i]) * M[:, i, i, None]
    w = np.einsum("tij,tj->ti", M, Z)
    q = np.einsum("ti,ti->t", w, w)
    logdet = 2.0 * np.log(np.diagonal(L, axis1=1, axis2=2)).sum(axis=1)
    ll = float(T * _t_const(nu, k) - 0.5 * logdet.sum()
               - (nu + k) / 2.0 * np.log1p(q / (nu - 2.0)).sum())
    return (ll, M, w, q) if math.isfinite(ll) else None


def dcc_loglik(Z, params: DccParams, Qbar) -> float:
    """Sum over t of the standardized multivariate-t log density at z_t
    under R_t; non-finite trial values collapse to -inf."""
    Z = _as_panel(Z)
    _, R = _filter_core(Z, params.alpha, params.beta, _target(Qbar, Z.shape[1]))
    terms = _mvt_terms(Z, R, params.joint_shape)
    return -math.inf if terms is None else terms[0]


def dcc_score(Z, params: DccParams, Qbar) -> tuple:
    """Joint log-likelihood and its exact gradient in (alpha, beta,
    joint_shape), from one pass of the recursion.

    With u = R^{-1} z_t, dl_t = tr(W dR_t) / 2 for W = -R^{-1} + (nu + k) u u' /
    (nu - 2 + q_t), so dl_t/dQ_ij = W_ij / (d_i d_j) for i < j, d_i = sqrt(Q_ii),
    and dl_t/dQ_ii = -sum_{j != i} W_ij R_ij / (2 Q_ii).  Its reversed beta-scan
    dotted with z_{t-1} z_{t-1}' - Qbar and Q_{t-1} - Qbar gives the alpha and
    beta components.  Returns ``(-inf, nan)`` where the loglik is -inf.
    """
    Z = _as_panel(Z)
    Qbar = _target(Qbar, Z.shape[1])
    alpha, beta, nu = params.alpha, params.beta, params.joint_shape
    Q, R = _filter_core(Z, alpha, beta, Qbar)
    terms = _mvt_terms(Z, R, nu)
    if terms is None:
        return -math.inf, np.full(3, math.nan)
    ll, M, w, q = terms
    T, k = Z.shape
    u = np.einsum("tji,tj->ti", M, w)
    iu, ju = np.triu_indices(k)
    off = iu != ju
    i, j = iu[off], ju[off]
    # R^{-1} = M'M summed with dates last; dR_ii = 0, so only i < j enters W
    Mt = np.ascontiguousarray(M.transpose(1, 2, 0))
    W = (((nu + k) / (nu - 2.0 + q))[:, None] * u[:, i] * u[:, j]
         - np.einsum("lit,ljt->ijt", Mt, Mt)[i, j].T)
    Qd = np.diagonal(Q, axis1=1, axis2=2)
    G = np.empty((T, iu.size))
    G[:, off] = W / np.sqrt(Qd[:, i] * Qd[:, j])
    pairs = (i[:, None] == np.arange(k)) | (j[:, None] == np.arange(k))
    G[:, ~off] = -0.5 * ((W * R[:, i, j]) @ pairs) / Qd
    lam = _scan(G[::-1].copy(), beta)[::-1]
    g = np.empty(3)
    g[0] = np.vdot(lam[1:], Z[:-1, iu] * Z[:-1, ju] - Qbar[iu, ju])
    g[1] = np.vdot(lam[1:], Q[:-1, iu, ju] - Qbar[iu, ju])
    g[2] = (
        T * _t_const_dnu(nu, k)
        - 0.5 * np.log1p(q / (nu - 2.0)).sum()
        + 0.5 * (nu + k) * (q / ((nu - 2.0) * (nu - 2.0 + q))).sum()
    )
    return ll, g


# smallest Cholesky pivot of the correlation target accepted as full rank;
# pivot j is sqrt(1 - R^2) of residual series j regressed on series 0..j-1
_MIN_PIVOT = 1e-6


def _check_full_rank(Qbar: np.ndarray, symbols) -> None:
    """Raise DataError naming the most-correlated pair when Qbar is singular.

    Duplicate or collinear assets give identical standardized residuals,
    and a correlation target the recursion cannot start from.
    """
    d = np.sqrt(np.diagonal(Qbar))
    C = Qbar / np.outer(d, d)
    try:
        pivot = float(np.diagonal(np.linalg.cholesky(C)).min())
    except np.linalg.LinAlgError:
        pivot = 0.0
    if pivot >= _MIN_PIVOT:
        return
    off = np.abs(C - np.eye(C.shape[0]))
    i, j = np.unravel_index(int(np.argmax(off)), off.shape)
    i, j = min(i, j), max(i, j)
    raise DataError(
        f"{symbols[i]} and {symbols[j]} are collinear (residual correlation "
        f"{C[i, j]:.6f}); the joint correlation target is singular, drop one of them"
    )


def fit_dcc(fits: Sequence[EgarchFit]) -> DccFit:
    """Maximize the joint likelihood over (alpha, beta, shape) with Qbar
    fixed by covariance targeting.  Stage-1 fits are read, never mutated.

    The joint law is the multivariate t whatever the stage-1 innovation
    family.  Duplicate or collinear assets raise DataError.
    """
    if len(fits) < 2:
        raise DataError(f"need at least 2 stage-1 fits, got {len(fits)}")
    dates = fits[0].dates
    for f in fits[1:]:
        if f.dates != dates:
            raise DataError(f"{f.symbol}: calendar differs from {fits[0].symbol}")
    Z = np.column_stack([f.z for f in fits])
    Qbar = unconditional_corr(Z)
    _check_full_rank(Qbar, [f.symbol for f in fits])

    space = ParamSpace((
        ("alpha", ("pair_sum_lt_one", "beta")),
        ("beta", ("pair_sum_lt_one", "alpha")),
        ("joint_shape", ("interval", 2.0, 500.0)),
    ))

    neg_score = _objectives(lambda x: DccParams(*map(float, x)),
                            lambda params: dcc_score(Z, params, Qbar), space.dimension)
    best, converged = _fit(neg_score, space, [0.05, 0.90, 8.0])
    params = DccParams(*map(float, best.x_opt))
    # BFGS scored x_opt itself, and the score's loglik is dcc_loglik's
    ll = -best.f_opt
    k_stage1 = sum(f.k_params for f in fits)
    k_total = k_stage1 + space.dimension
    a = aic(ll, k_total)
    n = Z.shape[0]
    Qbar.setflags(write=False)
    return DccFit(
        params=params,
        Qbar=Qbar,
        R_path=dcc_filter(Z, params, Qbar)[1],
        loglik_joint=ll,
        aic_joint=a,
        aic_joint_per_obs=a / n,
        std_errors=_std_errors(lambda x: neg_score(x)[1], space, best.x_opt,
                               "joint correlation fit"),
        converged=converged,
        symbols=tuple(f.symbol for f in fits),
        dates=dates,
        n_obs=n,
        k_stage1=k_stage1,
        k_stage2=space.dimension,
    )


def conditional_covariance(fit: DccFit, h_paths, t: int) -> np.ndarray:
    """H_t = D_t R_t D_t with D_t = diag(sqrt(h_t)); diagonal equals the
    per-asset variances exactly."""
    H_all = _as_panel(h_paths)
    T = fit.R_path.shape[0]
    if H_all.shape != (T, fit.R_path.shape[1]):
        raise ValueError(
            f"h_paths shape {H_all.shape} does not match panel ({T}, {fit.R_path.shape[1]})"
        )
    if not 0 <= t < T:
        raise IndexError(f"t = {t} out of range [0, {T})")
    s = np.sqrt(H_all[t])
    H = fit.R_path[t] * np.outer(s, s)
    return H


def simulate_dcc_panel(
    asset_params: Sequence[EgarchParams],
    dcc_params: DccParams,
    Qbar: np.ndarray,
    n: int,
    seed: int,
) -> tuple:
    """Jointly simulate a return panel under per-asset log-variance
    recursions and the correlation recursion.

    Innovations are standardized multivariate t: z_t = L_t g sqrt((nu-2)/W)
    with g standard normal, W chi-square(nu), L_t the factor of R_t.
    Returns (returns, innovations), each (n, k).
    """
    k = len(asset_params)
    if k < 2:
        raise ValueError(f"panel simulation needs >= 2 assets, got {k}")
    Qbar = _target(Qbar, k)
    nu = dcc_params.joint_shape
    alpha, beta = dcc_params.alpha, dcc_params.beta
    rng = np.random.default_rng(seed)
    total = n + _BURN

    Q = Qbar.copy()
    C = Qbar * (1.0 - alpha - beta)
    scale = math.sqrt(nu - 2.0)

    Z = np.empty((total, k))
    for t in range(total):
        d = np.sqrt(Q.diagonal())
        R = Q / (d[:, None] * d)
        R.flat[::k + 1] = 1.0
        L = np.linalg.cholesky(R)
        # one normal vector then one chi-square per step: this order is the stream
        g = rng.standard_normal(k)
        w = rng.chisquare(nu)
        z = (L @ g) * (scale / math.sqrt(w))
        Z[t] = z
        # Q <- (C + alpha z z') + beta Q in place, the same sums in the same rounding
        zz = z[:, None] * z
        zz *= alpha
        zz += C
        Q *= beta
        Q += zz
    # the correlation path never sees the returns, so each asset's log-variance
    # recursion, then its mean as in simulate_egarch, runs on its column of innovations
    returns = np.empty((total, k))
    for i, p in enumerate(asset_params):
        returns[:, i] = _apply_mean(_egarch_shocks(p, Z[:, i]), p.mean.mu, p.mean.ar, p.mean.ma)
    return returns[_BURN:], Z[_BURN:]
