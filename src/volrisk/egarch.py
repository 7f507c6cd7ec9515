"""Per-asset conditional-mean and conditional-variance estimation.

The variance workhorse models the log of conditional variance

    log h_t = omega + a_mag (|z_{t-1}| - E|z|) + xi z_{t-1} + b_pers log h_{t-1}

with z = eps/sqrt(h), so positivity of h is automatic and the sign
coefficient xi captures asymmetric response to shocks.  A constant-mean
GARCH(1,1) baseline (h_t = alpha0 + alpha1 eps_{t-1}^2 + gamma1 h_{t-1})
shares the same fitting and reporting machinery.

Each likelihood has an exact score from the same pass of its filter, and
every fit runs BFGS on it.  Fits are pure functions of their inputs;
callers may run several in parallel with no coordination.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import distributions as dist_mod
from . import optimize as opt_mod
from .distributions import InnovationDist
from .market_data import DegenerateSeriesError, DataError, ReturnSeries

__all__ = [
    "MeanSpec",
    "MeanParams",
    "EgarchParams",
    "Garch11Params",
    "EgarchFit",
    "mean_filter",
    "egarch_filter",
    "egarch_loglik",
    "egarch_score",
    "garch11_filter",
    "garch11_loglik",
    "garch11_score",
    "simulate_egarch",
    "simulate_garch11",
    "fit_egarch",
    "fit_garch11",
    "aic",
    "egarch_param_space",
    "egarch_params_from_vector",
    "garch11_param_space",
    "garch11_params_from_vector",
]

log = logging.getLogger("volrisk.egarch")

_MAX_ARMA_ORDER = 5


@dataclass(frozen=True)
class MeanSpec:
    """Conditional-mean configuration: AR/MA orders and a constant flag."""

    ar_order: int = 0
    ma_order: int = 0
    include_constant: bool = True

    def __post_init__(self) -> None:
        for name, v in (("ar_order", self.ar_order), ("ma_order", self.ma_order)):
            if not (0 <= v <= _MAX_ARMA_ORDER):
                raise ValueError(f"{name} must lie in [0, {_MAX_ARMA_ORDER}], got {v}")


@dataclass(frozen=True)
class MeanParams:
    """Concrete mean-equation coefficients."""

    mu: float = 0.0
    ar: tuple = ()
    ma: tuple = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "ar", tuple(float(a) for a in self.ar))
        object.__setattr__(self, "ma", tuple(float(m) for m in self.ma))
        if len(self.ar) > _MAX_ARMA_ORDER or len(self.ma) > _MAX_ARMA_ORDER:
            raise ValueError(f"AR/MA orders capped at {_MAX_ARMA_ORDER}")


@dataclass(frozen=True)
class EgarchParams:
    mean: MeanParams
    omega: float
    a_mag: float
    xi: float
    b_pers: float
    dist: InnovationDist

    def __post_init__(self) -> None:
        if not abs(self.b_pers) < 1.0:
            raise ValueError(f"|b_pers| must be < 1, got {self.b_pers}")
        for name in ("omega", "a_mag", "xi"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class Garch11Params:
    mu: float
    alpha0: float
    alpha1: float
    gamma1: float
    dist: InnovationDist

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha0) and self.alpha0 > 0.0):
            raise ValueError(f"alpha0 must be > 0, got {self.alpha0}")
        if self.alpha1 < 0.0 or self.gamma1 < 0.0:
            raise ValueError("alpha1 and gamma1 must be nonnegative")
        if not self.alpha1 + self.gamma1 < 1.0:
            raise ValueError(
                f"alpha1 + gamma1 must be < 1, got {self.alpha1 + self.gamma1}"
            )


@dataclass(frozen=True)
class EgarchFit:
    """Fitted volatility model: parameter point, paths, and fit diagnostics."""

    params: "EgarchParams | Garch11Params"
    h: np.ndarray
    eps: np.ndarray
    z: np.ndarray
    loglik: float
    aic: float
    aic_per_obs: float
    std_errors: dict
    converged: bool
    n_obs: int
    k_params: int
    param_names: tuple
    estimates: np.ndarray
    symbol: str
    dates: tuple
    model: str

    def to_dict(self, include_paths: bool = True) -> dict:
        d = {
            "symbol": self.symbol,
            "model": self.model,
            "distribution": self.params.dist.family,
            "n_obs": self.n_obs,
            "k_params": self.k_params,
            "converged": self.converged,
            "loglik": self.loglik,
            "aic": self.aic,
            "aic_per_obs": self.aic_per_obs,
            "params": {n: float(v) for n, v in zip(self.param_names, self.estimates)},
            "std_errors": {n: self.std_errors[n] for n in self.param_names},
        }
        if include_paths:
            d["dates"] = [dt.isoformat() for dt in self.dates]
            d["h"] = [float(v) for v in self.h]
            d["z"] = [float(v) for v in self.z]
        return d


# ---------------------------------------------------------------------------
# filters

def _scan(Y: np.ndarray, beta: float) -> np.ndarray:
    """Y_t += beta Y_{t-1} down axis 0, in place; returns Y.

    The first-order linear recursion with a constant coefficient, as a
    doubling scan: after the pass with shift s, row t holds the sum over
    its last 2s terms, so log2(T) vectorized passes replace the loop.
    """
    T = Y.shape[0]
    s = 1
    while s < T:
        Y[s:] += beta ** s * Y[:-s]
        s *= 2
    return Y


def _scan_varying(c: np.ndarray, V: np.ndarray) -> np.ndarray:
    """D_0 = V_0 and D_t = c_t D_{t-1} + V_t for rows t >= 1, where c
    holds c_1..c_{T-1}.

    The same doubling scan as ``_scan`` with a time-varying coefficient:
    each row carries the product of the coefficients its partial sum spans.
    """
    T = V.shape[0]
    P = np.empty(T)
    P[0] = 0.0
    P[1:] = c
    S = np.array(V, dtype=float)
    s = 1
    while s < T:
        S[s:] += P[s:, None] * S[:-s]
        P[s:] *= P[:-s]
        s *= 2
    return S


def _mean_resid(values, mu: float, ar: Sequence[float], ma: Sequence[float],
                grad: bool = False):
    # with grad, also returns d eps_t / d(mu, ar..., ma...) as an (n, 1+p+q) array
    p, q = len(ar), len(ma)
    if p == 0 and q == 0:
        eps = np.asarray(values, dtype=float) - mu
        return (eps, np.full((eps.size, 1), -1.0)) if grad else eps
    vals = list(map(float, values))
    presample = sum(vals) / len(vals)  # r_t for t <= 0; eps_t there is 0
    eps: list = []
    deps: list = []
    for t in range(len(vals)):
        acc = vals[t] - mu
        lags = [vals[t - 1 - i] if t - 1 - i >= 0 else presample for i in range(p)]
        for i in range(p):
            acc -= ar[i] * lags[i]
        for j in range(q):
            k = t - 1 - j
            if k >= 0:
                acc -= ma[j] * eps[k]
        eps.append(acc)
        if grad:
            row = [-1.0] + [-v for v in lags] + [
                -eps[t - 1 - j] if t - 1 - j >= 0 else 0.0 for j in range(q)]
            for j in range(q):
                k = t - 1 - j
                if k >= 0:
                    row = [a - ma[j] * b for a, b in zip(row, deps[k])]
            deps.append(row)
    return (np.asarray(eps), np.asarray(deps)) if grad else np.asarray(eps)


def _checked_resid(r: ReturnSeries, mean: MeanParams, grad: bool = False):
    p, q = len(mean.ar), len(mean.ma)
    n = len(r)
    if n <= p + q + 10:
        raise DataError(
            f"{r.symbol}: mean filter of order ({p}, {q}) needs n > {p + q + 10}, got {n}"
        )
    return _mean_resid(r.values, mean.mu, mean.ar, mean.ma, grad)


def mean_filter(r: ReturnSeries, mean: MeanParams) -> np.ndarray:
    """Residuals eps_t = r_t - mu - sum phi_i r_{t-i} - sum theta_j eps_{t-j}.

    Pre-sample convention: r_t = sample mean and eps_t = 0 for t <= 0.
    """
    return _checked_resid(r, mean)


def _egarch_h(eps_list, omega: float, a_mag: float, xi: float, b_pers: float,
              ez: float, h0: float) -> list:
    # pure-float recursion; overflow leaves inf in h for the likelihood to reject
    exp_, log_, sqrt_ = math.exp, math.log, math.sqrt
    logh = log_(h0)
    prev = h0
    h = [h0]
    push = h.append
    for e in eps_list[:-1]:
        try:
            z = e / sqrt_(prev)
        except ZeroDivisionError:
            z = math.copysign(math.inf, e) if e != 0.0 else 0.0
        az = z if z >= 0.0 else -z
        logh = omega + a_mag * (az - ez) + xi * z + b_pers * logh
        try:
            prev = exp_(logh)
        except OverflowError:
            prev = math.inf
        push(prev)
    return h


def egarch_filter(eps, params: EgarchParams) -> np.ndarray:
    """Conditional-variance path of the log-variance recursion.

    h_0 is the unconditional sample variance of eps.  Residuals that an
    explosive ARMA point drives out of range give an infinite path, which
    the likelihood rejects.
    """
    eps = np.asarray(eps, dtype=float)
    if not np.all(np.isfinite(eps)):
        return np.full(eps.size, math.inf)
    with np.errstate(over="ignore"):
        h0 = float(eps.var())
    if not h0 > 0.0:
        raise DegenerateSeriesError("degenerate: zero variance")
    ez = dist_mod.abs_moment(params.dist)
    return np.asarray(
        _egarch_h(eps.tolist(), params.omega, params.a_mag, params.xi,
                  params.b_pers, ez, h0)
    )


def garch11_filter(eps, params: Garch11Params) -> np.ndarray:
    """h_t = alpha0 + alpha1 eps_{t-1}^2 + gamma1 h_{t-1}, h_0 = var(eps)."""
    eps = np.asarray(eps, dtype=float)
    h0 = float(eps.var())
    if not h0 > 0.0:
        raise DegenerateSeriesError("degenerate: zero variance")
    h = np.empty(eps.size)
    h[0] = h0
    h[1:] = params.alpha0 + params.alpha1 * eps[:-1] ** 2
    return _scan(h, params.gamma1)


def _path_loglik(eps: np.ndarray, h: np.ndarray, d: InnovationDist) -> float:
    if not np.all(np.isfinite(h)) or float(h.min()) <= 0.0:
        return -math.inf
    z = eps / np.sqrt(h)
    ll = float(dist_mod.logpdf(d, z).sum() - 0.5 * np.log(h).sum())
    return ll if math.isfinite(ll) else -math.inf


def egarch_loglik(r: ReturnSeries, params: EgarchParams) -> float:
    """Sum over t of [logpdf(dist, z_t) - 0.5 log h_t]; -inf for bad paths."""
    eps = mean_filter(r, params.mean)
    h = egarch_filter(eps, params)
    return _path_loglik(eps, h, params.dist)


def garch11_loglik(r: ReturnSeries, params: Garch11Params) -> float:
    eps = r.values - params.mu
    h = garch11_filter(eps, params)
    return _path_loglik(eps, h, params.dist)


def _path_score(eps, h, deps, dlogh, d: InnovationDist) -> tuple:
    # loglik = sum_t logpdf(z_t) - 0.5 log h_t with z_t = eps_t h_t^(-1/2), so
    # d loglik = sum_t psi_t / sqrt(h_t) d eps_t - 0.5 (1 + psi_t z_t) d log h_t
    # + d logpdf / d(law) at fixed z, psi = d logpdf / dz; deps and dlogh
    # are (n, m) derivatives in the first m parameters, the law's come last
    sq = np.sqrt(h)
    z = eps / sq
    lp, psi, dlaw = dist_mod.logpdf_grad(d, z)
    ll = float(lp.sum() - 0.5 * np.log(h).sum())
    g = dlogh.T @ (-0.5 * (1.0 + psi * z))
    g[: deps.shape[1]] += deps.T @ (psi / sq)
    g[-dlaw.shape[1]:] += dlaw.sum(axis=0)
    return ll, g


def egarch_score(r: ReturnSeries, params: EgarchParams) -> tuple:
    """Log-likelihood and its exact gradient, from one pass of the filter.

    The gradient is ordered (mu, ar..., ma..., omega, a_mag, xi, b_pers,
    shape[, skew]).  Given the filtered path, D_t = d log h_t / d theta
    follows the linear recursion D_t = c_t D_{t-1} + v_t with
    c_t = b_pers - (a_mag |z_{t-1}| + xi z_{t-1}) / 2, which runs as a
    doubling scan.  Returns ``(-inf, nan)`` where the loglik is -inf.
    """
    m = params.mean
    d = params.dist
    eps, deps = _checked_resid(r, m, grad=True)
    h = egarch_filter(eps, params)
    nm = deps.shape[1]
    dez = dist_mod.abs_moment_grad(d)
    n = nm + 4 + dez.size
    if not np.all(np.isfinite(h)) or float(h.min()) <= 0.0:
        return -math.inf, np.full(n, math.nan)
    sq = np.sqrt(h[:-1])
    z = eps[:-1] / sq
    az = np.abs(z)
    a, xi = params.a_mag, params.xi
    V = np.zeros((eps.size, n))
    # D_0 = d log var(eps): zero for a constant mean
    V[0, :nm] = 2.0 * ((eps - eps.mean()) @ deps) / (eps.size * h[0])
    V[1:, :nm] = ((a * np.sign(z) + xi) / sq)[:, None] * deps[:-1]
    V[1:, nm] = 1.0
    V[1:, nm + 1] = az - dist_mod.abs_moment(d)
    V[1:, nm + 2] = z
    V[1:, nm + 3] = np.log(h[:-1])
    V[1:, nm + 4:] = -a * dez
    D = _scan_varying(params.b_pers - 0.5 * (a * az + xi * z), V)
    return _path_score(eps, h, deps, D, d)


def garch11_score(r: ReturnSeries, params: Garch11Params) -> tuple:
    """Log-likelihood and its exact gradient, ordered (mu, alpha0, alpha1,
    gamma1, shape[, skew]).

    d h_t / d theta = x_t + gamma1 d h_{t-1} / d theta runs on the same
    scan as the filter.  Returns ``(-inf, nan)`` where the loglik is -inf.
    """
    eps = r.values - params.mu
    h = garch11_filter(eps, params)
    n = 4 + (1 if params.dist.family == "student_t" else 2)
    if not np.all(np.isfinite(h)) or float(h.min()) <= 0.0:
        return -math.inf, np.full(n, math.nan)
    X = np.zeros((eps.size, 4))
    X[1:, 0] = -2.0 * params.alpha1 * eps[:-1]
    X[1:, 1] = 1.0
    X[1:, 2] = eps[:-1] ** 2
    X[1:, 3] = h[:-1]
    dlogh = np.zeros((eps.size, n))
    dlogh[:, :4] = _scan(X, params.gamma1) / h[:, None]
    return _path_score(eps, h, np.full((eps.size, 1), -1.0), dlogh, params.dist)


# ---------------------------------------------------------------------------
# simulation

def simulate_egarch(params: EgarchParams, n: int, seed: int, burn: int = 500) -> np.ndarray:
    """Simulate n returns from the model, discarding a burn-in prefix.

    log h starts at its stationary mean omega/(1 - b_pers).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    d = params.dist
    z = dist_mod.sample(d, n + burn, seed)
    ez = dist_mod.abs_moment(d)
    mu, ar, ma = params.mean.mu, params.mean.ar, params.mean.ma
    total = n + burn
    logh = params.omega / (1.0 - params.b_pers)
    eps = np.empty(total)
    for t in range(total):
        h = math.exp(logh)
        eps[t] = z[t] * math.sqrt(h)
        logh = (params.omega + params.a_mag * (abs(z[t]) - ez)
                + params.xi * z[t] + params.b_pers * logh)
    return _apply_mean(eps, mu, ar, ma)[burn:]


def simulate_garch11(params: Garch11Params, n: int, seed: int, burn: int = 500) -> np.ndarray:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    d = params.dist
    z = dist_mod.sample(d, n + burn, seed)
    total = n + burn
    h = params.alpha0 / (1.0 - params.alpha1 - params.gamma1)
    eps = np.empty(total)
    for t in range(total):
        eps[t] = z[t] * math.sqrt(h)
        h = params.alpha0 + params.alpha1 * eps[t] * eps[t] + params.gamma1 * h
    return params.mu + eps[burn:]


def _apply_mean(eps: np.ndarray, mu: float, ar, ma) -> np.ndarray:
    p, q = len(ar), len(ma)
    if p == 0 and q == 0:
        return mu + eps
    denom = 1.0 - sum(ar)
    r_pre = mu / denom if denom != 0.0 else mu
    r: list = []
    for t in range(eps.size):
        acc = mu + eps[t]
        for i in range(p):
            k = t - 1 - i
            acc += ar[i] * (r[k] if k >= 0 else r_pre)
        for j in range(q):
            k = t - 1 - j
            if k >= 0:
                acc += ma[j] * eps[k]
        r.append(acc)
    return np.asarray(r)


# ---------------------------------------------------------------------------
# fitting

_B0_START = 0.9


def _family_params(family: str) -> list:
    if family == "student_t":
        return [("shape", ("interval", 2.0, 500.0))]
    if family == "skew_student_t":
        return [("shape", ("interval", 2.0, 500.0)), ("skew", "positive")]
    raise ValueError(f"unknown family {family!r}")


def egarch_param_space(mean: MeanSpec, family: str) -> opt_mod.ParamSpace:
    entries = []
    if mean.include_constant:
        entries.append(("mu", "free"))
    entries += [(f"ar{i+1}", "free") for i in range(mean.ar_order)]
    entries += [(f"ma{j+1}", "free") for j in range(mean.ma_order)]
    entries += [
        ("omega", "free"),
        ("a_mag", "free"),
        ("xi", "free"),
        ("b_pers", ("interval", -1.0, 1.0)),
    ]
    entries += _family_params(family)
    return opt_mod.ParamSpace(tuple(entries))


def egarch_params_from_vector(mean: MeanSpec, family: str, x) -> EgarchParams:
    x = list(map(float, x))
    pos = 0
    mu = x[pos] if mean.include_constant else 0.0
    pos += 1 if mean.include_constant else 0
    ar = tuple(x[pos : pos + mean.ar_order]); pos += mean.ar_order
    ma = tuple(x[pos : pos + mean.ma_order]); pos += mean.ma_order
    omega, a_mag, xi, b_pers = x[pos : pos + 4]; pos += 4
    shape = x[pos]; pos += 1
    skew = x[pos] if family == "skew_student_t" else 1.0
    return EgarchParams(
        mean=MeanParams(mu=mu, ar=ar, ma=ma),
        omega=omega, a_mag=a_mag, xi=xi, b_pers=b_pers,
        dist=InnovationDist(family=family, shape=shape, skew=skew),
    )


def garch11_param_space(family: str) -> opt_mod.ParamSpace:
    entries = [
        ("mu", "free"),
        ("alpha0", "positive"),
        ("alpha1", ("pair_sum_lt_one", "gamma1")),
        ("gamma1", ("pair_sum_lt_one", "alpha1")),
    ]
    entries += _family_params(family)
    return opt_mod.ParamSpace(tuple(entries))


def garch11_params_from_vector(family: str, x) -> Garch11Params:
    x = list(map(float, x))
    mu, alpha0, alpha1, gamma1, shape = x[:5]
    skew = x[5] if family == "skew_student_t" else 1.0
    return Garch11Params(
        mu=mu, alpha0=alpha0, alpha1=alpha1, gamma1=gamma1,
        dist=InnovationDist(family=family, shape=shape, skew=skew),
    )


_GMAX_CONVERGED = 1e-3


def _objectives(unpack, loglik, score, dim: int) -> tuple:
    """``(neg, neg_score)``: the negative loglik and the negative score of a
    fit as functions of its parameter vector.

    ``unpack(x)`` builds the model's parameters and raises ValueError at an
    infeasible x; ``loglik(params)`` is the loglik and ``score(params)``
    returns it with its gradient in x.  A rejected x scores inf, with a
    zero gradient of length ``dim`` from ``neg_score``.
    """
    def neg(x):
        try:
            params = unpack(x)
        except ValueError:
            return math.inf
        return -loglik(params)

    def neg_score(x):
        try:
            params = unpack(x)
        except ValueError:
            return math.inf, np.zeros(dim)
        ll, g = score(params)
        return -ll, -g

    return neg, neg_score


def _fit(neg, neg_score, space, x0):
    """BFGS from ``x0`` on the exact score.

    ``neg(x)`` is the negative loglik and ``neg_score(x)`` returns it with
    its gradient in x from one pass of the filter; the value and the
    gradient BFGS asks for at one point share that pass.  Returns
    ``(best, gmax, converged)``: ``gmax`` is max |df/dy| at the returned
    point by central differences of ``neg`` in the unconstrained space,
    and ``converged`` is ``gmax < 1e-3``.
    """
    last: list = [None, None]

    def scored(x):
        key = np.asarray(x, dtype=float).tobytes()
        if last[0] != key:
            last[:] = key, neg_score(x)
        return last[1]

    best = opt_mod.minimize(lambda x: scored(x)[0], space, x0,
                            gradient=lambda x: scored(x)[1])
    g = opt_mod.finite_diff_gradient(opt_mod._wrap(neg, space),
                                     space.to_unconstrained(best.x_opt))
    gmax = float(np.max(np.abs(g)))
    return best, gmax, gmax < _GMAX_CONVERGED


def _std_errors(grad, space, x_opt, label: str) -> dict:
    """Asymptotic standard errors from the inverse Hessian of the negative loglik.

    ``grad(x)`` is the exact gradient in x.  The Hessian is taken in the
    unconstrained space (always feasible) by central differences of that
    gradient, symmetrized, and mapped back through the transform's
    Jacobian.  A singular Hessian gives NaN standard errors and a warning
    naming ``label``.
    """
    y = space.to_unconstrained(x_opt)
    n = y.size
    # the step of a second-difference Hessian: mu's curvature depends on it,
    # since the |z| kinks make the loglik only piecewise smooth in the mean
    eta = np.finfo(float).eps ** 0.25
    H = np.empty((n, n))
    for j in range(n):
        step = eta * max(0.1, abs(y[j]))
        cols = []
        for sign in (1.0, -1.0):
            yy = y.copy()
            yy[j] += sign * step
            cols.append(space.jacobian(yy).T @ grad(space.from_unconstrained(yy)))
        H[:, j] = (cols[0] - cols[1]) / (2.0 * step)
    H = 0.5 * (H + H.T)
    if not np.all(np.isfinite(H)) or np.linalg.matrix_rank(H) < n:
        log.warning("%s: singular Hessian; standard errors are NaN", label)
        return {name: math.nan for name in space.names}
    J = space.jacobian(y)
    cov_x = J @ np.linalg.inv(H) @ J.T
    diag = np.diagonal(cov_x)
    return {
        name: (math.sqrt(v) if v > 0.0 and math.isfinite(v) else math.nan)
        for name, v in zip(space.names, diag)
    }


def _finish_fit(r, model, params, eps, h, neg_score, space, x_opt, converged) -> EgarchFit:
    z = eps / np.sqrt(h)
    ll = _path_loglik(eps, h, params.dist)
    k = space.dimension
    a = aic(ll, k)
    return EgarchFit(
        params=params,
        h=h,
        eps=eps,
        z=z,
        loglik=ll,
        aic=a,
        aic_per_obs=a / len(r),
        std_errors=_std_errors(lambda x: neg_score(x)[1], space, x_opt, r.symbol),
        converged=converged,
        n_obs=len(r),
        k_params=k,
        param_names=space.names,
        estimates=np.asarray(x_opt, dtype=float),
        symbol=r.symbol,
        dates=r.dates,
        model=model,
    )


def _unit_scale(r: ReturnSeries) -> tuple:
    """Rescale returns to unit variance for optimization.

    The likelihood surface is badly scaled in the mean and level
    parameters at raw daily-return magnitudes; both recursions are
    exactly equivariant under this rescaling, so estimates map back
    analytically.
    """
    sample_var = float(r.values.var())
    if sample_var <= 0.0:
        raise DegenerateSeriesError(f"{r.symbol}: degenerate: zero variance")
    scaled = ReturnSeries(
        symbol=r.symbol, dates=r.dates, values=r.values / math.sqrt(sample_var)
    )
    return scaled, sample_var


def _rescale_vector(names, x, sample_var: float, model: str) -> np.ndarray:
    """Map unit-variance-scale estimates back to the data scale."""
    x = np.array(x, dtype=float)
    idx = {n: i for i, n in enumerate(names)}
    if "mu" in idx:
        x[idx["mu"]] *= math.sqrt(sample_var)
    if model == "egarch":
        x[idx["omega"]] += (1.0 - x[idx["b_pers"]]) * math.log(sample_var)
    else:
        x[idx["alpha0"]] *= sample_var
    return x


def fit_egarch(r: ReturnSeries, mean: MeanSpec = MeanSpec(), family: str = "student_t") -> EgarchFit:
    """Joint MLE of mean, variance, and distribution parameters.

    Non-convergence is reported through ``converged=False``, not raised.
    """
    n = len(r)
    if n < 100:
        log.warning("%s: only %d observations; estimates will be fragile", r.symbol, n)
    scaled, sample_var = _unit_scale(r)
    space = egarch_param_space(mean, family)

    def objectives(series):
        def score(params):
            # the score always leads with mu, which a mean without a constant lacks
            ll, g = egarch_score(series, params)
            return ll, (g if mean.include_constant else g[1:])
        return _objectives(lambda x: egarch_params_from_vector(mean, family, x),
                           lambda params: egarch_loglik(series, params),
                           score, space.dimension)

    x0 = []
    if mean.include_constant:
        x0.append(float(scaled.values.mean()))
    x0 += [0.0] * (mean.ar_order + mean.ma_order)
    x0 += [0.0, 0.1, -0.05, _B0_START, 8.0]
    if family == "skew_student_t":
        x0.append(1.0)

    best, _gmax, converged = _fit(*objectives(scaled), space, x0)
    x_opt = _rescale_vector(space.names, best.x_opt, sample_var, "egarch")
    params = egarch_params_from_vector(mean, family, x_opt)
    eps = mean_filter(r, params.mean)
    h = egarch_filter(eps, params)
    return _finish_fit(r, "egarch", params, eps, h, objectives(r)[1], space, x_opt, converged)


def fit_garch11(r: ReturnSeries, family: str = "student_t") -> EgarchFit:
    """Constant-mean GARCH(1,1) baseline fit, same reporting surface."""
    n = len(r)
    if n < 100:
        log.warning("%s: only %d observations; estimates will be fragile", r.symbol, n)
    scaled, sample_var = _unit_scale(r)
    space = garch11_param_space(family)

    def objectives(series):
        return _objectives(lambda x: garch11_params_from_vector(family, x),
                           lambda params: garch11_loglik(series, params),
                           lambda params: garch11_score(series, params),
                           space.dimension)

    x0 = [float(scaled.values.mean()), 0.05, 0.05, 0.90, 8.0]
    if family == "skew_student_t":
        x0.append(1.0)

    best, _gmax, converged = _fit(*objectives(scaled), space, x0)
    x_opt = _rescale_vector(space.names, best.x_opt, sample_var, "garch11")
    params = garch11_params_from_vector(family, x_opt)
    eps = r.values - params.mu
    h = garch11_filter(eps, params)
    return _finish_fit(r, "garch11", params, eps, h, objectives(r)[1], space, x_opt, converged)


def aic(loglik: float, k: int) -> float:
    """2k - 2 loglik."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return 2.0 * k - 2.0 * loglik
