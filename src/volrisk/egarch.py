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
from .optimize import _scan, _scan_lags, _scan_varying

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
# the draws every simulator runs before the n it returns
_BURN = 500


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

    def to_dict(self) -> dict:
        return {
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
            "dates": [dt.isoformat() for dt in self.dates],
            "h": self.h.tolist(),
            "z": self.z.tolist(),
        }


# ---------------------------------------------------------------------------
# filters

def _lags(x: np.ndarray, k: int, pre: float) -> list:
    # the columns x_{t-1}, ..., x_{t-k}, reading pre before the first row
    padded = np.concatenate((np.full(k, pre), x))
    return [padded[k - 1 - i: k - 1 - i + x.size] for i in range(k)]


def _mean_resid(values, mu: float, ar: Sequence[float], ma: Sequence[float],
                grad: bool = False):
    # with grad, also returns d eps_t / d(mu, ar..., ma...) as an (n, 1+p+q)
    # array; eps and each derivative column follow Y_t = U_t - sum_j ma_j Y_{t-j}
    p, q = len(ar), len(ma)
    if p == 0 and q == 0:
        eps = np.asarray(values, dtype=float) - mu
        return (eps, np.full((eps.size, 1), -1.0)) if grad else eps
    vals = np.asarray(values, dtype=float)
    # r_t for t <= 0 is the sample mean, summed in order; eps_t there is 0
    lags = _lags(vals, p, sum(vals.tolist()) / vals.size)
    eps = vals - mu
    for a, lag in zip(ar, lags):
        eps -= a * lag
    neg_ma = [-m for m in ma]
    # an explosive MA point overflows here; the variance filter rejects it
    with np.errstate(over="ignore", invalid="ignore"):
        if q:
            eps = _scan_lags(eps, neg_ma)
        if not grad:
            return eps
        X = -np.column_stack([np.ones(vals.size)] + lags + _lags(eps, q, 0.0))
        return eps, (_scan_lags(X, neg_ma) if q else X)


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
    omega, a_mag, xi, b_pers = params.omega, params.a_mag, params.xi, params.b_pers
    # pure-float recursion; overflow leaves inf in h for the likelihood to reject
    exp_, sqrt_ = math.exp, math.sqrt
    logh = math.log(h0)
    prev = h0
    h = [h0]
    push = h.append
    for e in eps.tolist()[:-1]:
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
    return np.fromiter(h, float, len(h))


def garch11_filter(eps, params: Garch11Params) -> np.ndarray:
    """h_t = alpha0 + alpha1 eps_{t-1}^2 + gamma1 h_{t-1}, h_0 = var(eps)."""
    eps = np.asarray(eps, dtype=float)
    if not np.all(np.isfinite(eps)):
        return np.full(eps.size, math.inf)
    # a residual past 1e154 squares to inf; the likelihood rejects the path
    with np.errstate(over="ignore"):
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


def _egarch_paths(r: ReturnSeries, params: EgarchParams) -> tuple:
    eps = mean_filter(r, params.mean)
    return eps, egarch_filter(eps, params)


def _garch11_paths(r: ReturnSeries, params: Garch11Params) -> tuple:
    eps = r.values - params.mu
    return eps, garch11_filter(eps, params)


def egarch_loglik(r: ReturnSeries, params: EgarchParams) -> float:
    """Sum over t of [logpdf(dist, z_t) - 0.5 log h_t]; -inf for bad paths."""
    return _path_loglik(*_egarch_paths(r, params), params.dist)


def garch11_loglik(r: ReturnSeries, params: Garch11Params) -> float:
    return _path_loglik(*_garch11_paths(r, params), params.dist)


def _path_score(eps, h, deps, adjoint, d: InnovationDist) -> tuple:
    # loglik = sum_t logpdf(z_t) - 0.5 log h_t with z_t = eps_t h_t^(-1/2), so
    # d loglik = sum_t psi_t / sqrt(h_t) d eps_t + a_t d log h_t + d logpdf / d(law)
    # at fixed z, psi = d logpdf / dz, a_t = -(1 + psi_t z_t) / 2; deps is d eps in
    # the first parameters, adjoint(a) the sum of a_t d log h_t, the law's last
    sq = np.sqrt(h)
    z = eps / sq
    lp, psi, dlaw = dist_mod.logpdf_grad(d, z)
    ll = float(lp.sum() - 0.5 * np.log(h).sum())
    g = adjoint(-0.5 * (1.0 + psi * z))
    g[: deps.shape[1]] += deps.T @ (psi / sq)
    g[-dlaw.shape[1]:] += dlaw.sum(axis=0)
    return ll, g


def egarch_score(r: ReturnSeries, params: EgarchParams) -> tuple:
    """Log-likelihood and its exact gradient, from one pass of the filter.

    The gradient is ordered (mu, ar..., ma..., omega, a_mag, xi, b_pers,
    shape[, skew]).  D_t = d log h_t / d theta = c_t D_{t-1} + v_t, with c_t =
    b_pers - (a_mag |z_{t-1}| + xi z_{t-1}) / 2, enters through its adjoint, one
    reversed scan of one column (Griewank & Walther 2008, ch. 3).  Returns
    ``(-inf, nan)`` where the loglik is -inf.
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
    c = (params.b_pers - 0.5 * (a * az + xi * z))[::-1]
    return _path_score(eps, h, deps, lambda w: V.T @ _scan_varying(c, w[::-1, None])[::-1, 0], d)


def garch11_score(r: ReturnSeries, params: Garch11Params) -> tuple:
    """Log-likelihood and its exact gradient, ordered (mu, alpha0, alpha1,
    gamma1, shape[, skew]).

    d h_t / d theta = x_t + gamma1 d h_{t-1} / d theta; its adjoint runs the
    filter's scan backwards.  Returns ``(-inf, nan)`` where the loglik is -inf.
    """
    eps = r.values - params.mu
    h = garch11_filter(eps, params)
    n = 4 + len(_family_params(params.dist.family))
    if not np.all(np.isfinite(h)) or float(h.min()) <= 0.0:
        return -math.inf, np.full(n, math.nan)
    X = np.zeros((eps.size, n))
    X[1:, 0] = -2.0 * params.alpha1 * eps[:-1]
    X[1:, 1] = 1.0
    X[1:, 2] = eps[:-1] ** 2
    X[1:, 3] = h[:-1]
    return _path_score(eps, h, np.full((eps.size, 1), -1.0),
                       lambda w: X.T @ _scan((w / h)[::-1].copy(), params.gamma1)[::-1],
                       params.dist)


# ---------------------------------------------------------------------------
# simulation

def _egarch_shocks(params: EgarchParams, z) -> np.ndarray:
    """eps_t = z_t sqrt(h_t) along the log-variance recursion driven by the
    innovations z; log h starts at its stationary mean omega/(1 - b_pers).

    Given z the recursion log h_{t+1} = c_t + b_pers log h_t is linear: c is
    one array expression and the rest one pass over Python floats, in the
    step-by-step operation order, so every element is the same double.  h
    comes from ``math.exp``, which raises OverflowError on a path that
    overflows, not from ``np.exp``, which differs in the last bit on some
    inputs.
    """
    ez = dist_mod.abs_moment(params.dist)
    b = params.b_pers
    c = (params.omega + params.a_mag * (np.abs(z) - ez)) + params.xi * z
    logh = params.omega / (1.0 - b)
    path = []
    append = path.append
    for ct in c.tolist():
        append(logh)
        logh = ct + b * logh
    return z * np.sqrt(np.fromiter(map(math.exp, path), float, len(path)))


def simulate_egarch(params: EgarchParams, n: int, seed: int) -> np.ndarray:
    """Simulate n returns from the model, discarding a burn-in prefix.

    log h starts at its stationary mean omega/(1 - b_pers).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    eps = _egarch_shocks(params, dist_mod.sample(params.dist, n + _BURN, seed))
    m = params.mean
    return _apply_mean(eps, m.mu, m.ar, m.ma)[_BURN:]


def simulate_garch11(params: Garch11Params, n: int, seed: int) -> np.ndarray:
    """n returns after a burn-in; given z, h_{t+1} = alpha0 + (alpha1 z_t^2 +
    gamma1) h_t from its stationary mean is linear in h, so one scan runs it."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    z = dist_mod.sample(params.dist, n + _BURN, seed)
    V = np.full((z.size, 1), params.alpha0)
    V[0] = params.alpha0 / (1.0 - params.alpha1 - params.gamma1)
    h = _scan_varying(params.alpha1 * z[:-1] ** 2 + params.gamma1, V)[:, 0]
    return params.mu + (z * np.sqrt(h))[_BURN:]


def _apply_mean(eps: np.ndarray, mu: float, ar, ma) -> np.ndarray:
    # r_t = mu + eps_t + sum_i ar_i r_{t-1-i} + sum_j ma_j eps_{t-1-j}, with
    # r_t = mu / (1 - sum ar) and eps_t = 0 before the sample
    p, q = len(ar), len(ma)
    denom = 1.0 - sum(ar)
    r_pre = mu / denom if denom != 0.0 else mu
    X = mu + eps
    for m, lag in zip(ma, _lags(eps, q, 0.0)):
        X += m * lag
    for i, a in enumerate(ar):
        X[: i + 1] += a * r_pre
    return _scan_lags(X, ar) if p else X


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


def _split_law(x, head: int, family: str) -> tuple:
    # x's first head values, and its law from one value per _family_params name
    x = list(map(float, x))
    n = head + len(_family_params(family))
    if len(x) != n:
        raise ValueError(f"expected {n} parameters, got {len(x)}")
    return x[:head], InnovationDist(family, *x[head:])


def egarch_params_from_vector(mean: MeanSpec, family: str, x) -> EgarchParams:
    p, q = mean.ar_order, mean.ma_order
    c = 1 if mean.include_constant else 0
    head, dist = _split_law(x, c + p + q + 4, family)
    mu, *arma, omega, a_mag, xi, b_pers = head if c else [0.0] + head
    return EgarchParams(
        mean=MeanParams(mu=mu, ar=arma[:p], ma=arma[p:]),
        omega=omega, a_mag=a_mag, xi=xi, b_pers=b_pers, dist=dist,
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
    (mu, alpha0, alpha1, gamma1), dist = _split_law(x, 4, family)
    return Garch11Params(mu=mu, alpha0=alpha0, alpha1=alpha1, gamma1=gamma1, dist=dist)


def _fit_series(r: ReturnSeries, model: str, space: opt_mod.ParamSpace, unpack,
                score, paths, start: list) -> EgarchFit:
    """Shared body of ``fit_egarch`` and ``fit_garch11``.

    ``unpack(x)`` builds the model's parameters, ``score(series, params)``
    is its exact score, and ``paths(series, params)`` gives (eps, h), from
    which the likelihood is taken.  BFGS starts from mu at the sample mean,
    then ``start``, then the law at shape 8 and skew 1.
    """
    n = len(r)
    if n < 100:
        log.warning("%s: only %d observations; estimates will be fragile", r.symbol, n)
    # the surface is badly scaled in the mean and level parameters at raw
    # return magnitudes; both recursions are exactly equivariant under
    # scaling the returns, so the fit runs at unit variance and maps back
    sample_var = float(r.values.var())
    if sample_var <= 0.0:
        raise DegenerateSeriesError(f"{r.symbol}: degenerate: zero variance")
    scaled = ReturnSeries(symbol=r.symbol, dates=r.dates,
                          values=r.values / math.sqrt(sample_var))

    def objective(series):
        return opt_mod._objectives(unpack, lambda params: score(series, params),
                                   space.dimension)

    x0 = [float(scaled.values.mean())] if "mu" in space.names else []
    x0 += start + ([8.0, 1.0] if "skew" in space.names else [8.0])
    best, converged = opt_mod._fit(objective(scaled), space, x0)
    x_opt = np.array(best.x_opt, dtype=float)
    idx = {name: i for i, name in enumerate(space.names)}
    if "mu" in idx:
        x_opt[idx["mu"]] *= math.sqrt(sample_var)
    if model == "egarch":
        x_opt[idx["omega"]] += (1.0 - x_opt[idx["b_pers"]]) * math.log(sample_var)
    else:
        x_opt[idx["alpha0"]] *= sample_var
    params = unpack(x_opt)
    eps, h = paths(r, params)
    ll = _path_loglik(eps, h, params.dist)
    k = space.dimension
    a = aic(ll, k)
    neg_score = objective(r)
    return EgarchFit(
        params=params,
        h=h,
        z=eps / np.sqrt(h),
        loglik=ll,
        aic=a,
        aic_per_obs=a / n,
        std_errors=opt_mod._std_errors(lambda x: neg_score(x)[1], space, x_opt, r.symbol),
        converged=converged,
        n_obs=n,
        k_params=k,
        param_names=space.names,
        estimates=x_opt,
        symbol=r.symbol,
        dates=r.dates,
        model=model,
    )


def fit_egarch(r: ReturnSeries, mean: MeanSpec = MeanSpec(), family: str = "student_t") -> EgarchFit:
    """Joint MLE of mean, variance, and distribution parameters.

    Non-convergence is reported through ``converged=False``, not raised.
    """
    def score(series, params):
        # the score always leads with mu, which a mean without a constant lacks
        ll, g = egarch_score(series, params)
        return ll, (g if mean.include_constant else g[1:])

    return _fit_series(r, "egarch", egarch_param_space(mean, family),
                       lambda x: egarch_params_from_vector(mean, family, x),
                       score, _egarch_paths,
                       [0.0] * (mean.ar_order + mean.ma_order) + [0.0, 0.1, -0.05, _B0_START])


def fit_garch11(r: ReturnSeries, family: str = "student_t") -> EgarchFit:
    """Constant-mean GARCH(1,1) baseline fit, same reporting surface."""
    return _fit_series(r, "garch11", garch11_param_space(family),
                       lambda x: garch11_params_from_vector(family, x),
                       garch11_score, _garch11_paths, [0.05, 0.05, 0.90])


def aic(loglik: float, k: int) -> float:
    """2k - 2 loglik."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return 2.0 * k - 2.0 * loglik
