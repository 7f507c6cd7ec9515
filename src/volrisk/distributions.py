"""Standardized innovation distributions.

Both families are normalized to zero mean and unit variance so that the
shape and skew parameters never leak into the conditional-variance scale:

* ``student_t``: symmetric Student t with tail parameter ``shape`` > 2,
  rescaled by sqrt((shape-2)/shape).
* ``skew_student_t``: two-piece skewed extension of the same base density.
  ``skew`` multiplies the positive half-axis and divides the negative one,
  after which the result is recentred and rescaled back to mean 0, var 1.
  ``skew = 1`` recovers the symmetric family exactly.

Also provides the standardized multivariate t density used for joint
correlation estimation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import special as _special

__all__ = [
    "InnovationDist",
    "logpdf",
    "cdf",
    "abs_moment",
    "logpdf_grad",
    "abs_moment_grad",
    "quantile",
    "mvt_logpdf",
    "sample",
]

FAMILIES = ("student_t", "skew_student_t")

# smallest / largest uniform fed into the inverse cdf; keeps draws finite
_U_LO = 2.0 ** -53
_U_HI = 1.0 - 2.0 ** -53


@dataclass(frozen=True)
class InnovationDist:
    """Innovation law: family name, tail shape, and skew.

    ``shape`` must exceed 2 (finite variance).  ``skew`` is only
    meaningful for the skewed family; the symmetric family requires
    ``skew == 1``.
    """

    family: str = "student_t"
    shape: float = 8.0
    skew: float = 1.0

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if not (math.isfinite(self.shape) and self.shape > 2.0):
            raise ValueError(f"shape must be finite and > 2, got {self.shape}")
        if not (math.isfinite(self.skew) and self.skew > 0.0):
            raise ValueError(f"skew must be finite and > 0, got {self.skew}")
        if self.family == "student_t" and self.skew != 1.0:
            raise ValueError("student_t is symmetric; construct skew_student_t for skew != 1")


# ---------------------------------------------------------------------------
# base standardized t (unit variance)

def _t_const(nu: float, k: int):
    # log normalizing constant of the standardized k-variate t density
    return (_special.gammaln((nu + k) / 2.0) - _special.gammaln(nu / 2.0)
            - 0.5 * k * math.log((nu - 2.0) * math.pi))


def _t_const_dnu(nu: float, k: int):
    # d _t_const(nu, k) / d nu
    return (0.5 * (_special.digamma((nu + k) / 2.0) - _special.digamma(nu / 2.0))
            - 0.5 * k / (nu - 2.0))


def _t_logpdf(z, nu: float):
    z = np.asarray(z, dtype=float)
    out = _t_const(nu, 1) - (nu + 1.0) / 2.0 * np.log1p(z * z / (nu - 2.0))
    return np.where(np.isfinite(z), out, -np.inf)


def _t_cdf(z, nu: float):
    z = np.asarray(z, dtype=float)
    x = z * math.sqrt(nu / (nu - 2.0))
    tail = 0.5 * _special.betainc(nu / 2.0, 0.5, nu / (nu + x * x))
    return np.where(x <= 0.0, tail, 1.0 - tail)


def _t_ppf(p, nu: float):
    p = np.asarray(p, dtype=float)
    return _special.stdtrit(nu, p) * math.sqrt((nu - 2.0) / nu)


def _t_abs_moment(nu: float) -> float:
    # E|Z| = 2 (nu-2) g(0) / (nu-1) for the unit-variance t density g
    g0 = math.exp(float(_t_logpdf(0.0, nu)))
    return 2.0 * (nu - 2.0) * g0 / (nu - 1.0)


def _t_dlogpdf_dnu(z, nu: float):
    z2 = np.asarray(z, dtype=float) ** 2
    return (
        _t_const_dnu(nu, 1)
        - 0.5 * np.log1p(z2 / (nu - 2.0))
        + 0.5 * (nu + 1.0) * z2 / ((nu - 2.0) * (nu - 2.0 + z2))
    )


def _t_partial_first(u: float, nu: float) -> float:
    # int_{-inf}^u x g(x) dx, closed form from d/dx[-(nu-2+x^2)/(nu-1) g(x)] = x g(x)
    return -(nu - 2.0 + u * u) / (nu - 1.0) * math.exp(float(_t_logpdf(u, nu)))


# ---------------------------------------------------------------------------
# two-piece skew construction on the base density, then re-standardized

def _skew_moments(nu: float, lam: float) -> tuple[float, float]:
    """Mean and standard deviation of the un-standardized two-piece variable."""
    m1 = _t_abs_moment(nu)
    mean = m1 * (lam - 1.0 / lam)
    ex2 = lam * lam + 1.0 / (lam * lam) - 1.0
    var = ex2 - mean * mean
    return mean, math.sqrt(var)


def logpdf(d: InnovationDist, z) -> np.ndarray:
    """Log density of the standardized innovation law at ``z`` (vectorized)."""
    nu, lam = d.shape, d.skew
    if lam == 1.0:
        return _t_logpdf(z, nu)
    mu_x, sig_x = _skew_moments(nu, lam)
    z = np.asarray(z, dtype=float)
    x = sig_x * z + mu_x
    arg = np.where(x >= 0.0, x / lam, x * lam)
    out = math.log(sig_x) + math.log(2.0 / (lam + 1.0 / lam)) + _t_logpdf(arg, nu)
    return np.where(np.isfinite(z), out, -np.inf)


def cdf(d: InnovationDist, z) -> np.ndarray:
    """Distribution function of the standardized innovation law (vectorized)."""
    nu, lam = d.shape, d.skew
    if lam == 1.0:
        return _t_cdf(z, nu)
    mu_x, sig_x = _skew_moments(nu, lam)
    z = np.asarray(z, dtype=float)
    x = sig_x * z + mu_x
    l2 = lam * lam
    neg = 2.0 / (l2 + 1.0) * _t_cdf(x * lam, nu)
    pos = 1.0 / (l2 + 1.0) + 2.0 * l2 / (l2 + 1.0) * (_t_cdf(x / lam, nu) - 0.5)
    return np.where(x < 0.0, neg, pos)


def abs_moment(d: InnovationDist) -> float:
    """E|Z| in closed form; feeds the magnitude term of the log-variance recursion."""
    nu, lam = d.shape, d.skew
    if lam == 1.0:
        return _t_abs_moment(nu)
    mu_x, sig_x = _skew_moments(nu, lam)
    # E|X - mu_X| = 2 (c F(c) - P1(c)) at c = mu_X, with P1 the partial first moment
    c = mu_x
    k = 2.0 / (lam + 1.0 / lam)
    if c < 0.0:
        cdf_c = 2.0 / (lam * lam + 1.0) * float(_t_cdf(lam * c, nu))
        p1 = k / (lam * lam) * _t_partial_first(lam * c, nu)
    else:
        cdf_c = 1.0 / (lam * lam + 1.0) + 2.0 * lam * lam / (lam * lam + 1.0) * (
            float(_t_cdf(c / lam, nu)) - 0.5
        )
        neg_half = k / (lam * lam) * _t_partial_first(0.0, nu)
        pos_part = k * lam * lam * (_t_partial_first(c / lam, nu) - _t_partial_first(0.0, nu))
        p1 = neg_half + pos_part
    return 2.0 * (c * cdf_c - p1) / sig_x


# relative step of the central differences in (shape, skew) for the skewed family
_FD_STEP = np.finfo(float).eps ** (1.0 / 3.0)


def _central_in_params(fn, d: InnovationDist) -> list:
    # d fn / d (shape, skew) at fixed z, never stepping below shape 2
    out = []
    for name in ("shape", "skew"):
        v = getattr(d, name)
        step = _FD_STEP * v
        if name == "shape":
            step = min(step, 0.5 * (v - 2.0))
        hi = fn(replace(d, **{name: v + step}))
        lo = fn(replace(d, **{name: v - step}))
        out.append((hi - lo) / (2.0 * step))
    return out


def logpdf_grad(d: InnovationDist, z) -> tuple:
    """Log density at ``z`` with its derivatives.

    Returns ``(logpdf, dz, dparams)``: the derivative in z, and an array of
    shape (n, m) holding the derivatives in the law's parameters at fixed
    z, m = 1 (shape) for ``student_t`` and m = 2 (shape, skew) for
    ``skew_student_t``.  The symmetric family is differentiated in closed
    form; the skewed family's parameters by central differences.
    """
    z = np.asarray(z, dtype=float)
    nu, lam = d.shape, d.skew
    if d.family == "student_t":
        lp = _t_logpdf(z, nu)
        dz = -(nu + 1.0) * z / (nu - 2.0 + z * z)
        return lp, dz, _t_dlogpdf_dnu(z, nu)[:, None]
    mu_x, sig_x = _skew_moments(nu, lam)
    x = sig_x * z + mu_x
    slope = np.where(x >= 0.0, 1.0 / lam, lam)
    arg = x * slope
    dz = -(nu + 1.0) * arg / (nu - 2.0 + arg * arg) * slope * sig_x
    dparams = np.column_stack(_central_in_params(lambda e: logpdf(e, z), d))
    return logpdf(d, z), dz, dparams


def abs_moment_grad(d: InnovationDist) -> np.ndarray:
    """Derivative of E|Z| in the law's parameters, ordered as in ``logpdf_grad``."""
    nu = d.shape
    if d.family == "student_t":
        dlog = 1.0 / (nu - 2.0) - 1.0 / (nu - 1.0) + float(_t_dlogpdf_dnu(0.0, nu))
        return np.array([_t_abs_moment(nu) * dlog])
    return np.array(_central_in_params(abs_moment, d))


def _ppf(p, d: InnovationDist) -> np.ndarray:
    """Closed-form inverse cdf (vectorized); exact up to the base t inverse."""
    nu, lam = d.shape, d.skew
    p = np.asarray(p, dtype=float)
    if lam == 1.0:
        return _t_ppf(p, nu)
    mu_x, sig_x = _skew_moments(nu, lam)
    l2 = lam * lam
    p0 = 1.0 / (1.0 + l2)
    with np.errstate(invalid="ignore"):
        lo = (1.0 / lam) * _t_ppf(np.minimum(p * (1.0 + l2) / 2.0, 1.0), nu)
        hi = lam * _t_ppf(np.maximum(0.5 + ((1.0 + l2) * p - 1.0) / (2.0 * l2), 0.0), nu)
    x = np.where(p < p0, lo, hi)
    return (x - mu_x) / sig_x


def quantile(d: InnovationDist, p: float) -> float:
    """Quantile of the standardized law, by the closed-form inverse cdf."""
    if not (0.0 < p < 1.0):
        raise ValueError(f"p must lie strictly in (0, 1), got {p}")
    return float(_ppf(p, d))


def mvt_logpdf(z, R, shape: float) -> float:
    """Log density of the standardized multivariate t at ``z``.

    ``R`` is a correlation matrix (symmetric positive definite, unit
    diagonal); ``shape`` > 2 is the joint tail parameter.  The margins are
    unit variance, which is what makes this composable with univariate
    volatility filters.
    """
    z = np.asarray(z, dtype=float)
    R = np.asarray(R, dtype=float)
    k = z.shape[0]
    if R.shape != (k, k):
        raise ValueError(f"R has shape {R.shape}, expected ({k}, {k})")
    if not np.allclose(R, R.T, atol=1e-8):
        raise ValueError("R is not symmetric")
    if shape <= 2.0:
        raise ValueError(f"shape must be > 2, got {shape}")
    try:
        L = np.linalg.cholesky(R)
    except np.linalg.LinAlgError as exc:
        raise ValueError("R is not positive definite") from exc
    w = np.linalg.solve(L, z)
    q = float(w @ w)
    logdet = 2.0 * float(np.log(np.diagonal(L)).sum())
    return float(_t_const(shape, k) - 0.5 * logdet
                 - (shape + k) / 2.0 * math.log1p(q / (shape - 2.0)))


def sample(d: InnovationDist, n: int, seed: int) -> np.ndarray:
    """Draw ``n`` iid standardized innovations, reproducible for a given seed.

    Uses the inverse cdf on a single seeded uniform stream so that one
    generator drives every draw regardless of family.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    rng = np.random.default_rng(seed)
    u = np.clip(rng.random(n), _U_LO, _U_HI)
    return _ppf(u, d)
