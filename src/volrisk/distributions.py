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
correlation estimation.  The special functions behind the t distribution
function, its inverse and the normal quantile are computed here, in numpy
and the standard library.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

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
# special functions: digamma, log gamma ratios, the incomplete beta
# continued fraction, a start for the t quantile, and the normal quantile

def _digamma(x: float) -> float:
    # psi(x) = psi(x + 1) - 1/x up to x >= 10, then the asymptotic series
    # (Abramowitz & Stegun 6.3.18) through the z^-14 term
    acc = 0.0
    while x < 10.0:
        acc -= 1.0 / x
        x += 1.0
    w = 1.0 / (x * x)
    series = w * (1.0 / 12.0 - w * (1.0 / 120.0 - w * (1.0 / 252.0 - w * (
        1.0 / 240.0 - w * (1.0 / 132.0 - w * (691.0 / 32760.0 - w / 12.0))))))
    return acc + math.log(x) - 0.5 / x - series


def _lgamma_ratio(a: float, b: float) -> float:
    """log Gamma(a + b) - log Gamma(a) for b >= 0, without the cancellation
    of two large lgammas: for a >= 20 by Stirling's series, whose remainder
    after the a^-9 term is below 1e-17 there."""
    if a < 20.0:
        return math.lgamma(a + b) - math.lgamma(a)

    def corr(z):  # log Gamma(z) - (z - 1/2) log z + z - log(2 pi) / 2
        w = 1.0 / (z * z)
        return (1.0 / 12.0 - w * (1.0 / 360.0 - w * (1.0 / 1260.0 - w * (
            1.0 / 1680.0 - w / 1188.0)))) / z

    return ((a - 0.5) * math.log1p(b / a) + b * math.log(a + b) - b
            + corr(a + b) - corr(a))


# the continued fraction stops when a factor is within _CF_EPS of one
_CF_EPS = 4.0 * np.finfo(float).eps
_CF_TINY = 1e-300
_CF_MAX_TERMS = 10000


def _betacf(a, b, x):
    """Continued fraction of I_x(a, b) / (x^a (1-x)^b / (a B(a, b))) by the
    modified Lentz method (Numerical Recipes, 3rd ed., 6.4), vectorized
    over x, a and b.  Converges fast for x < (a + 1) / (a + b + 2)."""
    def fix(v):
        return np.where(np.abs(v) < _CF_TINY, _CF_TINY, v)

    c = np.ones_like(x)
    d = 1.0 / fix(1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, _CF_MAX_TERMS):
        m2 = 2.0 * m
        for num in (m * (b - m) * x / ((a - 1.0 + m2) * (a + m2)),
                    -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1.0 + m2))):
            d = 1.0 / fix(1.0 + num * d)
            c = fix(1.0 + num / c)
            h = h * (d * c)
        if not np.any(np.abs(d * c - 1.0) > _CF_EPS):  # NaN entries count as done
            break
    return h


def _hill_start(q, nu: float):
    """|t| with P(T <= -|t|) = q, q in (0, 0.5], for Student t with real
    ``nu`` degrees of freedom, by Hill (1970), CACM Algorithm 396;
    accurate to a few digits."""
    a = 1.0 / (nu - 0.5)
    b = 48.0 / (a * a)
    c = ((20700.0 * a / b - 98.0) * a - 16.0) * a + 96.36
    d = ((94.5 / (b + c) - 3.0) / b + 1.0) * math.sqrt(a * math.pi / 2.0) * nu
    y = (d * 2.0 * q) ** (2.0 / nu)
    # large y: a normal-deviate expansion; small y (far tail): a series in y
    x = np.array([_ndtri(v) for v in q.ravel()]).reshape(q.shape)
    cc = c + (0.3 * (nu - 4.5) * (x + 0.6) if nu < 5.0 else 0.0)
    cc = (((0.05 * d * x - 5.0) * x - 7.0) * x - 2.0) * x + b + cc
    x2 = x * x
    yn = (((((0.4 * x2 + 6.3) * x2 + 36.0) * x2 + 94.5) / cc - x2 - 3.0) / b + 1.0) * x
    yn = np.expm1(a * yn * yn)
    with np.errstate(divide="ignore"):
        ys = ((1.0 / (((nu + 6.0) / (nu * y) - 0.089 * d - 0.822) * (nu + 2.0) * 3.0)
               + 0.5 / (nu + 4.0)) * y - 1.0) * (nu + 1.0) / (nu + 2.0) + 1.0 / y
    normal = (y > 0.05 + a) | ((nu < 2.1) & (q > 0.25))
    return np.sqrt(nu * np.where(normal, yn, ys))


# Cephes ndtri: rational approximations in y^2 for |y - 1/2| <= 3/8 and in
# 1/sqrt(-2 log y) for the tails, split at exp(-32); each Q leads with Cephes'
# implicit coefficient of one
_S2PI = 2.50662827463100050242E0
_EXP_M2 = 0.13533528323661269189
_NDTRI_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
             1.39312609387279679503E1, -1.23916583867381258016E0)
_NDTRI_Q0 = (1.0, 1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
             -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
             1.59056225126211695515E1, -1.18331621121330003142E0)
_NDTRI_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
             4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
             -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4)
_NDTRI_Q1 = (1.0, 1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
             1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
             -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_NDTRI_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
             1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
             3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9)
_NDTRI_Q2 = (1.0, 6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
             2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
             2.89247864745380683936E-6, 6.79019408009981274425E-9)


def _polevl(x: float, coef) -> float:
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtri(y0: float) -> float:
    """Standard normal quantile at ``y0`` in [0, 1]: a port of Cephes
    ``ndtri``, evaluated in the same operation order."""
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    if not 0.0 < y0 < 1.0:
        return math.nan
    code = True
    y = y0
    if y > 1.0 - _EXP_M2:
        y = 1.0 - y
        code = False
    if y > _EXP_M2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _NDTRI_P0) / _polevl(y2, _NDTRI_Q0))
        return x * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * _polevl(z, _NDTRI_P1) / _polevl(z, _NDTRI_Q1)
    else:
        x1 = z * _polevl(z, _NDTRI_P2) / _polevl(z, _NDTRI_Q2)
    x = x0 - x1
    return -x if code else x


# ---------------------------------------------------------------------------
# base standardized t (unit variance)

def _t_const(nu: float, k: int):
    # log normalizing constant of the standardized k-variate t density
    return _lgamma_ratio(nu / 2.0, k / 2.0) - 0.5 * k * math.log((nu - 2.0) * math.pi)


def _t_const_dnu(nu: float, k: int):
    # d _t_const(nu, k) / d nu
    return (0.5 * (_digamma((nu + k) / 2.0) - _digamma(nu / 2.0))
            - 0.5 * k / (nu - 2.0))


def _t_logpdf(z, nu: float):
    z = np.asarray(z, dtype=float)
    out = _t_const(nu, 1) - (nu + 1.0) / 2.0 * np.log1p(z * z / (nu - 2.0))
    return np.where(np.isfinite(z), out, -np.inf)


def _t_cdf(z, nu: float):
    """Distribution function of the unit-variance t (vectorized).  At
    t = z sqrt(nu / (nu - 2)) the tail is 0.5 I_x(nu/2, 1/2), x = nu / (nu + t^2)."""
    t = np.asarray(z, dtype=float) * math.sqrt(nu / (nu - 2.0))
    a, b = 0.5 * nu, 0.5
    t2 = t * t
    with np.errstate(divide="ignore", invalid="ignore"):
        x = nu / (nu + t2)
        y = np.where(np.isinf(t2), 1.0, t2 / (nu + t2))
        log_front = (a * -np.log1p(t2 / nu) + b * np.log(y)
                     + _lgamma_ratio(a, b) - math.lgamma(b))
    # I_x(a, b) = 1 - I_y(b, a): the fraction runs in whichever converges fast
    swap = x >= (a + 1.0) / (a + b + 2.0)
    aa, bb = np.where(swap, b, a), np.where(swap, a, b)
    inc = np.exp(log_front) * _betacf(aa, bb, np.where(swap, y, x)) / aa
    tail = 0.5 * np.where(swap, 1.0 - inc, inc)
    return np.where(t <= 0.0, tail, 1.0 - tail)


# Newton on the log cdf stops once every step is below this share of
# max(|z|, 1); convergence is quadratic, so the last step leaves no error
_NEWTON_TOL = 1e-10
_NEWTON_MAX = 20


def _t_ppf(p, nu: float):
    """Inverse of ``_t_cdf`` (vectorized): Hill's start, then Newton steps
    on the log cdf in the lower tail, mirrored for p > 1/2."""
    p = np.asarray(p, dtype=float)
    q = np.minimum(p, 1.0 - p)  # exact for p >= 1/2
    inner = (q > 0.0) & (q < 0.5)
    qi = np.where(inner, q, 0.25)
    z = -_hill_start(qi, nu) * math.sqrt((nu - 2.0) / nu)
    log_q = np.log(qi)
    for _ in range(_NEWTON_MAX):
        log_cdf = np.log(_t_cdf(z, nu))
        step = (log_cdf - log_q) * np.exp(log_cdf - _t_logpdf(z, nu))
        z = z - step
        if np.all(np.abs(step) <= _NEWTON_TOL * np.maximum(np.abs(z), 1.0)):
            break
    z = np.where(inner, z, np.where(q == 0.5, 0.0, -np.inf))
    z = np.where(np.isnan(q), np.nan, z)
    return np.where(p > 0.5, -z, z)


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
    """Log density of the standardized innovation law at ``z`` (vectorized);
    -inf at a non-finite ``z`` or one whose square overflows."""
    nu, lam = d.shape, d.skew
    with np.errstate(over="ignore"):
        if lam == 1.0:
            return _t_logpdf(z, nu)
        mu_x, sig_x = _skew_moments(nu, lam)
        x = sig_x * np.asarray(z, dtype=float) + mu_x
        arg = np.where(x >= 0.0, x / lam, x * lam)
        return math.log(sig_x) + math.log(2.0 / (lam + 1.0 / lam)) + _t_logpdf(arg, nu)


def cdf(d: InnovationDist, z) -> np.ndarray:
    """Distribution function of the standardized innovation law (vectorized)."""
    nu, lam = d.shape, d.skew
    with np.errstate(over="ignore"):
        if lam == 1.0:
            return _t_cdf(z, nu)
        mu_x, sig_x = _skew_moments(nu, lam)
        x = sig_x * np.asarray(z, dtype=float) + mu_x
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
    # E|X - mu_X| = 2 (c F(c) - P1(c)) at c = mu_X, with P1 the partial first
    # moment; F(mu_X) is the law's cdf at z = 0
    c = mu_x
    k = 2.0 / (lam + 1.0 / lam)
    if c < 0.0:
        p1 = k / (lam * lam) * _t_partial_first(lam * c, nu)
    else:
        neg_half = k / (lam * lam) * _t_partial_first(0.0, nu)
        pos_part = k * lam * lam * (_t_partial_first(c / lam, nu) - _t_partial_first(0.0, nu))
        p1 = neg_half + pos_part
    return 2.0 * (c * float(cdf(d, 0.0)) - p1) / sig_x


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
    with np.errstate(over="ignore", invalid="ignore"):
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
