"""Parameter transforms, unconstrained minimization, and the fit driver.

Constrained likelihood parameters are mapped to an open unconstrained
space (log for positivity, scaled logistic for intervals, a joint logistic
pair for two nonnegative parameters summing below one) and BFGS searches
there on the objective's exact gradient.  Objectives must be pure; a
non-finite value at a trial point is treated as a rejected step, never an
error.

Every model's fit runs through the private driver here: one objective,
the negative loglik with its exact gradient, then BFGS, the converged
rule and standard errors, plus the doubling scans that carry the linear
recursions of the filters and their scores.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "ParamSpace",
    "OptResult",
    "minimize",
    "finite_diff_gradient",
]

log = logging.getLogger("volrisk.optimize")

# logistic outputs clipped into the open unit interval so inverse transforms
# always land strictly inside the feasible region
_P_LO = 1e-15
_P_HI = 1.0 - 1e-15


def _clip01(p):
    return np.minimum(np.maximum(p, _P_LO), _P_HI)


def _expit(y):
    # 1 / (1 + exp(-y)), with exp taken of -|y| only, so it cannot overflow
    e = np.exp(-np.abs(y))
    return np.where(y >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def _logit(p):
    return np.log(p / (1.0 - p))


@dataclass(frozen=True)
class ParamSpace:
    """Named parameter vector with per-coordinate constraint kinds.

    Each entry of ``params`` is ``(name, kind)`` where kind is one of::

        "free"
        "positive"
        ("interval", lo, hi)
        ("pair_sum_lt_one", partner_name)

    A pair constraint must be declared symmetrically on both members; the
    pair jointly satisfies x_i > 0, x_j > 0, x_i + x_j < 1.  The
    first-listed member is the one whose share of the sum is transformed.
    """

    params: tuple

    def __post_init__(self) -> None:
        names = [p[0] for p in self.params]
        if len(set(names)) != len(names):
            raise ValueError("duplicate parameter names")
        for name, kind in self.params:
            if kind == "free" or kind == "positive":
                continue
            if isinstance(kind, tuple) and kind[0] == "interval":
                lo, hi = kind[1], kind[2]
                if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                    raise ValueError(f"bad interval for {name!r}: ({lo}, {hi})")
            elif isinstance(kind, tuple) and kind[0] == "pair_sum_lt_one":
                partner = kind[1]
                if partner not in names or partner == name:
                    raise ValueError(f"pair partner {partner!r} of {name!r} not in space")
                pk = dict(self.params)[partner]
                if not (isinstance(pk, tuple) and pk[0] == "pair_sum_lt_one" and pk[1] == name):
                    raise ValueError(f"pair constraint on {name!r} not declared symmetrically")
            else:
                raise ValueError(f"unknown constraint kind {kind!r} for {name!r}")

    @property
    def names(self) -> tuple:
        return tuple(p[0] for p in self.params)

    @property
    def dimension(self) -> int:
        return len(self.params)

    def to_unconstrained(self, x: Sequence[float]) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dimension,):
            raise ValueError(f"expected {self.dimension} parameters, got shape {x.shape}")
        y = np.empty_like(x)
        for i, (name, kind) in enumerate(self.params):
            v = x[i]
            if kind == "free":
                y[i] = v
            elif kind == "positive":
                if v <= 0.0:
                    raise ValueError(f"{name!r} must be positive, got {v}")
                y[i] = math.log(v)
            elif kind[0] == "interval":
                lo, hi = kind[1], kind[2]
                if not lo < v < hi:
                    raise ValueError(f"{name!r} must lie in ({lo}, {hi}), got {v}")
                y[i] = _logit((v - lo) / (hi - lo))
            else:  # pair_sum_lt_one
                j = self.names.index(kind[1])
                if i < j:
                    a, b = x[i], x[j]
                    s = a + b
                    if not (a > 0.0 and b > 0.0 and s < 1.0):
                        raise ValueError(
                            f"pair ({name!r}, {kind[1]!r}) must satisfy "
                            f"a > 0, b > 0, a + b < 1, got ({a}, {b})"
                        )
                    y[i] = _logit(s)
                    y[j] = _logit(a / s)
        return y

    def from_unconstrained(self, y: Sequence[float]) -> np.ndarray:
        return self._transform(y)[0]

    def jacobian(self, y: Sequence[float]) -> np.ndarray:
        """Matrix dx/dy of ``from_unconstrained`` at ``y``.

        A gradient g taken in the constrained coordinates maps to
        ``jacobian(y).T @ g`` in the unconstrained ones.
        """
        return self._transform(y)[1]

    def _transform(self, y: Sequence[float]) -> tuple:
        """``(x, J)``: the constrained point of ``y`` and the matrix dx/dy
        there, each coordinate's map beside its derivative."""
        y = np.asarray(y, dtype=float)
        if y.shape != (self.dimension,):
            raise ValueError(f"expected {self.dimension} parameters, got shape {y.shape}")
        x = np.empty_like(y)
        J = np.zeros((y.size, y.size))
        for i, (name, kind) in enumerate(self.params):
            if kind == "free":
                x[i], J[i, i] = y[i], 1.0
            elif kind == "positive":
                x[i] = J[i, i] = math.exp(min(max(y[i], -700.0), 700.0))
            elif kind[0] == "interval":
                lo, hi = kind[1], kind[2]
                p = _clip01(_expit(y[i]))
                x[i] = lo + (hi - lo) * p
                J[i, i] = (hi - lo) * p * (1.0 - p)
            else:  # pair_sum_lt_one: x_i = s f, x_j = s (1 - f)
                j = self.names.index(kind[1])
                if i < j:
                    s = _clip01(_expit(y[i]))
                    frac = _clip01(_expit(y[j]))
                    x[i], x[j] = s * frac, s * (1.0 - frac)
                    ds, dfrac = s * (1.0 - s), frac * (1.0 - frac)
                    J[i, i], J[i, j] = ds * frac, s * dfrac
                    J[j, i], J[j, j] = ds * (1.0 - frac), -s * dfrac
        return x, J


@dataclass(frozen=True)
class OptResult:
    """``gradient_norm`` is max |df/dy| at ``x_opt`` in the unconstrained
    space; ``evals`` counts the points at which the objective and its
    gradient were evaluated."""

    x_opt: np.ndarray
    f_opt: float
    iterations: int
    converged: bool
    gradient_norm: "float | None" = None
    evals: int = 0


# BFGS stops at this many iterations, max |df/dy| below _G_TOL, or -g'p <= _FLOOR |f|
_MAX_ITER = 500
_G_TOL = 1e-5
_FLOOR = 4.0 * np.finfo(float).eps

# strong-Wolfe constants, and the trial points one line search may take in
# each of its bracketing and zoom phases
_C1 = 1e-4
_C2 = 0.9
_LS_TRIALS = 10
# a trial step too short for the curvature condition grows by this factor
_GROW = 4.0


def _line_search(fg, y, f0, g0, p, alpha):
    """A step length along ``p`` meeting the strong Wolfe conditions, by
    bracketing and zoom (Nocedal & Wright 2006, Alg. 3.5 and 3.6).

    ``fg(y)`` returns (value, gradient), the value inf where the objective
    is not finite; such a point counts as a step too long.  Returns
    ``(alpha, f, g)``, or None when no step is found.
    """
    d0 = float(g0 @ p)

    def phi(a):
        f, g = fg(y + a * p)
        return f, g, (float(g @ p) if math.isfinite(f) else math.nan)

    def too_long(a, f, f_lo):
        return not math.isfinite(f) or f > f0 + _C1 * a * d0 or f >= f_lo

    def zoom(lo, f_lo, d_lo, hi, f_hi, d_hi):
        for _ in range(_LS_TRIALS):
            a = _interpolate(lo, f_lo, d_lo, hi, f_hi, d_hi)
            if a is None:
                return None
            f, g, d = phi(a)
            if too_long(a, f, f_lo):
                hi, f_hi, d_hi = a, f, d
                continue
            if abs(d) <= -_C2 * d0:
                return a, f, g
            if d * (hi - lo) >= 0.0:
                hi, f_hi, d_hi = lo, f_lo, d_lo
            lo, f_lo, d_lo = a, f, d
        return None

    prev, f_prev, d_prev = 0.0, f0, d0
    for _ in range(_LS_TRIALS):
        f, g, d = phi(alpha)
        # the first trial is compared with f0 only; later ones also with the last
        if too_long(alpha, f, f_prev if prev > 0.0 else math.inf):
            return zoom(prev, f_prev, d_prev, alpha, f, d)
        if abs(d) <= -_C2 * d0:
            return alpha, f, g
        if d >= 0.0:
            return zoom(alpha, f, d, prev, f_prev, d_prev)
        prev, f_prev, d_prev = alpha, f, d
        alpha *= _GROW
    return None


def _interpolate(lo, f_lo, d_lo, hi, f_hi, d_hi):
    """The minimizer of the cubic through both ends of [lo, hi] (N&W 3.59),
    moved to at least a tenth of the interval from either end; the midpoint
    when the cubic has no minimizer or ``hi`` is not finite.  None once the
    interval is too short to split."""
    width = hi - lo
    if abs(width) <= 1e-15 * max(abs(lo), abs(hi)):
        return None
    mid = lo + 0.5 * width
    if not (math.isfinite(f_hi) and math.isfinite(d_hi)):
        return mid
    d1 = d_lo + d_hi - 3.0 * (f_lo - f_hi) / (lo - hi)
    disc = d1 * d1 - d_lo * d_hi
    if disc < 0.0:
        return mid
    d2 = math.copysign(math.sqrt(disc), width)
    denom = d_hi - d_lo + 2.0 * d2
    if denom == 0.0:
        return mid
    a = hi - width * (d_hi + d2 - d1) / denom
    if not math.isfinite(a):
        return mid
    return lo + width * min(max((a - lo) / width, 0.1), 0.9)


def minimize(
    objective: Callable,
    space: ParamSpace,
    x0: Sequence[float],
    *,
    gradient: Callable,
) -> OptResult:
    """Minimize a pure objective over the constrained space by BFGS.

    ``gradient`` maps a point to the exact gradient of the objective in the
    constrained coordinates; the objective itself stays scalar-valued.
    BFGS (Nocedal & Wright 2006, Alg. 6.1) runs in the unconstrained space
    on the strong-Wolfe line search above.  The inverse Hessian starts as
    the identity; each trial step would repeat the last decrease (N&W
    3.60), capped at the full quasi-Newton step, and the first, with no
    decrease before it, has about unit length.  A predicted decrease -g'p of at
    most 4 eps |f| (no step registers in f), the iteration cap or a failed line
    search ends it as ``converged = False``, never raised; never worse than x0.
    """
    y = space.to_unconstrained(np.asarray(x0, dtype=float))
    evals = 0

    def fg(yy):
        nonlocal evals
        evals += 1
        x, J = space._transform(yy)
        f = float(objective(x))
        if not math.isfinite(f):
            return math.inf, None
        g = J.T @ np.asarray(gradient(x), dtype=float)
        # a non-finite gradient belongs to a point that is rejected
        return (f, g) if np.all(np.isfinite(g)) else (math.inf, None)

    f, g = fg(y)
    if not math.isfinite(f):
        raise ValueError("objective is non-finite at x0")
    H = np.eye(y.size)
    decrease = 0.5 * float(np.linalg.norm(g))  # a first trial step of length 1.01
    k = 0
    while np.max(np.abs(g)) > _G_TOL and k < _MAX_ITER:
        p = -(H @ g)
        d0 = float(g @ p)
        if not -d0 > _FLOOR * abs(f):
            break
        step = _line_search(fg, y, f, g, p, min(1.0, -2.02 * decrease / d0))
        if step is None:
            break
        alpha, f_new, g_new = step
        s = alpha * p
        dg = g_new - g
        y, g, decrease, f = y + s, g_new, f - f_new, f_new
        k += 1
        sy = float(s @ dg)
        if sy > 0.0:  # the curvature the strong Wolfe conditions guarantee
            V = np.eye(y.size) - np.outer(s, dg) / sy
            H = V @ H @ V.T + np.outer(s, s) / sy
    gmax = float(np.max(np.abs(g)))
    x_opt = space.from_unconstrained(y)
    x_opt.setflags(write=False)
    return OptResult(
        x_opt=x_opt,
        f_opt=f,
        iterations=max(1, k),
        converged=gmax <= _G_TOL,
        gradient_norm=gmax,
        evals=evals,
    )


def finite_diff_gradient(objective: Callable, x: Sequence[float]) -> np.ndarray:
    """Central-difference gradient with per-coordinate relative steps.

    The step for coordinate i is ``eps**(1/3) * max(1, |x_i|)``; the floor
    keeps near-zero coordinates measurable.
    """
    x = np.asarray(x, dtype=float)
    eta = np.finfo(float).eps ** (1.0 / 3.0)
    g = np.empty_like(x)
    for i in range(x.size):
        h = eta * max(1.0, abs(x[i]))
        xp = x.copy()
        xp[i] += h
        xm = x.copy()
        xm[i] -= h
        fp = float(objective(xp))
        fm = float(objective(xm))
        if not (math.isfinite(fp) and math.isfinite(fm)):
            raise ValueError(f"objective is non-finite near x (coordinate {i})")
        g[i] = (fp - fm) / (2.0 * h)
    return g


# ---------------------------------------------------------------------------
# fitting a likelihood on its exact score

_GMAX_CONVERGED = 1e-3


def _objectives(unpack, score, dim: int):
    """``neg_score``: the negative loglik of a fit and its gradient, as a
    function of its parameter vector.

    ``unpack(x)`` builds the model's parameters and raises ValueError at an
    infeasible x; ``score(params)`` returns the loglik with its gradient in
    x.  A rejected x scores inf, with a zero gradient of length ``dim``.
    """
    def neg_score(x):
        try:
            params = unpack(x)
        except ValueError:
            return math.inf, np.zeros(dim)
        ll, g = score(params)
        return -ll, -g

    return neg_score


def _fit(neg_score, space, x0):
    """BFGS from ``x0`` on the exact score.

    ``neg_score(x)`` returns the negative loglik with its gradient in x
    from one pass of the filter; the value and the gradient BFGS asks for
    at one point share that pass.  Returns ``(best, converged)``.  The fit
    is converged when max |df/dy| of the score at the returned point, in
    the unconstrained space, is below 1e-3, and so is the central
    difference of the value along the unit direction BFGS travelled from
    ``x0`` (all coordinates alike if it took no step).  That difference
    does not trust the score: it sees a kink or ripple the score misses,
    and a rejected point at either end of it fails the fit.
    """
    last: list = [None, None]

    def scored(x):
        key = np.asarray(x, dtype=float).tobytes()
        if last[0] != key:
            last[:] = key, neg_score(x)
        return last[1]

    best = minimize(lambda x: scored(x)[0], space, x0,
                    gradient=lambda x: scored(x)[1])
    y = space.to_unconstrained(best.x_opt)
    u = y - space.to_unconstrained(x0)
    travelled = float(np.linalg.norm(u))
    u = u / travelled if travelled > 0.0 else np.full(y.size, 1.0 / math.sqrt(y.size))
    h = np.finfo(float).eps ** (1.0 / 3.0) * max(1.0, float(np.max(np.abs(y))))
    fp, fm = (float(neg_score(space.from_unconstrained(y + s * u))[0]) for s in (h, -h))
    slope = (fp - fm) / (2.0 * h)  # nan or inf past a rejected point
    return best, bool(best.gradient_norm < _GMAX_CONVERGED and abs(slope) < _GMAX_CONVERGED)


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
            x, J = space._transform(yy)
            cols.append(J.T @ grad(x))
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


# ---------------------------------------------------------------------------
# linear recursions as doubling scans

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


def _scan_lags(X: np.ndarray, c: Sequence[float]) -> np.ndarray:
    """Y_t = X_t + sum_j c_j Y_{t-j}, j = 1..q, down axis 0, with Y_t = 0
    before the first row.

    The order-q recursion as the doubling scan of its companion form: each
    row carries the state (Y_t, ..., Y_{t-q+1}), and the pass with shift s
    adds the companion matrix's s-th power times the state s rows back.
    """
    q = len(c)
    A = np.eye(q, k=-1)
    A[0] = c
    S = np.zeros((X.shape[0], q) + X.shape[1:])
    S[:, 0] = X
    s = 1
    while s < S.shape[0]:
        S[s:] += np.tensordot(S[:-s], A, axes=(1, 1)).swapaxes(1, -1)
        A = A @ A
        s *= 2
    return S[:, 0]
