"""Parameter transforms and unconstrained minimization.

Constrained likelihood parameters are mapped to an open unconstrained
space (log for positivity, scaled logistic for intervals, a joint logistic
pair for two nonnegative parameters summing below one) and BFGS searches
there on the objective's exact gradient.  Objectives must be pure; a
non-finite value at a trial point is treated as a rejected step, never an
error.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import optimize as _sopt
from scipy.special import expit, logit

__all__ = [
    "ParamSpace",
    "OptResult",
    "minimize",
    "finite_diff_gradient",
]

# large finite stand-in for +inf: rejects the step without breaking line searches
_BIG = 1e100

# logistic outputs clipped into the open unit interval so inverse transforms
# always land strictly inside the feasible region
_P_LO = 1e-15
_P_HI = 1.0 - 1e-15


def _clip01(p):
    return np.minimum(np.maximum(p, _P_LO), _P_HI)


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

    def _index(self, name: str) -> int:
        return self.names.index(name)

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
                y[i] = logit((v - lo) / (hi - lo))
            else:  # pair_sum_lt_one
                j = self._index(kind[1])
                if i < j:
                    a, b = x[i], x[j]
                    s = a + b
                    if not (a > 0.0 and b > 0.0 and s < 1.0):
                        raise ValueError(
                            f"pair ({name!r}, {kind[1]!r}) must satisfy "
                            f"a > 0, b > 0, a + b < 1, got ({a}, {b})"
                        )
                    y[i] = logit(s)
                    y[j] = logit(a / s)
        return y

    def from_unconstrained(self, y: Sequence[float]) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if y.shape != (self.dimension,):
            raise ValueError(f"expected {self.dimension} parameters, got shape {y.shape}")
        x = np.empty_like(y)
        for i, (name, kind) in enumerate(self.params):
            if kind == "free":
                x[i] = y[i]
            elif kind == "positive":
                x[i] = math.exp(min(max(y[i], -700.0), 700.0))
            elif kind[0] == "interval":
                lo, hi = kind[1], kind[2]
                x[i] = lo + (hi - lo) * _clip01(expit(y[i]))
            else:  # pair_sum_lt_one
                j = self._index(kind[1])
                if i < j:
                    s = _clip01(expit(y[i]))
                    frac = _clip01(expit(y[j]))
                    x[i] = s * frac
                    x[j] = s * (1.0 - frac)
        return x

    def jacobian(self, y: Sequence[float]) -> np.ndarray:
        """Matrix dx/dy of ``from_unconstrained`` at ``y``.

        A gradient g taken in the constrained coordinates maps to
        ``jacobian(y).T @ g`` in the unconstrained ones.
        """
        y = np.asarray(y, dtype=float)
        if y.shape != (self.dimension,):
            raise ValueError(f"expected {self.dimension} parameters, got shape {y.shape}")
        J = np.zeros((y.size, y.size))
        for i, (name, kind) in enumerate(self.params):
            if kind == "free":
                J[i, i] = 1.0
            elif kind == "positive":
                J[i, i] = math.exp(min(max(y[i], -700.0), 700.0))
            elif kind[0] == "interval":
                p = _clip01(expit(y[i]))
                J[i, i] = (kind[2] - kind[1]) * p * (1.0 - p)
            else:  # pair_sum_lt_one: x_i = s f, x_j = s (1 - f)
                j = self._index(kind[1])
                if i < j:
                    s = _clip01(expit(y[i]))
                    frac = _clip01(expit(y[j]))
                    ds, dfrac = s * (1.0 - s), frac * (1.0 - frac)
                    J[i, i], J[i, j] = ds * frac, s * dfrac
                    J[j, i], J[j, j] = ds * (1.0 - frac), -s * dfrac
        return J


@dataclass(frozen=True)
class OptResult:
    x_opt: np.ndarray
    f_opt: float
    iterations: int
    converged: bool
    gradient_norm: "float | None" = None


def _wrap(objective: Callable, space: ParamSpace) -> Callable:
    def wrapped(y: np.ndarray) -> float:
        v = float(objective(space.from_unconstrained(y)))
        return v if math.isfinite(v) else _BIG

    return wrapped


def _wrap_gradient(gradient: Callable, space: ParamSpace) -> Callable:
    # chain rule into the unconstrained space; a non-finite gradient belongs
    # to a rejected step, whose value is already _BIG
    def wrapped(y: np.ndarray) -> np.ndarray:
        g = np.asarray(gradient(space.from_unconstrained(y)), dtype=float)
        g = space.jacobian(y).T @ g
        return g if np.all(np.isfinite(g)) else np.zeros_like(g)

    return wrapped


# BFGS stops after this many iterations, or once max |df/dy| falls below _G_TOL
_MAX_ITER = 500
_G_TOL = 1e-5


def minimize(
    objective: Callable,
    space: ParamSpace,
    x0: Sequence[float],
    *,
    gradient: Callable,
) -> OptResult:
    """Minimize a pure objective over the constrained space by BFGS.

    ``gradient`` maps a point to the exact gradient of the objective in the
    constrained coordinates; the objective itself stays scalar-valued.  The
    iteration cap or a failed line search is returned as
    ``converged = False``, never raised.
    """
    x0 = np.asarray(x0, dtype=float)
    f0 = float(objective(x0))
    if not math.isfinite(f0):
        raise ValueError("objective is non-finite at x0")
    y0 = space.to_unconstrained(x0)
    res = _sopt.minimize(_wrap(objective, space), y0, (), "BFGS",
                         jac=_wrap_gradient(gradient, space),
                         options={"maxiter": _MAX_ITER, "gtol": _G_TOL})
    y_opt, f_opt = res.x, float(res.fun)
    if f_opt > f0:  # optimizer never reports a point worse than the start
        y_opt, f_opt = y0, f0
    x_opt = space.from_unconstrained(y_opt)
    x_opt.setflags(write=False)
    return OptResult(
        x_opt=x_opt,
        f_opt=f_opt,
        iterations=max(1, int(res.nit)),
        converged=bool(res.success) and math.isfinite(f_opt),
        gradient_norm=float(np.max(np.abs(res.jac))),
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
