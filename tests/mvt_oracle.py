"""The standardized multivariate t log density, one point at a time: the
oracle that the tests of the joint law and of the DCC likelihood check
against.  The tests import it from here; it is not part of the package.
"""
import math

import numpy as np

from volrisk.distributions import _t_const


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
