"""The ARMA mean's scans against the per-date loops they replaced.

``reference_mean_resid`` and ``reference_apply_mean`` are the loops that
``egarch._mean_resid`` and ``egarch._apply_mean`` ran before the MA and
AR recursions moved onto ``optimize._scan_lags``, kept verbatim.  Sums now
accumulate in another order, so results agree to 1e-12 of the scale of
the sums: the same loop run on absolute values, where no term cancels.
An AR-only mean does no scan and must agree bit for bit.
"""
import warnings

import numpy as np
import pytest

from volrisk.egarch import _apply_mean, _mean_resid
from volrisk.optimize import _scan_lags

TOL = 1e-12


# ---------------------------------------------------------------------------
# reference loops


def reference_mean_resid(values, mu, ar, ma, grad=False):
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


def reference_apply_mean(eps, mu, ar, ma):
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


def reference_scan_lags(X, c):
    Y = np.array(X, dtype=float)
    for t in range(Y.shape[0]):
        for j in range(1, len(c) + 1):
            if t - j >= 0:
                Y[t] += c[j - 1] * Y[t - j]
    return Y


def _coefficients(rng, k):
    # each sum of |coefficients| below 0.9: stationary and invertible
    return tuple(rng.uniform(-0.9, 0.9, size=k) / max(k, 1))


def _assert_within_scale(got, ref, scale):
    assert got.shape == ref.shape
    assert np.all(np.abs(got - ref) <= TOL * scale)


# ---------------------------------------------------------------------------
# the scan


@pytest.mark.parametrize("T", [1, 2, 7, 1000])
@pytest.mark.parametrize("q", [1, 2, 5])
@pytest.mark.parametrize("width", [None, 3])
def test_scan_lags_matches_loop(T, q, width):
    rng = np.random.default_rng(100 * T + 10 * q + (width or 0))
    c = tuple(rng.uniform(-1.0, 1.0, size=q) / q)
    X = rng.standard_normal((T,) if width is None else (T, width))
    got = _scan_lags(X, c)
    _assert_within_scale(got, reference_scan_lags(X, c),
                         reference_scan_lags(np.abs(X), np.abs(c)))


# ---------------------------------------------------------------------------
# the residuals and their derivatives


@pytest.mark.parametrize("T", [12, 13, 40, 1000])
@pytest.mark.parametrize("p,q", [(0, 1), (1, 1), (2, 1), (1, 2), (0, 5), (5, 5), (3, 2)])
def test_mean_resid_matches_loop(T, p, q):
    rng = np.random.default_rng(1000 * T + 10 * p + q)
    vals = rng.standard_normal(T) * 0.02 + 0.001
    mu, ar, ma = 0.0007, _coefficients(rng, p), _coefficients(rng, q)
    eps, deps = _mean_resid(vals, mu, ar, ma, grad=True)
    ref_eps, ref_deps = reference_mean_resid(vals, mu, ar, ma, grad=True)
    # every term of the loop's sums made nonnegative
    abs_eps, abs_deps = reference_mean_resid(
        np.abs(vals), -abs(mu), [-abs(a) for a in ar], [-abs(m) for m in ma], grad=True)
    _assert_within_scale(eps, ref_eps, np.abs(abs_eps))
    _assert_within_scale(deps, ref_deps, np.abs(abs_deps))
    np.testing.assert_array_equal(_mean_resid(vals, mu, ar, ma), eps)


@pytest.mark.parametrize("p", [1, 2, 5])
def test_ar_only_mean_is_bit_identical(p):
    rng = np.random.default_rng(p)
    vals = rng.standard_normal(500) * 0.02
    ar = _coefficients(rng, p)
    eps, deps = _mean_resid(vals, 0.0003, ar, (), grad=True)
    ref_eps, ref_deps = reference_mean_resid(vals, 0.0003, ar, (), grad=True)
    np.testing.assert_array_equal(eps, ref_eps)
    np.testing.assert_array_equal(deps, ref_deps)


def test_explosive_ma_overflows_silently():
    # |theta| > 1 makes the residuals grow like theta^t until they overflow;
    # the loop and the scan both leave a non-finite path, and the scan's
    # overflow stays silent so the likelihood can reject the point (the
    # loglik and score there: TestLoglik.test_explosive_ma_is_minus_inf)
    vals = np.random.default_rng(4).standard_normal(1000)
    assert not np.all(np.isfinite(reference_mean_resid(vals, 0.0, (), (3.0,))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        eps, deps = _mean_resid(vals, 0.0, (), (3.0,), grad=True)
    assert not np.all(np.isfinite(eps)) and not np.all(np.isfinite(deps))


# ---------------------------------------------------------------------------
# the simulators' mean


@pytest.mark.parametrize("T", [1, 2, 7, 1000])
@pytest.mark.parametrize("p,q", [(1, 0), (0, 1), (1, 1), (2, 1), (5, 5), (3, 0)])
def test_apply_mean_matches_loop(T, p, q):
    rng = np.random.default_rng(1000 * T + 10 * p + q)
    eps = rng.standard_normal(T)
    mu, ar, ma = 0.3, _coefficients(rng, p), _coefficients(rng, q)
    got = _apply_mean(eps, mu, ar, ma)
    scale = reference_apply_mean(np.abs(eps), mu, [abs(a) for a in ar], [abs(m) for m in ma])
    _assert_within_scale(got, reference_apply_mean(eps, mu, ar, ma), scale)


@pytest.mark.parametrize("q", [1, 3])
def test_ma_only_apply_mean_is_bit_identical(q):
    rng = np.random.default_rng(q)
    eps = rng.standard_normal(300)
    ma = _coefficients(rng, q)
    np.testing.assert_array_equal(_apply_mean(eps, 0.1, (), ma),
                                  reference_apply_mean(eps, 0.1, (), ma))
