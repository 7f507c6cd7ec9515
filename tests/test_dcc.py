import math
import re
import types
import warnings
from datetime import date, timedelta

import numpy as np
import pytest

from mvt_oracle import mvt_logpdf
from volrisk.distributions import InnovationDist, _t_const_dnu
from volrisk.dcc import (
    DccParams,
    _filter_core,
    conditional_covariance,
    dcc_filter,
    dcc_loglik,
    dcc_score,
    fit_dcc,
    simulate_dcc_panel,
    unconditional_corr,
)
from volrisk.egarch import EgarchParams, MeanParams, _egarch_shocks, fit_egarch, mean_filter
from volrisk.market_data import DataError, ReturnSeries
from volrisk.optimize import _scan, finite_diff_gradient

D8 = InnovationDist("student_t", shape=8.0)


def _asset(omega=-0.005, a_mag=0.15, xi=-0.08, b_pers=0.95):
    return EgarchParams(
        mean=MeanParams(), omega=omega, a_mag=a_mag, xi=xi, b_pers=b_pers, dist=D8
    )


def _panel(n=600, k=3, seed=0):
    assets = [_asset(b_pers=0.95 - 0.02 * i) for i in range(k)]
    Qbar = np.full((k, k), 0.4)
    np.fill_diagonal(Qbar, 1.0)
    truth = DccParams(alpha=0.05, beta=0.90, joint_shape=8.0)
    return simulate_dcc_panel(assets, truth, Qbar, n=n, seed=seed)


def _series(values, symbol):
    d0 = date(2019, 1, 1)
    dates = tuple(d0 + timedelta(days=i) for i in range(len(values)))
    return ReturnSeries(symbol=symbol, dates=dates, values=np.asarray(values, float))


class TestParams:
    def test_stationarity_enforced(self):
        with pytest.raises(ValueError):
            DccParams(alpha=0.1, beta=0.9, joint_shape=8.0)
        with pytest.raises(ValueError):
            DccParams(alpha=0.0, beta=0.5, joint_shape=8.0)
        with pytest.raises(ValueError):
            DccParams(alpha=0.05, beta=-0.1, joint_shape=8.0)
        with pytest.raises(ValueError):
            DccParams(alpha=0.05, beta=0.9, joint_shape=2.0)


class TestUnconditionalCorr:
    def test_matches_manual_outer_products(self):
        _, Z = _panel(n=200, k=2, seed=1)
        Qbar = unconditional_corr(Z)
        n = Z.shape[0]
        manual = sum(np.outer(Z[t], Z[t]) for t in range(n)) / n
        np.testing.assert_allclose(Qbar, manual, atol=1e-12)
        assert np.array_equal(Qbar, Qbar.T)

    def test_too_short(self):
        with pytest.raises(DataError):
            unconditional_corr(np.zeros((5, 3)) + np.random.default_rng(0).standard_normal((5, 3)))

    def test_degenerate_column(self):
        Z = np.random.default_rng(0).standard_normal((100, 2))
        Z[:, 1] = 0.5
        with pytest.raises(Exception, match="degenerate"):
            unconditional_corr(Z)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_column_named(self, bad):
        Z = np.random.default_rng(0).standard_normal((100, 3))
        Z[40, 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=r"^residual column 2: not finite$"):
                unconditional_corr(Z)


class TestFilter:
    def test_two_asset_three_step_unroll(self):
        Z = np.array([[0.5, -0.3], [1.2, 0.4], [-0.7, -0.9]])
        Qbar = np.array([[1.0, 0.45], [0.45, 1.0]])
        p = DccParams(alpha=0.06, beta=0.91, joint_shape=8.0)
        Q, R = dcc_filter(Z, p, Qbar)

        q0 = Qbar
        q1 = Qbar * (1 - 0.06 - 0.91) + 0.06 * np.outer(Z[0], Z[0]) + 0.91 * q0
        q2 = Qbar * (1 - 0.06 - 0.91) + 0.06 * np.outer(Z[1], Z[1]) + 0.91 * q1
        np.testing.assert_allclose(Q[0], q0, atol=1e-12)
        np.testing.assert_allclose(Q[1], q1, atol=1e-12)
        np.testing.assert_allclose(Q[2], q2, atol=1e-12)
        for t, q in enumerate((q0, q1, q2)):
            d = np.sqrt(np.diag(q))
            np.testing.assert_allclose(R[t], q / np.outer(d, d), atol=1e-12)

    def test_unit_diagonal_exact_and_pd(self):
        _, Z = _panel(n=800, k=3, seed=2)
        Qbar = unconditional_corr(Z)
        Q, R = dcc_filter(Z, DccParams(alpha=0.05, beta=0.9, joint_shape=8.0), Qbar)
        idx = np.arange(3)
        assert np.all(R[:, idx, idx] == 1.0)
        assert np.linalg.eigvalsh(R).min() > 0.0
        off = R[:, 0, 1:]
        assert np.all(np.abs(off) <= 1.0)

    def test_path_read_only(self):
        _, Z = _panel(n=100, k=2, seed=3)
        Q, R = dcc_filter(Z, DccParams(alpha=0.05, beta=0.9, joint_shape=8.0),
                          unconditional_corr(Z))
        with pytest.raises(ValueError):
            R[0, 0, 1] = 0.0

    def test_qbar_shape_checked(self):
        _, Z = _panel(n=100, k=2, seed=3)
        with pytest.raises(ValueError):
            dcc_filter(Z, DccParams(alpha=0.05, beta=0.9, joint_shape=8.0), np.eye(3))


def _loop_filter(Z, alpha, beta, Qbar):
    # reference: the correlation recursion one date at a time
    T, k = Z.shape
    Q = np.empty((T, k, k))
    Q[0] = Qbar
    for t in range(1, T):
        Q[t] = Qbar * (1 - alpha - beta) + alpha * np.outer(Z[t - 1], Z[t - 1]) + beta * Q[t - 1]
    return Q


class TestScanMatchesLoop:
    @pytest.mark.parametrize("k", [2, 3, 8])
    @pytest.mark.parametrize("T", [1, 2, 7, 1000])
    @pytest.mark.parametrize("alpha,beta", [
        (0.05, 0.0), (0.05, 0.9), (0.02, 0.97), (0.0299, 0.97), (1e-6, 1 - 2e-6),
    ])
    def test_q_path(self, k, T, alpha, beta):
        rng = np.random.default_rng(100 * k + T)
        Z = rng.standard_normal((T, k))
        Qbar = np.full((k, k), 0.3)
        np.fill_diagonal(Qbar, 1.0)
        Q, R = dcc_filter(Z, DccParams(alpha=alpha, beta=beta, joint_shape=8.0), Qbar)
        ref = _loop_filter(Z, alpha, beta, Qbar)
        # relative to each entry's scale sqrt(Q_ii Q_jj): off-diagonal
        # entries pass through zero, where an entrywise ratio means nothing
        d = np.sqrt(np.diagonal(ref, axis1=1, axis2=2))
        scale = d[:, :, None] * d[:, None, :]
        assert np.max(np.abs(Q - ref) / scale) < 1e-13
        assert np.array_equal(Q, np.swapaxes(Q, 1, 2))
        np.testing.assert_allclose(R, ref / scale, rtol=0, atol=1e-13)


class TestLoglik:
    def test_matches_per_step_oracle(self):
        _, Z = _panel(n=150, k=2, seed=4)
        Qbar = unconditional_corr(Z)
        p = DccParams(alpha=0.04, beta=0.92, joint_shape=6.5)
        _, R = dcc_filter(Z, p, Qbar)
        expected = sum(mvt_logpdf(Z[t], R[t], 6.5) for t in range(Z.shape[0]))
        assert dcc_loglik(Z, p, Qbar) == pytest.approx(expected, abs=1e-8)

    def test_infeasible_path_minus_inf(self):
        Z = np.random.default_rng(5).standard_normal((60, 2))
        bad_qbar = np.array([[1.0, 1.0], [1.0, 1.0]])  # singular target
        p = DccParams(alpha=0.01, beta=0.01, joint_shape=8.0)
        assert dcc_loglik(Z, p, bad_qbar) == -math.inf


    def test_non_finite_residual_minus_inf(self):
        _, Z = _panel(n=100, k=2, seed=3)
        Qbar = unconditional_corr(Z)
        Z[5, 0] = math.inf
        p = DccParams(alpha=0.05, beta=0.9, joint_shape=8.0)
        with np.errstate(invalid="ignore"):
            assert dcc_loglik(Z, p, Qbar) == -math.inf

    def test_non_finite_residual_warns_nothing(self):
        # library calls count on no caller to silence numpy's warnings
        _, Z = _panel(n=100, k=2, seed=3)
        Qbar = unconditional_corr(Z)
        Z[5, 0] = math.inf
        p = DccParams(alpha=0.05, beta=0.9, joint_shape=8.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert dcc_loglik(Z, p, Qbar) == -math.inf
            ll, g = dcc_score(Z, p, Qbar)
        assert ll == -math.inf and np.all(np.isnan(g))


_P = DccParams(alpha=0.05, beta=0.9, joint_shape=8.0)


@pytest.mark.parametrize("entry", [
    unconditional_corr,
    lambda Z: dcc_filter(Z, _P, np.eye(2)),
    lambda Z: dcc_loglik(Z, _P, np.eye(2)),
    lambda Z: dcc_score(Z, _P, np.eye(2)),
], ids=["unconditional_corr", "dcc_filter", "dcc_loglik", "dcc_score"])
def test_column_list_gives_the_panel_result(entry):
    _, Z = _panel(n=300, k=2, seed=3)
    want, got = entry(Z), entry([Z[:, 0], Z[:, 1]])
    if not isinstance(want, tuple):
        want, got = (want,), (got,)
    assert [np.asarray(w).tobytes() for w in want] == [np.asarray(g).tobytes() for g in got]


def _short_columns():
    _, Z = _panel(n=300, k=2, seed=3)
    return [Z[1:, 0], Z[:, 1]]


@pytest.mark.parametrize("call, exc, message", [
    (lambda: unconditional_corr(_short_columns()), DataError,
     "residual series lengths differ: [299, 300]"),
    (lambda: dcc_filter(_panel(n=300, k=2, seed=3)[1], _P, np.array([[1.0, 2.0], [2.0, 1.0]])),
     ValueError, "correlation path left the positive-definite cone; "
                 "check Qbar comes from the same Z"),
    # conditional_covariance reads only the fit's correlation path
    (lambda: conditional_covariance(types.SimpleNamespace(R_path=np.zeros((10, 2, 2))),
                                    np.ones((9, 2)), 0),
     ValueError, "h_paths shape (9, 2) does not match panel (10, 2)"),
    (lambda: simulate_dcc_panel([_asset()], _P, np.eye(1), n=50, seed=0), ValueError,
     "panel simulation needs >= 2 assets, got 1"),
    (lambda: simulate_dcc_panel([_asset(), _asset()], _P, np.eye(3), n=50, seed=0), ValueError,
     "Qbar has shape (3, 3), expected (2, 2)"),
    # the likelihood and its score take Qbar through dcc_filter's rule
    *(pytest.param(lambda f=f, m=m: f(_panel(n=300, k=2, seed=3)[1], _P, np.eye(m)), ValueError,
                   f"Qbar has shape ({m}, {m}), expected (2, 2)", id=f"{f.__name__}-Qbar-{m}x{m}")
      for f in (dcc_loglik, dcc_score) for m in (3, 1)),
    (lambda: conditional_covariance(types.SimpleNamespace(R_path=np.zeros((10, 2, 2))),
                                    [np.ones(10), np.ones(9)], 0),
     DataError, "residual series lengths differ: [9, 10]"),
    # a single path is read as one row of scalars, not as a column
    (lambda: conditional_covariance(types.SimpleNamespace(R_path=np.zeros((10, 2, 2))),
                                    np.ones(10), 0),
     ValueError, "h_paths shape (1, 10) does not match panel (10, 2)"),
])
def test_validation_branches(call, exc, message):
    with pytest.raises(exc, match=f"^{re.escape(message)}$"):
        call()


def _forward_gradient(Z, params, Qbar):
    # forward mode: dQ_t/dalpha and dQ_t/dbeta scanned as 2m sensitivity
    # columns, mapped to dR_t, and contracted with R_t^{-1} from inv(L_t)
    alpha, beta, nu = params.alpha, params.beta, params.joint_shape
    Q, R = _filter_core(Z, alpha, beta, Qbar)
    L = np.linalg.cholesky(R)
    w = np.linalg.solve(L, Z[:, :, None])[:, :, 0]
    q = np.einsum("ti,ti->t", w, w)
    T, k = Z.shape
    iu, ju = np.triu_indices(k)
    m = iu.size
    X = np.zeros((T, 2 * m))
    X[1:, :m] = Z[:-1, iu] * Z[:-1, ju] - Qbar[iu, ju]
    X[1:, m:] = Q[:-1, iu, ju] - Qbar[iu, ju]
    dQ = _scan(X, beta).reshape(T, 2, m)
    diag = iu == ju
    i, j = iu[~diag], ju[~diag]
    Qd = np.diagonal(Q, axis1=1, axis2=2)
    rel = dQ[:, :, diag] / Qd[:, None, :]
    dR = (dQ[:, :, ~diag] / np.sqrt(Qd[:, i] * Qd[:, j])[:, None, :]
          - 0.5 * R[:, None, i, j] * (rel[:, :, i] + rel[:, :, j]))
    LinvT = np.swapaxes(np.linalg.inv(L), 1, 2)
    Rinv = LinvT @ np.swapaxes(LinvT, 1, 2)
    u = (LinvT @ w[:, :, None])[:, :, 0]
    W = -Rinv[:, i, j] + ((nu + k) / (nu - 2.0 + q))[:, None] * u[:, i] * u[:, j]
    g = np.empty(3)
    g[:2] = np.einsum("tpm,tm->p", dR, W)
    g[2] = (
        T * _t_const_dnu(nu, k)
        - 0.5 * np.log1p(q / (nu - 2.0)).sum()
        + 0.5 * (nu + k) * (q / ((nu - 2.0) * (nu - 2.0 + q))).sum()
    )
    return g


class TestScore:
    @pytest.mark.parametrize("k", [2, 3, 8])
    def test_adjoint_matches_forward_sensitivities(self, k):
        _, Z = _panel(n=500, k=k, seed=20 + k)
        Qbar = unconditional_corr(Z)
        rng = np.random.default_rng(30 + k)
        for _ in range(3):
            alpha = rng.uniform(0.01, 0.1)
            p = DccParams(alpha, rng.uniform(0.5, 0.98 - alpha), rng.uniform(4.0, 15.0))
            ll, g = dcc_score(Z, p, Qbar)
            want = _forward_gradient(Z, p, Qbar)
            assert ll == dcc_loglik(Z, p, Qbar)
            # relative to each component, with the vector's size as the floor
            np.testing.assert_allclose(g, want, rtol=1e-9, atol=1e-9 * np.max(np.abs(want)))

    @pytest.mark.parametrize("k", [2, 3, 8])
    def test_matches_differences(self, k):
        _, Z = _panel(n=500, k=k, seed=10 + k)
        Qbar = unconditional_corr(Z)
        rng = np.random.default_rng(k)
        for _ in range(3):
            alpha = rng.uniform(0.01, 0.1)
            x = np.array([alpha, rng.uniform(0.5, 0.98 - alpha), rng.uniform(4.0, 15.0)])
            value = lambda xx: dcc_loglik(Z, DccParams(*xx), Qbar)
            ll, g = dcc_score(Z, DccParams(*x), Qbar)
            fd = finite_diff_gradient(value, x)
            assert ll == value(x)
            np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-5 * np.max(np.abs(fd)))

    def test_infeasible_path(self):
        Z = np.random.default_rng(5).standard_normal((60, 2))
        bad_qbar = np.array([[1.0, 1.0], [1.0, 1.0]])
        ll, g = dcc_score(Z, DccParams(alpha=0.01, beta=0.01, joint_shape=8.0), bad_qbar)
        assert ll == -math.inf
        assert np.all(np.isnan(g))


class TestFit:
    def test_two_stage_smoke(self):
        returns, _ = _panel(n=1000, k=2, seed=6)
        fits = [fit_egarch(_series(returns[:, j], f"A{j}")) for j in range(2)]
        joint = fit_dcc(fits)
        p = joint.params
        assert 0.0 < p.alpha and 0.0 <= p.beta and p.alpha + p.beta < 1.0
        assert p.alpha == pytest.approx(0.05, abs=0.06)
        assert joint.k_stage1 == sum(f.k_params for f in fits)
        assert joint.k_stage2 == 3
        assert joint.k_total == joint.k_stage1 + 3
        assert joint.aic_joint == pytest.approx(
            2 * joint.k_total - 2 * joint.loglik_joint, abs=1e-9
        )
        assert joint.aic_joint_per_obs == pytest.approx(
            joint.aic_joint / joint.n_obs, abs=1e-12
        )
        assert joint.n_obs == 1000
        assert joint.symbols == ("A0", "A1")
        assert joint.R_path.shape == (1000, 2, 2)
        # stage-2 loglik is reproducible from the stored pieces
        Z = np.column_stack([f.z for f in fits])
        assert dcc_loglik(Z, p, joint.Qbar) == pytest.approx(joint.loglik_joint, abs=1e-9)

    def test_loglik_is_the_loglik_at_the_optimum(self):
        # the fit reads its loglik off the optimizer's last scored point
        returns, _ = _panel(n=600, k=2, seed=4)
        fits = [fit_egarch(_series(returns[:, j], f"A{j}")) for j in range(2)]
        joint = fit_dcc(fits)
        Z = np.column_stack([f.z for f in fits])
        assert joint.loglik_joint == dcc_loglik(Z, joint.params, joint.Qbar)

    def test_duplicate_asset_names_the_pair(self):
        returns, _ = _panel(n=300, k=2, seed=16)
        a = fit_egarch(_series(returns[:, 0], "A0"))
        b = fit_egarch(_series(returns[:, 1], "A1"))
        twin = fit_egarch(_series(returns[:, 0], "A0_TWIN"))
        with pytest.raises(DataError, match="A0 and A0_TWIN are collinear"):
            fit_dcc([a, b, twin])

    def test_needs_two_fits(self):
        returns, _ = _panel(n=300, k=2, seed=7)
        fit = fit_egarch(_series(returns[:, 0], "A0"))
        with pytest.raises(DataError):
            fit_dcc([fit])

    def test_calendar_mismatch_rejected(self):
        returns, _ = _panel(n=300, k=2, seed=8)
        a = fit_egarch(_series(returns[:, 0], "A0"))
        shifted = ReturnSeries(
            symbol="A1",
            dates=tuple(d + timedelta(days=1) for d in a.dates),
            values=returns[:, 1],
        )
        b = fit_egarch(shifted)
        with pytest.raises(DataError):
            fit_dcc([a, b])

    def test_to_dict_correlation_columns(self):
        returns, _ = _panel(n=300, k=2, seed=9)
        fits = [fit_egarch(_series(returns[:, j], f"A{j}")) for j in range(2)]
        joint = fit_dcc(fits)
        d = joint.to_dict()
        assert list(d["dynamic_correlation"]) == ["A0/A1"]
        col = d["dynamic_correlation"]["A0/A1"]
        assert len(col) == 300
        assert all(-1.0 <= v <= 1.0 for v in col)


class TestFitOutputs:
    def test_conditional_covariance_oracle(self):
        returns, _ = _panel(n=300, k=2, seed=10)
        fits = [fit_egarch(_series(returns[:, j], f"A{j}")) for j in range(2)]
        joint = fit_dcc(fits)
        h_paths = np.column_stack([f.h for f in fits])
        t = 123
        H = conditional_covariance(joint, h_paths, t)
        s = np.sqrt(h_paths[t])
        expected = np.diag(s) @ joint.R_path[t] @ np.diag(s)
        np.testing.assert_allclose(H, expected, atol=1e-12)
        np.testing.assert_allclose(np.diag(H), h_paths[t], atol=1e-12)
        assert np.linalg.eigvalsh(H).min() > 0.0

    def test_conditional_covariance_accepts_column_list(self):
        returns, _ = _panel(n=200, k=2, seed=11)
        fits = [fit_egarch(_series(returns[:, j], f"A{j}")) for j in range(2)]
        joint = fit_dcc(fits)
        H1 = conditional_covariance(joint, [f.h for f in fits], 50)
        H2 = conditional_covariance(joint, np.column_stack([f.h for f in fits]), 50)
        np.testing.assert_array_equal(H1, H2)
        with pytest.raises(IndexError):
            conditional_covariance(joint, [f.h for f in fits], 200)


def _panel_oracle(asset_params, dcc_params, Qbar, n, seed, burn=500):
    # the correlation loop simulate_dcc_panel had before it updated Q in
    # place; each column's shocks come from _egarch_shocks, which
    # tests/test_egarch.py holds to its own scalar oracle
    k = len(asset_params)
    nu = dcc_params.joint_shape
    alpha, beta = dcc_params.alpha, dcc_params.beta
    rng = np.random.default_rng(seed)
    total = n + burn
    Q = Qbar.copy()
    C = Qbar * (1.0 - alpha - beta)
    scale = math.sqrt(nu - 2.0)
    Z = np.empty((total, k))
    for t in range(total):
        d = np.sqrt(np.diagonal(Q))
        R = Q / np.outer(d, d)
        np.fill_diagonal(R, 1.0)
        L = np.linalg.cholesky(R)
        g = rng.standard_normal(k)
        w = rng.chisquare(nu)
        z = (L @ g) * (scale / math.sqrt(w))
        Z[t] = z
        Q = C + alpha * np.outer(z, z) + beta * Q
    returns = np.column_stack([p.mean.mu + _egarch_shocks(p, Z[:, i])
                               for i, p in enumerate(asset_params)])
    return returns[burn:], Z[burn:]


class TestPanelOracle:
    @pytest.mark.parametrize("k", [2, 3, 8])
    @pytest.mark.parametrize("seed", [0, 1001])
    def test_bit_for_bit(self, k, seed):
        assets = [EgarchParams(mean=MeanParams(mu=0.01 * i), omega=-0.005, a_mag=0.15,
                               xi=-0.08, b_pers=0.95 - 0.01 * i, dist=D8)
                  for i in range(k)]
        # a Qbar with unequal diagonal and correlations, so R differs from Q
        rng = np.random.default_rng(k)
        A = rng.standard_normal((k, k + 2))
        Qbar = A @ A.T / (k + 2) + 0.5 * np.eye(k)
        truth = DccParams(alpha=0.06, beta=0.91, joint_shape=7.0)
        got = simulate_dcc_panel(assets, truth, Qbar, n=400, seed=seed)
        want = _panel_oracle(assets, truth, Qbar, n=400, seed=seed)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
            assert g.tobytes() == w.tobytes()

class TestSimulate:
    def test_deterministic(self):
        r1, z1 = _panel(n=150, k=2, seed=13)
        r2, z2 = _panel(n=150, k=2, seed=13)
        np.testing.assert_array_equal(r1, r2)
        np.testing.assert_array_equal(z1, z2)

    def test_shapes_and_finiteness(self):
        r, z = _panel(n=150, k=3, seed=14)
        assert r.shape == z.shape == (150, 3)
        assert np.all(np.isfinite(r))

    def test_innovations_nearly_standardized(self):
        _, z = _panel(n=20_000, k=2, seed=15)
        np.testing.assert_allclose(z.var(axis=0), 1.0, atol=0.1)
        np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=0.05)

    def test_arma_means_keep_the_innovations(self):
        # the means go on after the shocks: the innovations do not move, and
        # filtering an ARMA column gives back the constant-mean column minus mu
        means = [MeanParams(mu=0.05, ar=(0.4,), ma=(0.2,)), MeanParams(mu=-0.02, ar=(0.5, -0.2))]

        def panel(arma):
            assets = [EgarchParams(mean=m if arma else MeanParams(mu=m.mu), omega=-0.005,
                                   a_mag=0.15, xi=-0.08, b_pers=0.95 - 0.02 * i, dist=D8)
                      for i, m in enumerate(means)]
            Qbar = np.array([[1.0, 0.4], [0.4, 1.0]])
            truth = DccParams(alpha=0.05, beta=0.9, joint_shape=8.0)
            return simulate_dcc_panel(assets, truth, Qbar, n=400, seed=3)

        (r_arma, z_arma), (r_const, z_const) = panel(True), panel(False)
        np.testing.assert_array_equal(z_arma, z_const)
        for i, m in enumerate(means):
            resid = mean_filter(_series(r_arma[:, i], f"A{i}"), m)
            # the filter starts from the sample mean, the simulation from the
            # stationary one; the gap dies out within 20 rows
            np.testing.assert_allclose(resid[20:], r_const[20:, i] - m.mu, rtol=0, atol=1e-12)
