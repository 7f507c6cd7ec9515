import math
import re
import warnings
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats

from volrisk.distributions import InnovationDist, abs_moment, abs_moment_grad, logpdf_grad
from volrisk.egarch import (
    EgarchParams,
    Garch11Params,
    MeanParams,
    MeanSpec,
    _checked_resid,
    _egarch_shocks,
    aic,
    egarch_filter,
    egarch_loglik,
    egarch_param_space,
    egarch_params_from_vector,
    egarch_score,
    fit_egarch,
    fit_garch11,
    garch11_filter,
    garch11_loglik,
    garch11_param_space,
    garch11_params_from_vector,
    garch11_score,
    mean_filter,
    simulate_egarch,
    simulate_garch11,
)
from volrisk.market_data import DegenerateSeriesError, ReturnSeries
from volrisk.optimize import (
    ParamSpace,
    _fit,
    _objectives,
    _scan,
    _scan_varying,
    _std_errors,
    finite_diff_gradient,
)

T7 = InnovationDist("student_t", shape=7.0)


def _egarch(omega=-0.2, a_mag=0.15, xi=-0.08, b_pers=0.95, dist=T7, mean=None):
    return EgarchParams(
        mean=mean or MeanParams(), omega=omega, a_mag=a_mag, xi=xi,
        b_pers=b_pers, dist=dist,
    )


class TestFilters:
    def test_egarch_three_step_unroll(self):
        eps = np.array([0.5, -1.2, 0.3])
        p = _egarch()
        ez = abs_moment(T7)
        h0 = float(eps.var())
        z0 = eps[0] / math.sqrt(h0)
        h1 = math.exp(-0.2 + 0.15 * (abs(z0) - ez) + -0.08 * z0 + 0.95 * math.log(h0))
        z1 = eps[1] / math.sqrt(h1)
        h2 = math.exp(-0.2 + 0.15 * (abs(z1) - ez) + -0.08 * z1 + 0.95 * math.log(h1))
        h = egarch_filter(eps, p)
        np.testing.assert_allclose(h, [h0, h1, h2], rtol=1e-14)

    def test_garch11_three_step_unroll(self):
        eps = np.array([0.5, -1.2, 0.3])
        p = Garch11Params(mu=0.0, alpha0=0.05, alpha1=0.1, gamma1=0.8, dist=T7)
        h0 = float(eps.var())
        h1 = 0.05 + 0.1 * eps[0] ** 2 + 0.8 * h0
        h2 = 0.05 + 0.1 * eps[1] ** 2 + 0.8 * h1
        np.testing.assert_allclose(garch11_filter(eps, p), [h0, h1, h2], rtol=1e-14)

    def test_egarch_positive_everywhere(self):
        rng = np.random.default_rng(0)
        h = egarch_filter(rng.standard_normal(500) * 0.5, _egarch())
        assert np.all(h > 0.0)

    def test_degenerate_eps(self):
        with pytest.raises(DegenerateSeriesError):
            egarch_filter(np.zeros(50), _egarch())

    def test_overflow_yields_inf_not_crash(self):
        # near-unit persistence with a large drift pushes log h past the
        # float range; the filter must carry inf and the likelihood -inf
        p = _egarch(omega=60.0, a_mag=40.0, b_pers=0.999)
        eps = np.resize([5.0, -5.0], 80)
        h = egarch_filter(eps, p)
        assert np.isinf(h).any()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("path", [
        lambda eps: egarch_filter(eps, _egarch()),
        lambda eps: garch11_filter(
            eps, Garch11Params(mu=0.0, alpha0=0.1, alpha1=0.1, gamma1=0.5, dist=T7)),
    ], ids=["egarch", "garch11"])
    def test_non_finite_residual_gives_inf_path(self, path, bad):
        # a direct call may pass what a ReturnSeries never holds; the likelihood rejects it
        eps = np.random.default_rng(6).standard_normal(60)
        eps[7] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h = path(eps)
        assert h.shape == (60,) and np.all(h == math.inf)


class TestMeanFilter:
    def test_constant_only(self, make_series):
        vals = [0.03, 0.05, 0.01] * 4
        r = make_series(vals)
        eps = mean_filter(r, MeanParams(mu=0.02))
        np.testing.assert_allclose(eps, [v - 0.02 for v in vals], atol=1e-15)

    def test_arma_hand_recursion(self, make_series):
        vals = [0.5, -0.2, 0.3, 0.1, -0.4, 0.2, 0.05, -0.1, 0.3, -0.2,
                0.15, 0.02, -0.3, 0.4, -0.05, 0.1]
        r = make_series(vals)
        mu, phi, theta = 0.05, 0.4, 0.25
        eps = mean_filter(r, MeanParams(mu=mu, ar=(phi,), ma=(theta,)))
        rbar = sum(vals) / len(vals)
        prev_r, prev_e = rbar, 0.0
        expected = []
        for v in vals:
            e = v - mu - phi * prev_r - theta * prev_e
            expected.append(e)
            prev_r, prev_e = v, e
        np.testing.assert_allclose(eps, expected, atol=1e-14)

    def test_requires_enough_data(self, make_series):
        r = make_series([0.01] * 12)
        with pytest.raises(Exception):
            mean_filter(r, MeanParams(mu=0.0, ar=(0.1, 0.2), ma=()))


class TestLoglik:
    def test_matches_scipy_oracle(self, make_series):
        rng = np.random.default_rng(1)
        r = make_series(rng.standard_normal(300) * 0.3)
        p = _egarch()
        h = egarch_filter(r.values, p)
        nu = 7.0
        s = math.sqrt((nu - 2.0) / nu)
        z = r.values / np.sqrt(h)
        expected = float(np.sum(stats.t.logpdf(z, nu, scale=s) - 0.5 * np.log(h)))
        assert egarch_loglik(r, p) == pytest.approx(expected, abs=1e-9)

    def test_garch_matches_scipy_oracle(self, make_series):
        rng = np.random.default_rng(2)
        r = make_series(rng.standard_normal(300) * 0.3)
        p = Garch11Params(mu=0.01, alpha0=0.02, alpha1=0.08, gamma1=0.9, dist=T7)
        eps = r.values - 0.01
        h = garch11_filter(eps, p)
        s = math.sqrt(5.0 / 7.0)
        z = eps / np.sqrt(h)
        expected = float(np.sum(stats.t.logpdf(z, 7.0, scale=s) - 0.5 * np.log(h)))
        assert garch11_loglik(r, p) == pytest.approx(expected, abs=1e-9)

    def test_divergent_path_is_minus_inf(self, make_series):
        r = make_series(np.resize([5.0, -5.0], 80))
        p = _egarch(omega=60.0, a_mag=40.0, b_pers=0.999)
        assert egarch_loglik(r, p) == -math.inf

    def test_explosive_ma_is_minus_inf(self, make_series):
        # |theta| > 1 makes the MA residuals grow like theta^t until they
        # overflow: a trial point to reject, not a degenerate series
        r = make_series(np.random.default_rng(4).standard_normal(1000))
        p = _egarch(mean=MeanParams(mu=0.0, ma=(3.0,)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert egarch_loglik(r, p) == -math.inf
            ll, g = egarch_score(r, p)
        assert ll == -math.inf
        assert g.shape == (7,) and np.all(np.isnan(g))

    def test_scale_equivariance_identity(self, make_series):
        # r -> c r maps (mu, omega) -> (c mu, omega + (1-b) log c^2) with
        # unchanged (a, xi, b, nu) and shifts the loglik by -n log c
        rng = np.random.default_rng(3)
        vals = rng.standard_normal(400) * 0.02 + 0.0005
        c = 37.5
        r1 = make_series(vals)
        r2 = make_series(vals * c)
        p1 = _egarch(omega=-0.35, mean=MeanParams(mu=0.0005))
        p2 = EgarchParams(
            mean=MeanParams(mu=0.0005 * c),
            omega=-0.35 + (1.0 - p1.b_pers) * math.log(c * c),
            a_mag=p1.a_mag, xi=p1.xi, b_pers=p1.b_pers, dist=p1.dist,
        )
        l1 = egarch_loglik(r1, p1)
        l2 = egarch_loglik(r2, p2)
        assert l2 == pytest.approx(l1 - 400 * math.log(c), rel=1e-12)


class TestSimulate:
    def test_deterministic(self):
        p = _egarch()
        a = simulate_egarch(p, 200, seed=9)
        b = simulate_egarch(p, 200, seed=9)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, simulate_egarch(p, 200, seed=10))

    def test_length_and_finiteness(self):
        x = simulate_egarch(_egarch(), 1000, seed=4)
        assert x.shape == (1000,)
        assert np.all(np.isfinite(x))

    def test_unconditional_scale(self):
        # uncond log h = omega / (1 - b) = -4 here, so sd(r) ~ exp(-2)
        x = simulate_egarch(_egarch(), 50_000, seed=5)
        assert x.std() == pytest.approx(math.exp(-2.0), rel=0.2)

    def test_garch_deterministic(self):
        p = Garch11Params(mu=0.0, alpha0=0.02, alpha1=0.08, gamma1=0.9, dist=T7)
        a = simulate_garch11(p, 300, seed=6)
        np.testing.assert_array_equal(a, simulate_garch11(p, 300, seed=6))
        assert a.std() == pytest.approx(1.0, rel=0.2)

    def test_mean_recursion_applied(self):
        p_flat = _egarch()
        p_mean = _egarch(mean=MeanParams(mu=0.3, ar=(0.5,)))
        x = simulate_egarch(p_mean, 20_000, seed=7)
        flat = simulate_egarch(p_flat, 20_000, seed=7)
        # AR(1) mean: E r = mu / (1 - phi)
        assert x.mean() == pytest.approx(0.6, abs=0.05)
        assert abs(flat.mean()) < 0.05



def _shocks_oracle(params, z):
    # the scalar log-variance loop _egarch_shocks had before its linear pass
    ez = abs_moment(params.dist)
    logh = params.omega / (1.0 - params.b_pers)
    eps = np.empty(len(z))
    for t, zt in enumerate(z):
        h = math.exp(logh)
        eps[t] = zt * math.sqrt(h)
        logh = (params.omega + params.a_mag * (abs(zt) - ez)
                + params.xi * zt + params.b_pers * logh)
    return eps


def _outcome(f, *args):
    try:
        return f(*args)
    except ArithmeticError as exc:
        return type(exc)


_LAWS = st.one_of(
    st.floats(2.05, 30.0).map(lambda nu: InnovationDist("student_t", shape=nu)),
    st.builds(lambda nu, lam: InnovationDist("skew_student_t", shape=nu, skew=lam),
              st.floats(2.05, 30.0), st.floats(0.5, 2.0)),
)


class TestShocksOracle:
    @settings(max_examples=200, deadline=None)
    @given(omega=st.floats(-30.0, 30.0), a_mag=st.floats(-1.0, 1.0), xi=st.floats(-1.0, 1.0),
           b_pers=st.floats(-0.999, 0.999), dist=_LAWS,
           z=st.lists(st.floats(-60.0, 60.0), min_size=1, max_size=80))
    # overflows at once, at the stationary start
    @example(omega=30.0, a_mag=0.1, xi=0.0, b_pers=0.99, dist=T7, z=[0.5, -1.0])
    # overflows part way along the path
    @example(omega=0.0, a_mag=1.0, xi=0.0, b_pers=0.95, dist=T7, z=[0.0] + [60.0] * 40)
    # h underflows to zero, and a negative z times it is -0.0
    @example(omega=-30.0, a_mag=0.0, xi=0.0, b_pers=0.99, dist=T7, z=[-1.0, 2.0])
    def test_bit_for_bit(self, omega, a_mag, xi, b_pers, dist, z):
        p = _egarch(omega=omega, a_mag=a_mag, xi=xi, b_pers=b_pers, dist=dist)
        z = np.array(z)
        want = _outcome(_shocks_oracle, p, z)
        got = _outcome(_egarch_shocks, p, z)
        if isinstance(want, type) or isinstance(got, type):
            assert got is want
        else:
            np.testing.assert_array_equal(got, want)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", [4, 9])
    def test_simulated_paths_bit_for_bit(self, seed):
        skew = InnovationDist("skew_student_t", shape=6.0, skew=0.8)
        for p in (_egarch(), _egarch(dist=skew), _egarch(b_pers=-0.5)):
            z = np.random.default_rng(seed).standard_t(7.0, 3000)
            assert _egarch_shocks(p, z).tobytes() == _shocks_oracle(p, z).tobytes()

class TestFit:
    def test_recovers_persistence(self, make_series):
        truth = _egarch()
        r = make_series(simulate_egarch(truth, 1200, seed=21))
        fit = fit_egarch(r)
        est = dict(zip(fit.param_names, fit.estimates))
        assert fit.converged
        assert est["b_pers"] == pytest.approx(0.95, abs=0.1)
        assert est["xi"] < 0.0
        assert fit.loglik == pytest.approx(egarch_loglik(r, fit.params), abs=1e-9)
        assert fit.aic == pytest.approx(2 * fit.k_params - 2 * fit.loglik, abs=1e-9)
        assert fit.aic_per_obs == pytest.approx(fit.aic / fit.n_obs, abs=1e-12)
        assert set(fit.std_errors) == set(fit.param_names)
        assert fit.h.shape == fit.z.shape == (1200,)

    def test_garch_recovers_sum(self, make_series):
        truth = Garch11Params(mu=0.0, alpha0=0.02, alpha1=0.08, gamma1=0.9, dist=T7)
        r = make_series(simulate_garch11(truth, 1500, seed=22))
        fit = fit_garch11(r)
        est = dict(zip(fit.param_names, fit.estimates))
        assert fit.converged
        assert est["alpha1"] + est["gamma1"] == pytest.approx(0.98, abs=0.08)
        assert est["alpha1"] >= 0.0 and est["gamma1"] >= 0.0
        assert est["alpha1"] + est["gamma1"] < 1.0

    def test_fit_scale_invariant_parameters(self, make_series):
        vals = simulate_egarch(_egarch(), 1000, seed=23)
        f1 = fit_egarch(make_series(vals))
        f2 = fit_egarch(make_series(vals * 250.0))
        e1 = dict(zip(f1.param_names, f1.estimates))
        e2 = dict(zip(f2.param_names, f2.estimates))
        for name in ("a_mag", "xi", "b_pers", "shape"):
            assert e2[name] == pytest.approx(e1[name], abs=5e-3)
        assert e2["mu"] == pytest.approx(250.0 * e1["mu"], abs=5e-3 * 250.0)
        assert f2.loglik == pytest.approx(f1.loglik - 1000 * math.log(250.0), rel=1e-6)

    def test_ar_coefficient_recovered(self, make_series):
        truth = _egarch(mean=MeanParams(mu=0.02, ar=(0.3,)))
        r = make_series(simulate_egarch(truth, 2000, seed=24))
        fit = fit_egarch(r, mean=MeanSpec(ar_order=1))
        est = dict(zip(fit.param_names, fit.estimates))
        assert est["ar1"] == pytest.approx(0.3, abs=0.1)

    def test_short_sample_warns(self, make_series, caplog):
        import logging

        r = make_series(simulate_egarch(_egarch(), 80, seed=25))
        with caplog.at_level(logging.WARNING, logger="volrisk.egarch"):
            fit_egarch(r)
        assert any("fragile" in m for m in caplog.messages)

    def test_single_outlier_still_converges(self, make_series):
        # one 300-sigma day pulls b_pers from 0.96 to 0.90 but the fit stays clean
        vals = simulate_egarch(_egarch(), 1000, seed=3)
        vals[500] = 300.0 * vals.std(ddof=1)
        r = make_series(vals)
        fit = fit_egarch(r)
        assert fit.converged
        assert all(math.isfinite(se) for se in fit.std_errors.values())
        assert fit.loglik == pytest.approx(egarch_loglik(r, fit.params), abs=1e-9)

    def test_constant_series_rejected(self, make_series):
        with pytest.raises(DegenerateSeriesError):
            fit_egarch(make_series([0.01] * 200))

    def test_skew_family_smoke(self, make_series):
        skew = InnovationDist("skew_student_t", shape=7.0, skew=0.8)
        truth = _egarch(dist=skew)
        r = make_series(simulate_egarch(truth, 1200, seed=26))
        fit = fit_egarch(r, family="skew_student_t")
        est = dict(zip(fit.param_names, fit.estimates))
        assert "skew" in est
        assert est["skew"] < 1.1


@pytest.fixture(scope="module")
def unit_fits():
    vals = simulate_egarch(_egarch(), 600, seed=41)
    r = _series(vals)
    return vals, fit_egarch(r), fit_garch11(r)


def _series(vals):
    dates = tuple(date(2019, 1, 1) + timedelta(days=i) for i in range(vals.size))
    return ReturnSeries(symbol="S", dates=dates, values=vals)


class TestScaleEquivariance:
    # c = 2^k scales every return exactly, and with them the sample
    # variance and its square root, so both fits see the same unit-variance
    # series and take the same steps; only the map back to the data scale
    # differs
    @settings(max_examples=10, deadline=None)
    @given(k=st.integers(-8, 8))
    @example(k=-5)
    @example(k=3)
    @example(k=7)
    def test_fits_on_power_of_two_multiples(self, unit_fits, k):
        vals, e1, g1 = unit_fits
        c = 2.0 ** k
        e2 = fit_egarch(_series(c * vals))
        p1 = dict(zip(e1.param_names, e1.estimates))
        p2 = dict(zip(e2.param_names, e2.estimates))
        for name in ("a_mag", "xi", "b_pers", "shape"):
            assert p2[name] == p1[name]
        assert e2.converged == e1.converged
        assert p2["mu"] == c * p1["mu"]
        assert abs(p2["omega"] - p1["omega"] - (1.0 - p1["b_pers"]) * math.log(c * c)) <= 1e-12
        assert abs(e2.loglik - e1.loglik + vals.size * math.log(c)) <= 1e-9
        g2 = fit_garch11(_series(c * vals))
        q1 = dict(zip(g1.param_names, g1.estimates))
        q2 = dict(zip(g2.param_names, g2.estimates))
        for name in ("alpha1", "gamma1", "shape"):
            assert q2[name] == q1[name]


class TestFitRule:
    SPACE = ParamSpace((("a", "free"), ("b", "positive")))

    @staticmethod
    def _bowl(ripple=0.0, edge=math.inf):
        # the score is the smooth bowl's; a fine ripple in the value keeps its
        # difference gradient far above 1e-3, as a kink the score does not
        # see would, and points with a > edge are rejected
        def neg_score(x):
            if x[0] > edge:
                return math.inf, np.zeros(2)
            f = (x[0] - 0.3) ** 2 + (math.log(x[1]) - 0.5) ** 2 + ripple * math.sin(1e6 * x[0])
            return f, np.array([2.0 * (x[0] - 0.3), 2.0 * (math.log(x[1]) - 0.5) / x[1]])

        return neg_score

    def _difference_rule(self, neg_score, x):
        # the every-coordinate central-difference rule: max |df/dy| < 1e-3
        g = finite_diff_gradient(lambda y: neg_score(self.SPACE.from_unconstrained(y))[0],
                                 self.SPACE.to_unconstrained(x))
        return float(np.max(np.abs(g))) < 1e-3

    @pytest.mark.parametrize("ripple", [0.0, 1e-3])
    def test_converged_is_gradient_rule(self, ripple):
        # BFGS settles on the ripple's bowl, but the fit does not converge
        neg_score = self._bowl(ripple)
        best, converged = _fit(neg_score, self.SPACE, [0.0, 1.0])
        assert converged is (ripple == 0.0)
        assert converged == self._difference_rule(neg_score, best.x_opt)
        assert best.x_opt[0] == pytest.approx(0.3, abs=1e-2)

    def test_minimum_on_the_edge_of_a_rejected_region_does_not_converge(self):
        # the bowl's minimum a = 0.3 borders points the loglik rejects, so a
        # difference of the converged check steps onto one
        neg_score = self._bowl(edge=0.3)
        best, converged = _fit(neg_score, self.SPACE, [0.0, 1.0])
        assert best.x_opt[0] == pytest.approx(0.3, abs=1e-4)
        assert converged is False
        with pytest.raises(ValueError):
            self._difference_rule(neg_score, best.x_opt)

    @pytest.mark.parametrize("ripple", [0.0, 1e-3])
    def test_start_at_the_minimizer_differences_every_coordinate(self, ripple):
        # BFGS takes no step, so the difference runs along (1, 1) / sqrt(2)
        x0 = [0.3, math.exp(0.5)]
        best, converged = _fit(self._bowl(ripple), self.SPACE, x0)
        np.testing.assert_array_equal(self.SPACE.to_unconstrained(best.x_opt),
                                      self.SPACE.to_unconstrained(x0))
        assert converged is (ripple == 0.0)


class TestObjectives:
    SPEC = MeanSpec()

    def _objectives(self, r):
        return _objectives(lambda x: egarch_params_from_vector(self.SPEC, "student_t", x),
                           lambda p: egarch_score(r, p), 6)

    def test_rejected_vector_scores_inf(self, make_series):
        r = make_series(np.random.default_rng(5).standard_normal(300))
        neg_score = self._objectives(r)
        for x in ([0.0, -0.1, 0.1, -0.05, 1.0, 8.0],    # b_pers on the bound
                  [0.0, -0.1, 0.1, -0.05, 0.9, 2.0]):   # shape on the bound
            with pytest.raises(ValueError):
                egarch_params_from_vector(self.SPEC, "student_t", x)
            f, g = neg_score(x)
            assert f == math.inf
            np.testing.assert_array_equal(g, np.zeros(6))

    def test_feasible_vector_negates(self, make_series):
        r = make_series(np.random.default_rng(5).standard_normal(300))
        neg_score = self._objectives(r)
        x = [0.0, -0.1, 0.1, -0.05, 0.9, 8.0]
        params = egarch_params_from_vector(self.SPEC, "student_t", x)
        ll, g = egarch_score(r, params)
        f, ng = neg_score(x)
        assert f == -ll == -egarch_loglik(r, params)
        np.testing.assert_array_equal(ng, -g)


# the position-counting decoders that egarch_params_from_vector and
# garch11_params_from_vector replaced, kept verbatim as oracles

def _oracle_egarch_params_from_vector(mean: MeanSpec, family: str, x) -> EgarchParams:
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


def _oracle_garch11_params_from_vector(family: str, x) -> Garch11Params:
    x = list(map(float, x))
    mu, alpha0, alpha1, gamma1, shape = x[:5]
    skew = x[5] if family == "skew_student_t" else 1.0
    return Garch11Params(
        mu=mu, alpha0=alpha0, alpha1=alpha1, gamma1=gamma1,
        dist=InnovationDist(family=family, shape=shape, skew=skew),
    )


def _reprs(params):
    # every field of a params tree, floats by repr so that -0.0 differs from 0.0
    if isinstance(params, float):
        return repr(params)
    if isinstance(params, tuple):
        return tuple(map(_reprs, params))
    if hasattr(params, "__dataclass_fields__"):
        return (type(params).__name__,
                tuple((n, _reprs(getattr(params, n))) for n in params.__dataclass_fields__))
    return params


_FREE = st.floats(allow_nan=False, allow_infinity=False)
_SHAPE = st.floats(2.0, 500.0, exclude_min=True, exclude_max=True)
_SKEW = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_FAMILIES = ("student_t", "skew_student_t")
_SPECS = [MeanSpec(), MeanSpec(ar_order=2, ma_order=1, include_constant=False),
          MeanSpec(ar_order=5, ma_order=5)]


def _law(draw, family):
    return [draw(_SHAPE)] + ([draw(_SKEW)] if family == "skew_student_t" else [])


class TestDecoders:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), p=st.integers(0, 5), q=st.integers(0, 5),
           constant=st.booleans(), family=st.sampled_from(_FAMILIES))
    def test_egarch_matches_the_position_counting_decoder(self, data, p, q, constant, family):
        spec = MeanSpec(ar_order=p, ma_order=q, include_constant=constant)
        x = data.draw(st.lists(_FREE, min_size=constant + p + q + 3,
                               max_size=constant + p + q + 3))
        x += [data.draw(st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True))]
        x += _law(data.draw, family)
        assert len(x) == egarch_param_space(spec, family).dimension
        assert (_reprs(egarch_params_from_vector(spec, family, x))
                == _reprs(_oracle_egarch_params_from_vector(spec, family, x)))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), family=st.sampled_from(_FAMILIES))
    def test_garch11_matches_the_position_counting_decoder(self, data, family):
        alpha1 = data.draw(st.floats(0.0, 1.0, exclude_max=True))
        gamma1 = data.draw(st.floats(0.0, 1.0, exclude_max=True))
        assume(alpha1 + gamma1 < 1.0)
        x = [data.draw(_FREE), data.draw(st.floats(min_value=0.0, exclude_min=True,
                                                   allow_infinity=False)),
             alpha1, gamma1] + _law(data.draw, family)
        assert len(x) == garch11_param_space(family).dimension
        assert (_reprs(garch11_params_from_vector(family, x))
                == _reprs(_oracle_garch11_params_from_vector(family, x)))

    @pytest.mark.parametrize("family", _FAMILIES)
    @pytest.mark.parametrize("spec", _SPECS)
    @pytest.mark.parametrize("extra", [-1, 1])
    def test_egarch_rejects_a_vector_of_the_wrong_length(self, make_series, family, spec, extra):
        space = egarch_param_space(spec, family)
        x0 = space.from_unconstrained(np.zeros(space.dimension))
        x = np.append(x0, 0.5)[: space.dimension + extra]
        with pytest.raises(ValueError, match=f"expected {space.dimension} parameters"):
            egarch_params_from_vector(spec, family, x)
        r = make_series(np.random.default_rng(5).standard_normal(300))
        neg_score = _objectives(lambda v: egarch_params_from_vector(spec, family, v),
                                lambda params: egarch_score(r, params), space.dimension)
        f, g = neg_score(x)
        assert f == math.inf
        np.testing.assert_array_equal(g, np.zeros(space.dimension))

    @pytest.mark.parametrize("family", _FAMILIES)
    @pytest.mark.parametrize("extra", [-1, 1])
    def test_garch11_rejects_a_vector_of_the_wrong_length(self, make_series, family, extra):
        space = garch11_param_space(family)
        x0 = space.from_unconstrained(np.zeros(space.dimension))
        x = np.append(x0, 0.5)[: space.dimension + extra]
        with pytest.raises(ValueError, match=f"expected {space.dimension} parameters"):
            garch11_params_from_vector(family, x)
        r = make_series(np.random.default_rng(5).standard_normal(300))
        neg_score = _objectives(lambda v: garch11_params_from_vector(family, v),
                                lambda params: garch11_score(r, params), space.dimension)
        f, g = neg_score(x)
        assert f == math.inf
        np.testing.assert_array_equal(g, np.zeros(space.dimension))


class TestStdErrors:
    SPACE = ParamSpace((("a", "free"), ("b", "positive")))

    def test_quadratic_curvature(self):
        # f = (a - 0.3)^2 / (2 s^2) has standard error s in a
        def grad(x):
            return np.array([(x[0] - 0.3) / 0.04, 2.0 * (math.log(x[1]) - 0.5) / x[1]])

        se = _std_errors(grad, self.SPACE, np.array([0.3, math.exp(0.5)]), "bowl")
        assert se["a"] == pytest.approx(0.2, rel=1e-6)
        # b = exp(y) with curvature 2 in y: se(b) = exp(0.5) / sqrt(2)
        assert se["b"] == pytest.approx(math.exp(0.5) / math.sqrt(2.0), rel=1e-6)

    def test_flat_direction_gives_nan_and_warns(self, caplog):
        import logging

        def grad(x):
            return np.array([2.0 * (x[0] - 0.3), 0.0])  # nothing depends on b

        with caplog.at_level(logging.WARNING, logger="volrisk.optimize"):
            se = _std_errors(grad, self.SPACE, np.array([0.3, 1.0]), "FLAT")
        assert all(math.isnan(v) for v in se.values())
        assert any("FLAT" in m and "singular" in m for m in caplog.messages)


def _loop_varying(c, V):
    D = np.array(V, dtype=float)
    for t in range(1, D.shape[0]):
        D[t] += c[t - 1] * D[t - 1]
    return D


def _assert_agrees(g, want, rtol):
    # relative to each component, with the vector's size as the floor
    np.testing.assert_allclose(g, want, rtol=rtol, atol=rtol * np.max(np.abs(want)))


def _assert_score(score, value, x, rtol=1e-5):
    ll, g = score(x)
    fd = finite_diff_gradient(value, np.asarray(x, dtype=float))
    assert ll == value(x)
    _assert_agrees(g, fd, rtol)


def _contract(eps, h, deps, dlogh, d):
    # the gradient from sensitivity columns: dlogh holds d log h_t / d theta
    # for every parameter, contracted with a_t = -(1 + psi_t z_t) / 2
    sq = np.sqrt(h)
    z = eps / sq
    _, psi, dlaw = logpdf_grad(d, z)
    g = dlogh.T @ (-0.5 * (1.0 + psi * z))
    g[: deps.shape[1]] += deps.T @ (psi / sq)
    g[-dlaw.shape[1]:] += dlaw.sum(axis=0)
    return g


def _forward_egarch_gradient(r, params):
    # forward mode: D_t = c_t D_{t-1} + v_t scanned for all n parameters
    # at once, a (T, n) sensitivity matrix, then contracted
    d = params.dist
    eps, deps = _checked_resid(r, params.mean, grad=True)
    h = egarch_filter(eps, params)
    nm = deps.shape[1]
    dez = abs_moment_grad(d)
    z = eps[:-1] / np.sqrt(h[:-1])
    a, xi = params.a_mag, params.xi
    V = np.zeros((eps.size, nm + 4 + dez.size))
    V[0, :nm] = 2.0 * ((eps - eps.mean()) @ deps) / (eps.size * h[0])
    V[1:, :nm] = ((a * np.sign(z) + xi) / np.sqrt(h[:-1]))[:, None] * deps[:-1]
    V[1:, nm] = 1.0
    V[1:, nm + 1] = np.abs(z) - abs_moment(d)
    V[1:, nm + 2] = z
    V[1:, nm + 3] = np.log(h[:-1])
    V[1:, nm + 4:] = -a * dez
    D = _scan_varying(params.b_pers - 0.5 * (a * np.abs(z) + xi * z), V)
    return _contract(eps, h, deps, D, d)


def _forward_garch_gradient(r, params):
    # forward mode: d h_t / d theta = x_t + gamma1 d h_{t-1} / d theta
    eps = r.values - params.mu
    h = garch11_filter(eps, params)
    X = np.zeros((eps.size, 4))
    X[1:, 0] = -2.0 * params.alpha1 * eps[:-1]
    X[1:, 1] = 1.0
    X[1:, 2] = eps[:-1] ** 2
    X[1:, 3] = h[:-1]
    dlogh = np.zeros((eps.size, 5 if params.dist.family == "student_t" else 6))
    dlogh[:, :4] = _scan(X, params.gamma1) / h[:, None]
    return _contract(eps, h, np.full((eps.size, 1), -1.0), dlogh, params.dist)


class TestScore:
    @pytest.mark.parametrize("T", [1, 2, 7, 1000])
    def test_varying_scan_matches_loop(self, T):
        # error measured on the loop run with |c| and |V|, the scale of the
        # sums before any cancellation
        rng = np.random.default_rng(T)
        c = rng.uniform(-1.1, 1.1, size=T - 1)
        V = rng.standard_normal((T, 4))
        got = _scan_varying(c, V)
        scale = _loop_varying(np.abs(c), np.abs(V))
        assert np.all(np.abs(got - _loop_varying(c, V)) <= 1e-12 * scale)

    @pytest.mark.parametrize("beta", [-0.6, 0.97, 0.999])
    @pytest.mark.parametrize("shape", [(), (3,), (2, 5)])
    @pytest.mark.parametrize("T", [1, 2, 7, 1000])
    def test_constant_scan_matches_loop(self, T, shape, beta):
        # the loop with a constant coefficient, error measured as above
        Y = np.random.default_rng(T).standard_normal((T,) + shape)
        c = np.full(T - 1, beta)
        want, scale = _loop_varying(c, Y), _loop_varying(np.abs(c), np.abs(Y))
        got = _scan(Y, beta)
        assert got is Y
        assert np.all(np.abs(got - want) <= 1e-13 * scale)

    @pytest.mark.parametrize("gamma1", [0.0, 0.5, 0.9, 0.999])
    def test_garch_filter_matches_loop(self, gamma1):
        rng = np.random.default_rng(5)
        eps = rng.standard_normal(3000)
        p = Garch11Params(mu=0.0, alpha0=0.05, alpha1=0.0009, gamma1=gamma1, dist=T7)
        prev = float(eps.var())
        loop = [prev]
        for e in eps[:-1]:
            prev = 0.05 + 0.0009 * e * e + gamma1 * prev
            loop.append(prev)
        np.testing.assert_allclose(garch11_filter(eps, p), loop, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("family,spec", [
        ("student_t", MeanSpec()),
        ("skew_student_t", MeanSpec()),
        ("student_t", MeanSpec(ar_order=1, ma_order=1)),
    ])
    def test_egarch_score_matches_differences(self, make_series, family, spec):
        rng = np.random.default_rng(11)
        vals = simulate_egarch(_egarch(), 800, seed=31)
        r = make_series(vals / vals.std())
        for _ in range(3):
            x = [rng.uniform(-0.05, 0.05)]
            x += list(rng.uniform(-0.2, 0.2, size=spec.ar_order + spec.ma_order))
            x += [rng.uniform(-0.05, 0.05), rng.uniform(0.05, 0.2),
                  rng.uniform(-0.1, 0.0), rng.uniform(0.85, 0.97), rng.uniform(4.0, 12.0)]
            if family == "skew_student_t":
                x.append(rng.uniform(0.7, 1.3))
            _assert_score(
                lambda xx: egarch_score(r, egarch_params_from_vector(spec, family, xx)),
                lambda xx: egarch_loglik(r, egarch_params_from_vector(spec, family, xx)),
                x,
            )

    @pytest.mark.parametrize("family", ["student_t", "skew_student_t"])
    @pytest.mark.parametrize("spec", [MeanSpec(), MeanSpec(ar_order=1, ma_order=1)])
    def test_egarch_adjoint_matches_forward_sensitivities(self, make_series, family, spec):
        rng = np.random.default_rng(13)
        vals = simulate_egarch(_egarch(), 800, seed=31)
        r = make_series(vals / vals.std())
        for _ in range(3):
            x = [rng.uniform(-0.05, 0.05)]
            x += list(rng.uniform(-0.2, 0.2, size=spec.ar_order + spec.ma_order))
            x += [rng.uniform(-0.05, 0.05), rng.uniform(0.05, 0.2),
                  rng.uniform(-0.1, 0.0), rng.uniform(0.85, 0.97), rng.uniform(4.0, 12.0)]
            if family == "skew_student_t":
                x.append(rng.uniform(0.7, 1.3))
            params = egarch_params_from_vector(spec, family, x)
            ll, g = egarch_score(r, params)
            assert ll == egarch_loglik(r, params)
            _assert_agrees(g, _forward_egarch_gradient(r, params), 1e-9)

    @pytest.mark.parametrize("family", ["student_t", "skew_student_t"])
    def test_garch_adjoint_matches_forward_sensitivities(self, make_series, family):
        rng = np.random.default_rng(14)
        truth = Garch11Params(mu=0.0, alpha0=0.02, alpha1=0.08, gamma1=0.9, dist=T7)
        vals = simulate_garch11(truth, 800, seed=32)
        r = make_series(vals / vals.std())
        for _ in range(3):
            a1 = rng.uniform(0.03, 0.15)
            x = [rng.uniform(-0.05, 0.05), rng.uniform(0.01, 0.1), a1,
                 rng.uniform(0.6, 0.97 - a1), rng.uniform(4.0, 12.0)]
            if family == "skew_student_t":
                x.append(rng.uniform(0.7, 1.3))
            params = garch11_params_from_vector(family, x)
            ll, g = garch11_score(r, params)
            assert ll == garch11_loglik(r, params)
            _assert_agrees(g, _forward_garch_gradient(r, params), 1e-9)

    def test_garch_score_matches_differences(self, make_series):
        rng = np.random.default_rng(12)
        truth = Garch11Params(mu=0.0, alpha0=0.02, alpha1=0.08, gamma1=0.9, dist=T7)
        vals = simulate_garch11(truth, 800, seed=32)
        r = make_series(vals / vals.std())
        for family in ("student_t", "skew_student_t"):
            a1 = rng.uniform(0.03, 0.15)
            x = [rng.uniform(-0.05, 0.05), rng.uniform(0.01, 0.1), a1,
                 rng.uniform(0.6, 0.97 - a1), rng.uniform(4.0, 12.0)]
            if family == "skew_student_t":
                x.append(rng.uniform(0.7, 1.3))
            _assert_score(
                lambda xx: garch11_score(r, garch11_params_from_vector(family, xx)),
                lambda xx: garch11_loglik(r, garch11_params_from_vector(family, xx)),
                x,
            )

    def test_mu_score_jumps_at_a_return(self, make_series):
        # with mu exactly at one return, z_t = 0 sits on the |z| kink of the
        # recursion: the score's mu component differs across mu +- 1e-9 by
        # the kink's own size, which central differences straddle
        vals = simulate_egarch(_egarch(), 1000, seed=33)
        vals = vals / vals.std()
        r = make_series(vals)
        space = egarch_param_space(MeanSpec(), "student_t")
        x = np.array([vals[500], 0.0, 0.15, -0.08, 0.95, 7.0])
        g = []
        for mu in (vals[500] - 1e-9, vals[500] + 1e-9):
            x[0] = mu
            g.append(egarch_score(r, egarch_params_from_vector(MeanSpec(), "student_t", x))[1][0])
        assert space.names[0] == "mu"
        assert abs(g[1] - g[0]) > 1e-3

    def test_divergent_path_score(self, make_series):
        r = make_series(np.resize([5.0, -5.0], 80))
        ll, g = egarch_score(r, _egarch(omega=60.0, a_mag=40.0, b_pers=0.999))
        assert ll == -math.inf
        assert np.all(np.isnan(g))

    def test_garch_divergent_path_score(self, make_series):
        # eps^2 overflows to inf in h
        x = np.random.default_rng(5).standard_normal(300)
        x[10] = 1e200
        params = Garch11Params(mu=0.0, alpha0=0.1, alpha1=0.1, gamma1=0.5, dist=T7)
        with np.errstate(over="ignore"):
            ll, g = garch11_score(make_series(x), params)
        assert ll == -math.inf
        assert g.shape == (5,) and np.all(np.isnan(g))

    def test_garch_divergent_path_warns_nothing(self, make_series):
        # library calls count on no caller to silence numpy's warnings
        x = np.random.default_rng(5).standard_normal(300)
        x[10] = 1e200
        params = Garch11Params(mu=0.0, alpha0=0.1, alpha1=0.1, gamma1=0.5, dist=T7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ll, g = garch11_score(make_series(x), params)
            assert garch11_loglik(make_series(x), params) == -math.inf
        assert ll == -math.inf and np.all(np.isnan(g))


_G11 = Garch11Params(mu=0.0, alpha0=0.1, alpha1=0.1, gamma1=0.5, dist=T7)


@pytest.mark.parametrize("call, exc, message", [
    (lambda: MeanParams(ar=[0.1] * 6), ValueError, "AR/MA orders capped at 5"),
    (lambda: _egarch(omega=math.inf), ValueError, "omega must be finite"),
    (lambda: Garch11Params(mu=0.0, alpha0=0.1, alpha1=-0.1, gamma1=0.5, dist=T7),
     ValueError, "alpha1 and gamma1 must be nonnegative"),
    (lambda: garch11_filter(np.zeros(50), _G11), DegenerateSeriesError,
     "degenerate: zero variance"),
    (lambda: simulate_egarch(_egarch(), 0, seed=1), ValueError, "n must be >= 1, got 0"),
    (lambda: simulate_garch11(_G11, 0, seed=1), ValueError, "n must be >= 1, got 0"),
    (lambda: egarch_param_space(MeanSpec(), "normal"), ValueError, "unknown family 'normal'"),
    (lambda: garch11_params_from_vector("normal", [0.0] * 5), ValueError,
     "unknown family 'normal'"),
])
def test_validation_branches(call, exc, message):
    with pytest.raises(exc, match=f"^{re.escape(message)}$"):
        call()


class TestParamValidation:
    def test_b_pers_bounds(self):
        with pytest.raises(ValueError):
            _egarch(b_pers=1.0)

    def test_garch_stationarity(self):
        with pytest.raises(ValueError):
            Garch11Params(mu=0.0, alpha0=0.1, alpha1=0.5, gamma1=0.5, dist=T7)
        with pytest.raises(ValueError):
            Garch11Params(mu=0.0, alpha0=-0.1, alpha1=0.1, gamma1=0.5, dist=T7)

    def test_space_names(self):
        space = egarch_param_space(MeanSpec(ar_order=1, ma_order=2), "skew_student_t")
        assert space.names == (
            "mu", "ar1", "ma1", "ma2", "omega", "a_mag", "xi", "b_pers",
            "shape", "skew",
        )

    def test_aic_identity(self):
        assert aic(-100.0, 3) == 206.0
        with pytest.raises(ValueError):
            aic(-100.0, 0)
