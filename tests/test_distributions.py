import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from volrisk.distributions import (
    InnovationDist,
    _ndtri,
    _skew_moments,
    _t_cdf,
    _t_const,
    _t_const_dnu,
    _t_ppf,
    abs_moment,
    cdf,
    logpdf,
    logpdf_grad,
    mvt_logpdf,
    quantile,
    sample,
)

NUS = (2.5, 4.0, 7.0, 12.0, 50.0)
LAMBDAS = (0.5, 0.8, 1.0, 1.3, 2.5)


def _pdf(d):
    return lambda x: float(np.exp(logpdf(d, x)))


def _kink(d):
    # the piecewise density is non-smooth where its two branches meet
    if d.family == "student_t":
        return 0.0
    mu_x, sig_x = _skew_moments(d.shape, d.skew)
    return -mu_x / sig_x


def _quad(f, lo=-np.inf, hi=np.inf, points=()):
    cuts = sorted(p for p in points if lo < p < hi)
    edges = [lo] + cuts + [hi]
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        v, err = integrate.quad(f, a, b, limit=400)
        assert err < 1e-7
        total += v
    return total


class TestConstruction:
    def test_rejects_small_shape(self):
        with pytest.raises(ValueError, match="shape"):
            InnovationDist("student_t", shape=2.0)

    def test_rejects_bad_skew(self):
        with pytest.raises(ValueError):
            InnovationDist("skew_student_t", shape=6.0, skew=0.0)
        with pytest.raises(ValueError):
            InnovationDist("skew_student_t", shape=6.0, skew=-1.0)

    def test_symmetric_family_fixes_skew(self):
        with pytest.raises(ValueError):
            InnovationDist("student_t", shape=6.0, skew=1.2)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="family"):
            InnovationDist("laplace", shape=6.0)

    def test_frozen(self):
        d = InnovationDist("student_t", shape=6.0)
        with pytest.raises(Exception):
            d.shape = 7.0


@pytest.mark.parametrize("nu", NUS)
def test_t_density_is_standardized(nu):
    d = InnovationDist("student_t", shape=nu)
    pdf = _pdf(d)
    assert _quad(pdf, points=(0.0,)) == pytest.approx(1.0, abs=1e-8)
    assert _quad(lambda x: x * pdf(x), points=(0.0,)) == pytest.approx(0.0, abs=1e-8)
    if nu > 4.0:
        # second moment integral converges too slowly for nu near 2
        assert _quad(lambda x: x * x * pdf(x), points=(0.0,)) == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("nu", NUS)
@pytest.mark.parametrize("lam", LAMBDAS)
def test_skew_density_is_standardized(nu, lam):
    d = InnovationDist("skew_student_t", shape=nu, skew=lam)
    pdf = _pdf(d)
    c = _kink(d)
    assert _quad(pdf, points=(c,)) == pytest.approx(1.0, abs=1e-8)
    assert _quad(lambda x: x * pdf(x), points=(c,)) == pytest.approx(0.0, abs=1e-8)


def test_t_logpdf_matches_scipy():
    # a rescaled scipy.stats.t is an independent implementation
    for nu in NUS:
        d = InnovationDist("student_t", shape=nu)
        s = math.sqrt((nu - 2.0) / nu)
        z = np.linspace(-8.0, 8.0, 41)
        expected = stats.t.logpdf(z, nu, scale=s)
        np.testing.assert_allclose(logpdf(d, z), expected, atol=1e-12)


def test_t_cdf_matches_scipy():
    for nu in NUS:
        d = InnovationDist("student_t", shape=nu)
        s = math.sqrt((nu - 2.0) / nu)
        z = np.linspace(-6.0, 6.0, 25)
        np.testing.assert_allclose(cdf(d, z), stats.t.cdf(z, nu, scale=s), atol=1e-12)


def test_skew_cdf_is_integral_of_pdf():
    d = InnovationDist("skew_student_t", shape=6.0, skew=1.5)
    for z in (-2.0, -0.5, 0.0, 0.7, 2.5):
        expected = _quad(_pdf(d), -np.inf, z)
        assert float(cdf(d, z)) == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("family,kw", [
    ("student_t", {}),
    ("skew_student_t", {"skew": 0.7}),
    ("skew_student_t", {"skew": 1.8}),
])
def test_quantile_cdf_round_trip(family, kw):
    d = InnovationDist(family, shape=5.0, **kw)
    for p in (1e-6, 0.001, 0.01, 0.1, 0.25, 0.5, 0.9, 0.99, 0.999999):
        q = quantile(d, p)
        assert float(cdf(d, q)) == pytest.approx(p, abs=1e-10)


def test_quantile_matches_scipy_for_t():
    nu = 9.0
    d = InnovationDist("student_t", shape=nu)
    s = math.sqrt((nu - 2.0) / nu)
    for p in (0.01, 0.05, 0.5, 0.95):
        assert quantile(d, p) == pytest.approx(stats.t.ppf(p, nu, scale=s), abs=1e-10)


def test_quantile_rejects_boundary_p():
    d = InnovationDist("student_t", shape=5.0)
    for p in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            quantile(d, p)


@pytest.mark.parametrize("nu", NUS)
@pytest.mark.parametrize("lam", (0.6, 1.0, 1.7))
def test_abs_moment_matches_quadrature(nu, lam):
    d = InnovationDist("skew_student_t", shape=nu, skew=lam)
    pdf = _pdf(d)
    expected = _quad(lambda x: abs(x) * pdf(x), points=(_kink(d), 0.0))
    assert abs_moment(d) == pytest.approx(expected, abs=1e-8)


def test_abs_moment_symmetric_closed_form():
    # E|z| = 2 sqrt(nu-2) Gamma((nu+1)/2) / (sqrt(pi) (nu-1) Gamma(nu/2))
    for nu in NUS:
        d = InnovationDist("student_t", shape=nu)
        expected = (2.0 * math.sqrt(nu - 2.0) * math.gamma((nu + 1.0) / 2.0)
                    / (math.sqrt(math.pi) * (nu - 1.0) * math.gamma(nu / 2.0)))
        assert abs_moment(d) == pytest.approx(expected, rel=1e-12)


def test_skew_at_unity_reduces_to_symmetric():
    sym = InnovationDist("student_t", shape=6.0)
    skw = InnovationDist("skew_student_t", shape=6.0, skew=1.0)
    z = np.linspace(-5.0, 5.0, 101)
    np.testing.assert_array_equal(logpdf(skw, z), logpdf(sym, z))
    np.testing.assert_array_equal(cdf(skw, z), cdf(sym, z))
    for p in (0.01, 0.3, 0.5, 0.77, 0.99):
        assert quantile(skw, p) == quantile(sym, p)
    assert abs_moment(skw) == abs_moment(sym)


@pytest.mark.parametrize("law", [InnovationDist("student_t", shape=5.0),
                                 InnovationDist("skew_student_t", shape=5.0, skew=1.5)],
                         ids=["t", "skew_t"])
@pytest.mark.parametrize("fn, expected", [
    (logpdf, [-np.inf] * 5),
    (lambda d, z: logpdf_grad(d, z)[0], [-np.inf] * 5),
    (cdf, [1.0, 0.0, 1.0, 0.0, np.nan]),
], ids=["logpdf", "logpdf_grad", "cdf"])
def test_extreme_arguments_raise_no_numpy_warning(law, fn, expected):
    # a z whose square overflows, an infinite z and nan take their limits
    # without numpy's overflow or invalid-value warnings reaching the caller
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = fn(law, np.array([1e200, -1e200, np.inf, -np.inf, np.nan]))
    np.testing.assert_array_equal(got, expected)


class TestSample:
    def test_deterministic(self):
        d = InnovationDist("skew_student_t", shape=7.0, skew=1.4)
        a = sample(d, 500, seed=11)
        b = sample(d, 500, seed=11)
        np.testing.assert_array_equal(a, b)
        c = sample(d, 500, seed=12)
        assert not np.array_equal(a, c)

    def test_moments(self):
        d = InnovationDist("student_t", shape=8.0)
        x = sample(d, 200_000, seed=5)
        assert x.mean() == pytest.approx(0.0, abs=0.01)
        assert x.var() == pytest.approx(1.0, abs=0.03)

    def test_skew_direction(self):
        left = sample(InnovationDist("skew_student_t", shape=8.0, skew=0.6), 100_000, seed=9)
        right = sample(InnovationDist("skew_student_t", shape=8.0, skew=1.8), 100_000, seed=9)
        assert stats.skew(left) < -0.2
        assert stats.skew(right) > 0.2

    def test_empty(self):
        d = InnovationDist("student_t", shape=8.0)
        assert sample(d, 0, seed=1).shape == (0,)
        with pytest.raises(ValueError):
            sample(d, -1, seed=1)


class TestMvt:
    def test_center_value_bivariate(self):
        # hand-evaluated density at the origin, identity correlation, nu=6
        val = mvt_logpdf(np.zeros(2), np.eye(2), shape=6.0)
        assert val == pytest.approx(-1.4324119583011812, abs=1e-12)

    def test_univariate_case_matches_logpdf(self):
        d = InnovationDist("student_t", shape=5.5)
        for z in (-2.0, 0.0, 1.3):
            got = mvt_logpdf(np.array([z]), np.eye(1), shape=5.5)
            assert got == pytest.approx(float(logpdf(d, z)), abs=1e-12)

    def test_integrates_to_one(self):
        R = np.array([[1.0, 0.6], [0.6, 1.0]])
        nu = 7.0

        def pdf(y, x):
            return math.exp(mvt_logpdf(np.array([x, y]), R, nu))

        total, err = integrate.dblquad(pdf, -30, 30, -30, 30)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_asymmetric_matrix_rejected(self):
        R = np.array([[1.0, 0.4], [0.5, 1.0]])
        with pytest.raises(ValueError):
            mvt_logpdf(np.zeros(2), R, shape=6.0)

    def test_non_pd_matrix_rejected(self):
        R = np.array([[1.0, 1.2], [1.2, 1.0]])
        with pytest.raises(ValueError, match="positive definite"):
            mvt_logpdf(np.zeros(2), R, shape=6.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mvt_logpdf(np.zeros(3), np.eye(2), shape=6.0)

    def test_shape_at_two_rejected(self):
        with pytest.raises(ValueError, match=r"^shape must be > 2, got 2\.0$"):
            mvt_logpdf(np.zeros(2), np.eye(2), shape=2.0)


class TestSpecialFunctions:
    # scipy is the independent reference for the in-package special functions
    NU = (2.05, 2.5, 3.0, 5.0, 8.0, 30.0, 200.0, 1e4)
    LOWER = 10.0 ** -np.linspace(0.31, 12.0, 60)  # 0.49 down to 1e-12
    P = np.sort(np.concatenate([LOWER, [0.5], 1.0 - LOWER]))

    @pytest.mark.parametrize("nu", NU)
    def test_t_ppf_matches_scipy(self, nu):
        s = math.sqrt((nu - 2.0) / nu)
        expected = special.stdtrit(nu, self.P) * s
        np.testing.assert_allclose(_t_ppf(self.P, nu), expected, rtol=1e-11, atol=1e-300)

    @pytest.mark.parametrize("nu", NU)
    def test_t_cdf_matches_scipy(self, nu):
        s = math.sqrt((nu - 2.0) / nu)
        z = special.stdtrit(nu, self.P) * s
        got, expected = _t_cdf(z, nu), special.stdtr(nu, z / s)
        lower = z <= 0.0
        # relative in the lower tail; above the median a cdf is 1 - tail,
        # which holds only absolute precision (5e-14 at nu = 1e4, where the
        # continued fraction runs to thousands of terms)
        np.testing.assert_allclose(got[lower], expected[lower], rtol=1e-11, atol=0.0)
        np.testing.assert_allclose(got[~lower], expected[~lower], rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("nu", NU)
    def test_t_round_trip(self, nu):
        z = _t_ppf(self.P, nu)
        np.testing.assert_allclose(_t_cdf(-np.abs(z), nu), np.minimum(self.P, 1.0 - self.P),
                                   rtol=1e-11, atol=0.0)
        assert np.all(np.diff(z) > 0.0)

    def test_t_ppf_ends(self):
        z = _t_ppf(np.array([0.0, 0.5, 1.0, np.nan]), 5.0)
        assert z[0] == -np.inf and z[1] == 0.0 and z[2] == np.inf and np.isnan(z[3])
        c = _t_cdf(np.array([-np.inf, 0.0, np.inf, np.nan]), 5.0)
        assert c[0] == 0.0 and c[1] == 0.5 and c[2] == 1.0 and np.isnan(c[3])

    @pytest.mark.parametrize("nu", NU)
    @pytest.mark.parametrize("k", [1, 2, 3, 8])
    def test_t_constants_match_scipy(self, nu, k):
        # lgamma and digamma at the nu/2 and (nu+k)/2 arguments of the
        # normalizing constant and its nu-derivative
        const = (special.gammaln((nu + k) / 2.0) - special.gammaln(nu / 2.0)
                 - 0.5 * k * math.log((nu - 2.0) * math.pi))
        dnu = (0.5 * (special.digamma((nu + k) / 2.0) - special.digamma(nu / 2.0))
               - 0.5 * k / (nu - 2.0))
        # a difference of two lgammas is exact only to their rounding, which
        # at nu = 1e4 is 1e-11 for scipy's as for math.lgamma's
        rounding = 4.0 * np.finfo(float).eps * special.gammaln((nu + k) / 2.0)
        assert _t_const(nu, k) == pytest.approx(const, rel=1e-14, abs=max(rounding, 1e-14))
        assert _t_const_dnu(nu, k) == pytest.approx(dnu, rel=1e-12, abs=1e-15)
        for a in (nu / 2.0, (nu + k) / 2.0):
            assert math.lgamma(a) == pytest.approx(special.gammaln(a), rel=1e-15, abs=1e-15)

    @settings(max_examples=300, deadline=None)
    @given(p=st.one_of(
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=1, max_value=1074).map(lambda e: 2.0 ** -e),
        st.floats(min_value=1e-300, max_value=1e-14),
        st.floats(min_value=1e-16, max_value=0.2).map(lambda t: 1.0 - t),
    ))
    @example(p=0.90)
    @example(p=0.95)
    @example(p=0.975)
    @example(p=0.99)
    @example(p=1.0 - 0.95)
    @example(p=1.0 - 0.99)
    @example(p=1.0)
    @example(p=1.5)
    def test_ndtri_bitwise_equal_to_scipy(self, p):
        assert struct.pack("<d", _ndtri(p)) == struct.pack("<d", float(special.ndtri(p)))
