import dataclasses
import math
import re
import types
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from volrisk.market_data import (
    _ADF_SURFACE,
    _LEVELS,
    DataError,
    DegenerateSeriesError,
    DescriptiveStats,
    PriceSeries,
    ReturnPanel,
    ReturnSeries,
    _quantiles,
    adf_test,
    align_panel,
    describe,
    jarque_bera,
    kpss_test,
    load_price_series,
    log_returns,
    pearson_correlation,
)

GOOD_CSV = """date,close
2020-01-02,100.0
2020-01-03,101.5
2020-01-06,99.8
2020-01-07,102.2
"""


class TestLoadPriceSeries:
    def test_basic(self, write_csv):
        p = load_price_series(write_csv("ACME.csv", GOOD_CSV))
        assert p.symbol == "ACME"
        assert p.dates[0] == date(2020, 1, 2)
        assert len(p) == 4
        np.testing.assert_allclose(p.close, [100.0, 101.5, 99.8, 102.2])

    def test_explicit_symbol_wins(self, write_csv):
        p = load_price_series(write_csv("whatever.csv", GOOD_CSV), symbol="DJI")
        assert p.symbol == "DJI"

    def test_column_mapping(self, write_csv):
        text = "Date,Adj Close\n2020-01-02,10\n2020-01-03,11\n"
        p = load_price_series(
            write_csv("m.csv", text), columns={"date": "Date", "close": "Adj Close"}
        )
        np.testing.assert_allclose(p.close, [10.0, 11.0])

    def test_rows_sorted_by_date(self, write_csv):
        text = "date,close\n2020-01-03,2\n2020-01-02,1\n2020-01-06,3\n"
        p = load_price_series(write_csv("u.csv", text))
        assert p.dates == (date(2020, 1, 2), date(2020, 1, 3), date(2020, 1, 6))
        np.testing.assert_allclose(p.close, [1.0, 2.0, 3.0])

    def test_missing_file(self):
        with pytest.raises(DataError, match="cannot read"):
            load_price_series("/does/not/exist.csv")

    def test_missing_column(self, write_csv):
        with pytest.raises(DataError, match="close"):
            load_price_series(write_csv("h.csv", "date,price\n2020-01-02,1\n"))

    def test_malformed_row_reports_position(self, write_csv):
        text = "date,close\n2020-01-02,100\nnot-a-date,101\n"
        with pytest.raises(DataError, match="row 3"):
            load_price_series(write_csv("bad.csv", text))

    def test_non_positive_price(self, write_csv):
        text = "date,close\n2020-01-02,100\n2020-01-03,-5\n"
        with pytest.raises(DataError, match="non-positive"):
            load_price_series(write_csv("neg.csv", text))

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
    @pytest.mark.parametrize("quote", ["", '"'])
    def test_non_finite_price(self, write_csv, cell, quote):
        # numpy.savetxt writes nan for a missing value; quoted cells take the
        # csv.reader path, plain ones the split
        rows = [("date", "close"), ("2020-01-02", "100"), ("2020-01-03", cell),
                ("2020-01-06", "101")]
        text = "".join(f"{quote}{d}{quote},{quote}{c}{quote}\n" for d, c in rows)
        with pytest.raises(DataError, match=r"nf\.csv: non-finite price at row 3$"):
            load_price_series(write_csv("nf.csv", text))

    def test_duplicate_date(self, write_csv):
        text = "date,close\n2020-01-02,100\n2020-01-02,101\n"
        with pytest.raises(DataError, match="duplicate"):
            load_price_series(write_csv("dup.csv", text))

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "latin.csv"
        path.write_bytes(b"date,close\n2020-01-02,1\n2020-01-03,2\xff\n")
        with pytest.raises(DataError, match=re.escape(f"cannot read {path}: 'utf-8' codec")):
            load_price_series(str(path))

    def test_byte_order_mark_skipped(self, tmp_path):
        # spreadsheets save "CSV UTF-8" with a leading BOM before the header
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfdate,close\n2020-01-02,100\n2020-01-03,101\n")
        p = load_price_series(str(path))
        assert [d.isoformat() for d in p.dates] == ["2020-01-02", "2020-01-03"]
        assert list(p.close) == [100.0, 101.0]

    def test_field_over_csv_limit(self, write_csv):
        path = write_csv("wide.csv", 'date,close\n2020-01-02,1\n2020-01-03,"' + "9" * 200_000 + '"\n')
        with pytest.raises(DataError, match=re.escape(f"{path}: unreadable CSV at line 3: field larger")):
            load_price_series(path)

    def test_too_short(self, write_csv):
        with pytest.raises(DataError):
            load_price_series(write_csv("one.csv", "date,close\n2020-01-02,1\n"))


class TestPriceSeriesValidation:
    def test_dates_must_increase(self):
        with pytest.raises(DataError):
            PriceSeries(
                symbol="x",
                dates=(date(2020, 1, 2), date(2020, 1, 1)),
                close=np.array([1.0, 2.0]),
            )

    def test_close_must_be_positive_finite(self):
        dates = (date(2020, 1, 1), date(2020, 1, 2))
        for bad in ([1.0, 0.0], [1.0, math.inf], [1.0, math.nan]):
            with pytest.raises(DataError):
                PriceSeries(symbol="x", dates=dates, close=np.array(bad))


_D3 = (date(2020, 1, 1), date(2020, 1, 2), date(2020, 1, 3))
_NOISE = np.random.default_rng(0).standard_normal(300)


def _flat_stats():
    return DescriptiveStats(n=30, mean=0.0, std=0.0, min=0.0, max=0.0, skewness=0.0,
                            excess_kurtosis=0.0, q25=0.0, q75=0.0)


@pytest.mark.parametrize("call, exc, message", [
    (lambda ms: PriceSeries("p", _D3, np.ones(2)), DataError, "p: 3 dates but 2 closes"),
    # the loader refuses a one-row file before it builds a series
    (lambda ms: PriceSeries("p", _D3[:1], np.ones(1)), DataError,
     "p: need at least 2 observations, got 1"),
    (lambda ms: ReturnSeries("r", (), np.ones(0)), DataError, "r: empty return series"),
    (lambda ms: ReturnSeries("r", _D3, np.ones(2)), DataError, "r: 3 dates but 2 returns"),
    (lambda ms: ReturnPanel((), _D3), DataError, "panel needs at least one series"),
    # a price series holds at least 2 prices; a shorter duck-typed one
    # reaches ReturnSeries' own check
    (lambda ms: log_returns(types.SimpleNamespace(symbol="d", dates=_D3[:1], close=np.ones(1))),
     DataError, "d: empty return series"),
    (lambda ms: jarque_bera(_flat_stats()), DegenerateSeriesError, "degenerate: zero variance"),
    (lambda ms: adf_test(ms(_NOISE), lags=-1), ValueError, "lags must be nonnegative, got -1"),
    (lambda ms: kpss_test(ms(_NOISE), bandwidth=-1), ValueError,
     "bandwidth must be nonnegative, got -1"),
    (lambda ms: kpss_test(ms(_NOISE[:12])), DataError,
     "test: need more than bandwidth + 10 = 12 observations, got 12"),
    (lambda ms: adf_test(ms(_NOISE[:20]), lags=10), DataError,
     "test: need more than lags + 10 = 20 observations, got 20"),
    (lambda ms: pearson_correlation(ReturnPanel((ms(_NOISE, "a"), ms(np.zeros(300), "z")),
                                                ms(_NOISE).dates)),
     DegenerateSeriesError, "z: degenerate: zero variance"),
])
def test_validation_branches(make_series, call, exc, message):
    with pytest.raises(exc, match=f"^{re.escape(message)}$"):
        call(make_series)


def test_panel_length_is_its_calendar(make_series):
    r = make_series([0.1, 0.2, 0.3])
    assert len(ReturnPanel((r,), r.dates)) == 3


def test_log_returns_hand_values(write_csv):
    p = load_price_series(write_csv("r.csv", GOOD_CSV))
    r = log_returns(p)
    assert len(r) == 3
    assert r.dates[0] == date(2020, 1, 3)
    expected = [math.log(101.5 / 100.0), math.log(99.8 / 101.5), math.log(102.2 / 99.8)]
    np.testing.assert_allclose(r.values, expected, atol=1e-15)


class TestAlign:
    def test_intersection(self, make_series):
        a = make_series([0.01, 0.02, 0.03], symbol="a", start=date(2020, 1, 1))
        b = make_series([0.1, 0.2, 0.3], symbol="b", start=date(2020, 1, 2))
        panel = align_panel([a, b])
        assert panel.dates == (date(2020, 1, 2), date(2020, 1, 3))
        assert all(s.dates is panel.dates for s in panel.series)
        np.testing.assert_allclose(panel.series[0].values, [0.02, 0.03])
        np.testing.assert_allclose(panel.series[1].values, [0.1, 0.2])
        assert panel.symbols == ("a", "b")

    def test_empty_intersection(self, make_series):
        a = make_series([0.01, 0.02], start=date(2020, 1, 1), symbol="a")
        b = make_series([0.01, 0.02], start=date(2021, 1, 1), symbol="b")
        with pytest.raises(DataError, match="empty"):
            align_panel([a, b])

    def test_empty_intersection_names_the_assets(self, make_series):
        # the series that empties the intersection, then those before it
        a = make_series([0.01, 0.02, 0.03], start=date(2020, 1, 1), symbol="a")
        b = make_series([0.01, 0.02], start=date(2020, 1, 2), symbol="b")
        c = make_series([0.01, 0.02], start=date(2021, 1, 1), symbol="c")
        with pytest.raises(DataError, match="^c: empty calendar intersection with a, b$"):
            align_panel([a, b, c])

    def test_one_series_is_its_own_panel(self, make_series):
        s = make_series([0.01, 0.02])
        panel = align_panel([s])
        assert panel.series[0] is s and panel.dates is s.dates
        with pytest.raises(DataError):
            align_panel([])

    def test_series_share_the_panel_calendar(self, make_series):
        # equal calendars skip the intersection; every series keeps one tuple
        a = make_series([0.01, 0.02, 0.03], symbol="a")
        b = make_series([0.1, 0.2, 0.3], symbol="b")
        assert a.dates == b.dates and a.dates is not b.dates
        panel = align_panel([a, b])
        assert panel.dates == a.dates
        assert all(s.dates is panel.dates for s in panel.series)
        np.testing.assert_array_equal(panel.series[1].values, b.values)


class TestDescribe:
    def test_matches_plain_python_oracle(self, make_series):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(257) * 0.02 + 0.001
        s = describe(make_series(x))
        vals = [float(v) for v in x]
        n = len(vals)
        mean = sum(vals) / n
        cen = [v - mean for v in vals]
        m2 = sum(c * c for c in cen) / n
        m3 = sum(c**3 for c in cen) / n
        m4 = sum(c**4 for c in cen) / n
        assert s.n == n
        assert s.mean == pytest.approx(mean, abs=1e-15)
        assert s.std == pytest.approx(math.sqrt(sum(c * c for c in cen) / (n - 1)), rel=1e-12)
        assert s.skewness == pytest.approx(m3 / m2**1.5, rel=1e-10)
        assert s.excess_kurtosis == pytest.approx(m4 / m2**2 - 3.0, rel=1e-10)
        assert s.min == min(vals)
        assert s.max == max(vals)

    def test_quartiles_linear_interpolation(self, make_series):
        # order-statistics rule: q = x_(j) + g (x_(j+1) - x_(j)), j = floor((n-1)p)
        rng = np.random.default_rng(4)
        x = rng.standard_normal(41)
        s = describe(make_series(x))
        xs = sorted(float(v) for v in x)
        for q, p in ((s.q25, 0.25), (s.q75, 0.75)):
            pos = (len(xs) - 1) * p
            j = int(pos)
            g = pos - j
            expected = xs[j] + g * (xs[j + 1] - xs[j]) if g else xs[j]
            assert q == pytest.approx(expected, abs=1e-14)

    def test_sharpe_optional(self, make_series):
        x = [0.01, -0.02, 0.015, 0.002, -0.004]
        plain = describe(make_series(x))
        assert plain.sharpe is None
        with_rf = describe(make_series(x), risk_free=0.001)
        assert with_rf.sharpe == pytest.approx((plain.mean - 0.001) / plain.std)

    def test_to_dict_is_the_fields_in_order(self, make_series):
        x = [0.01, -0.02, 0.015, 0.002, -0.004]
        for s in (describe(make_series(x)), describe(make_series(x), risk_free=0.001)):
            want = [(f.name, getattr(s, f.name)) for f in dataclasses.fields(s)
                    if getattr(s, f.name) is not None]
            assert list(s.to_dict().items()) == want

    def test_too_short(self, make_series):
        with pytest.raises(DataError):
            describe(make_series([0.01, 0.02, 0.03]))

    def test_degenerate(self, make_series):
        with pytest.raises(DegenerateSeriesError):
            describe(make_series([0.01] * 50))


# returns rounded to one decimal, so rows hold ties and both signed zeros
_CELLS = st.sampled_from((0.0, -0.0)) | st.floats(-3.0, 3.0).map(lambda v: round(v, 1))
_LEVEL = st.sampled_from((0.0, 1.0)) | st.floats(0.0, 1.0)


class TestQuantiles:
    """``_quantiles`` takes numpy's linear-method steps, so it is compared
    bit for bit with the installed numpy: a numpy that changes its method
    fails here instead of moving the report's quantiles silently."""

    @settings(max_examples=200, deadline=None, database=None)
    @given(X=arrays(float, st.tuples(st.integers(1, 5), st.integers(1, 40)), elements=_CELLS),
           q=st.lists(_LEVEL, min_size=1, max_size=6))
    def test_panel_rows_match_numpy(self, X, q):
        got, want = _quantiles(X, q), np.quantile(X, q, axis=1)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @settings(max_examples=200, deadline=None, database=None)
    @given(x=arrays(float, st.integers(1, 40), elements=_CELLS), p=_LEVEL)
    def test_one_series_at_one_level_matches_numpy(self, x, p):
        # the empirical VaR's case: a 1-D series and a scalar level
        got = _quantiles(x, (p,))[0]
        assert got.view(np.int64) == np.float64(np.quantile(x, p)).view(np.int64)


class TestJarqueBera:
    def test_statistic_brute_force(self, make_series):
        rng = np.random.default_rng(8)
        x = rng.standard_t(5, size=400)
        s = describe(make_series(x))
        t = jarque_bera(s)
        vals = [float(v) for v in x]
        n = len(vals)
        mean = sum(vals) / n
        cen = [v - mean for v in vals]
        m2 = sum(c * c for c in cen) / n
        S = (sum(c**3 for c in cen) / n) / m2**1.5
        K = (sum(c**4 for c in cen) / n) / m2**2
        expected = n / 6.0 * (S**2 + (K - 3.0) ** 2 / 4.0)
        assert t.statistic == pytest.approx(expected, rel=1e-9)

    def test_critical_values_closed_form(self, make_series):
        s = describe(make_series(np.random.default_rng(0).standard_normal(100)))
        t = jarque_bera(s)
        crits = t.decision_inputs["critical_values"]
        for a in (0.01, 0.05, 0.10):
            assert crits[f"{a:.2f}"] == pytest.approx(-2.0 * math.log(a), rel=1e-12)

    def test_decisions(self, make_series):
        rng = np.random.default_rng(12)
        normal = describe(make_series(rng.standard_normal(5000)))
        heavy = describe(make_series(rng.standard_t(3, size=5000)))
        assert not jarque_bera(normal).reject_null
        assert jarque_bera(heavy).reject_null


class TestUnitRoot:
    def test_adf_decisions(self, make_series):
        rng = np.random.default_rng(0)
        wn = rng.standard_normal(800)
        rw = np.cumsum(rng.standard_normal(800))
        assert adf_test(make_series(wn)).reject_null
        assert not adf_test(make_series(rw)).reject_null

    def test_kpss_decisions(self, make_series):
        rng = np.random.default_rng(1)
        wn = rng.standard_normal(800)
        rw = np.cumsum(rng.standard_normal(800))
        assert not kpss_test(make_series(wn)).reject_null
        assert kpss_test(make_series(rw)).reject_null

    def test_adf_default_lag_rule(self, make_series):
        rng = np.random.default_rng(2)
        t = adf_test(make_series(rng.standard_normal(500)))
        assert t.decision_inputs["lags"] == int(12.0 * (500 / 100.0) ** 0.25)

    def test_adf_lag_override(self, make_series):
        rng = np.random.default_rng(2)
        t = adf_test(make_series(rng.standard_normal(500)), lags=3)
        assert t.decision_inputs["lags"] == 3

    def test_kpss_bandwidth_rule(self, make_series):
        rng = np.random.default_rng(2)
        t = kpss_test(make_series(rng.standard_normal(500)))
        assert t.decision_inputs["bandwidth"] == int(4.0 * (500 / 100.0) ** 0.25)

    def test_too_short(self, make_series):
        with pytest.raises(DataError):
            adf_test(make_series(np.random.default_rng(0).standard_normal(12)))

    def test_constant_series(self, make_series):
        with pytest.raises(DataError):
            kpss_test(make_series([0.005] * 300))

    @pytest.mark.parametrize("test, keys, beyond", [
        (lambda r: jarque_bera(describe(r)), [], "gt"),
        (adf_test, ["lags", "nobs"], "lt"),
        (kpss_test, ["bandwidth"], "gt"),
    ], ids=["jarque_bera", "adf", "kpss"])
    @pytest.mark.parametrize("process", ["noise", "walk", "heavy_tails"])
    def test_every_test_decides_at_five_percent(self, make_series, test, keys, beyond, process):
        rng = np.random.default_rng(4)
        x = {"noise": lambda: rng.standard_normal(400),
             "walk": lambda: np.cumsum(rng.standard_normal(400)),
             "heavy_tails": lambda: rng.standard_t(3, size=400)}[process]()
        d = test(make_series(x)).to_dict()
        assert list(d) == ["test", "statistic", "reject_null", "significance", *keys,
                           "critical_values", "null"]
        assert d["significance"] == 0.05
        assert list(d["critical_values"]) == ["0.01", "0.05", "0.10"]
        crit = d["critical_values"]["0.05"]
        assert d["reject_null"] is (d["statistic"] > crit if beyond == "gt" else d["statistic"] < crit)

    def test_to_dict_round_trips_json(self, make_series):
        import json

        t = adf_test(make_series(np.random.default_rng(5).standard_normal(300)))
        blob = json.dumps(t.to_dict(), sort_keys=True)
        assert "unit root" in blob


def reference_adf_test(r, lags=None):
    """The least-squares ``adf_test`` that the normal-equations one
    replaced, kept verbatim but for its decision, made at 5% only."""
    # imported here so that pytest does not collect the Test-named class
    from volrisk.market_data import TestResult

    x = r.values
    n = x.size
    p = int(12.0 * (n / 100.0) ** 0.25) if lags is None else int(lags)
    if p < 0:
        raise ValueError(f"lags must be nonnegative, got {p}")
    if n <= p + 10:
        raise DataError(f"{r.symbol}: need more than lags + 10 = {p + 10} observations, got {n}")
    dx = np.diff(x)
    y = dx[p:]
    cols = [np.ones(y.size), x[p:-1]]
    for i in range(1, p + 1):
        cols.append(dx[p - i : dx.size - i])
    X = np.column_stack(cols)
    beta, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
    if rank < X.shape[1]:
        raise DegenerateSeriesError(f"{r.symbol}: collinear regressors in ADF regression")
    resid = y - X @ beta
    dof = y.size - X.shape[1]
    s2 = float(resid @ resid) / dof
    cov11 = s2 * np.linalg.inv(X.T @ X)[1, 1]
    stat = float(beta[1] / math.sqrt(cov11))
    nobs = y.size
    crits = {}
    for a in _LEVELS:
        b0, b1, b2, b3 = _ADF_SURFACE[a]
        crits[a] = b0 + b1 / nobs + b2 / nobs**2 + b3 / nobs**3
    return TestResult(
        test_name="adf",
        statistic=stat,
        decision_inputs={
            "lags": p,
            "nobs": nobs,
            "critical_values": {f"{a:.2f}": crits[a] for a in _LEVELS},
            "null": "unit root",
        },
        reject_null=stat < crits[0.05],
        significance=0.05,
    )


class TestAdfOracle:
    @settings(max_examples=150, deadline=None, database=None)
    @given(
        n=st.integers(50, 3000),
        lags=st.none() | st.integers(0, 8),
        seed=st.integers(0, 2**32 - 1),
        phi=st.sampled_from((0.0, 0.5, -0.5, 0.95, 1.0)),
        scale=st.sampled_from((1e-4, 1e-2, 1.0)),
    )
    def test_statistic_matches_least_squares(self, n, lags, seed, phi, scale):
        # AR(1) returns, phi = 1 a random walk
        e = np.random.default_rng(seed).standard_normal(n) * scale
        x = np.empty(n)
        prev = 0.0
        for t, shock in enumerate(e.tolist()):
            prev = x[t] = phi * prev + shock
        r = ReturnSeries("test", tuple(map(date.fromordinal, range(730_000, 730_000 + n))), x)
        got, want = adf_test(r, lags), reference_adf_test(r, lags)
        assert got.statistic == pytest.approx(want.statistic, rel=1e-10)
        assert got.decision_inputs == want.decision_inputs
        assert (got.test_name, got.reject_null, got.significance) == (
            want.test_name, want.reject_null, want.significance)

    @pytest.mark.parametrize("pattern", [
        [0.01, -0.01],
        [0.01, -0.004, -0.006],
        [0.01] * 9 + [0.0],
    ], ids=["alternating", "period_3", "stale_1_in_10"])
    def test_collinear_design_raises(self, make_series, pattern):
        r = make_series(np.tile(pattern, 300 // len(pattern)))
        for test in (reference_adf_test, adf_test):
            with pytest.raises(DegenerateSeriesError, match="^test: collinear regressors in ADF regression$"):
                test(r)


class TestPearson:
    def test_matches_numpy(self, make_series):
        rng = np.random.default_rng(6)
        base = rng.standard_normal(300)
        a = make_series(base + 0.3 * rng.standard_normal(300), symbol="a")
        b = make_series(-0.5 * base + rng.standard_normal(300), symbol="b")
        c = make_series(rng.standard_normal(300), symbol="c")
        panel = ReturnPanel(series=(a, b, c), dates=a.dates)
        C = pearson_correlation(panel)
        expected = np.corrcoef(np.vstack([s.values for s in panel.series]))
        np.testing.assert_allclose(C, expected, atol=1e-12)

    def test_exact_symmetry_and_diagonal(self, make_series):
        rng = np.random.default_rng(7)
        series = tuple(
            make_series(rng.standard_normal(100), symbol=f"s{i}") for i in range(4)
        )
        panel = ReturnPanel(series=series, dates=series[0].dates)
        C = pearson_correlation(panel)
        assert np.array_equal(C, C.T)
        assert np.all(np.diagonal(C) == 1.0)
        assert np.all(np.abs(C) <= 1.0)

    def test_one_series(self, make_series):
        s = make_series([0.01, 0.02, 0.03])
        C = pearson_correlation(ReturnPanel(series=(s,), dates=s.dates))
        assert C.tolist() == [[1.0]]


def test_return_series_rejects_non_finite():
    with pytest.raises(DataError):
        ReturnSeries(
            symbol="x",
            dates=(date(2020, 1, 1), date(2020, 1, 2)),
            values=np.array([0.01, math.nan]),
        )


def test_panel_calendar_must_increase():
    dates = (date(2020, 1, 2), date(2020, 1, 1))
    s = ReturnSeries(symbol="x", dates=dates, values=np.array([0.01, 0.02]))
    with pytest.raises(DataError, match="panel: dates not strictly increasing at 2020-01-01"):
        ReturnPanel(series=(s,), dates=dates)
    with pytest.raises(DataError, match="not strictly increasing"):
        align_panel([s, dataclasses.replace(s, symbol="y")])


def test_panel_calendar_mismatch(make_series):
    a = make_series([0.01, 0.02], symbol="a", start=date(2020, 1, 1))
    b = make_series([0.01, 0.02], symbol="b", start=date(2020, 1, 2))
    with pytest.raises(DataError):
        ReturnPanel(series=(a, b), dates=a.dates)
