import csv
import io
import logging
import math
import tracemalloc
from datetime import date, timedelta
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import ndtri

from volrisk.market_data import (
    DataError,
    DegenerateSeriesError,
    DescriptiveStats,
    ReturnPanel,
    ReturnSeries,
    describe,
)
from volrisk.risk import (
    RiskReport,
    RiskSpec,
    _span,
    cf_var,
    cornish_fisher_z,
    drawdown,
    empirical_var,
    gaussian_var,
    risk_report,
)

Z95 = 1.6448536269514722
Z99 = 2.3263478740408408


def _stats(mean=0.0, std=1.0, skew=0.0, exk=0.0):
    return DescriptiveStats(
        n=250, mean=mean, std=std, min=-4.0, max=4.0,
        skewness=skew, excess_kurtosis=exk, q25=-0.67, q75=0.67,
    )


class TestGaussianVar:
    def test_standard_normal_quantiles(self):
        s = _stats()
        assert gaussian_var(s, 0.95) == pytest.approx(Z95, abs=1e-12)
        assert gaussian_var(s, 0.99) == pytest.approx(Z99, abs=1e-12)

    def test_hand_value(self):
        s = _stats(mean=0.001, std=0.02)
        expected = -(0.001 + ndtri(0.05) * 0.02) * 100.0
        assert gaussian_var(s, 0.95, amount=100.0) == pytest.approx(expected, rel=1e-14)
        assert expected > 0.0

    def test_amount_linearity(self):
        s = _stats(mean=0.0005, std=0.013)
        base = gaussian_var(s, 0.99)
        assert gaussian_var(s, 0.99, amount=1000.0) == pytest.approx(1000.0 * base, rel=1e-14)

    def test_strong_mean_can_flip_sign(self):
        s = _stats(mean=5.0, std=1.0)
        assert gaussian_var(s, 0.95) < 0.0

    def test_level_validation(self):
        s = _stats()
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                gaussian_var(s, bad)

    def test_degenerate_std(self):
        s = _stats(std=0.0)
        with pytest.raises(DegenerateSeriesError):
            gaussian_var(s, 0.95)


class TestCornishFisher:
    def test_zero_moments_identity(self):
        for z in (-2.3263478740408408, -1.6448536269514722, 0.0, 1.2815515655446004):
            assert cornish_fisher_z(z, 0.0, 0.0) == z

    def test_polynomial_against_exact_rationals(self):
        cases = [
            (Fraction(-3, 2), Fraction(1, 4), Fraction(7, 8)),
            (Fraction(-2), Fraction(-1, 2), Fraction(3, 2)),
            (Fraction(1, 2), Fraction(2, 3), Fraction(-1, 4)),
            (Fraction(-5, 4), Fraction(0), Fraction(5)),
            (Fraction(0), Fraction(1), Fraction(1)),
        ]
        for z, S, K in cases:
            exact = (
                z
                + (z * z - 1) * S / 6
                + (z ** 3 - 3 * z) * K / 24
                - (2 * z ** 3 - 5 * z) * S * S / 36
            )
            got = cornish_fisher_z(float(z), float(S), float(K))
            assert got == pytest.approx(float(exact), rel=1e-14, abs=1e-15)

    def test_cf_var_collapses_to_gaussian(self):
        s = _stats(mean=0.0002, std=0.011)
        for lv in (0.90, 0.95, 0.99):
            assert cf_var(s, lv) == gaussian_var(s, lv)

    def test_negative_skew_raises_lower_tail_var(self):
        base = _stats(mean=0.0, std=1.0)
        skewed = _stats(mean=0.0, std=1.0, skew=-0.8)
        assert cf_var(skewed, 0.99) > cf_var(base, 0.99)

    def test_fat_tails_raise_far_tail_var(self):
        base = _stats()
        fat = _stats(exk=4.0)
        assert cf_var(fat, 0.99) > cf_var(base, 0.99)


class TestEmpiricalVar:
    def test_three_point_sample(self, make_series):
        r = make_series([-0.05] * 100 + [0.0] * 100 + [0.05] * 100)
        assert empirical_var(r, 0.95) == pytest.approx(0.05, abs=1e-12)
        assert empirical_var(r, 0.95, amount=100.0) == pytest.approx(5.0, abs=1e-10)

    def test_all_gains_give_negative_var(self, make_series):
        r = make_series(list(np.linspace(0.01, 0.02, 50)))
        assert empirical_var(r, 0.95) < 0.0

    def test_monotone_in_level(self, make_series):
        rng = np.random.default_rng(7)
        r = make_series(list(0.01 * rng.standard_normal(500)))
        v90 = empirical_var(r, 0.90)
        v95 = empirical_var(r, 0.95)
        v99 = empirical_var(r, 0.99)
        assert v90 <= v95 <= v99

    def test_too_short_is_error(self, make_series):
        r = make_series([0.01, -0.01] * 4)
        with pytest.raises(DataError):
            empirical_var(r, 0.95)

    def test_thin_sample_warns(self, make_series, caplog):
        r = make_series([0.01, -0.01] * 8)
        with caplog.at_level(logging.WARNING, logger="volrisk.risk"):
            empirical_var(r, 0.99)
        assert any("thin" in m for m in caplog.messages)

    def test_ample_sample_silent(self, make_series, caplog):
        rng = np.random.default_rng(3)
        r = make_series(list(0.01 * rng.standard_normal(400)))
        with caplog.at_level(logging.WARNING, logger="volrisk.risk"):
            empirical_var(r, 0.95)
        assert not caplog.messages

    def test_level_validation(self, make_series):
        r = make_series([0.01, -0.01] * 10)
        with pytest.raises(ValueError):
            empirical_var(r, 1.0)


class TestDrawdown:
    def test_double_then_halve(self, make_series):
        r = make_series([math.log(2.0), math.log(0.5)])
        series, max_dd = drawdown(r)
        assert series[0][1] == 0.0
        assert series[1][1] == pytest.approx(-0.5, abs=1e-15)
        assert max_dd == pytest.approx(-0.5, abs=1e-15)

    def test_monotone_gains_flat_at_zero(self, make_series):
        r = make_series([0.01] * 40)
        series, max_dd = drawdown(r)
        assert max_dd == 0.0
        assert all(v == 0.0 for _, v in series)

    def test_first_point_never_underwater(self, make_series):
        r = make_series([-0.3, -0.2, 0.1])
        series, _ = drawdown(r)
        assert series[0][1] == 0.0

    def test_quadratic_oracle(self, make_series):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            vals = 0.02 * rng.standard_normal(200)
            r = make_series(list(vals))
            series, max_dd = drawdown(r)
            wealth = np.exp(np.cumsum(vals))
            for t, (_, got) in enumerate(series):
                peak = max(wealth[: t + 1])
                assert got == pytest.approx(wealth[t] / peak - 1.0, abs=1e-12)
            assert max_dd == min(v for _, v in series)

    def test_dates_carried_through(self, make_series):
        r = make_series([0.01, -0.02, 0.005])
        series, _ = drawdown(r)
        assert tuple(d for d, _ in series) == r.dates

    def test_series_is_the_tuple_of_dated_pairs(self, make_series):
        rng = np.random.default_rng(3)
        r = make_series(list(0.02 * rng.standard_normal(50)))
        series, max_dd = drawdown(r)
        pairs = _dated_drawdowns(r.dates, r.values)
        _assert_same_pairs(series, pairs)
        assert max_dd == min(v for _, v in pairs)


def _dated_drawdowns(dates, values):
    wealth = np.exp(np.cumsum(values))
    dd = wealth / np.maximum.accumulate(wealth) - 1.0
    return tuple(zip(dates, dd.tolist()))


def _assert_same_pairs(series, pairs):
    # a drawdown series reads like the tuple of its pairs, values as floats
    assert tuple(series) == pairs
    assert len(series) == len(pairs)
    assert series[0] == pairs[0] and series[-1] == pairs[-1]
    assert series[-3] == pairs[-3]
    assert series[2:7] == pairs[2:7] and series[::-4] == pairs[::-4]
    assert type(series[-1][1]) is float
    assert all(type(v) is float for _, v in series)
    with pytest.raises(IndexError):
        series[len(pairs)]


class TestRiskSpec:
    def test_defaults(self):
        spec = RiskSpec()
        assert spec.levels == (0.90, 0.95, 0.99)
        assert spec.amount == 1.0
        assert spec.periods == (("full", None, None),)

    def test_validation(self):
        with pytest.raises(ValueError):
            RiskSpec(levels=())
        with pytest.raises(ValueError):
            RiskSpec(levels=(0.95, 1.0))
        with pytest.raises(ValueError):
            RiskSpec(amount=0.0)
        with pytest.raises(ValueError):
            RiskSpec(amount=math.inf)
        with pytest.raises(ValueError):
            RiskSpec(periods=())
        with pytest.raises(ValueError):
            RiskSpec(periods=(("a", None, None), ("a", None, None)))
        with pytest.raises(ValueError):
            RiskSpec(periods=(("bad", date(2020, 6, 1), date(2020, 1, 1)),))

    @pytest.mark.parametrize("levels", [(0.95, 0.95), (0.9, 0.95, 0.9), (0.95, 0.9500000001)])
    def test_repeated_levels_rejected(self, levels):
        # each level keys a risk.csv row and a risk.json entry by its 6-digit form
        with pytest.raises(ValueError, match="levels must be distinct"):
            RiskSpec(levels=levels)


def _two_asset_panel(make_series, n=150):
    rng = np.random.default_rng(11)
    a = make_series(list(0.01 * rng.standard_normal(n)), symbol="AAA")
    b = make_series(list(0.02 * rng.standard_normal(n) + 0.0003), symbol="BBB")
    return ReturnPanel(series=(a, b), dates=a.dates)


class TestRiskReport:
    def test_drawdowns_are_the_tuples_of_dated_pairs(self, make_series):
        panel = _two_asset_panel(make_series)
        spec = RiskSpec(periods=(("full", None, None), ("window", panel.dates[40], panel.dates[80])))
        rep = risk_report(panel, spec)
        for s in panel.series:
            for name, start, end in spec.periods:
                lo, hi = _span(s.dates, start, end)
                sub = ReturnSeries(symbol=s.symbol, dates=s.dates[lo:hi], values=s.values[lo:hi])
                series, max_dd = drawdown(sub)
                pairs = _dated_drawdowns(sub.dates, sub.values)
                _assert_same_pairs(series, pairs)
                assert rep.max_drawdown[(s.symbol, name)] == max_dd == min(v for _, v in pairs)

    def test_report_keeps_few_bytes_per_date(self, make_series):
        # A report keeps one maximum drawdown per cell and no per-date data;
        # a float64 drawdown path alone would cost 8 bytes a date.
        k, n = 4, 3000
        rng = np.random.default_rng(8)
        series = [make_series(list(0.01 * rng.standard_normal(n)), symbol=f"S{i}")
                  for i in range(k)]
        panel = ReturnPanel(series=tuple(series), dates=series[0].dates)
        d = panel.dates
        spec = RiskSpec(periods=(("full", None, None), ("early", None, d[n // 2]),
                                 ("late", d[n // 3], None)))
        cells = k * sum(hi - lo for lo, hi in (_span(d, a, b) for _, a, b in spec.periods))
        risk_report(panel, spec)  # lazy imports and caches load outside the measurement
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            rep = risk_report(panel, spec)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(rep.max_drawdown) == k * 3
        assert kept / cells < 2.0

    def test_cell_values_match_direct_calls(self, make_series):
        panel = _two_asset_panel(make_series)
        spec = RiskSpec()
        rep = risk_report(panel, spec)
        assert rep.symbols == ("AAA", "BBB")
        for s in panel.series:
            st = describe(s)
            for lv in spec.levels:
                cell = rep.var[(s.symbol, "full", lv)]
                assert cell["gaussian"] == gaussian_var(st, lv)
                assert cell["cornish_fisher"] == cf_var(st, lv)
                assert cell["empirical"] == empirical_var(s, lv)

    def test_subperiod_restriction(self, make_series):
        panel = _two_asset_panel(make_series)
        d0 = panel.dates[40]
        d1 = panel.dates[80]
        spec = RiskSpec(periods=(("full", None, None), ("window", d0, d1)))
        rep = risk_report(panel, spec)
        st = rep.stats[("AAA", "window")]
        assert st.n == 41
        s = panel.series[0]
        lo, hi = _span(s.dates, d0, d1)
        series, _ = drawdown(ReturnSeries(symbol="AAA", dates=s.dates[lo:hi], values=s.values[lo:hi]))
        assert series[0][0] == d0
        assert series[-1][0] == d1

    def test_amount_scales_linearly(self, make_series):
        panel = _two_asset_panel(make_series)
        r1 = risk_report(panel, RiskSpec(amount=1.0))
        r2 = risk_report(panel, RiskSpec(amount=1000.0))
        for key, cell in r1.var.items():
            for kind, v in cell.items():
                assert r2.var[key][kind] == pytest.approx(1000.0 * v, rel=1e-12)

    def test_asset_order_preserved_and_independent(self, make_series):
        panel = _two_asset_panel(make_series)
        flipped = ReturnPanel(series=panel.series[::-1], dates=panel.dates)
        r1 = risk_report(panel, RiskSpec())
        r2 = risk_report(flipped, RiskSpec())
        assert r2.symbols == ("BBB", "AAA")
        for key, cell in r1.var.items():
            assert r2.var[key] == cell

    def test_empty_period_is_error(self, make_series):
        panel = _two_asset_panel(make_series)
        spec = RiskSpec(periods=(("future", date(2030, 1, 1), None),))
        with pytest.raises(DataError, match="no observations"):
            risk_report(panel, spec)

    def test_to_dict_shape(self, make_series):
        panel = _two_asset_panel(make_series)
        d0 = panel.dates[10]
        spec = RiskSpec(levels=(0.95, 0.99), periods=(("full", None, None), ("late", d0, None)))
        d = risk_report(panel, spec).to_dict()
        assert d["levels"] == ["0.95", "0.99"]
        assert d["periods"] == ["full", "late"]
        cell = d["assets"]["AAA"]["late"]
        assert cell["start"] == d0.isoformat()
        assert cell["end"] is None
        assert set(cell["var"]) == {"0.95", "0.99"}
        assert set(cell["var"]["0.95"]) == {"gaussian", "cornish_fisher", "empirical"}
        assert cell["max_drawdown"] <= 0.0
        assert cell["stats"]["n"] == 140

    def test_to_csv_layout(self, make_series):
        panel = _two_asset_panel(make_series)
        spec = RiskSpec(levels=(0.95, 0.99))
        text = risk_report(panel, spec).to_csv()
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["symbol", "level", "full_var", "full_cfvar", "full_empvar"]
        assert len(rows) == 1 + 2 * 2
        assert rows[1][0] == "AAA" and rows[1][1] == "0.95"
        for row in rows[1:]:
            for field in row[2:]:
                float(field)
                assert len(field.split(".")[1]) == 3


def _weekday_series(n=60, symbol="WKD"):
    # business days only, so weekends are gaps inside the calendar
    rng = np.random.default_rng(5)
    dates, d = [], date(2021, 1, 4)
    while len(dates) < n:
        if d.weekday() < 5:
            dates.append(d)
        d += timedelta(days=1)
    return ReturnSeries(symbol=symbol, dates=dates, values=0.01 * rng.standard_normal(n))


def _filter_reference(r, start, end):
    idx = [
        i
        for i, d in enumerate(r.dates)
        if (start is None or d >= start) and (end is None or d <= end)
    ]
    if not idx:
        return None
    return tuple(r.dates[i] for i in idx), r.values[idx]


class TestRestrict:
    """A period restricts the calendar to the index range ``_span`` gives."""

    def test_bisection_equals_date_filter(self):
        r = _weekday_series()
        first, last = r.dates[0], r.dates[-1]
        day = timedelta(days=1)
        bounds = [None, first - 30 * day, first - day, first, r.dates[17], date(2021, 1, 9),
                  date(2021, 1, 10), last, last + day, last + 30 * day]
        rng = np.random.default_rng(9)
        bounds += [first + int(k) * day for k in rng.integers(-5, 95, size=20)]
        for start in bounds:
            for end in bounds:
                if start is not None and end is not None and start > end:
                    continue
                lo, hi = _span(r.dates, start, end)
                ref = _filter_reference(r, start, end)
                if ref is None:
                    assert lo >= hi, (start, end)
                else:
                    assert r.dates[lo:hi] == ref[0], (start, end)
                    assert np.array_equal(r.values[lo:hi], ref[1]), (start, end)

    def test_single_day(self):
        r = _weekday_series()
        lo, hi = _span(r.dates, r.dates[5], r.dates[5])
        assert r.dates[lo:hi] == (r.dates[5],)
        assert r.values[lo:hi].tolist() == [r.values[5]]

    def test_weekend_period_has_no_observations(self):
        r = _weekday_series()
        saturday, sunday = date(2021, 1, 9), date(2021, 1, 10)
        lo, hi = _span(r.dates, saturday, sunday)
        assert lo >= hi
        panel = ReturnPanel(series=(r,), dates=r.dates)
        spec = RiskSpec(periods=(("weekend", saturday, sunday),))
        with pytest.raises(DataError, match="no observations for WKD"):
            risk_report(panel, spec)


class TestBatchedEmpirical:
    def test_equals_per_level_calls(self, make_series, caplog):
        # 60 returns are thin for 0.99 and 0.999 but not for 0.9 or 0.95
        levels = (0.9, 0.95, 0.99, 0.999)
        rng = np.random.default_rng(21)
        r = make_series(list(0.01 * rng.standard_t(4, size=60)), symbol="TAIL")
        panel = ReturnPanel(series=(r,), dates=r.dates)
        with caplog.at_level(logging.WARNING, logger="volrisk.risk"):
            rep = risk_report(panel, RiskSpec(levels=levels, amount=250.0))
        thin = [m for m in caplog.messages if "thin" in m]
        assert len(thin) == 2
        assert "level 0.99 " in thin[0] and "level 0.999 " in thin[1]
        for lv in levels:
            got = rep.var[("TAIL", "full", lv)]["empirical"]
            assert got == empirical_var(r, lv, 250.0)
            assert got == -float(np.quantile(r.values, 1.0 - lv)) * 250.0
