"""Bitwise oracle of the panel pass behind ``describe`` and ``risk_report``.

The reference below is the per-cell loop the panel pass replaced, kept
verbatim: for each (asset, period) cell it restricts the series by
bisection, then runs ``describe``, ``drawdown`` and the empirical
quantiles on the 1-D sample.  On any panel both must give the same
report to the last bit (``to_dict``, ``to_csv`` and the repr of every
maximum drawdown), or raise the same error, after logging the same warnings
in the same order.
"""
import logging
from bisect import bisect_left, bisect_right
from datetime import date, timedelta

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from volrisk.market_data import (
    DataError,
    DegenerateSeriesError,
    DescriptiveStats,
    ReturnPanel,
    ReturnSeries,
    _describe_panel,
    describe,
)
from volrisk.risk import (
    RiskReport,
    RiskSpec,
    _check_level,
    cf_var,
    drawdown,
    gaussian_var,
    risk_report,
)

log = logging.getLogger("volrisk.risk")


# ---------------------------------------------------------------------------
# reference: the per-cell loop


def reference_describe(r, risk_free=None):
    x = r.values
    n = x.size
    if n < 4:
        raise DataError(f"{r.symbol}: need at least 4 observations, got {n}")
    mean = float(x.mean())
    c = x - mean
    m2 = float((c * c).mean())
    if m2 == 0.0:
        raise DegenerateSeriesError(f"{r.symbol}: degenerate: zero variance")
    m3 = float((c * c * c).mean())
    m4 = float((c * c * c * c).mean())
    std = float(x.std(ddof=1))
    q25, q75 = (float(q) for q in np.quantile(x, [0.25, 0.75]))
    sharpe = None if risk_free is None else (mean - risk_free) / std
    return DescriptiveStats(
        n=n,
        mean=mean,
        std=std,
        min=float(x.min()),
        max=float(x.max()),
        skewness=m3 / m2 ** 1.5,
        excess_kurtosis=m4 / (m2 * m2) - 3.0,
        q25=q25,
        q75=q75,
        sharpe=sharpe,
    )


def reference_drawdown(r):
    wealth = np.exp(np.cumsum(r.values))
    dd = wealth / np.maximum.accumulate(wealth) - 1.0
    return tuple(zip(r.dates, dd.tolist())), float(dd.min())


def reference_empirical_quantiles(r, levels):
    n = len(r)
    for level in levels:
        _check_level(level)
        if n < 10:
            raise DataError(f"{r.symbol}: need at least 10 observations, got {n}")
        needed = 1.0 / (1.0 - level)
        if n < needed:
            log.warning(
                "%s: %d observations is thin for level %g (want >= %.0f)",
                r.symbol, n, level, needed,
            )
    return np.quantile(r.values, [1.0 - lv for lv in levels]).tolist()


def reference_restrict(r, start, end):
    lo = 0 if start is None else bisect_left(r.dates, start)
    hi = len(r.dates) if end is None else bisect_right(r.dates, end)
    if lo >= hi:
        return None
    return ReturnSeries(symbol=r.symbol, dates=r.dates[lo:hi], values=r.values[lo:hi])


def reference_risk_report(panel, spec):
    var, dds, stats = {}, {}, {}
    for s in panel.series:
        for name, start, end in spec.periods:
            sub = reference_restrict(s, start, end)
            if sub is None:
                raise DataError(f"period {name!r}: no observations for {s.symbol}")
            cell_stats = reference_describe(sub)
            stats[(s.symbol, name)] = cell_stats
            dds[(s.symbol, name)] = reference_drawdown(sub)[1]
            quantiles = reference_empirical_quantiles(sub, spec.levels)
            for lv, q in zip(spec.levels, quantiles):
                var[(s.symbol, name, lv)] = {
                    "gaussian": gaussian_var(cell_stats, lv, spec.amount),
                    "cornish_fisher": cf_var(cell_stats, lv, spec.amount),
                    "empirical": -q * spec.amount,
                }
    return RiskReport(spec=spec, symbols=panel.symbols, var=var, max_drawdown=dds, stats=stats)


# ---------------------------------------------------------------------------
# panels


class _Messages(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def _outcome(fn, *args):
    """What ``fn(*args)`` gives, floats by their repr, with the warnings
    ``volrisk.risk`` logs on the way."""
    handler = _Messages()
    level = log.level
    log.addHandler(handler)
    log.setLevel(logging.WARNING)
    try:
        result = fn(*args)
    except (DataError, ValueError) as exc:
        return ("error", type(exc), str(exc), handler.messages)
    finally:
        log.removeHandler(handler)
        log.setLevel(level)
    if isinstance(result, RiskReport):
        max_dd = {key: repr(v) for key, v in result.max_drawdown.items()}
        return ("ok", repr(result.to_dict()), result.to_csv(), max_dd, handler.messages)
    return ("ok", repr(result), handler.messages)


def _calendar(n, weekdays):
    days = (date(2021, 1, 4) + timedelta(days=i) for i in range(3 * n))
    if weekdays:
        days = (d for d in days if d.weekday() < 5)
    return tuple(d for _, d in zip(range(n), days))


# exact in binary, so that a constant stretch has a mean equal to it and a
# zero variance
_CONSTANTS = (0.0, 0.25, -0.5)
_EDGE_VALUES = st.one_of(
    st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -0.69, 0.5)),
    st.floats(-1.0, 1.0),
)


@st.composite
def _values(draw, k, n):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = 0.01 * rng.standard_t(4, size=(k, n))
    for _ in range(draw(st.integers(0, 4))):
        X[draw(st.integers(0, k - 1)), draw(st.integers(0, n - 1))] = draw(_EDGE_VALUES)
    return X


@st.composite
def _period(draw, dates, weekdays):
    n = len(dates)
    # one period in seven cannot be reported, so that most panels report
    kind = draw(st.sampled_from(("full", "sub", "sub", "sub", "head", "tail") * 3
                                + ("short", "tiny", "empty")))
    if kind == "full":
        return None, None
    if kind == "empty":
        after = dates[-1] + timedelta(days=draw(st.integers(1, 30)))
        if weekdays and draw(st.booleans()):
            # a weekend inside the calendar
            friday = next(d for d in dates if d.weekday() == 4)
            return friday + timedelta(days=1), friday + timedelta(days=2)
        return after, None
    if kind in ("short", "tiny"):
        size = draw(st.integers(4, 9) if kind == "short" else st.integers(1, 3))
        lo = draw(st.integers(0, n - size))
        return dates[lo], dates[lo + size - 1]
    lo = draw(st.integers(0, n - 10))
    hi = draw(st.integers(lo + 9, n - 1))
    if kind == "head":
        return None, dates[hi]
    if kind == "tail":
        return dates[lo], None
    return dates[lo], dates[hi]


@st.composite
def panel_and_spec(draw):
    k = draw(st.integers(1, 5))
    n = draw(st.integers(10, 80))
    weekdays = draw(st.booleans())
    dates = _calendar(n, weekdays)
    X = draw(_values(k, n))
    periods = [(f"p{j}", *draw(_period(dates, weekdays))) for j in range(draw(st.integers(1, 4)))]
    if draw(st.integers(0, 3)) == 0:
        # one asset constant over one later period, which then has zero
        # variance there and only there
        j = draw(st.integers(1, len(periods))) - 1
        _, start, end = periods[j]
        lo = 0 if start is None else bisect_left(dates, start)
        hi = n if end is None else bisect_right(dates, end)
        X[draw(st.integers(0, k - 1)), lo:hi] = draw(st.sampled_from(_CONSTANTS))
    series = tuple(ReturnSeries(symbol=f"S{i}", dates=dates, values=X[i]) for i in range(k))
    levels = draw(st.lists(st.sampled_from((0.5, 0.9, 0.95, 0.975, 0.99, 0.999)),
                           min_size=1, max_size=4, unique=True))
    amount = draw(st.sampled_from((1.0, 250.0, 1e6)))
    spec = RiskSpec(levels=levels, amount=amount, periods=periods)
    return ReturnPanel(series=series, dates=dates), spec


def _panel(X, weekdays=False):
    dates = _calendar(X.shape[1], weekdays)
    return ReturnPanel(series=tuple(ReturnSeries(f"S{i}", dates, row) for i, row in enumerate(X)),
                       dates=dates)


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=300, deadline=None, database=None)
@given(case=panel_and_spec())
def test_risk_report_matches_the_per_cell_loop(case):
    panel, spec = case
    assert _outcome(risk_report, panel, spec) == _outcome(reference_risk_report, panel, spec)


def _fixed(X, periods, levels=(0.9, 0.99)):
    panel = _panel(X)
    d = panel.dates
    return panel, RiskSpec(levels=levels, periods=[
        (name, None if a is None else d[a], None if b is None else d[b])
        for name, a, b in periods])


def test_the_first_failing_cell_in_asset_order_raises_after_its_warnings():
    # S0 fails in no period before p2 (6 returns) fails it; S1 has zero
    # variance in p1 only, which comes later in (asset, period) order
    X = 0.01 * np.random.default_rng(4).standard_normal((3, 60))
    X[1, 20:40] = 0.25
    panel, spec = _fixed(X, [("p0", None, None), ("p1", 20, 39), ("p2", 50, 55)])
    got = _outcome(risk_report, panel, spec)
    assert got == _outcome(reference_risk_report, panel, spec)
    assert got[:3] == ("error", DataError, "S0: need at least 10 observations, got 6")
    assert len(got[3]) == 2 and all(m.startswith("S0: ") for m in got[3])
    # without p2 the zero variance of S1 is the first failure, after S0's warnings
    panel, spec = _fixed(X, [("p0", None, None), ("p1", 20, 39)])
    got = _outcome(risk_report, panel, spec)
    assert got == _outcome(reference_risk_report, panel, spec)
    assert got[:3] == ("error", DegenerateSeriesError, "S1: degenerate: zero variance")
    assert [m[:3] for m in got[3]] == ["S0:", "S0:", "S1:"]


@settings(max_examples=200, deadline=None, database=None)
@given(data=st.data(), k=st.integers(1, 5), n=st.integers(1, 60),
       risk_free=st.sampled_from((None, 0.0, 1e-4)))
@example(data=None, k=2, n=3, risk_free=None)
def test_describe_is_the_one_row_case(data, k, n, risk_free):
    X = np.zeros((k, n)) if data is None else data.draw(_values(k, n))
    if data is not None and data.draw(st.booleans()):
        X[data.draw(st.integers(0, k - 1))] = data.draw(st.sampled_from(_CONSTANTS))
    panel = _panel(X)
    for s in panel.series:
        assert _outcome(describe, s, risk_free) == _outcome(reference_describe, s, risk_free)
        series, max_dd = drawdown(s)
        ref, ref_max = reference_drawdown(s)
        assert repr(series) == repr(ref) and repr(max_dd) == repr(ref_max)
    assert _outcome(_describe_panel, panel, risk_free) == _outcome(
        lambda p, rf: {s.symbol: reference_describe(s, rf) for s in p.series}, panel, risk_free)
