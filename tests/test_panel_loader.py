"""Property test of the panel loader against the per-file path.

``per_file_panel`` loads every file on its own, as the panel loader did
before files with one date column shared a calendar:
``load_price_series``, then ``log_returns``, then ``align_panel``.  On
any set of price files ``load_panel`` must give the same panel, or raise
DataError with the same text.
"""
import tracemalloc
from datetime import date, timedelta

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from volrisk import market_data
from volrisk.market_data import (
    DataError,
    ReturnPanel,
    align_panel,
    load_panel,
    load_price_series,
    log_returns,
)


def per_file_panel(assets):
    series = []
    for symbol, source, columns in assets:
        try:
            prices = load_price_series(source, columns, symbol=symbol)
        except DataError as exc:
            raise DataError(f"{symbol}: {exc}") from exc
        series.append(log_returns(prices))
    if len(series) == 1:
        return ReturnPanel(series=(series[0],), dates=series[0].dates)
    return align_panel(series)


def _outcome(loader, assets):
    try:
        panel = loader(assets)
    except DataError as exc:
        return ("error", str(exc))
    assert all(s.dates == panel.dates for s in panel.series)
    return ("ok", panel.symbols, panel.dates, [s.values.tobytes() for s in panel.series])


# the later-file mutations are those that fail to load
_MUTATIONS = ("none", "none", "drop", "swap", "intraday", "duplicate", "quoted")
_LATER_MUTATIONS = _MUTATIONS + ("bad_date", "bad_close")


@st.composite
def panel_files(draw):
    """2-5 price files of (date, close) cell rows cut from one calendar,
    each with one mutation."""
    n = draw(st.integers(3, 25))
    step = draw(st.sampled_from((1, 1, 7)))
    start = date(2020, 1, 1) + timedelta(days=draw(st.integers(0, 6)))
    days = [(start + timedelta(days=step * i)).isoformat() for i in range(n)]
    files = []
    for i in range(draw(st.integers(2, 5))):
        closes = draw(st.lists(st.floats(0.5, 500.0), min_size=n, max_size=n))
        rows = [[d, repr(c)] for d, c in zip(days, closes)]
        mutation = draw(st.sampled_from(_LATER_MUTATIONS if i else _MUTATIONS))
        j = draw(st.integers(1, n - 1))
        if mutation == "drop":
            del rows[j]
        elif mutation == "swap":
            rows[j - 1], rows[j] = rows[j], rows[j - 1]
        elif mutation == "intraday":
            rows = [[f"{d}T00:00:00", c] for d, c in rows]
        elif mutation == "duplicate":
            rows[j][0] = rows[j - 1][0]
        elif mutation == "bad_date":
            rows[j][0] = "not-a-date"
        elif mutation == "bad_close":
            rows[j][1] = "abc"
        quote = '"' if mutation == "quoted" else ""
        files.append("date,close\n" + "".join(f"{quote}{d}{quote},{c}\n" for d, c in rows))
    return files


def _write(tmp_path, texts):
    assets = []
    for i, text in enumerate(texts):
        path = tmp_path / f"A{i}.csv"
        path.write_text(text, encoding="utf-8")
        assets.append((f"A{i}", str(path), None))
    return assets


@settings(max_examples=300, deadline=None, database=None)
@given(texts=panel_files())
def test_panel_loader_matches_per_file_path(tmp_path_factory, texts):
    assets = _write(tmp_path_factory.getbasetemp(), texts)
    assert _outcome(load_panel, assets) == _outcome(per_file_panel, assets)


def test_one_file_is_its_own_panel(tmp_path):
    assets = _write(tmp_path, ["date,close\n2020-01-02,1\n2020-01-03,2\n"])
    assert _outcome(load_panel, assets) == _outcome(per_file_panel, assets)


def _calendar_text(days, closes):
    return "date,close\n" + "".join(f"{d},{c:.10f}\n" for d, c in zip(days, closes))


def _panel_texts(k, n, seed):
    rng = np.random.default_rng(seed)
    days = [(date(2000, 1, 3) + timedelta(days=i)).isoformat() for i in range(n)]
    closes = 100.0 * np.exp(np.cumsum(0.01 * rng.standard_normal((k, n)), axis=1))
    return [_calendar_text(days, c.tolist()) for c in closes]


def test_shared_calendar_panel_holds_one_dates_tuple(tmp_path, monkeypatch):
    parsed = []

    class CountingDate(date):
        @classmethod
        def fromisoformat(cls, text):
            parsed.append(text)
            return date.fromisoformat(text)

    monkeypatch.setattr(market_data, "Date", CountingDate)
    panel = load_panel(_write(tmp_path, _panel_texts(4, 50, seed=1)))
    assert all(s.dates is panel.dates for s in panel.series)
    # only the first file's date cells are parsed
    assert len(parsed) == 50


def test_a_file_after_an_unordered_one_is_parsed_on_its_own(tmp_path):
    texts = _panel_texts(3, 20, seed=2)
    # the second file holds the first's rows out of order, the third the
    # first's date column again
    header, *rows = texts[1].splitlines(keepends=True)
    texts[1] = header + "".join(rows[1::-1] + rows[2:])
    assets = _write(tmp_path, texts)
    assert _outcome(load_panel, assets) == _outcome(per_file_panel, assets)


def _traced_peak(loader, assets):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        panel = loader(assets)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return panel, peak


def test_shared_calendar_load_peaks_lower(tmp_path):
    # 32 files of 5000 rows, the ingest_risk shape: each file's own
    # calendar is 5000 date objects and two tuples of them
    assets = _write(tmp_path, _panel_texts(32, 5000, seed=3))
    per_file_panel(assets[:2])  # imports and caches load outside the measurement
    want, per_file = _traced_peak(per_file_panel, assets)
    got, shared = _traced_peak(load_panel, assets)
    assert _outcome(lambda a: got, assets) == _outcome(lambda a: want, assets)
    assert shared <= 0.6 * per_file
