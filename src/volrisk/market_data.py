"""Price ingestion, return panels, descriptive statistics, and the
normality/stationarity test battery.

All container types are immutable after construction and safe to share
across threads; every operation is a pure function.
"""
from __future__ import annotations

import csv
import io
import logging
import math
import operator
from dataclasses import dataclass
from datetime import date as Date
from typing import Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "DataError",
    "DegenerateSeriesError",
    "PriceSeries",
    "ReturnSeries",
    "ReturnPanel",
    "DescriptiveStats",
    "TestResult",
    "load_price_series",
    "load_panel",
    "log_returns",
    "align_panel",
    "describe",
    "jarque_bera",
    "adf_test",
    "kpss_test",
    "pearson_correlation",
]


log = logging.getLogger("volrisk.market_data")


class DataError(Exception):
    """Input data violates a documented contract."""


class DegenerateSeriesError(DataError):
    """A computation requires nonzero variance and the series has none."""


def _check_increasing(name: str, dates: tuple) -> None:
    if not all(map(operator.lt, dates, dates[1:])):
        cur = next(cur for prev, cur in zip(dates, dates[1:]) if not cur > prev)
        raise DataError(f"{name}: dates not strictly increasing at {cur}")


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class PriceSeries:
    symbol: str
    dates: tuple
    close: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "close", _freeze(self.close))
        n = len(self.dates)
        if n < 2:
            raise DataError(f"{self.symbol}: need at least 2 observations, got {n}")
        if self.close.shape != (n,):
            raise DataError(f"{self.symbol}: {n} dates but {self.close.shape[0]} closes")
        _check_increasing(self.symbol, self.dates)
        if not np.all(np.isfinite(self.close)) or np.any(self.close <= 0.0):
            raise DataError(f"{self.symbol}: close prices must be positive and finite")

    def __len__(self) -> int:
        return len(self.dates)


@dataclass(frozen=True)
class ReturnSeries:
    symbol: str
    dates: tuple
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "values", _freeze(self.values))
        n = len(self.dates)
        if n < 1:
            raise DataError(f"{self.symbol}: empty return series")
        if self.values.shape != (n,):
            raise DataError(f"{self.symbol}: {n} dates but {self.values.shape[0]} returns")
        if not np.all(np.isfinite(self.values)):
            raise DataError(f"{self.symbol}: returns must be finite")

    def __len__(self) -> int:
        return len(self.dates)


@dataclass(frozen=True)
class ReturnPanel:
    series: tuple
    dates: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "series", tuple(self.series))
        object.__setattr__(self, "dates", tuple(self.dates))
        if not self.series:
            raise DataError("panel needs at least one series")
        for s in self.series:
            if s.dates is not self.dates and s.dates != self.dates:
                raise DataError(f"{s.symbol}: dates differ from the panel calendar")
        # period slicing bisects the calendar
        _check_increasing("panel", self.dates)

    @property
    def symbols(self) -> tuple:
        return tuple(s.symbol for s in self.series)

    def __len__(self) -> int:
        return len(self.dates)


@dataclass(frozen=True)
class DescriptiveStats:
    n: int
    mean: float
    std: float
    min: float
    max: float
    skewness: float
    excess_kurtosis: float
    q25: float
    q75: float
    sharpe: Optional[float] = None

    def to_dict(self) -> dict:
        # the instance dict holds the fields, in field order
        d = dict(vars(self))
        if self.sharpe is None:
            del d["sharpe"]
        return d


@dataclass(frozen=True)
class TestResult:
    test_name: str
    statistic: float
    decision_inputs: dict
    reject_null: bool
    significance: float

    def to_dict(self) -> dict:
        return {
            "test": self.test_name,
            "statistic": self.statistic,
            "reject_null": self.reject_null,
            "significance": self.significance,
            **self.decision_inputs,
        }


# every test reports its critical values at these levels and decides at 5%
_LEVELS = (0.01, 0.05, 0.10)

# chi-square(2) upper quantiles; closed form -2 ln(alpha)
_CHI2_2_CRIT = {a: -2.0 * math.log(a) for a in _LEVELS}

# Dickey-Fuller critical-value response surface, constant-only regression,
# one unit root: c(N) = b0 + b1/N + b2/N^2 + b3/N^3 (MacKinnon 2010, tau_c_1)
_ADF_SURFACE = {
    0.01: (-3.43035, -6.5393, -16.786, -79.433),
    0.05: (-2.86154, -2.8903, -4.234, -40.040),
    0.10: (-2.56677, -1.5384, -2.809, 0.0),
}

# KPSS level-stationarity asymptotic critical values
_KPSS_CRIT = {0.10: 0.347, 0.05: 0.463, 0.01: 0.739}


def _result(name: str, stat: float, crits: dict, beyond, null: str, **inputs) -> TestResult:
    """The battery's one decision: reject at 5% when ``beyond(stat, crit)``
    holds at the 5% critical value, ``beyond`` being ``operator.gt`` or
    ``operator.lt``.  ``inputs`` lead the decision inputs."""
    cv = {f"{a:.2f}": crits[a] for a in _LEVELS}
    return TestResult(name, stat, {**inputs, "critical_values": cv, "null": null},
                      reject_null=beyond(stat, crits[0.05]), significance=0.05)


def _window(r: ReturnSeries, given: "int | None", c: float, name: str) -> int:
    """A test's lag window: floor(c (n/100)^0.25) unless ``given``; it must
    be nonnegative and leave more than 10 observations."""
    n = r.values.size
    w = int(c * (n / 100.0) ** 0.25) if given is None else int(given)
    if w < 0:
        raise ValueError(f"{name} must be nonnegative, got {w}")
    if n <= w + 10:
        raise DataError(f"{r.symbol}: need more than {name} + 10 = {w + 10} observations, got {n}")
    return w


# ---------------------------------------------------------------------------
# ingestion

_DEFAULT_COLUMNS = {"date": "date", "close": "close"}
_DAY = operator.itemgetter(slice(None, 10))
# every byte but "," and "\n"; in UTF-8 no other character holds either byte
_NOT_SEPARATOR = bytes(sorted(set(range(256)) - set(b",\n")))


def _read_text(source: str) -> str:
    try:
        # utf-8-sig drops the byte-order mark that spreadsheets write
        with open(source, "r", encoding="utf-8-sig") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {source}: {exc}") from exc


def load_price_series(source: str, columns: "dict | None" = None, *, symbol: "str | None" = None) -> PriceSeries:
    r"""Load a PriceSeries from a local CSV file.

    ``columns`` maps the logical fields ``date`` and ``close`` to the
    header names used in the file; its other columns are not read.  Rows
    are sorted by date; malformed rows and duplicate dates are rejected
    with the offending row reported, and a file needs at least 2 rows.  The
    first line is the header; blank lines after it are skipped and not
    counted as rows, cells missing from a short row read as absent, and a
    header name given twice refers to its last column.

    The file is read with universal newlines, so its text arrives with
    every line end as ``\n``.  A file without quote characters, with a
    comma in its header, the header's commas on every later line and no
    field over ``csv.field_size_limit()`` (what ``simulate`` writes, and
    most vendor exports) is cut into cells by ``str.split``; any other
    file, one with a blank line too, is read by ``csv.reader``.  Both
    give the same cells, and only the ``csv.reader`` walk names an error.
    """
    dates, close, _ = _read_prices(source, columns)
    return PriceSeries(symbol=symbol if symbol is not None else _infer_symbol(source),
                       dates=dates, close=close)


def _read_prices(source: str, columns: "dict | None", calendar: "tuple | None" = None) -> tuple:
    """The dates and close prices of the price file ``source``, at least 2
    rows sorted by date as ``load_price_series`` reads them, and the
    calendar a later file may share: the pair of its date cells and its
    dates when those were strictly increasing in file order, else None.

    ``calendar`` is such a pair from another file.  When this file's date
    cells equal the pair's, the pair is this file's calendar, returned as
    it came: its dates are taken without being parsed or checked again.
    """
    mapping = dict(_DEFAULT_COLUMNS)
    if columns:
        mapping.update(columns)
    text = _read_text(source)
    reader = csv.reader(io.StringIO(text))
    try:
        # one split or reader pass pulls the two columns' cells and each
        # converts in one pass; on any failure a walk over the rows names
        # the first bad one
        idx = _header(source, reader, mapping)
        cells = _split_columns(text, idx)
        if cells is None:
            cells = tuple(zip(*map(operator.itemgetter(*idx), filter(None, reader)))) or ((), ())
        raw_dates, raw_close = cells
        n = len(raw_dates)
        shared = calendar is not None and raw_dates == calendar[0]
        if shared:
            dates = calendar[1]
        else:
            # intraday timestamps truncated to the calendar day
            dates = tuple(map(Date.fromisoformat, map(_DAY, map(str.strip, raw_dates))))
        close = np.fromiter(map(float, raw_close), float, count=n)
        if not np.all(np.isfinite(close) & (close > 0.0)):
            raise ValueError("non-positive price")
    except (csv.Error, IndexError, ValueError, TypeError):
        _raise_row_error(source, text, mapping)
        raise

    if n < 2:
        raise DataError(f"{source}: need at least 2 observations, got {n}")
    if shared:
        return dates, close, calendar
    if all(map(operator.lt, dates, dates[1:])):
        return dates, close, (raw_dates, dates)
    # a stable sort keeps equal dates in file order, so the second of
    # the first duplicate pair is the row reported
    ords = np.fromiter(map(Date.toordinal, dates), dtype=np.int64, count=n)
    order = np.argsort(ords, kind="stable")
    ords = ords[order]
    dup = np.flatnonzero(ords[1:] == ords[:-1])
    if dup.size:
        i = int(order[dup[0] + 1])
        raise DataError(f"{source}: duplicate date {dates[i]} at row {i + 2}")
    dates = tuple(dates[i] for i in order.tolist())
    return dates, close[order], None


def load_panel(assets: Sequence[tuple]) -> ReturnPanel:
    """The log-return panel of the price files ``assets``, (symbol,
    source, columns) triples in panel order: each file's dates and closes
    as ``load_price_series`` reads them, turned into log returns on the
    later date as ``log_returns`` does, and aligned by ``align_panel``.
    A DataError names the asset before the file's own text.

    A file whose date cells equal those of the file read before it, when
    that file's dates were strictly increasing in file order, shares its
    calendar: the same dates tuple, not parsed or checked again, and the
    same returns dates tuple.  Any other file is parsed on its own, and
    ``align_panel`` intersects the calendars.
    """
    series = []
    calendar = None
    for symbol, source, columns in assets:
        try:
            dates, close, own = _read_prices(source, columns, calendar)
        except DataError as exc:
            raise DataError(f"{symbol}: {exc}") from exc
        # a file on the last file's calendar takes its returns dates too
        shared = own is not None and own is calendar
        r = ReturnSeries(symbol=symbol, dates=series[-1].dates if shared else dates[1:],
                         values=np.diff(np.log(close)))
        calendar = own
        series.append(r)
        log.info("loaded %s: %d returns", symbol, len(r))
    return align_panel(series)


def _header(source: str, reader, mapping: dict) -> list:
    """Read the header row; return the column indices of the date and the
    close."""
    header = next(reader, None)
    if header is None:
        raise DataError(f"{source}: empty file, header row required")
    for logical in ("date", "close"):
        if mapping[logical] not in header:
            raise DataError(f"{source}: missing column {mapping[logical]!r} (have {header})")
    col = {name: i for i, name in enumerate(header)}
    return [col[mapping["date"]], col[mapping["close"]]]


def _split_columns(text: str, idx: list) -> "list | None":
    r"""Columns ``idx`` of the rows after the header, cell for cell as
    csv.reader reads them, or None unless ``text`` is plain: no quote
    character, a comma in the header, every later line the header's commas
    and a newline (supplied at the end when missing), no field over
    csv.field_size_limit().  ``text`` is what ``_read_text`` returns."""
    header, _, body = text.partition("\n")
    commas = header.count(",")
    if '"' in text or not commas:
        return None
    if not text.endswith("\n"):
        body += "\n"
    seps = body.encode().translate(None, _NOT_SEPARATOR)
    if seps != (b"," * commas + b"\n") * (len(seps) // (commas + 1)):
        return None
    fields = body.replace("\n", ",").split(",")
    limit = csv.field_size_limit()
    if len(text) > limit and max(map(len, fields)) > limit:
        return None
    # the one field after the last newline is empty
    return [fields[i:-1:commas + 1] for i in idx]


def _raise_row_error(source: str, text: str, mapping: dict) -> None:
    """Walk the rows of ``text`` in file order and raise the DataError of
    the first one that fails to read or convert."""
    reader = csv.reader(io.StringIO(text))
    try:
        cols = _header(source, reader, mapping)
        idx = 1  # header is row 1
        for row in reader:
            if not row:
                continue
            idx += 1
            n = len(row)
            raw_date, raw_close = (row[j] if j < n else None for j in cols)
            if raw_date is None or raw_close is None or raw_close.strip() == "":
                raise DataError(f"{source}: malformed row {idx}")
            try:
                Date.fromisoformat(raw_date.strip()[:10])
                c = float(raw_close)
            except ValueError as exc:
                raise DataError(f"{source}: malformed row {idx}: {exc}") from exc
            if not math.isfinite(c):
                raise DataError(f"{source}: non-finite price at row {idx}")
            if c <= 0.0:
                raise DataError(f"{source}: non-positive price at row {idx}")
    except csv.Error as exc:
        raise DataError(f"{source}: unreadable CSV at line {reader.line_num}: {exc}") from exc


def _infer_symbol(source: str) -> str:
    stem = source.rstrip("/").rsplit("/", 1)[-1]
    return stem.rsplit(".", 1)[0] if "." in stem else stem


# ---------------------------------------------------------------------------
# returns and panels

def log_returns(p: PriceSeries) -> ReturnSeries:
    """r_t = ln(P_t / P_{t-1}), attached to the later date."""
    values = np.diff(np.log(p.close))
    return ReturnSeries(symbol=p.symbol, dates=p.dates[1:], values=values)


def align_panel(series: Sequence[ReturnSeries]) -> ReturnPanel:
    """Restrict every series to the dates present in all of them.

    Every series of the panel holds the panel's own ``dates`` tuple.
    """
    if not series:
        raise DataError("alignment needs at least one series")
    dates = series[0].dates
    if all(s.dates is dates or s.dates == dates for s in series[1:]):
        aligned = [s if s.dates is dates else ReturnSeries(symbol=s.symbol, dates=dates, values=s.values)
                   for s in series]
        return ReturnPanel(series=tuple(aligned), dates=dates)
    common = set(dates)
    for i, s in enumerate(series[1:], 1):
        common &= set(s.dates)
        if not common:
            raise DataError(f"{s.symbol}: empty calendar intersection with "
                            + ", ".join(t.symbol for t in series[:i]))
    dates = tuple(sorted(common))
    aligned = []
    for s in series:
        pos = {d: i for i, d in enumerate(s.dates)}
        idx = [pos[d] for d in dates]
        aligned.append(ReturnSeries(symbol=s.symbol, dates=dates, values=s.values[idx]))
    return ReturnPanel(series=tuple(aligned), dates=dates)


# ---------------------------------------------------------------------------
# descriptive statistics and tests

_QUARTILES = (0.25, 0.75)


def _quantiles(X: np.ndarray, q: Sequence[float]) -> np.ndarray:
    """``np.quantile(X, q, axis=-1)`` of the finite array ``X`` bit for
    bit, one row per level of ``q``, by numpy's own linear-method steps.

    The one step left out is numpy's ``np.unique`` of the partition
    points, which imports ``numpy.ma``; ``sorted`` of a set gives the
    same points, so ``partition`` leaves ``0.0`` and ``-0.0`` where
    numpy's does.
    """
    n = X.shape[-1]
    v = (n - 1) * np.asarray(q, dtype=float)
    lo = np.floor(v)
    hi = lo + 1.0
    # a level at the top index reads the last order statistic on both sides
    top = v >= n - 1
    lo[top] = hi[top] = -1.0
    t = (v - lo).reshape(v.shape + (1,) * (X.ndim - 1))
    lo, hi = lo.astype(np.intp), hi.astype(np.intp)
    A = np.moveaxis(X.copy(), -1, 0)
    A.partition(sorted({0, -1, *lo.tolist(), *hi.tolist()}), axis=0)
    a, b = A[lo], A[hi]
    diff = b - a
    out = a + diff * t
    np.subtract(b, diff * (1 - t), out=out, where=t >= 0.5)
    return out


def _moments(X: np.ndarray, q: Sequence[float] = _QUARTILES) -> list:
    """One tuple of Python floats per row of the (k, n) array ``X``: the
    mean, the central moments m2, m3 and m4 (denominator n), the std
    (denominator n - 1), the min, the max and the quantiles at ``q``.

    Every step is an axis-1 reduction or elementwise, so each row gets
    bitwise what its own 1-D array would.  The quantiles come first, so
    their working copy of ``X`` is freed before ``c`` and ``c^2`` exist.
    """
    n = X.shape[1]
    quantiles = _quantiles(X, q)
    mean = X.mean(axis=1)
    c = X - mean[:, None]
    # one buffer takes c^2, c^3 and c^4 in turn
    p = c * c
    ss = p.sum(axis=1)
    m3 = np.multiply(p, c, out=p).mean(axis=1)
    m4 = np.multiply(p, c, out=p).mean(axis=1)
    # n = 1 makes the std 0 / 0, which _stats rejects for its length
    with np.errstate(invalid="ignore"):
        std = np.sqrt(ss / (n - 1))
    cols = (mean, ss / n, m3, m4, std, X.min(axis=1), X.max(axis=1), *quantiles)
    return list(zip(*(a.tolist() for a in cols)))


def _stats(symbol: str, n: int, row: tuple, risk_free: "float | None" = None) -> DescriptiveStats:
    """``describe`` of the n returns named ``symbol`` from their
    ``_moments`` row, taken with the quartiles first in ``q``."""
    if n < 4:
        raise DataError(f"{symbol}: need at least 4 observations, got {n}")
    mean, m2, m3, m4, std, lo, hi, q25, q75, *_ = row
    if m2 == 0.0:
        raise DegenerateSeriesError(f"{symbol}: degenerate: zero variance")
    return DescriptiveStats(
        n=n,
        mean=mean,
        std=std,
        min=lo,
        max=hi,
        skewness=m3 / m2 ** 1.5,
        excess_kurtosis=m4 / (m2 * m2) - 3.0,
        q25=q25,
        q75=q75,
        sharpe=None if risk_free is None else (mean - risk_free) / std,
    )


def describe(r: ReturnSeries, risk_free: "float | None" = None) -> DescriptiveStats:
    """Sample moments of a return series.

    Skewness and excess kurtosis are the population central-moment ratios
    m3/m2^1.5 and m4/m2^2 - 3; std uses denominator n-1.  ``risk_free`` is
    a per-period rate; when supplied the Sharpe ratio (mean - rf)/std is
    included.
    """
    return _stats(r.symbol, len(r), _moments(r.values[None, :])[0], risk_free)


def _describe_panel(panel: ReturnPanel, risk_free: "float | None" = None) -> dict:
    """``describe`` of every series of the panel by symbol, from one
    ``_moments`` pass; raises the error of the first series that has one."""
    rows = _moments(np.stack([s.values for s in panel.series]))
    return {sym: _stats(sym, len(panel), row, risk_free)
            for sym, row in zip(panel.symbols, rows)}


def jarque_bera(s: DescriptiveStats) -> TestResult:
    """JB = n/6 (S^2 + (K - 3)^2 / 4) with K the raw kurtosis."""
    if s.std <= 0.0:
        raise DegenerateSeriesError("degenerate: zero variance")
    stat = s.n / 6.0 * (s.skewness ** 2 + s.excess_kurtosis ** 2 / 4.0)
    return _result("jarque_bera", stat, _CHI2_2_CRIT, operator.gt, "normality")


# least share of its column's sum of squares a Cholesky pivot of X'X keeps
# in a design that is not collinear
_ADF_PIVOT = 1e-10


def adf_test(r: ReturnSeries, lags: "int | None" = None) -> TestResult:
    """Augmented Dickey-Fuller test, constant and no trend.

    Null: unit root.  Lag order defaults to the Schwert rule
    floor(12 (n/100)^0.25); critical values come from the embedded
    response-surface constants evaluated at the effective sample size.

    The regression (Said & Dickey 1984) runs on its normal equations: a
    Cholesky factor L of X'X gives the coefficients and the variance of
    the lagged level's.  A design is collinear, and raises
    DegenerateSeriesError, when Cholesky fails or some pivot leaves less
    than 1e-10 of its column's sum of squares, L_jj^2 < 1e-10 (X'X)_jj,
    that is 1 - R^2 < 1e-10 against the columns before it.  The
    simulated return panels keep at least 0.45; a periodic return pattern
    (alternating, period 3, one move in ten) fails Cholesky outright.
    """
    p = _window(r, lags, 12.0, "lags")
    x = r.values
    dx = np.diff(x)
    y = dx[p:]
    X = np.empty((y.size, p + 2))
    X[:, 0] = 1.0
    X[:, 1] = x[p:-1]
    # row t holds the lagged differences dx[t+p-1], ..., dx[t]
    X[:, 2:] = sliding_window_view(dx[:-1], p)[:, ::-1]
    xtx = X.T @ X
    try:
        L = np.linalg.cholesky(xtx)
    except np.linalg.LinAlgError:
        L = None
    if L is None or np.any(np.diagonal(L) ** 2 < _ADF_PIVOT * np.diagonal(xtx)):
        raise DegenerateSeriesError(f"{r.symbol}: collinear regressors in ADF regression")
    # with M = L^-1, (X'X)^-1 = M'M: beta = M'(M X'y) and (X'X)^-1_11 = |M[:, 1]|^2
    M = np.linalg.inv(L)
    beta = M.T @ (M @ (X.T @ y))
    resid = y - X @ beta
    dof = y.size - X.shape[1]
    s2 = float(resid @ resid) / dof
    cov11 = s2 * float(M[:, 1] @ M[:, 1])
    stat = float(beta[1] / math.sqrt(cov11))
    nobs = y.size
    crits = {a: b0 + b1 / nobs + b2 / nobs**2 + b3 / nobs**3
             for a, (b0, b1, b2, b3) in _ADF_SURFACE.items()}
    return _result("adf", stat, crits, operator.lt, "unit root", lags=p, nobs=nobs)


def kpss_test(r: ReturnSeries, bandwidth: "int | None" = None) -> TestResult:
    """KPSS level-stationarity test.

    Null: (level) stationarity.  Long-run variance uses the Bartlett
    kernel with bandwidth floor(4 (n/100)^0.25) unless overridden.
    """
    l = _window(r, bandwidth, 4.0, "bandwidth")
    x = r.values
    n = x.size
    e = x - x.mean()
    if float(e @ e) == 0.0:
        raise DegenerateSeriesError(f"{r.symbol}: degenerate: zero variance")
    s = np.cumsum(e)
    eta = float(s @ s) / (n * n)
    lrv = float(e @ e) / n
    for j in range(1, l + 1):
        gamma_j = float(e[j:] @ e[:-j]) / n
        lrv += 2.0 * (1.0 - j / (l + 1.0)) * gamma_j
    stat = eta / lrv
    return _result("kpss", stat, _KPSS_CRIT, operator.gt, "stationarity", bandwidth=l)


def pearson_correlation(panel: ReturnPanel) -> np.ndarray:
    """Sample Pearson correlation matrix of the panel (exactly symmetric,
    unit diagonal)."""
    X = np.column_stack([s.values for s in panel.series])
    X = X - X.mean(axis=0)
    cov = X.T @ X
    d = np.sqrt(np.diagonal(cov))
    for s, dv in zip(panel.series, d):
        if dv == 0.0:
            raise DegenerateSeriesError(f"{s.symbol}: degenerate: zero variance")
    C = cov / np.outer(d, d)
    C = 0.5 * (C + C.T)
    C = np.clip(C, -1.0, 1.0)
    np.fill_diagonal(C, 1.0)
    return C
