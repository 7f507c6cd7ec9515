"""Downside-risk measures: parametric, moment-corrected, and empirical
value-at-risk plus drawdown paths, over named sub-periods and levels.

Sign convention throughout: a positive VaR is a loss magnitude, and a
zero one is +0.0, as each VaR is taken as 0.0 minus the quantile.  The
moment-corrected quantile is evaluated at the negative lower-tail normal
quantile, which makes the corrected measure collapse to the parametric one
when skewness and excess kurtosis vanish.  Negative outputs are allowed
(a strongly positive mean can push the quantile into gain territory).
"""
from __future__ import annotations

import logging
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .distributions import _ndtri
from .market_data import (
    _QUARTILES,
    DataError,
    DegenerateSeriesError,
    DescriptiveStats,
    ReturnPanel,
    ReturnSeries,
    _moments,
    _quantiles,
    _stats,
)

__all__ = [
    "RiskSpec",
    "gaussian_var",
    "cornish_fisher_z",
    "cf_var",
    "empirical_var",
    "drawdown",
    "risk_report",
]

log = logging.getLogger("volrisk.risk")


@dataclass(frozen=True)
class RiskSpec:
    """Confidence levels, portfolio amount, and named date ranges.

    ``periods`` entries are (name, start, end); either bound may be None
    for an open side.
    """

    levels: tuple = (0.90, 0.95, 0.99)
    amount: float = 1.0
    periods: tuple = (("full", None, None),)

    def __post_init__(self) -> None:
        object.__setattr__(self, "levels", tuple(float(v) for v in self.levels))
        object.__setattr__(self, "periods", tuple(tuple(p) for p in self.periods))
        if not self.levels:
            raise ValueError("at least one confidence level required")
        for lv in self.levels:
            _check_level(lv)
        # levels key the report to 6 significant digits
        if len({f"{lv:g}" for lv in self.levels}) != len(self.levels):
            raise ValueError(
                f"levels must be distinct to 6 significant digits, got {list(self.levels)}")
        if not math.isfinite(self.amount):
            raise ValueError(f"portfolio amount must be finite, got {self.amount}")
        if not self.amount > 0.0:
            raise ValueError(f"portfolio amount must be > 0, got {self.amount}")
        if not self.periods:
            raise ValueError("at least one period required")
        names = [p[0] for p in self.periods]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate period names: {names}")
        for name, start, end in self.periods:
            if start is not None and end is not None and start > end:
                raise ValueError(f"period {name!r}: start {start} after end {end}")


def _check_level(level: float) -> None:
    # a level keys the report as f"{level:g}", and its quantile is taken at 1 - level
    if not 0.0 < level < 1.0:
        raise ValueError(f"confidence levels must lie strictly in (0, 1), got {level}")
    if f"{level:g}" == "1" or 1.0 - level == 1.0:
        raise ValueError(f"confidence levels must read below 1 to 6 digits "
                         f"and leave 1 - level below 1, got {level}")


def _z(stats: DescriptiveStats, level: float) -> float:
    """Z_alpha at a checked ``level``, for the parametric VaRs of ``stats``,
    which scale it by a standard deviation that must be positive."""
    _check_level(level)
    if not stats.std > 0.0:
        raise DegenerateSeriesError("degenerate: zero variance")
    return _ndtri(1.0 - level)


def _var(stats: DescriptiveStats, z: float, amount: float) -> float:
    """-(mu + z sigma) W, the parametric VaR at the standardized quantile z."""
    return 0.0 - (stats.mean + z * stats.std) * amount


def gaussian_var(stats: DescriptiveStats, level: float, amount: float = 1.0) -> float:
    """-(mu + Z_alpha sigma) W with Z_alpha the lower-tail normal quantile."""
    return _var(stats, _z(stats, level), amount)


def cornish_fisher_z(z_c: float, S: float, K: float) -> float:
    """Moment-corrected quantile:
    z + (z^2 - 1) S/6 + (z^3 - 3z) K/24 - (2z^3 - 5z) S^2/36."""
    return (
        z_c
        + (z_c * z_c - 1.0) * S / 6.0
        + (z_c ** 3 - 3.0 * z_c) * K / 24.0
        - (2.0 * z_c ** 3 - 5.0 * z_c) * S * S / 36.0
    )


def cf_var(stats: DescriptiveStats, level: float, amount: float = 1.0) -> float:
    """Moment-corrected VaR; equals gaussian_var when S = K = 0.

    K is the excess kurtosis carried by the stats.  Negative outputs are
    permitted.
    """
    z_cf = cornish_fisher_z(_z(stats, level), stats.skewness, stats.excess_kurtosis)
    return _var(stats, z_cf, amount)


def _check_sample(symbol: str, n: int, levels) -> None:
    """Raise unless n returns give an empirical quantile, then warn of
    each checked level they are thin for."""
    if n < 10:
        raise DataError(f"{symbol}: need at least 10 observations, got {n}")
    for level in levels:
        needed = 1.0 / (1.0 - level)
        if n < needed:
            log.warning("%s: %d observations is thin for level %g (want >= %.0f)",
                        symbol, n, level, needed)


def empirical_var(r: ReturnSeries, level: float, amount: float = 1.0) -> float:
    """-(empirical (1-level)-quantile of returns) W, linear interpolation
    between order statistics."""
    _check_level(level)
    _check_sample(r.symbol, len(r), (level,))
    return 0.0 - float(_quantiles(r.values, (1.0 - level,))[0]) * amount


def _drawdowns(X: np.ndarray) -> np.ndarray:
    """Read-only drawdown paths of the rows of the (k, n) return array X."""
    dd = np.exp(np.cumsum(X, axis=1))
    dd /= np.maximum.accumulate(dd, axis=1)
    dd -= 1.0
    dd.setflags(write=False)
    return dd


def drawdown(r: ReturnSeries) -> tuple:
    """Drawdown path and its minimum.

    Wealth is exp of the running return sum; the drawdown at t is wealth
    relative to its running peak, minus one.  Returns (series, max_dd)
    where series is the tuple of (date, dd) pairs, dd a Python float.
    """
    dd = _drawdowns(r.values[None, :])[0]
    return tuple(zip(r.dates, dd.tolist())), float(dd.min())


def _span(dates: tuple, start, end) -> tuple:
    """The index range [lo, hi) of the strictly increasing ``dates`` that
    fall within [start, end]; a None bound is open."""
    lo = 0 if start is None else bisect_left(dates, start)
    hi = len(dates) if end is None else bisect_right(dates, end)
    return lo, hi


def risk_report(panel: ReturnPanel, spec: RiskSpec) -> dict:
    """The document ``risk.json`` holds: ``amount``, ``levels`` (each keyed
    as ``f"{lv:g}"``), ``periods`` and ``assets``, which maps each asset and
    period to its ``start``, ``end``, ``stats``, ``var`` (per level, the
    ``gaussian``, ``cornish_fisher`` and ``empirical`` VaRs) and
    ``max_drawdown``, the minimum of the period's drawdown path.

    Moments are recomputed on each period's sample, for every asset at
    once.  Errors and thin-level warnings come in (asset, period) order; a
    cell's error keeps its class and names the period, then the asset.  A
    period of fewer than 10 returns is refused, an empty one as having none.
    """
    V = np.stack([s.values for s in panel.series])
    q = (*_QUARTILES, *(1.0 - lv for lv in spec.levels))
    # the spec has checked its levels, so each normal quantile is taken once
    zs = [_ndtri(1.0 - lv) for lv in spec.levels]
    keys = [f"{lv:g}" for lv in spec.levels]
    blocks = []
    assets: dict = {}
    for i, symbol in enumerate(panel.symbols):
        per = assets[symbol] = {}
        for j, (name, start, end) in enumerate(spec.periods):
            try:
                if i == 0:
                    # each period's block is built, its length checked, when the first
                    # asset reaches it, so errors and warnings keep a per-cell loop's order
                    lo, hi = _span(panel.dates, start, end)
                    if lo >= hi:
                        raise DataError(f"no observations for {symbol}")
                    _check_sample(symbol, hi - lo, ())
                    blocks.append((hi - lo, _moments(V[:, lo:hi], q),
                                   _drawdowns(V[:, lo:hi]).min(axis=1).tolist()))
                n, rows, dd_min = blocks[j]
                cell_stats = _stats(symbol, n, rows[i])
                _check_sample(symbol, n, spec.levels)
            except DataError as exc:
                # the same class, so a zero variance stays a DegenerateSeriesError
                raise type(exc)(f"period {name!r}: {exc}") from exc
            S, K = cell_stats.skewness, cell_stats.excess_kurtosis
            per[name] = {
                "start": None if start is None else start.isoformat(),
                "end": None if end is None else end.isoformat(),
                "stats": cell_stats.to_dict(),
                "var": {key: {
                    "gaussian": _var(cell_stats, z, spec.amount),
                    "cornish_fisher": _var(cell_stats, cornish_fisher_z(z, S, K), spec.amount),
                    "empirical": 0.0 - quantile * spec.amount,
                } for key, z, quantile in zip(keys, zs, rows[i][-len(spec.levels):])},
                "max_drawdown": dd_min[i],
            }
    return {"amount": spec.amount, "levels": keys,
            "periods": [p[0] for p in spec.periods], "assets": assets}
