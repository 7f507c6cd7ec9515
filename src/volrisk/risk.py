"""Downside-risk measures: parametric, moment-corrected, and empirical
value-at-risk plus drawdown paths, over named sub-periods and levels.

Sign convention throughout: a positive VaR is a loss magnitude.  The
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
    _stats,
)

__all__ = [
    "RiskSpec",
    "RiskReport",
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
            if not 0.0 < lv < 1.0:
                raise ValueError(f"levels must lie strictly in (0, 1), got {lv}")
        # levels key the report to 6 significant digits
        if len({f"{lv:g}" for lv in self.levels}) != len(self.levels):
            raise ValueError(
                f"levels must be distinct to 6 significant digits, got {list(self.levels)}")
        if not (math.isfinite(self.amount) and self.amount > 0.0):
            raise ValueError(f"portfolio amount must be > 0, got {self.amount}")
        if not self.periods:
            raise ValueError("at least one period required")
        names = [p[0] for p in self.periods]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate period names: {names}")
        for name, start, end in self.periods:
            if start is not None and end is not None and start > end:
                raise ValueError(f"period {name!r}: start {start} after end {end}")


@dataclass(frozen=True)
class RiskReport:
    """Keyed risk results.

    ``var`` maps (symbol, period, level) to a dict with the three
    variants; ``max_drawdown`` maps (symbol, period) to the minimum of the
    period's drawdown path, as ``drawdown`` of that period's slice returns
    it; ``stats`` holds the per-cell moments the parametric measures were
    computed from.
    """

    spec: RiskSpec
    symbols: tuple
    var: dict
    max_drawdown: dict
    stats: dict

    def to_dict(self) -> dict:
        assets: dict = {}
        for symbol in self.symbols:
            per: dict = {}
            for name, start, end in self.spec.periods:
                per[name] = {
                    "start": None if start is None else start.isoformat(),
                    "end": None if end is None else end.isoformat(),
                    "stats": self.stats[(symbol, name)].to_dict(),
                    "var": {
                        f"{lv:g}": self.var[(symbol, name, lv)]
                        for lv in self.spec.levels
                    },
                    "max_drawdown": self.max_drawdown[(symbol, name)],
                }
            assets[symbol] = per
        return {
            "amount": self.spec.amount,
            "levels": [f"{lv:g}" for lv in self.spec.levels],
            "periods": [p[0] for p in self.spec.periods],
            "assets": assets,
        }

    def to_csv(self) -> str:
        """Asset rows with level sub-rows and period column groups, 3-decimal."""
        period_names = [p[0] for p in self.spec.periods]
        header = ["symbol", "level"]
        for name in period_names:
            header += [f"{name}_var", f"{name}_cfvar", f"{name}_empvar"]
        lines = [",".join(header)]
        for symbol in self.symbols:
            for lv in self.spec.levels:
                row = [symbol, f"{lv:g}"]
                for name in period_names:
                    cell = self.var[(symbol, name, lv)]
                    row += [
                        f"{cell['gaussian']:.3f}",
                        f"{cell['cornish_fisher']:.3f}",
                        f"{cell['empirical']:.3f}",
                    ]
                lines.append(",".join(row))
        return "\n".join(lines) + "\n"


def _check_level(level: float) -> None:
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie strictly in (0, 1), got {level}")


def _check_stats(stats: DescriptiveStats) -> None:
    if not stats.std > 0.0:
        raise DegenerateSeriesError("degenerate: zero variance")


def gaussian_var(stats: DescriptiveStats, level: float, amount: float = 1.0) -> float:
    """-(mu + Z_alpha sigma) W with Z_alpha the lower-tail normal quantile."""
    _check_level(level)
    _check_stats(stats)
    z = _ndtri(1.0 - level)
    return -(stats.mean + z * stats.std) * amount


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
    _check_level(level)
    _check_stats(stats)
    z_c = _ndtri(1.0 - level)
    z_cf = cornish_fisher_z(z_c, stats.skewness, stats.excess_kurtosis)
    return -(stats.mean + z_cf * stats.std) * amount


def _check_sample(symbol: str, n: int, levels) -> None:
    """Raise, or warn of a thin sample, as the empirical quantiles of n
    returns at every level require."""
    for level in levels:
        _check_level(level)
        if n < 10:
            raise DataError(f"{symbol}: need at least 10 observations, got {n}")
        needed = 1.0 / (1.0 - level)
        if n < needed:
            log.warning(
                "%s: %d observations is thin for level %g (want >= %.0f)",
                symbol, n, level, needed,
            )


def empirical_var(r: ReturnSeries, level: float, amount: float = 1.0) -> float:
    """-(empirical (1-level)-quantile of returns) W, linear interpolation
    between order statistics."""
    _check_sample(r.symbol, len(r), (level,))
    return -float(np.quantile(r.values, 1.0 - level)) * amount


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


def risk_report(panel: ReturnPanel, spec: RiskSpec) -> RiskReport:
    """All three VaR variants per (asset, period, level), and the maximum
    drawdown per (asset, period).

    Moments are recomputed on each period's sample, for every asset at
    once.  Errors and thin-level warnings come in (asset, period) order.
    An empty period is an error naming the period and asset.
    """
    V = np.stack([s.values for s in panel.series])
    q = (*_QUARTILES, *(1.0 - lv for lv in spec.levels))
    blocks = []
    var: dict = {}
    max_dd: dict = {}
    stats: dict = {}
    for i, symbol in enumerate(panel.symbols):
        for j, (name, start, end) in enumerate(spec.periods):
            if i == 0:
                # each period's block is built when the first asset reaches
                # it, so errors and warnings keep a per-cell loop's order
                lo, hi = _span(panel.dates, start, end)
                if lo >= hi:
                    raise DataError(f"period {name!r}: no observations for {symbol}")
                blocks.append((hi - lo, _moments(V[:, lo:hi], q),
                               _drawdowns(V[:, lo:hi]).min(axis=1).tolist()))
            n, rows, dd_min = blocks[j]
            cell_stats = _stats(symbol, n, rows[i])
            stats[(symbol, name)] = cell_stats
            max_dd[(symbol, name)] = dd_min[i]
            _check_sample(symbol, n, spec.levels)
            for lv, quantile in zip(spec.levels, rows[i][-len(spec.levels):]):
                var[(symbol, name, lv)] = {
                    "gaussian": gaussian_var(cell_stats, lv, spec.amount),
                    "cornish_fisher": cf_var(cell_stats, lv, spec.amount),
                    "empirical": -quantile * spec.amount,
                }
    return RiskReport(spec=spec, symbols=panel.symbols, var=var,
                      max_drawdown=max_dd, stats=stats)
