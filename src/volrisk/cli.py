"""Command-line front end.

Subcommands cover the full pipeline: ingest + descriptive tables
(``describe``), normality and unit-root tests (``test``), two-stage
volatility/correlation fits (``fit``), the risk report (``risk``), all of
the above (``report``), and seeded panel generation (``simulate``).  Runs
are driven by a YAML config; a fixed config gives byte-identical outputs,
and only ``simulate`` draws random numbers.  Logging goes to stderr (level
via VOLRISK_LOG); data only to files and stdout.

Exit codes: 0 success, 1 model non-convergence (outputs still written),
2 input error, 3 config error.
"""
from __future__ import annotations

import argparse
import datetime
import json
import logging
import math
import os
import sys
from dataclasses import dataclass, field
from datetime import date as Date
from pathlib import Path

import numpy as np
import yaml

from .dcc import DccParams, fit_dcc, simulate_dcc_panel
from .distributions import FAMILIES, InnovationDist
from .egarch import EgarchParams, MeanParams, MeanSpec, fit_egarch
from .market_data import (
    DataError,
    ReturnPanel,
    _describe_panel,
    adf_test,
    jarque_bera,
    kpss_test,
    load_panel,
    pearson_correlation,
)
from .risk import RiskSpec, _drawdowns, risk_report

__all__ = ["ConfigError", "RunConfig", "load_run_config", "main"]

log = logging.getLogger("volrisk.cli")

EXIT_OK = 0
EXIT_NONCONVERGED = 1
EXIT_INPUT = 2
EXIT_CONFIG = 3

# two-sided normal critical values at the 1 / 5 / 10 percent levels
_STARS = ((2.5758293035489004, "***"), (1.959963984540054, "**"), (1.6448536269514722, "*"))
# rows that get no star, zero not being their null: a shape exceeds 2, and
# skew 1 is the symmetric law
_UNSTARRED = {"shape", "joint_shape", "skew"}


class ConfigError(Exception):
    pass


def _plain_cell(name, where: str) -> None:
    # the CSV writers join cells, each name's str, without quoting
    if not set(str(name)).isdisjoint(',"\n\r'):
        raise ConfigError(f"""{where} {name!r} must not contain ',', '"', '\\n' or '\\r'""")


@dataclass(frozen=True)
class AssetConfig:
    symbol: str
    source: str
    columns: "dict | None" = None
    mean: MeanSpec = field(default_factory=MeanSpec)


@dataclass(frozen=True)
class RunConfig:
    assets: tuple
    periods: tuple = RiskSpec.periods
    family: str = "student_t"
    levels: tuple = RiskSpec.levels
    amount: float = RiskSpec.amount
    out_dir: str = "out"
    seed: int = 0
    risk_free: "float | None" = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "assets", tuple(self.assets))
        if not self.assets:
            raise ConfigError("at least one asset required")
        # a symbol is a CSV cell and, slugged, part of its file names, which may ignore case
        files = {}
        for i, a in enumerate(self.assets):
            _plain_cell(a.symbol, f"assets[{i}]: symbol")
            j = files.setdefault(_slug(a.symbol).casefold(), i)
            if j != i:
                raise ConfigError(f"duplicate file fit_{_slug(a.symbol)}.json of assets "
                                  f"{self.assets[j].symbol!r} and {a.symbol!r}")
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown distribution {self.family!r}; expected one of {FAMILIES}")
        # the risk report's rules on levels, amount and periods are the config's
        try:
            spec = RiskSpec(levels=self.levels, amount=self.amount, periods=self.periods)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        for name in ("levels", "amount", "periods"):
            object.__setattr__(self, name, getattr(spec, name))
        for name, _, _ in self.periods:
            _plain_cell(name, "period")
        if self.risk_free is not None and not math.isfinite(self.risk_free):
            raise ConfigError(f"risk_free_rate must be finite, got {self.risk_free}")


def _as_date(v, where: str) -> "Date | None":
    if v is None:
        return None
    if isinstance(v, datetime.datetime):
        return v.date()
    if isinstance(v, Date):
        return v
    if isinstance(v, str):
        try:
            return Date.fromisoformat(v)
        except ValueError:
            pass
    raise ConfigError(f"{where}: expected an ISO date, got {v!r}")


def _check_keys(section: dict, allowed: set, where: str) -> None:
    extra = set(section) - allowed
    if extra:
        # YAML keys need not be strings, nor of one type
        raise ConfigError(f"{where}: unknown keys {sorted(extra, key=str)}")


# the types of each kind of config value; bool is a subclass of int, but
# `true` is neither an order, a seed nor a number
_KINDS = {"an integer": int, "a number": (int, float), "a string": str,
          "a mapping": dict, "true or false": bool}


def _typed(value, kind: str, key, where: str):
    """``value``, which must be of ``kind``, a key of ``_KINDS``; a quoted
    "0.95" or a `true` is a typo, not a value to coerce."""
    types = _KINDS[kind]
    if isinstance(value, bool) is not (types is bool) or not isinstance(value, types):
        raise ConfigError(f"{where}: {key!r} must be {kind}, got {value!r}")
    return value


def _number(value, key) -> float:
    # a config number as a float, an integer beyond float's range refused
    try:
        return float(_typed(value, "a number", key, "config"))
    except OverflowError:
        raise ConfigError(f"config: {key!r} must be a number within float range, "
                          f"got an integer of {len(str(abs(value)))} digits") from None


def _unless_null(value, default):
    # where null reads as the key left out; `0`, `false`, `''` or `[]` is a typo
    return default if value is None else value


def _parse_asset(raw, idx: int) -> AssetConfig:
    where = f"assets[{idx}]"
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: expected a mapping")
    _check_keys(raw, {"symbol", "source", "columns", "mean"}, where)
    for key in ("symbol", "source"):
        if not isinstance(raw.get(key), str) or not raw[key]:
            raise ConfigError(f"{where}: {key!r} must be a non-empty string")
    columns = _typed(_unless_null(raw.get("columns"), {}), "a mapping", "columns", where)
    _check_keys(columns, {"date", "close"}, f"{where}.columns")
    for key, name in columns.items():
        _typed(name, "a string", key, f"{where}.columns")
    mean_raw = _typed(_unless_null(raw.get("mean"), {}), "a mapping", "mean", where)
    _check_keys(mean_raw, {"ar", "ma", "constant"}, f"{where}.mean")
    constant = _typed(mean_raw.get("constant", True), "true or false", "constant", f"{where}.mean")
    try:
        mean = MeanSpec(
            ar_order=_typed(mean_raw.get("ar", 0), "an integer", "ar", f"{where}.mean"),
            ma_order=_typed(mean_raw.get("ma", 0), "an integer", "ma", f"{where}.mean"),
            include_constant=constant,
        )
    except ValueError as exc:
        raise ConfigError(f"{where}.mean: {exc}") from exc
    return AssetConfig(symbol=raw["symbol"], source=raw["source"], columns=columns or None,
                       mean=mean)


def _parse_periods(raw) -> tuple:
    if raw is None:
        return RiskSpec.periods
    if not isinstance(raw, dict) or not raw:
        raise ConfigError("periods: expected a non-empty mapping of name -> {start, end}")
    periods = []
    for name in raw:
        where = f"periods[{name}]"
        bounds = _typed(_unless_null(raw[name], {}), "a mapping", name, "periods")
        _check_keys(bounds, {"start", "end"}, where)
        start = _as_date(bounds.get("start"), f"{where}.start")
        end = _as_date(bounds.get("end"), f"{where}.end")
        periods.append((str(name), start, end))
    return tuple(periods)


_TOP_KEYS = {
    "assets", "periods", "distribution", "levels", "portfolio_amount",
    "output_dir", "seed", "risk_free_rate",
}


class _UniqueKeys:
    """Loader mixin: a key written twice in one mapping is an error naming
    the key and its line; an explicit key may override a ``<<`` merge."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            if key_node.tag == "tag:yaml.org,2002:merge":
                continue
            key = self.construct_object(key_node, deep=deep)
            try:
                again = key in seen
            except TypeError:  # unhashable: the base constructor reports it
                continue
            if again:
                raise yaml.constructor.ConstructorError(
                    "while constructing a mapping", node.start_mark,
                    f"found duplicate key {key!r}", key_node.start_mark)
            seen.add(key)
        return super().construct_mapping(node, deep=deep)


def load_run_config(path: "str | None", overrides: "dict | None" = None) -> RunConfig:
    """Parse and validate a YAML run config; ``overrides`` (from CLI flags)
    replace the corresponding config fields."""
    if path is None:
        raise ConfigError("--config is required for this command")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            base = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
            raw = yaml.load(fh, Loader=type("Loader", (_UniqueKeys, base), {}))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (yaml.YAMLError, ValueError) as exc:
        # ValueError: an integer over Python's digit limit for str -> int
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path}: expected a top-level mapping")
    _check_keys(raw, _TOP_KEYS, "config")
    assets_raw = raw.get("assets")
    if not isinstance(assets_raw, list) or not assets_raw:
        raise ConfigError("config: 'assets' must be a non-empty list")
    assets = tuple(_parse_asset(a, i) for i, a in enumerate(assets_raw))
    levels = raw.get("levels", RiskSpec.levels)
    if not isinstance(levels, (list, tuple)) or not levels:
        raise ConfigError("config: 'levels' must be a non-empty list")
    risk_free = raw.get("risk_free_rate")
    fields = {
        "assets": assets,
        "periods": _parse_periods(raw.get("periods")),
        "family": _typed(_unless_null(raw.get("distribution"), RunConfig.family), "a string",
                         "distribution", "config"),
        "levels": tuple(_number(v, "levels") for v in levels),
        "amount": _number(raw.get("portfolio_amount", RiskSpec.amount), "portfolio_amount"),
        "out_dir": _typed(_unless_null(raw.get("output_dir"), RunConfig.out_dir), "a string",
                          "output_dir", "config"),
        "seed": _typed(raw.get("seed", RunConfig.seed), "an integer", "seed", "config"),
        "risk_free": None if risk_free is None else _number(risk_free, "risk_free_rate"),
    }
    fields.update(overrides or {})
    return RunConfig(**fields)


# ---------------------------------------------------------------------------
# output plumbing

class OutputCollector(dict):
    """A command's files, name to text, written in one pass."""

    def write(self, out_dir: str) -> list:
        """Write every file under ``out_dir``; with none, write nothing, not
        even the directory."""
        if not self:
            return []
        root = Path(out_dir)
        try:
            root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"output directory {out_dir}: {exc}") from exc
        names = sorted(self)
        for name in names:
            try:
                (root / name).write_text(self[name], encoding="utf-8")
            except OSError as exc:
                raise ConfigError(f"cannot write {root / name}: {exc}") from exc
            log.info("wrote %s", root / name)
        return names


def _json(obj, indent: str = "") -> str:
    # json.dumps(obj, sort_keys=True, indent=2) + "\n" at the top, non-finite floats as
    # null; json indents in pure Python, so only lists of scalars go to its C encoder,
    # the indent in the separator
    inner = indent + "  "
    if isinstance(obj, float):
        text = float.__repr__(obj) if math.isfinite(obj) else "null"
    elif isinstance(obj, dict) and obj:
        # json quotes a key as dumps quotes a str, a non-string key as its scalar's text
        quote = json.encoder.encode_basestring_ascii
        items = (f"{inner}{quote(k if isinstance(k, str) else json.dumps(k))}: "
                 f"{_json(v, inner)}" for k, v in sorted(obj.items()))
        text = "{\n" + ",\n".join(items) + "\n" + indent + "}"
    elif isinstance(obj, (list, tuple)) and any(isinstance(v, (dict, list, tuple)) for v in obj):
        text = "[\n" + ",\n".join(inner + _json(v, inner) for v in obj) + "\n" + indent + "]"
    elif isinstance(obj, (list, tuple)) and obj:
        body = json.dumps([None if isinstance(v, float) and not math.isfinite(v) else v
                           for v in obj], separators=(",\n" + inner, ": "))
        text = "[\n" + inner + body[1:-1] + "\n" + indent + "]"
    else:
        text = json.dumps(obj)
    return text if indent else text + "\n"


def _slug(symbol: str) -> str:
    return "".join(c if c.isalnum() or c in "-." else "_" for c in symbol)


def _drawdown_writer(iso: list):
    """A function from one drawdown path on the ISO dates ``iso`` to its CSV
    text: a ``date,drawdown`` header, then ``f"{date},{v:.8f}"`` per row.

    Each row is a 23-byte record ``YYYY-MM-DD,-0.dddddddd`` whose digits come
    from m = rint(-v * 1e8).  For v in [-1, 0] that product is within 1.2e-8
    of the exact one, so m is what ``%.8f`` rounds to unless the product lies
    near a half.  A path with a row near a half, or a value outside [-1, 0]
    or non-finite, is formatted whole by the f-string itself.
    """
    head = "date,drawdown\n"
    n, h = len(iso), len(head)
    # one buffer holds the whole file, decoded to text without a bytes copy
    buf = np.empty(h + 23 * n, np.uint8)
    buf[:h] = np.frombuffer(head.encode("ascii"), np.uint8)
    rec = buf[h:].reshape(n, 23)
    rec[:, :10] = np.frombuffer("".join(iso).encode("ascii"), np.uint8).reshape(n, 10)
    rec[:, 10:14] = np.frombuffer(b",-0.", np.uint8)
    rec[:, 22] = ord("\n")
    # the four ASCII digits of 0..9999 in order, each group one 4-byte word; the
    # table and the arithmetic below use only copies and int64 and float64
    # kernels, which other steps already page in: uint8 or int32 arithmetic
    # here raised peak RSS
    digit = np.frombuffer(b"0123456789", np.uint8)
    groups = np.empty((10, 10, 10, 10, 4), np.uint8)
    for k in range(4):
        groups[..., k] = digit.reshape((10,) + (1,) * (3 - k))
    groups = groups.view(np.uint32).ravel()

    def write(dd: np.ndarray) -> str:
        inside = (dd >= -1.0) & (dd <= 0.0)
        y = np.where(inside, dd, 0.0) * -1e8
        m = np.rint(y)
        if not (inside & (np.abs(y - m) < 0.499999)).all():
            return head + "".join([f"{d},{v:.8f}\n" for d, v in zip(iso, dd.tolist())])
        m = m.astype(np.int64)
        rec[:, 11] = np.where(np.signbit(dd), ord("-"), 0)
        rec[:, 12] = 48 + m // 100000000
        rec[:, 14:22] = groups[np.stack((m // 10000 % 10000, m % 10000), axis=1)].view(np.uint8)
        # a NUL sign byte marks a value without a minus sign, a +0.0
        return str(buf, "ascii").replace("\0", "")

    return write


def _fmt(v: float, places: int = 6) -> str:
    return f"{v:.{places}f}"


# ---------------------------------------------------------------------------
# shared pipeline steps

def _table(out: OutputCollector, name: str, header: list, rows, doc) -> None:
    """Add ``<name>.csv`` (a header line, then one line per row of cells)
    and ``<name>.json``."""
    lines = [",".join(header)] + [",".join(row) for row in rows]
    out[f"{name}.csv"] = "\n".join(lines) + "\n"
    out[f"{name}.json"] = _json(doc)


def _test_tables(panel: ReturnPanel, stats: dict) -> list:
    """The Jarque-Bera and unit-root tables, as ``_table`` arguments."""
    jb = {sym: jarque_bera(stats[sym]).to_dict() for sym in panel.symbols}
    # the critical values at 1, 5 and 10 percent, in that order
    jb_rows = [[sym, _fmt(t["statistic"]), *(_fmt(v) for v in t["critical_values"].values()),
                str(t["reject_null"]).lower()] for sym, t in jb.items()]
    ur = {s.symbol: {"adf": adf_test(s).to_dict(), "kpss": kpss_test(s).to_dict()}
          for s in panel.series}
    ur_rows = [[sym, _fmt(t["adf"]["statistic"]), str(t["adf"]["reject_null"]).lower(),
                _fmt(t["kpss"]["statistic"]), str(t["kpss"]["reject_null"]).lower()]
               for sym, t in ur.items()]
    return [
        ("jarque_bera",
         ["symbol", "statistic", "crit_0.01", "crit_0.05", "crit_0.10", "reject_0.05"],
         jb_rows, jb),
        ("unit_root",
         ["symbol", "adf_statistic", "adf_reject_0.05", "kpss_statistic", "kpss_reject_0.05"],
         ur_rows, ur),
    ]


# ---------------------------------------------------------------------------
# command steps
#
# A step adds its files to the command's collector and returns an exit code.
# It adds them only once nothing in it can raise any more, so a DataError
# leaves the collector holding the files of the steps that finished -- apart
# from ``_fit``, whose stage-1 files stand on their own before the joint
# stage runs.

def _describe(cfg: RunConfig, panel: ReturnPanel, out: OutputCollector) -> int:
    stats = _describe_panel(panel, cfg.risk_free)
    docs = {sym: st.to_dict() for sym, st in stats.items()}
    # the count as an integer, every other statistic as a float
    rows = [[sym] + [str(v) if name == "n" else _fmt(v) for name, v in d.items()]
            for sym, d in docs.items()]
    symbols = list(panel.symbols)
    C = pearson_correlation(panel)
    corr = {"symbols": symbols, "matrix": [[float(v) for v in row] for row in C]}
    tables = [
        ("stats", ["symbol", *docs[symbols[0]]], rows, docs),
        ("correlation", ["symbol"] + symbols,
         [[sym] + [_fmt(v) for v in row] for sym, row in zip(symbols, corr["matrix"])], corr),
    ]
    for table in tables + _test_tables(panel, stats):
        _table(out, *table)
    return EXIT_OK


def _test(cfg: RunConfig, panel: ReturnPanel, out: OutputCollector) -> int:
    stats = _describe_panel(panel, cfg.risk_free)
    for table in _test_tables(panel, stats):
        _table(out, *table)
    return EXIT_OK


def _stars(estimate: float, se: float) -> str:
    if not (math.isfinite(se) and se > 0.0):
        return ""
    t = abs(estimate / se)
    for crit, mark in _STARS:
        if t >= crit:
            return mark
    return ""


def _add_fit(out: OutputCollector, summary: list, doc: dict) -> int:
    """Add a fit's ``to_dict()`` document as ``fit_<slug>.json``, or the joint
    fit's (the one naming ``symbols``) as ``dcc.json``; append its block to
    the lines ``summary`` and add them as ``summary.txt``.  The fit's exit
    code."""
    if "symbols" in doc:
        name, end, who = "dcc.json", "_joint", "joint correlation fit"
        title = f"joint dcc(1,1)  assets={','.join(doc['symbols'])}"
    else:
        name, end, who = f"fit_{_slug(doc['symbol'])}.json", "", f"{doc['symbol']}: fit"
        title = f"{doc['symbol']}  {doc['model']}-{doc['distribution']}"
    out[name] = _json(doc)
    summary += ["", f"{title}  n={doc['n_obs']}  converged={'yes' if doc['converged'] else 'NO'}",
                f"  {'param':<12}{'estimate':>14}{'std.err':>14}"]
    for param, est in doc["params"].items():
        se = doc["std_errors"][param]
        se_txt = _fmt(se) if math.isfinite(se) else "n/a"
        stars = "" if param in _UNSTARRED else _stars(est, se)
        summary.append(f"  {param:<12}{_fmt(est):>14}{se_txt:>14}  {stars}".rstrip())
    summary.append(f"  loglik {_fmt(doc['loglik' + end], 4)}   aic {_fmt(doc['aic' + end], 4)}"
                   f"   aic/obs {_fmt(doc[f'aic{end}_per_obs'])}")
    out["summary.txt"] = "\n".join(summary) + "\n"
    if doc["converged"]:
        return EXIT_OK
    log.warning("%s did not converge", who)
    return EXIT_NONCONVERGED


def _fit(cfg: RunConfig, panel: ReturnPanel, out: OutputCollector) -> int:
    fits = []
    for asset, series in zip(cfg.assets, panel.series):
        log.info("fitting %s", series.symbol)
        fits.append(fit_egarch(series, mean=asset.mean, family=cfg.family))
    summary = ["model fit summary", "================="]
    code = max([_add_fit(out, summary, fit.to_dict()) for fit in fits])
    if len(fits) < 2:
        log.info("single asset: skipping the correlation stage")
        return code
    # the joint law of the standardized residuals is always the
    # multivariate t, whatever the stage-1 innovation family; a DataError
    # here leaves the stage-1 files above in ``out``
    return max(code, _add_fit(out, summary, fit_dcc(fits).to_dict()))


def _risk(cfg: RunConfig, panel: ReturnPanel, out: OutputCollector) -> int:
    spec = RiskSpec(levels=cfg.levels, amount=cfg.amount, periods=cfg.periods)
    doc = risk_report(panel, spec)
    header = ["symbol", "level"] + [f"{p}_{kind}" for p in doc["periods"]
                                    for kind in ("var", "cfvar", "empvar")]
    rows = [[sym, lv] + [_fmt(per[p]["var"][lv][kind], 3) for p in doc["periods"]
                         for kind in ("gaussian", "cornish_fisher", "empirical")]
            for sym, per in doc["assets"].items() for lv in doc["levels"]]
    _table(out, "risk", header, rows, doc)
    write = _drawdown_writer([d.isoformat() for d in panel.dates])
    for s in panel.series:
        out[f"drawdown_{_slug(s.symbol)}.csv"] = write(_drawdowns(s.values[None])[0])
    return EXIT_OK


_STEPS = {
    "describe": (_describe,),
    "test": (_test,),
    "fit": (_fit,),
    "risk": (_risk,),
    "report": (_describe, _fit, _risk),
}


def _run(cfg: RunConfig, command: str) -> int:
    """Load the panel once, run the command's steps into one collector and
    write it once; the exit code is the highest a step returned.  A
    DataError still writes what the collector holds, then propagates."""
    panel = load_panel([(a.symbol, a.source, a.columns) for a in cfg.assets])
    out = OutputCollector()
    code = EXIT_OK
    try:
        for step in _STEPS[command]:
            code = max(code, step(cfg, panel, out))
    except DataError:
        out.write(cfg.out_dir)
        raise
    out.write(cfg.out_dir)
    return code


def _simulation_dgp(k: int) -> tuple:
    dist = InnovationDist("student_t", shape=8.0)
    assets = []
    for i in range(k):
        b = 0.95 - 0.01 * i
        assets.append(EgarchParams(
            mean=MeanParams(),
            omega=-0.25 * (1.0 - b),
            a_mag=0.15,
            xi=-0.08 + 0.01 * i,
            b_pers=b,
            dist=dist,
        ))
    Qbar = np.full((k, k), 0.5)
    np.fill_diagonal(Qbar, 1.0)
    dcc = DccParams(alpha=0.05, beta=0.90, joint_shape=8.0)
    return assets, dcc, Qbar


def _simulation_calendar(seed: int, n_assets: int, length: int, start: Date) -> list:
    """Check ``simulate``'s arguments; the ISO dates of its ``length + 1``
    weekday price rows from ``start``."""
    if n_assets < 2:
        raise ConfigError(f"simulate needs at least 2 assets, got {n_assets}")
    if length < 50:
        raise ConfigError(f"simulate needs length >= 50, got {length}")
    # both --seed and a config's seed arrive here; numpy takes no negative seed
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    first = np.datetime64(start, "D")
    if length + 1 > np.busday_count(first, np.datetime64(Date.max, "D") + 1):
        raise ConfigError(f"--start {start}: {length + 1} weekdays from it run past {Date.max}")
    return np.busday_offset(first, np.arange(length + 1), roll="forward").astype(str).tolist()


# ---------------------------------------------------------------------------
# argument parsing and dispatch

def _parse_levels(text: str) -> tuple:
    # every comma-separated entry is a level, so "0.95," is refused as a config's null is
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad --levels {text!r}: {exc}") from exc


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        # each flag has one spelling: a prefix of one is an unknown flag
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        # a usage error exits 3, not argparse's 2, which means an input data error
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    """One parser per command, each taking only the flags that command reads."""
    common = _Parser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="YAML run config")
    common.add_argument("--out", metavar="DIR", help="output directory (overrides config)")
    common.add_argument("--validate", action="store_true",
                        help="parse and validate the config, then exit")
    risk = _Parser(add_help=False, parents=[common])
    risk.add_argument("--levels", type=_parse_levels, metavar="L1,L2,...",
                      help="confidence levels (overrides config)")
    risk.add_argument("--portfolio-amount", type=float, metavar="W",
                      dest="portfolio_amount", help="portfolio amount (overrides config)")
    parser = _Parser(
        prog="volrisk",
        description="volatility, correlation, and downside-risk toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    sub.add_parser("describe", parents=[common],
                   help="descriptive stats, correlation, JB, and unit-root tables")
    sub.add_parser("test", parents=[common],
                   help="normality and unit-root tables only")
    sub.add_parser("fit", parents=[common],
                   help="per-asset volatility fits plus the joint correlation fit")
    sub.add_parser("risk", parents=[risk],
                   help="VaR variants and drawdowns per asset/period/level")
    sub.add_parser("report", parents=[risk], help="describe + fit + risk")
    sim = sub.add_parser("simulate", parents=[common],
                         help="generate a seeded correlated panel for testing")
    sim.add_argument("--seed", type=int, metavar="N", help="seed (overrides config)")
    sim.add_argument("--assets", type=int, default=3, metavar="K")
    sim.add_argument("--length", type=int, default=1000, metavar="T")
    sim.add_argument("--start", default="2019-01-01", metavar="DATE")
    return parser


def _setup_logging() -> None:
    name = os.environ.get("VOLRISK_LOG", "WARNING").upper()
    level = getattr(logging, name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(
        level=level, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s"
    )


def _overrides(args) -> dict:
    # describe, test and fit take neither --levels nor --portfolio-amount
    given = {"out_dir": args.out, "levels": getattr(args, "levels", None),
             "amount": getattr(args, "portfolio_amount", None)}
    return {key: value for key, value in given.items() if value is not None}


def _simulate(args) -> int:
    """``simulate``, which checks its arguments, then under ``--validate``
    prints them and writes nothing.  The output dir and seed are ``--out``
    and ``--seed`` over ``--config``'s, or over ``RunConfig``'s defaults."""
    base = RunConfig if args.config is None else load_run_config(args.config)
    out_dir = base.out_dir if args.out is None else args.out
    seed = base.seed if args.seed is None else args.seed
    iso = _simulation_calendar(seed, args.assets, args.length, _as_date(args.start, "--start"))
    try:
        assets, dcc, Qbar = _simulation_dgp(args.assets)
    except ValueError as exc:
        raise ConfigError(f"--assets {args.assets}: {exc}") from exc
    if args.validate:
        print(f"simulate ok: {args.assets} asset(s), {args.length} return(s) "
              f"from {iso[1]} to {iso[-1]}, seed {seed}, output to {out_dir}")
        return EXIT_OK
    returns = simulate_dcc_panel(assets, dcc, Qbar, n=args.length, seed=seed)[0]
    # unit-scale DGP mapped onto a 1%-vol price tape
    scale = 0.01
    symbols = [f"SIM{i + 1}" for i in range(args.assets)]
    out = OutputCollector()
    rows = "date,close\n" + "".join([f"{d},%.10f\n" for d in iso])
    for j, sym in enumerate(symbols):
        prices = 100.0 * np.exp(np.concatenate(([0.0], np.cumsum(scale * returns[:, j]))))
        out[f"sim_{sym}.csv"] = rows % tuple(prices.tolist())
    root = Path(out_dir).resolve()
    cfg_doc = {
        "seed": seed,
        "output_dir": str(root / "results"),
        "distribution": "student_t",
        "levels": list(RiskSpec.levels),
        "assets": [
            {"symbol": sym, "source": str(root / f"sim_{sym}.csv")}
            for sym in symbols
        ],
        "periods": {
            "full": {"start": iso[1], "end": iso[-1]},
        },
    }
    out["sim_config.yaml"] = yaml.safe_dump(cfg_doc, sort_keys=True)
    truth = {
        "seed": seed,
        "length": args.length,
        "return_scale": scale,
        "assets": {
            sym: {
                "omega": p.omega, "a_mag": p.a_mag, "xi": p.xi, "b_pers": p.b_pers,
                "shape": p.dist.shape,
            }
            for sym, p in zip(symbols, assets)
        },
        "dcc": dict(vars(dcc)),
        "Qbar": [[float(v) for v in row] for row in Qbar],
    }
    out["sim_truth.json"] = _json(truth)
    out.write(out_dir)
    return EXIT_OK


def main(argv=None) -> int:
    _setup_logging()
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "simulate":
            return _simulate(args)
        cfg = load_run_config(args.config, _overrides(args))
        if args.validate:
            print(f"config ok: {len(cfg.assets)} asset(s), "
                  f"{len(cfg.periods)} period(s), output to {cfg.out_dir}")
            return EXIT_OK
        return _run(cfg, args.command)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
