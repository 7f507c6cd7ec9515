"""Command-line front end.

Subcommands cover the full pipeline: ingest + descriptive tables
(``describe``), normality and unit-root tests (``test``), two-stage
volatility/correlation fits (``fit``), the risk report (``risk``), all of
the above (``report``), and seeded panel generation (``simulate``).  Runs
are driven by a YAML config; a fixed config + seed gives byte-identical
outputs.  Logging goes to stderr (level via VOLRISK_LOG); data only to
files and stdout.

Exit codes: 0 success, 1 model non-convergence (outputs still written),
2 input error, 3 config error.
"""
from __future__ import annotations

import argparse
import datetime
import itertools
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
        # a symbol is a CSV cell and, slugged, part of the names of its files
        files = {}
        for i, a in enumerate(self.assets):
            _plain_cell(a.symbol, f"assets[{i}]: symbol")
            j = files.setdefault(_slug(a.symbol), i)
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
    _check_keys(columns, {"date", "close", "open", "high", "low", "volume"}, f"{where}.columns")
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


def load_run_config(path: "str | None", overrides: "dict | None" = None) -> RunConfig:
    """Parse and validate a YAML run config; ``overrides`` (from CLI flags)
    replace the corresponding config fields."""
    if path is None:
        raise ConfigError("--config is required for this command")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.load(fh, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
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
        "levels": tuple(float(_typed(v, "a number", "levels", "config")) for v in levels),
        "amount": float(_typed(raw.get("portfolio_amount", RiskSpec.amount), "a number",
                               "portfolio_amount", "config")),
        "out_dir": _typed(_unless_null(raw.get("output_dir"), RunConfig.out_dir), "a string",
                          "output_dir", "config"),
        "seed": _typed(raw.get("seed", RunConfig.seed), "an integer", "seed", "config"),
        "risk_free": (None if risk_free is None
                      else float(_typed(risk_free, "a number", "risk_free_rate", "config"))),
    }
    fields.update(overrides or {})
    return RunConfig(**fields)


# ---------------------------------------------------------------------------
# output plumbing

class OutputCollector:
    """Buffers every file for a command and writes them in one pass."""

    def __init__(self) -> None:
        self._files: dict = {}

    def add(self, name: str, content: str) -> None:
        self._files[name] = content

    def write(self, out_dir: str) -> list:
        """Write every added file under ``out_dir``; with none added, write
        nothing, not even the directory."""
        if not self._files:
            return []
        root = Path(out_dir)
        try:
            root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"output directory {out_dir}: {exc}") from exc
        names = sorted(self._files)
        for name in names:
            try:
                (root / name).write_text(self._files[name], encoding="utf-8")
            except OSError as exc:
                raise ConfigError(f"cannot write {root / name}: {exc}") from exc
            log.info("wrote %s", root / name)
        return names


def _sanitize(obj):
    # non-finite floats have no strict-JSON encoding
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


def _json(obj, indent: str = "") -> str:
    # json.dumps(_sanitize(obj), sort_keys=True, indent=2) + "\n" at the top; json
    # indents in pure Python, so lists of scalars go to its C encoder, indent in the separator
    inner = indent + "  "
    if isinstance(obj, list) and obj and {str, int, float, bool, type(None)}.issuperset(
            map(type, obj)):
        body = json.dumps(_sanitize(obj), separators=(",\n" + inner, ": "))
        text = "[\n" + inner + body[1:-1] + "\n" + indent + "]"
    elif isinstance(obj, dict) and all(isinstance(k, str) for k in obj) and any(
            isinstance(v, list) for v in obj.values()):
        items = (f"{inner}{json.dumps(k)}: {_json(obj[k], inner)}" for k in sorted(obj))
        text = "{\n" + ",\n".join(items) + "\n" + indent + "}"
    else:
        text = json.dumps(_sanitize(obj), sort_keys=True, indent=2).replace("\n", "\n" + indent)
    return text if indent else text + "\n"


def _slug(symbol: str) -> str:
    return "".join(c if c.isalnum() or c in "-." else "_" for c in symbol)


def _dated_rows(header: str, iso: list, fmt: str) -> str:
    """CSV text of ``header`` and one ``<date>,<fmt>`` row per ISO date:
    a template that ``% tuple(values)`` fills, one value per date."""
    return header + "\n" + "".join([f"{d},{fmt}\n" for d in iso])


def _fmt(v: float, places: int = 6) -> str:
    if not math.isfinite(v):
        return "nan"
    return f"{v:.{places}f}"


# ---------------------------------------------------------------------------
# shared pipeline steps

def _load_panel(cfg: RunConfig) -> ReturnPanel:
    return load_panel([(a.symbol, a.source, a.columns) for a in cfg.assets])


def _table(out: OutputCollector, name: str, header: list, rows, doc) -> None:
    """Add ``<name>.csv`` (a header line, then one line per row of cells)
    and ``<name>.json``."""
    lines = [",".join(header)] + [",".join(row) for row in rows]
    out.add(f"{name}.csv", "\n".join(lines) + "\n")
    out.add(f"{name}.json", _json(doc))


def _test_tables(panel: ReturnPanel, stats: dict) -> list:
    """The Jarque-Bera and unit-root tables, as ``_table`` arguments."""
    jb = {sym: jarque_bera(stats[sym]) for sym in panel.symbols}
    jb_rows = []
    for sym, t in jb.items():
        crits = t.decision_inputs["critical_values"]
        jb_rows.append([sym, _fmt(t.statistic), _fmt(crits["0.01"]), _fmt(crits["0.05"]),
                        _fmt(crits["0.10"]), str(t.reject_null).lower()])
    ur = {s.symbol: (adf_test(s), kpss_test(s)) for s in panel.series}
    ur_rows = []
    for sym, (adf, kpss) in ur.items():
        ur_rows.append([sym, _fmt(adf.statistic), str(adf.reject_null).lower(),
                        _fmt(kpss.statistic), str(kpss.reject_null).lower()])
    return [
        ("jarque_bera",
         ["symbol", "statistic", "crit_0.01", "crit_0.05", "crit_0.10", "reject_0.05"],
         jb_rows, {sym: t.to_dict() for sym, t in jb.items()}),
        ("unit_root",
         ["symbol", "adf_statistic", "adf_reject_0.05", "kpss_statistic", "kpss_reject_0.05"],
         ur_rows, {sym: {"adf": adf.to_dict(), "kpss": kpss.to_dict()}
                   for sym, (adf, kpss) in ur.items()}),
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
    names = ["mean", "std", "min", "max", "skewness", "excess_kurtosis", "q25", "q75",
             *(["sharpe"] if cfg.risk_free is not None else [])]
    rows = [[sym, str(d.n), *(_fmt(getattr(d, f)) for f in names)] for sym, d in stats.items()]
    symbols = list(panel.symbols)
    C = pearson_correlation(panel) if len(symbols) >= 2 else np.ones((1, 1))
    tables = [
        ("stats", ["symbol", "n", *names], rows, {sym: st.to_dict() for sym, st in stats.items()}),
        ("correlation", ["symbol"] + symbols,
         [[sym] + [_fmt(v) for v in C[i]] for i, sym in enumerate(symbols)],
         {"symbols": symbols, "matrix": [[float(v) for v in row] for row in C]}),
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


def _fit_table(title: str, converged: bool, estimates, std_errors: dict,
               loglik: float, aic: float, aic_per_obs: float) -> list:
    lines = [
        f"{title}  converged={'yes' if converged else 'NO'}",
        f"  {'param':<12}{'estimate':>14}{'std.err':>14}",
    ]
    for name, est in estimates:
        se = std_errors[name]
        se_txt = _fmt(se) if math.isfinite(se) else "n/a"
        lines.append(f"  {name:<12}{_fmt(est):>14}{se_txt:>14}  {_stars(est, se)}".rstrip())
    lines.append(
        f"  loglik {_fmt(loglik, 4)}   aic {_fmt(aic, 4)}   aic/obs {_fmt(aic_per_obs)}"
    )
    return lines


def _fit(cfg: RunConfig, panel: ReturnPanel, out: OutputCollector) -> int:
    means = {a.symbol: a.mean for a in cfg.assets}
    fits = []
    for series in panel.series:
        log.info("fitting %s", series.symbol)
        fits.append(fit_egarch(series, mean=means[series.symbol], family=cfg.family))
    summary = ["model fit summary", "================="]
    code = EXIT_OK
    for fit in fits:
        out.add(f"fit_{_slug(fit.symbol)}.json", _json(fit.to_dict()))
        summary += ["", *_fit_table(
            f"{fit.symbol}  {fit.model}-{fit.params.dist.family}  n={fit.n_obs}",
            fit.converged, zip(fit.param_names, fit.estimates), fit.std_errors,
            fit.loglik, fit.aic, fit.aic_per_obs,
        )]
        if not fit.converged:
            code = EXIT_NONCONVERGED
            log.warning("%s: fit did not converge", fit.symbol)
    out.add("summary.txt", "\n".join(summary) + "\n")
    if len(fits) < 2:
        log.info("single asset: skipping the correlation stage")
        return code
    # the joint law of the standardized residuals is always the
    # multivariate t, whatever the stage-1 innovation family; a DataError
    # here leaves the stage-1 files above in ``out``
    joint = fit_dcc(fits)
    p = joint.params
    out.add("dcc.json", _json(joint.to_dict()))
    summary += ["", *_fit_table(
        f"joint dcc(1,1)  assets={','.join(joint.symbols)}  n={joint.n_obs}",
        joint.converged,
        (("alpha", p.alpha), ("beta", p.beta), ("joint_shape", p.joint_shape)),
        joint.std_errors, joint.loglik_joint, joint.aic_joint, joint.aic_joint_per_obs,
    )]
    out.add("summary.txt", "\n".join(summary) + "\n")
    if not joint.converged:
        code = EXIT_NONCONVERGED
        log.warning("joint correlation fit did not converge")
    return code


def _risk(cfg: RunConfig, panel: ReturnPanel, out: OutputCollector) -> int:
    spec = RiskSpec(levels=cfg.levels, amount=cfg.amount, periods=cfg.periods)
    report = risk_report(panel, spec)
    out.add("risk.csv", report.to_csv())
    out.add("risk.json", _json(report.to_dict()))
    rows = _dated_rows("date,drawdown", [d.isoformat() for d in panel.dates], "%.8f")
    for s in panel.series:
        out.add(f"drawdown_{_slug(s.symbol)}.csv", rows % tuple(_drawdowns(s.values[None])[0].tolist()))
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
    panel = _load_panel(cfg)
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
    days = map(Date.fromordinal, range(start.toordinal(), Date.max.toordinal() + 1))
    iso = [d.isoformat() for d in itertools.islice(
        (d for d in days if d.weekday() < 5), length + 1)]
    if len(iso) <= length:
        raise ConfigError(f"--start {start}: {length + 1} weekdays from it run past {Date.max}")
    return iso


def cmd_simulate(out_dir: str, seed: int, n_assets: int, length: int, start: Date) -> int:
    iso = _simulation_calendar(seed, n_assets, length, start)
    assets, dcc, Qbar = _simulation_dgp(n_assets)
    returns, _ = simulate_dcc_panel(assets, dcc, Qbar, n=length, seed=seed)
    # unit-scale DGP mapped onto a 1%-vol price tape
    scale = 0.01
    symbols = [f"SIM{i + 1}" for i in range(n_assets)]
    out = OutputCollector()
    rows = _dated_rows("date,close", iso, "%.10f")
    for j, sym in enumerate(symbols):
        prices = 100.0 * np.exp(np.concatenate(([0.0], np.cumsum(scale * returns[:, j]))))
        out.add(f"sim_{sym}.csv", rows % tuple(prices.tolist()))
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
    out.add("sim_config.yaml", yaml.safe_dump(cfg_doc, sort_keys=True))
    truth = {
        "seed": seed,
        "length": length,
        "return_scale": scale,
        "assets": {
            sym: {
                "omega": p.omega, "a_mag": p.a_mag, "xi": p.xi, "b_pers": p.b_pers,
                "shape": p.dist.shape,
            }
            for sym, p in zip(symbols, assets)
        },
        "dcc": {"alpha": dcc.alpha, "beta": dcc.beta, "joint_shape": dcc.joint_shape},
        "Qbar": [[float(v) for v in row] for row in Qbar],
    }
    out.add("sim_truth.json", _json(truth))
    out.write(out_dir)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch

def _parse_levels(text: str) -> tuple:
    try:
        levels = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(f"bad --levels {text!r}: {exc}") from exc
    if not levels:
        raise ConfigError(f"bad --levels {text!r}: empty")
    return levels


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="YAML run config")
    common.add_argument("--out", metavar="DIR", help="output directory (overrides config)")
    common.add_argument("--seed", type=int, metavar="N", help="seed (overrides config)")
    common.add_argument("--levels", metavar="L1,L2,...",
                        help="confidence levels (overrides config)")
    common.add_argument("--portfolio-amount", type=float, metavar="W",
                        dest="portfolio_amount", help="portfolio amount (overrides config)")
    common.add_argument("--validate", action="store_true",
                        help="parse and validate the config, then exit")
    parser = argparse.ArgumentParser(
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
    sub.add_parser("risk", parents=[common],
                   help="VaR variants and drawdowns per asset/period/level")
    sub.add_parser("report", parents=[common], help="describe + fit + risk")
    sim = sub.add_parser("simulate", parents=[common],
                         help="generate a seeded correlated panel for testing")
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
    ov: dict = {}
    if args.out is not None:
        ov["out_dir"] = args.out
    if args.seed is not None:
        ov["seed"] = args.seed
    if args.levels is not None:
        ov["levels"] = _parse_levels(args.levels)
    if args.portfolio_amount is not None:
        ov["amount"] = args.portfolio_amount
    return ov


def _simulate(args) -> int:
    """``simulate`` with or without ``--validate``: both resolve and check
    the same arguments.  The output dir and seed come from ``--config``
    under ``--out`` and ``--seed`` when one is given, else from those flags
    over ``RunConfig``'s defaults."""
    if args.config is not None:
        cfg = load_run_config(args.config, _overrides(args))
        out_dir, seed = cfg.out_dir, cfg.seed
    else:
        out_dir = RunConfig.out_dir if args.out is None else args.out
        seed = RunConfig.seed if args.seed is None else args.seed
    start = _as_date(args.start, "--start")
    if not args.validate:
        return cmd_simulate(out_dir, seed, args.assets, args.length, start)
    iso = _simulation_calendar(seed, args.assets, args.length, start)
    print(f"simulate ok: {args.assets} asset(s), {args.length} return(s) "
          f"from {iso[1]} to {iso[-1]}, seed {seed}, output to {out_dir}")
    return EXIT_OK


def main(argv=None) -> int:
    _setup_logging()
    args = _build_parser().parse_args(argv)
    try:
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
