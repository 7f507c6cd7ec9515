import contextlib
import copy
import dataclasses
import datetime
import io
import itertools
import json
import math
import os
import pathlib
import shutil
import string
import subprocess
import sys
import warnings

import numpy as np
import pytest
import yaml
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import volrisk.cli as cli_mod
import volrisk.dcc as dcc_mod
import volrisk.market_data as md_mod
import volrisk.optimize as opt_mod
from volrisk.cli import (
    ConfigError,
    _parse_levels,
    _simulation_calendar,
    _stars,
    load_run_config,
    main,
)
from volrisk.egarch import MeanSpec
from volrisk.risk import drawdown


DESCRIBE_FILES = (
    "stats.csv", "stats.json", "correlation.csv", "correlation.json",
    "jarque_bera.csv", "jarque_bera.json", "unit_root.csv", "unit_root.json",
)


def _tree(root):
    return {p.name: p.read_bytes() for p in root.iterdir()}


def _write_cfg(path, doc):
    path.write_text(yaml.safe_dump(doc, sort_keys=True), encoding="utf-8")
    return str(path)


MINIMAL = {
    "assets": [{"symbol": "X", "source": "/nonexistent/x.csv"}],
}


class TestConfigParsing:
    def test_minimal_defaults(self, tmp_path):
        cfg = load_run_config(_write_cfg(tmp_path / "c.yaml", MINIMAL))
        assert cfg.assets[0].symbol == "X"
        assert cfg.levels == (0.90, 0.95, 0.99)
        assert cfg.amount == 1.0
        assert cfg.family == "student_t"
        assert cfg.periods == (("full", None, None),)
        assert cfg.out_dir == "out"
        assert cfg.seed == 0
        assert cfg.risk_free is None

    def test_full_document(self, tmp_path):
        doc = {
            "assets": [
                {"symbol": "A", "source": "a.csv",
                 "columns": {"date": "Date", "close": "Adj Close"},
                 "mean": {"ar": 1, "ma": 1, "constant": True}},
                {"symbol": "B", "source": "b.csv"},
            ],
            "periods": {"crisis": {"start": "2020-02-01", "end": "2020-06-30"}},
            "distribution": "student_t",
            "levels": [0.95, 0.99],
            "portfolio_amount": 250.0,
            "output_dir": "results",
            "seed": 7,
            "risk_free_rate": 0.0001,
        }
        cfg = load_run_config(_write_cfg(tmp_path / "c.yaml", doc))
        assert cfg.assets[0].mean.ar_order == 1
        assert cfg.assets[0].columns == {"date": "Date", "close": "Adj Close"}
        assert cfg.periods[0][0] == "crisis"
        assert cfg.periods[0][1].isoformat() == "2020-02-01"
        assert cfg.levels == (0.95, 0.99)
        assert cfg.amount == 250.0
        assert cfg.seed == 7
        assert cfg.risk_free == 0.0001

    def test_missing_path_is_config_error(self):
        with pytest.raises(ConfigError, match="required"):
            load_run_config(None)

    def test_unreadable_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_run_config("/nonexistent/cfg.yaml")

    def test_non_utf8_file_is_unreadable(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_bytes(b"assets: \xff\n")
        with pytest.raises(ConfigError, match="cannot read config"):
            load_run_config(str(p))

    def test_libyaml_reads_what_the_python_loader_reads(self, sim_cfg, tmp_path, monkeypatch):
        if not hasattr(yaml, "CSafeLoader"):
            pytest.skip("PyYAML built without libyaml")
        readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
        section = readme.read_text(encoding="utf-8").split("## config format", 1)[1]
        example = tmp_path / "readme.yaml"
        example.write_text(section.split("```yaml\n", 1)[1].split("```", 1)[0], encoding="utf-8")
        for path in (sim_cfg, str(example)):
            fast = load_run_config(path)
            with monkeypatch.context() as m:
                m.delattr(yaml, "CSafeLoader")
                assert load_run_config(path) == fast

    def test_broken_yaml(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text("assets: [unclosed", encoding="utf-8")
        with pytest.raises(ConfigError, match="cannot parse"):
            load_run_config(str(p))

    def test_non_mapping_top_level(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text("- just\n- a list\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="top-level mapping"):
            load_run_config(str(p))

    def test_unknown_top_key_rejected(self, tmp_path):
        doc = dict(MINIMAL, extra_knob=1)
        with pytest.raises(ConfigError, match="unknown keys"):
            load_run_config(_write_cfg(tmp_path / "c.yaml", doc))

    def test_assets_required(self, tmp_path):
        with pytest.raises(ConfigError, match="assets"):
            load_run_config(_write_cfg(tmp_path / "c.yaml", {"seed": 1}))
        with pytest.raises(ConfigError, match="assets"):
            load_run_config(_write_cfg(tmp_path / "c.yaml", {"assets": []}))

    def test_run_config_needs_an_asset(self):
        with pytest.raises(ConfigError, match="^at least one asset required$"):
            cli_mod.RunConfig(assets=())

    def test_asset_field_validation(self, tmp_path):
        bad = {"assets": [{"source": "x.csv"}]}
        with pytest.raises(ConfigError, match="symbol"):
            load_run_config(_write_cfg(tmp_path / "c.yaml", bad))
        bad = {"assets": [{"symbol": "X", "source": "x.csv", "typo": 1}]}
        with pytest.raises(ConfigError, match="unknown keys"):
            load_run_config(_write_cfg(tmp_path / "c.yaml", bad))
        bad = {"assets": [{"symbol": "X", "source": "x.csv",
                           "mean": {"arr": 2}}]}
        with pytest.raises(ConfigError, match="unknown keys"):
            load_run_config(_write_cfg(tmp_path / "c.yaml", bad))

    def test_duplicate_symbols(self, tmp_path):
        doc = {"assets": [{"symbol": "X", "source": "a.csv"},
                          {"symbol": "X", "source": "b.csv"}]}
        with pytest.raises(ConfigError, match="duplicate"):
            load_run_config(_write_cfg(tmp_path / "c.yaml", doc))

    def test_bad_levels(self, tmp_path):
        doc = dict(MINIMAL, levels=[0.95, 1.5])
        with pytest.raises(ConfigError, match="levels"):
            load_run_config(_write_cfg(tmp_path / "c.yaml", doc))
        doc = dict(MINIMAL, levels=[])
        with pytest.raises(ConfigError, match="levels"):
            load_run_config(_write_cfg(tmp_path / "c.yaml", doc))

    @pytest.mark.parametrize("doc,match", [
        ({"output_dir": [1]}, "config: 'output_dir' must be a string"),
        ({"periods": {"w": 0}}, "periods: 'w' must be a mapping"),
        ({"periods": {"w": ""}}, "periods: 'w' must be a mapping"),
    ] + [
        ({"assets": [{"symbol": "X", "source": "x.csv", "mean": v}]},
         r"assets\[0\]: 'mean' must be a mapping") for v in (0, False, [])
    ] + [
        ({"levels": None}, "config: 'levels' must be a non-empty list"),
        ({"portfolio_amount": None}, "config: 'portfolio_amount' must be a number, got None"),
    ])
    def test_wrong_types_found_by_the_property_test(self, tmp_path, doc, match):
        # none may fall back to a default: an open period, the default mean,
        # a directory named "[1]"
        with pytest.raises(ConfigError, match=match):
            load_run_config(_write_cfg(tmp_path / "c.yaml", dict(MINIMAL, **doc)))

    def test_null_sections_are_absent(self, tmp_path):
        doc = {"assets": [{"symbol": "X", "source": "x.csv", "mean": None, "columns": None}],
               "periods": {"w": None}, "output_dir": None, "distribution": None,
               "risk_free_rate": None}
        cfg = load_run_config(_write_cfg(tmp_path / "c.yaml", doc))
        assert cfg.assets[0].mean == MeanSpec()
        assert cfg.assets[0].columns is None
        assert cfg.periods == (("w", None, None),)
        assert (cfg.out_dir, cfg.family) == ("out", "student_t")
        # no sharpe column in describe
        assert cfg.risk_free is None

    def test_bad_distribution(self, tmp_path):
        doc = dict(MINIMAL, distribution="cauchy")
        with pytest.raises(ConfigError, match="distribution"):
            load_run_config(_write_cfg(tmp_path / "c.yaml", doc))

    @pytest.mark.parametrize("value", [1.7, True, "7", None])
    def test_seed_must_be_integer(self, tmp_path, value):
        doc = dict(MINIMAL, seed=value)
        with pytest.raises(ConfigError, match="'seed' must be an integer"):
            load_run_config(_write_cfg(tmp_path / "c.yaml", doc))

    @pytest.mark.parametrize("key,doc", [
        ("risk_free_rate", {"risk_free_rate": True}),
        ("risk_free_rate", {"risk_free_rate": "0.01"}),
        ("portfolio_amount", {"portfolio_amount": True}),
        ("portfolio_amount", {"portfolio_amount": "250"}),
        ("levels", {"levels": ["0.95"]}),
        ("levels", {"levels": [0.95, False]}),
    ])
    def test_numbers_must_be_numbers(self, tmp_path, key, doc):
        with pytest.raises(ConfigError, match=f"config: '{key}' must be a number"):
            load_run_config(_write_cfg(tmp_path / "c.yaml", dict(MINIMAL, **doc)))

    def test_integer_numbers_accepted(self, tmp_path):
        doc = dict(MINIMAL, risk_free_rate=0, portfolio_amount=250, levels=[0.95])
        cfg = load_run_config(_write_cfg(tmp_path / "c.yaml", doc))
        assert (cfg.risk_free, cfg.amount, cfg.levels) == (0.0, 250.0, (0.95,))

    @pytest.mark.parametrize("key,value", [("ar", 1.5), ("ma", 1.0), ("ar", True), ("ma", "1"),
                                           ("ar", None), ("ma", None)])
    def test_arma_orders_must_be_integers(self, tmp_path, key, value):
        doc = {"assets": [{"symbol": "X", "source": "x.csv", "mean": {key: value}}]}
        with pytest.raises(ConfigError, match=rf"assets\[0\]\.mean: '{key}' must be an integer"):
            load_run_config(_write_cfg(tmp_path / "c.yaml", doc))

    @pytest.mark.parametrize("value", ["false", 0, 1, None])
    def test_constant_must_be_bool(self, tmp_path, value):
        doc = {"assets": [{"symbol": "X", "source": "x.csv", "mean": {"constant": value}}]}
        with pytest.raises(ConfigError, match=r"assets\[0\]\.mean: 'constant' must be true or false"):
            load_run_config(_write_cfg(tmp_path / "c.yaml", doc))

    def test_period_validation(self, tmp_path):
        doc = dict(MINIMAL, periods={"w": {"start": "2021-01-01", "end": "2020-01-01"}})
        with pytest.raises(ConfigError, match="after end"):
            load_run_config(_write_cfg(tmp_path / "c.yaml", doc))
        doc = dict(MINIMAL, periods={"w": {"start": "not-a-date"}})
        with pytest.raises(ConfigError, match="ISO date"):
            load_run_config(_write_cfg(tmp_path / "c.yaml", doc))
        doc = dict(MINIMAL, periods={"w": {"middle": "2020-01-01"}})
        with pytest.raises(ConfigError, match="unknown keys"):
            load_run_config(_write_cfg(tmp_path / "c.yaml", doc))
        doc = dict(MINIMAL, periods={1: None, "1": None})
        with pytest.raises(ConfigError, match=r"duplicate period names: \['1', '1'\]"):
            load_run_config(_write_cfg(tmp_path / "c.yaml", doc))

    def test_timestamp_period_bounds_read_as_dates(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("assets: [{symbol: X, source: x.csv}]\n"
                        "periods:\n  p: {start: 2015-03-01 10:00:00, end: 2016-01-01 23:59:59}\n",
                        encoding="utf-8")
        cfg = load_run_config(str(path))
        assert cfg.periods == (("p", datetime.date(2015, 3, 1), datetime.date(2016, 1, 1)),)
        assert main(["describe", "--config", str(path), "--validate"]) == 0

    def test_ar_order_out_of_range_is_3(self, tmp_path, capsys):
        doc = {"assets": [{"symbol": "X", "source": "x.csv", "mean": {"ar": 6}}]}
        assert main(["fit", "--config", _write_cfg(tmp_path / "c.yaml", doc)]) == 3
        assert ("config error: assets[0].mean: ar_order must lie in [0, 5], got 6"
                in capsys.readouterr().err)

    # a key written twice in one mapping, at the top, in a period mapping
    # and in an asset, with the line of the repeat; each document is valid
    # but for the repeat
    REPEATS = {
        "portfolio_amount": (3, "assets: [{symbol: A, source: a.csv}]\n"
                                "portfolio_amount: 1000\nportfolio_amount: 1\n"),
        "crisis": (4, "assets: [{symbol: A, source: a.csv}]\nperiods:\n"
                      "  crisis: {start: 2020-02-01, end: 2020-06-30}\n"
                      "  crisis: {start: 2021-02-01, end: 2021-06-30}\n"),
        "symbol": (3, "assets:\n  - {symbol: A, source: a.csv}\n"
                      "  - {symbol: B, source: b.csv, symbol: C}\n"),
    }

    @pytest.mark.parametrize("python_parser", [False, True], ids=["libyaml", "python"])
    @pytest.mark.parametrize("argv", [["risk"], ["risk", "--validate"], ["simulate"],
                                      ["simulate", "--validate"]], ids=" ".join)
    @pytest.mark.parametrize("key", sorted(REPEATS))
    def test_repeated_key_is_3_and_named(self, tmp_path, capsys, monkeypatch, key, argv,
                                         python_parser):
        if python_parser:
            monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        out = tmp_path / "out"
        path = tmp_path / "c.yaml"
        line, doc = self.REPEATS[key]
        path.write_text(doc + f"output_dir: {out}\n", encoding="utf-8")
        assert main(argv + ["--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot parse config {path}: ")
        assert f'found duplicate key {key!r}\n  in "{path}", line {line},' in err
        assert not out.exists()

    def test_unhashable_key_keeps_the_constructor_error(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("assets: [{symbol: A, source: a.csv}]\n? [1, 2]\n: 3\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="found unhashable key"):
            load_run_config(str(path))

    def test_explicit_key_overrides_a_merge(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("assets:\n  - &a {symbol: A, source: a.csv}\n  - {<<: *a, symbol: B}\n",
                        encoding="utf-8")
        cfg = load_run_config(str(path))
        assert [(a.symbol, a.source) for a in cfg.assets] == [("A", "a.csv"), ("B", "a.csv")]

    def test_overrides_win(self, tmp_path):
        path = _write_cfg(tmp_path / "c.yaml", dict(MINIMAL, seed=1, output_dir="a"))
        cfg = load_run_config(path, {"seed": 9, "out_dir": "b", "levels": (0.5,),
                                     "amount": 2.0})
        assert cfg.seed == 9
        assert cfg.out_dir == "b"
        assert cfg.levels == (0.5,)
        assert cfg.amount == 2.0


# A document that sets every config key to a valid value.
VALID = {
    "assets": [{"symbol": "X", "source": "x.csv",
                "columns": {"date": "Date", "close": "Close"},
                "mean": {"ar": 0, "ma": 0, "constant": True}}],
    "periods": {"window": {"start": "2020-01-01", "end": "2020-12-31"}},
    "distribution": "student_t",
    "levels": [0.95],
    "portfolio_amount": 1.0,
    "output_dir": "out",
    "seed": 0,
    "risk_free_rate": 0.0,
}

# each mapping in VALID, by its path, with the keys it allows
SECTIONS = {
    (): set(VALID),
    ("assets", 0): set(VALID["assets"][0]),
    ("assets", 0, "columns"): {"date", "close"},
    ("assets", 0, "mean"): set(VALID["assets"][0]["mean"]),
    ("periods", "window"): {"start", "end"},
}


def _number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _integer(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is(*types):
    return lambda v: isinstance(v, types)


# each typed value in VALID, by its path, with the test of its type
TYPED = {
    ("assets",): _is(list),
    ("assets", 0): _is(dict),
    ("assets", 0, "symbol"): _is(str),
    ("assets", 0, "source"): _is(str),
    ("assets", 0, "columns"): _is(dict),
    ("assets", 0, "columns", "close"): _is(str),
    ("assets", 0, "mean"): _is(dict),
    ("assets", 0, "mean", "ar"): _integer,
    ("assets", 0, "mean", "ma"): _integer,
    ("assets", 0, "mean", "constant"): _is(bool),
    ("periods",): _is(dict),
    ("periods", "window"): _is(dict),
    ("periods", "window", "start"): _is(str),
    ("periods", "window", "end"): _is(str),
    ("distribution",): _is(str),
    ("levels",): _is(list),
    ("levels", 0): _number,
    ("portfolio_amount",): _number,
    ("output_dir",): _is(str),
    ("seed",): _integer,
    ("risk_free_rate",): _number,
}

# YAML values of every type but null, which reads as an absent key
VALUES = st.one_of(
    st.booleans(),
    st.integers(-3, 3),
    st.floats(-2.0, 2.0),
    st.text(string.ascii_letters + "-", max_size=4),
    st.lists(st.integers(0, 2), max_size=2),
    st.dictionaries(st.sampled_from(["a", "start"]), st.integers(0, 2), max_size=1),
)
NAMES = st.one_of(st.text(string.ascii_lowercase + "_", min_size=1, max_size=8),
                  st.integers(-5, 5))


def _section(doc, path):
    for part in path:
        doc = doc[part]
    return doc


def _validate(tmp_dir, doc) -> tuple:
    path = tmp_dir / "c.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["describe", "--validate", "--config", str(path)])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def doc_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("config_documents")


class TestConfigDocuments:
    def test_valid_document_passes(self, doc_dir):
        assert _validate(doc_dir, VALID)[0] == 0

    @settings(max_examples=60, deadline=None)
    @given(path=st.sampled_from(sorted(SECTIONS, key=str)),
           extra=st.dictionaries(NAMES, st.one_of(st.none(), VALUES), min_size=1, max_size=2))
    def test_unknown_keys_are_named(self, doc_dir, path, extra):
        extra = {k: v for k, v in extra.items() if k not in SECTIONS[path]}
        assume(extra)
        doc = copy.deepcopy(VALID)
        _section(doc, path).update(extra)
        code, err = _validate(doc_dir, doc)
        assert code == 3 and "Traceback" not in err
        assert "unknown keys" in err
        assert all(repr(k) in err for k in extra)

    @settings(max_examples=80, deadline=None)
    @given(path=st.sampled_from(sorted(TYPED, key=str)), value=VALUES)
    def test_wrong_types_are_named(self, doc_dir, path, value):
        assume(not TYPED[path](value))
        doc = copy.deepcopy(VALID)
        *parent, key = path
        _section(doc, parent)[key] = value
        code, err = _validate(doc_dir, doc)
        assert code == 3 and "Traceback" not in err
        assert err.startswith("config error: ")
        assert [p for p in path if isinstance(p, str)][-1] in err


def _sanitize(obj):
    # the reference writer's input: non-finite floats have no strict-JSON encoding
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


_SCALAR = st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=4),
                    st.floats(allow_nan=True, allow_infinity=True))
_DOCUMENT = st.recursive(
    _SCALAR,
    lambda inner: st.one_of(st.lists(inner, max_size=5),
                            st.lists(inner, max_size=5).map(tuple),
                            st.dictionaries(st.text(max_size=4), inner, max_size=5)),
    max_leaves=40,
)


class TestHelpers:
    @given(_DOCUMENT)
    @example({"h": [0.5, math.nan, -math.inf], "dates": ["2020-01-02"], "e": [], "t": (1, 2)})
    @example([[1.5, math.inf], {"k": {"x": [None, True, 3]}}, {}, "s"])
    @example({2: [1.0], 1: "x"})  # json turns int keys into strings
    @settings(max_examples=150, deadline=None)
    def test_json_writer_matches_indented_dumps(self, doc):
        # the writer's C-encoded scalar lists and item-by-item containers give
        # the bytes json.dumps writes with indent=2, non-finite floats as null
        want = json.dumps(_sanitize(doc), sort_keys=True, indent=2) + "\n"
        assert cli_mod._json(doc) == want

    def test_stars_thresholds(self):
        assert _stars(2.5758293035489004, 1.0) == "***"
        assert _stars(2.57, 1.0) == "**"
        assert _stars(1.959963984540054, 1.0) == "**"
        assert _stars(1.95, 1.0) == "*"
        assert _stars(1.6448536269514722, 1.0) == "*"
        assert _stars(1.64, 1.0) == ""
        assert _stars(-3.0, 1.0) == "***"
        assert _stars(5.0, 0.0) == ""
        assert _stars(5.0, math.nan) == ""
        # the CSV cell writer prints a non-finite value as Python's format does
        assert [cli_mod._fmt(v) for v in (1.0, math.nan, math.inf, -math.inf)] == [
            "1.000000", "nan", "inf", "-inf"]

    def test_parse_levels(self):
        assert _parse_levels("0.95,0.99") == (0.95, 0.99)
        assert _parse_levels("0.9") == (0.9,)
        with pytest.raises(ConfigError):
            _parse_levels("abc")
        with pytest.raises(ConfigError):
            _parse_levels(",")

    @pytest.mark.parametrize("text", ["0.95,", ",0.95", "0.9,,0.99", " "])
    def test_parse_levels_reads_every_entry_as_a_number(self, text):
        # as a null entry in a config's levels is refused, not skipped
        with pytest.raises(ConfigError, match="^bad --levels .*could not convert"):
            _parse_levels(text)


@pytest.fixture(scope="module")
def sim_ws(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_e2e")
    rc = main(["simulate", "--out", str(root), "--seed", "5",
               "--assets", "2", "--length", "260"])
    assert rc == 0
    return root


@pytest.fixture(scope="module")
def sim_cfg(sim_ws):
    return str(sim_ws / "sim_config.yaml")


@pytest.fixture(scope="module")
def fit_dir(sim_ws, sim_cfg):
    d = sim_ws / "fit1"
    rc = main(["fit", "--config", sim_cfg, "--out", str(d)])
    return rc, d


@pytest.fixture(scope="module")
def risk_dir(sim_ws, sim_cfg):
    d = sim_ws / "risk1"
    assert main(["risk", "--config", sim_cfg, "--out", str(d)]) == 0
    return d


class TestSimulate:
    def test_outputs_exist(self, sim_ws):
        for name in ("sim_SIM1.csv", "sim_SIM2.csv", "sim_config.yaml",
                     "sim_truth.json"):
            assert (sim_ws / name).exists()

    def test_price_row_count(self, sim_ws):
        lines = (sim_ws / "sim_SIM1.csv").read_text().splitlines()
        assert lines[0] == "date,close"
        assert len(lines) == 1 + 260 + 1

    def test_weekdays_only(self, sim_ws):
        import datetime
        lines = (sim_ws / "sim_SIM1.csv").read_text().splitlines()[1:]
        for row in lines:
            d = datetime.date.fromisoformat(row.split(",")[0])
            assert d.weekday() < 5

    def test_truth_document(self, sim_ws):
        truth = json.loads((sim_ws / "sim_truth.json").read_text())
        assert truth["seed"] == 5
        assert truth["length"] == 260
        assert truth["return_scale"] == 0.01
        assert set(truth["assets"]) == {"SIM1", "SIM2"}
        assert truth["dcc"]["alpha"] == 0.05

    def test_config_round_trips(self, sim_cfg):
        cfg = load_run_config(sim_cfg)
        assert [a.symbol for a in cfg.assets] == ["SIM1", "SIM2"]
        assert cfg.seed == 5

    def test_deterministic(self, sim_ws, tmp_path):
        rc = main(["simulate", "--out", str(tmp_path), "--seed", "5",
                   "--assets", "2", "--length", "260"])
        assert rc == 0
        assert (tmp_path / "sim_SIM1.csv").read_bytes() == \
            (sim_ws / "sim_SIM1.csv").read_bytes()

    def test_parameter_validation(self, tmp_path):
        assert main(["simulate", "--out", str(tmp_path), "--assets", "1"]) == 3
        assert main(["simulate", "--out", str(tmp_path), "--length", "10"]) == 3

    def test_length_beyond_islice_range_is_3(self, tmp_path, capsys):
        # 10**19 is over islice's limit of 2**63 - 1; from 9999-12-01 the walk is a month
        argv = ["simulate", "--out", str(tmp_path / "out"), "--length", str(10**19),
                "--start", "9999-12-01"]
        for extra in (["--validate"], []):
            assert main(argv + extra) == 3
            err = capsys.readouterr().err
            assert err.startswith("config error: --start 9999-12-01: ")
            assert err.endswith(" weekdays from it run past 9999-12-31\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("length", [50, 5000, 10**19])
    @pytest.mark.parametrize("start", ["2021-01-02", "2021-01-03", "2024-02-29", "9999-11-01",
                                       "9999-12-31", "0001-01-01"])
    def test_calendar_matches_the_day_walk(self, start, length):
        start = datetime.date.fromisoformat(start)

        def walk():
            # reference: count the weekdays left to date.max by whole weeks plus
            # the days after them, then step one day at a time, keeping weekdays
            weeks, rest = divmod(datetime.date.max.toordinal() - start.toordinal() + 1, 7)
            left = 5 * weeks + sum((start.weekday() + i) % 7 < 5 for i in range(rest))
            if left <= length:
                raise ConfigError(
                    f"--start {start}: {length + 1} weekdays from it run past {datetime.date.max}")
            days = map(datetime.date.fromordinal, itertools.count(start.toordinal()))
            return [d.isoformat() for d in itertools.islice(
                (d for d in days if d.weekday() < 5), length + 1)]

        outcomes = []
        for calendar in (walk, lambda: _simulation_calendar(0, 2, length, start)):
            try:
                outcomes.append(calendar())
            except ConfigError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]

    def test_refused_calendar_builds_nothing(self, monkeypatch):
        # the weekdays left are counted first, so a refused length builds no date
        def build(*args, **kwargs):
            raise AssertionError("np.busday_offset called")

        monkeypatch.setattr(np, "busday_offset", build)
        with pytest.raises(ConfigError) as exc:
            _simulation_calendar(0, 2, 10**19, datetime.date(1, 1, 1))
        assert str(exc.value) == ("--start 0001-01-01: 10000000000000000001 weekdays "
                                  "from it run past 9999-12-31")

    def test_seed_flag_overrides_the_config_seed(self, tmp_path):
        out = tmp_path / "out"
        cfg = _write_cfg(tmp_path / "c.yaml", {**MINIMAL, "seed": 11, "output_dir": str(out)})
        assert main(["simulate", "--config", cfg, "--seed", "5", "--assets", "2",
                     "--length", "50"]) == 0
        assert json.loads((out / "sim_truth.json").read_text())["seed"] == 5


@pytest.fixture(scope="module")
def sim_runs(tmp_path_factory):
    return tmp_path_factory.mktemp("simulate_runs")


class TestSimulateExits:
    # 9999-10-22 is the last start whose 51 weekdays end by date.max, a Friday
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(-2**31, 2**64), length=st.integers(50, 60), start=st.dates(),
           via_config=st.booleans())
    @example(seed=-1, length=50, start=datetime.date(2019, 1, 1), via_config=False)
    @example(seed=-1, length=50, start=datetime.date(2019, 1, 1), via_config=True)
    @example(seed=3, length=50, start=datetime.date(9999, 12, 1), via_config=False)
    @example(seed=3, length=50, start=datetime.date(9999, 10, 22), via_config=False)
    @example(seed=3, length=50, start=datetime.date(9999, 10, 23), via_config=False)
    def test_exit_0_or_3_without_traceback(self, sim_runs, seed, length, start, via_config):
        out = sim_runs / "out"
        argv = ["simulate", "--assets", "2", "--length", str(length),
                "--start", start.isoformat()]
        if via_config:
            cfg = sim_runs / "c.yaml"
            cfg.write_text(yaml.safe_dump({
                "seed": seed, "output_dir": str(out),
                "assets": [{"symbol": "A", "source": "a.csv"}],
            }))
            argv += ["--config", str(cfg)]
        else:
            argv += ["--out", str(out), "--seed", str(seed)]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv)
        runs_past = np.busday_count(start, np.datetime64("10000-01-01")) <= length
        if seed < 0:
            assert code == 3 and "seed" in err.getvalue()
        elif runs_past:
            assert code == 3 and "--start" in err.getvalue()
        else:
            assert code == 0
            rows = (out / "sim_SIM1.csv").read_text().splitlines()
            assert rows[1].startswith(start.isoformat()) or start.weekday() >= 5
            assert len(rows) == length + 2


class TestSimulateValidate:
    # the inputs of TestSimulateExits, plus one asset and no config at all
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(-2**31, 2**64), length=st.integers(50, 60), start=st.dates(),
           assets=st.sampled_from([1, 2]), via=st.sampled_from(["config", "flags", "none"]))
    @example(seed=0, length=50, start=datetime.date(2019, 1, 1), assets=1, via="config")
    @example(seed=-1, length=50, start=datetime.date(2019, 1, 1), assets=2, via="config")
    @example(seed=0, length=50, start=datetime.date(2019, 1, 1), assets=2, via="none")
    @example(seed=3, length=50, start=datetime.date(9999, 12, 1), assets=2, via="flags")
    def test_validate_exits_as_the_run_does_and_writes_nothing(self, sim_runs, seed, length,
                                                               start, assets, via):
        work = sim_runs / "validate"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir()
        argv = ["simulate", "--assets", str(assets), "--length", str(length),
                "--start", start.isoformat()]
        if via == "config":
            cfg = work / "c.yaml"
            cfg.write_text(yaml.safe_dump({
                "seed": seed, "output_dir": str(work / "out"),
                "assets": [{"symbol": "A", "source": "a.csv"}],
            }))
            argv += ["--config", str(cfg)]
        elif via == "flags":
            argv += ["--out", str(work / "out"), "--seed", str(seed)]
        before = sorted(work.rglob("*"))
        outcomes = []
        cwd = os.getcwd()
        os.chdir(work)  # without --out and --config the output goes to ./out
        try:
            for extra in (["--validate"], []):
                err = io.StringIO()
                with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                    outcomes.append((main(argv + extra), err.getvalue()))
                if extra:
                    assert sorted(work.rglob("*")) == before
        finally:
            os.chdir(cwd)
        assert outcomes[0] == outcomes[1]
        assert outcomes[1][0] in (0, 3)

    # each check's edge: one side runs, the other exits 3; the message names
    # the setting without its dashes, since a config's seed arrives as "seed"
    @pytest.mark.parametrize("flag, value, want", [
        ("--assets", "1", 3), ("--assets", "2", 0), ("--assets", "195", 0),
        ("--assets", "196", 3), ("--length", "49", 3), ("--length", "50", 0),
        ("--seed", "-1", 3), ("--seed", "0", 0),
        ("--start", "9999-10-22", 0), ("--start", "9999-10-23", 3),
    ])
    def test_validate_exits_3_exactly_when_the_run_does(self, tmp_path, capsys, flag, value,
                                                         want):
        out = tmp_path / "out"
        args = {"--assets": "2", "--length": "50", "--seed": "0", "--start": "2019-01-01",
                flag: value}
        argv = ["simulate", "--out", str(out), *itertools.chain(*args.items())]
        for extra in (["--validate"], []):
            assert main(argv + extra) == want
            err = capsys.readouterr().err
            if want == 3:
                assert flag.lstrip("-") in err
            assert out.exists() == (want == 0 and not extra)


class TestSimulateEmptyOut:
    # --out "" is the working directory with --config and without it
    ARGV = ["simulate", "--out", "", "--assets", "2", "--length", "50"]

    def _configs(self, tmp_path):
        cfg = _write_cfg(tmp_path / "c.yaml", {
            "output_dir": str(tmp_path / "elsewhere"),
            "assets": [{"symbol": "A", "source": "a.csv"}],
        })
        return ([], ["--config", cfg])

    def test_validate_names_the_same_directory(self, tmp_path):
        named = []
        for extra in self._configs(tmp_path):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(self.ARGV + extra + ["--validate"]) == 0
            named.append(out.getvalue().rsplit("output to ", 1)[1])
        assert named == ["\n", "\n"]

    def test_run_writes_into_the_working_directory(self, tmp_path, monkeypatch):
        for i, extra in enumerate(self._configs(tmp_path)):
            work = tmp_path / f"work{i}"
            work.mkdir()
            monkeypatch.chdir(work)
            assert main(self.ARGV + extra) == 0
            assert sorted(p.name for p in work.iterdir()) == [
                "sim_SIM1.csv", "sim_SIM2.csv", "sim_config.yaml", "sim_truth.json"]


class TestDescribe:
    def test_all_tables_written(self, sim_ws, sim_cfg):
        d = sim_ws / "describe1"
        assert main(["describe", "--config", sim_cfg, "--out", str(d)]) == 0
        names = {p.name for p in d.iterdir()}
        assert names == set(DESCRIBE_FILES)
        stats = json.loads((d / "stats.json").read_text())
        assert set(stats) == {"SIM1", "SIM2"}
        corr = json.loads((d / "correlation.json").read_text())
        m = corr["matrix"]
        assert m[0][1] == m[1][0]
        assert m[0][0] == 1.0
        assert (d / "stats.csv").read_text().splitlines()[0].startswith("symbol,")

    def test_test_subcommand_subset(self, sim_ws, sim_cfg):
        d = sim_ws / "testcmd"
        assert main(["test", "--config", sim_cfg, "--out", str(d)]) == 0
        names = {p.name for p in d.iterdir()}
        assert names == {"jarque_bera.csv", "jarque_bera.json",
                         "unit_root.csv", "unit_root.json"}

    def test_risk_free_rate_adds_sharpe(self, sim_cfg, tmp_path):
        doc = yaml.safe_load(open(sim_cfg, encoding="utf-8"))
        doc["risk_free_rate"] = 0.0001
        d = tmp_path / "out"
        assert main(["describe", "--config", _write_cfg(tmp_path / "rf.yaml", doc),
                     "--out", str(d)]) == 0
        lines = (d / "stats.csv").read_text().splitlines()
        assert lines[0].endswith(",sharpe")
        assert all(len(row.split(",")) == len(lines[0].split(",")) for row in lines[1:])
        stats = json.loads((d / "stats.json").read_text())
        for st_ in stats.values():
            assert st_["sharpe"] == pytest.approx((st_["mean"] - 0.0001) / st_["std"])

    def test_overflowed_sharpe_is_minus_inf_in_csv_and_null_in_json(self, sim_cfg, tmp_path):
        doc = yaml.safe_load(open(sim_cfg, encoding="utf-8"))
        doc["risk_free_rate"] = 1e308
        d = tmp_path / "out"
        assert main(["describe", "--config", _write_cfg(tmp_path / "rf.yaml", doc),
                     "--out", str(d)]) == 0
        rows = [line.split(",") for line in (d / "stats.csv").read_text().splitlines()]
        assert rows[0][-1] == "sharpe"
        assert [row[-1] for row in rows[1:]] == ["-inf", "-inf"]
        stats = json.loads((d / "stats.json").read_text())
        assert [st_["sharpe"] for st_ in stats.values()] == [None, None]

    @pytest.mark.parametrize("risk_free, n_assets", [(None, 2), (0.0001, 2), (None, 1)],
                             ids=["None", "0.0001", "one_asset"])
    def test_every_cell_is_its_json_value(self, sim_cfg, tmp_path, risk_free, n_assets):
        doc = yaml.safe_load(open(sim_cfg, encoding="utf-8"))
        doc["assets"] = doc["assets"][:n_assets]
        if risk_free is not None:
            doc["risk_free_rate"] = risk_free
        d = tmp_path / "out"
        assert main(["describe", "--config", _write_cfg(tmp_path / "c.yaml", doc),
                     "--out", str(d)]) == 0

        def fmt(v):
            # JSON writes a non-finite float as null; no cell here is infinite,
            # so a null is a NaN, which the CSV writes as nan
            if isinstance(v, bool):
                return str(v).lower()
            return "nan" if v is None else cli_mod._fmt(v)

        def rows(name):
            return [line.split(",") for line in (d / f"{name}.csv").read_text().splitlines()]

        def load(name):
            return json.loads((d / f"{name}.json").read_text())

        stats = load("stats")
        names = ["n", "mean", "std", "min", "max", "skewness", "excess_kurtosis", "q25", "q75",
                 *(["sharpe"] if risk_free is not None else [])]
        assert rows("stats") == [["symbol", *names]] + [
            [sym, str(st_["n"]), *(fmt(st_[f]) for f in names[1:])] for sym, st_ in stats.items()]
        corr = load("correlation")
        assert corr["symbols"] == [a["symbol"] for a in doc["assets"]]
        assert [row[i] for i, row in enumerate(corr["matrix"])] == [1.0] * n_assets
        assert rows("correlation") == [["symbol", *corr["symbols"]]] + [
            [sym, *map(fmt, row)] for sym, row in zip(corr["symbols"], corr["matrix"])]
        jb = load("jarque_bera")
        assert rows("jarque_bera")[1:] == [
            [sym, fmt(t["statistic"]), *(fmt(t["critical_values"][lv])
                                         for lv in ("0.01", "0.05", "0.10")),
             fmt(t["reject_null"])] for sym, t in jb.items()]
        ur = load("unit_root")
        assert rows("unit_root")[1:] == [
            [sym, fmt(t["adf"]["statistic"]), fmt(t["adf"]["reject_null"]),
             fmt(t["kpss"]["statistic"]), fmt(t["kpss"]["reject_null"])]
            for sym, t in ur.items()]


class TestFit:
    def test_exit_zero_and_outputs(self, fit_dir):
        rc, d = fit_dir
        assert rc == 0
        names = {p.name for p in d.iterdir()}
        assert names == {"fit_SIM1.json", "fit_SIM2.json", "dcc.json", "summary.txt"}

    def test_fit_documents(self, fit_dir):
        _, d = fit_dir
        doc = json.loads((d / "fit_SIM1.json").read_text())
        assert doc["symbol"] == "SIM1"
        assert doc["converged"] is True
        assert doc["model"] == "egarch"
        assert len(doc["h"]) == doc["n_obs"]
        dcc = json.loads((d / "dcc.json").read_text())
        assert dcc["converged"] is True
        a, b = dcc["params"]["alpha"], dcc["params"]["beta"]
        assert 0.0 < a and a + b < 1.0
        assert dcc["k_total"] == dcc["k_stage1"] + dcc["k_stage2"]

    def test_summary_block(self, fit_dir):
        _, d = fit_dir
        text = (d / "summary.txt").read_text()
        assert "SIM1" in text and "SIM2" in text
        assert "converged=yes" in text
        assert "joint dcc(1,1)" in text
        assert "b_pers" in text

    def test_deterministic_refit(self, sim_ws, sim_cfg, fit_dir):
        _, d1 = fit_dir
        d2 = sim_ws / "fit2"
        assert main(["fit", "--config", sim_cfg, "--out", str(d2)]) == 0
        for name in ("fit_SIM1.json", "fit_SIM2.json", "dcc.json", "summary.txt"):
            assert (d2 / name).read_bytes() == (d1 / name).read_bytes()

    def test_nonconvergence_exit_code_still_writes(self, sim_ws, tmp_path,
                                                   monkeypatch):
        single = {
            "assets": [{"symbol": "SIM1",
                        "source": str(sim_ws / "sim_SIM1.csv")}],
        }
        cfg = _write_cfg(tmp_path / "one.yaml", single)
        real = cli_mod.fit_egarch

        def stubborn(series, **kw):
            return dataclasses.replace(real(series, **kw), converged=False)

        monkeypatch.setattr(cli_mod, "fit_egarch", stubborn)
        d = tmp_path / "out"
        rc = main(["fit", "--config", cfg, "--out", str(d)])
        assert rc == 1
        assert (d / "fit_SIM1.json").exists()
        assert (d / "summary.txt").exists()
        assert "converged=NO" in (d / "summary.txt").read_text()

    def test_single_asset_skips_joint_stage(self, sim_ws, tmp_path):
        single = {
            "assets": [{"symbol": "SIM1",
                        "source": str(sim_ws / "sim_SIM1.csv")}],
        }
        cfg = _write_cfg(tmp_path / "one.yaml", single)
        d = tmp_path / "out"
        assert main(["fit", "--config", cfg, "--out", str(d)]) == 0
        names = {p.name for p in d.iterdir()}
        assert names == {"fit_SIM1.json", "summary.txt"}

    def test_joint_nonconvergence_exit_code_still_writes(self, sim_cfg, tmp_path, monkeypatch):
        real = dcc_mod._fit
        monkeypatch.setattr(dcc_mod, "_fit",
                            lambda neg_score, space, x0: (real(neg_score, space, x0)[0], False))
        d = tmp_path / "out"
        assert main(["fit", "--config", sim_cfg, "--out", str(d)]) == 1
        assert json.loads((d / "dcc.json").read_text())["converged"] is False
        text = (d / "summary.txt").read_text()
        joint = [line for line in text.splitlines() if line.startswith("joint dcc(1,1)")]
        assert len(joint) == 1 and joint[0].endswith("converged=NO")
        assert text.count("converged=yes") == 2


    def test_skew_t_panel_fits_joint_stage(self, sim_ws, sim_cfg, tmp_path):
        doc = yaml.safe_load(open(sim_cfg, encoding="utf-8"))
        doc["distribution"] = "skew_student_t"
        cfg = _write_cfg(tmp_path / "skew.yaml", doc)
        d = tmp_path / "out"
        assert main(["fit", "--config", cfg, "--out", str(d)]) in (0, 1)
        assert json.loads((d / "dcc.json").read_text())["symbols"] == ["SIM1", "SIM2"]
        text = (d / "summary.txt").read_text()
        assert "egarch-skew_student_t" in text
        # skew 1 is the symmetric law, not zero: the row ends at its SE
        skews = [line.split() for line in text.splitlines() if line.startswith("  skew ")]
        assert len(skews) == 2 and all(len(row) == 3 for row in skews)

    def test_explosive_arma_trial_points_rejected(self, tmp_path):
        # BFGS line searches try MA points whose residuals overflow; they
        # must be rejected steps, not a "zero variance" input error
        ws = tmp_path / "ws"
        assert main(["simulate", "--out", str(ws), "--seed", "1001",
                     "--assets", "3", "--length", "1000"]) == 0
        doc = yaml.safe_load((ws / "sim_config.yaml").read_text(encoding="utf-8"))
        for asset in doc["assets"]:
            asset["mean"] = {"ar": 1, "ma": 1}
        cfg = _write_cfg(tmp_path / "arma.yaml", doc)
        d = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["fit", "--config", cfg, "--out", str(d)]) in (0, 1)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert {p.name for p in d.iterdir()} == {
            "fit_SIM1.json", "fit_SIM2.json", "fit_SIM3.json", "dcc.json", "summary.txt"}

    @pytest.mark.parametrize("seed", [7, 1001])
    def test_converged_agrees_with_every_coordinate_differences(self, seed, tmp_path,
                                                                 monkeypatch):
        # each stage-1 and joint fit's flag equals the rule that differences
        # the value in every unconstrained coordinate at the returned point;
        # seed 7's SIM3 sits on a |z| kink, where both say no
        real = opt_mod._fit
        fits = []

        def capture(neg_score, space, x0):
            best, converged = real(neg_score, space, x0)
            fits.append((neg_score, space, best, converged))
            return best, converged

        monkeypatch.setattr(opt_mod, "_fit", capture)
        monkeypatch.setattr(dcc_mod, "_fit", capture)
        ws = tmp_path / "ws"
        assert main(["simulate", "--out", str(ws), "--seed", str(seed),
                     "--assets", "3", "--length", "1000"]) == 0
        code = main(["fit", "--config", str(ws / "sim_config.yaml"),
                     "--out", str(tmp_path / "out")])
        assert len(fits) == 4
        flags = []
        for neg_score, space, best, converged in fits:
            try:
                g = opt_mod.finite_diff_gradient(
                    lambda y: neg_score(space.from_unconstrained(y))[0],
                    space.to_unconstrained(best.x_opt))
                expected = float(np.max(np.abs(g))) < 1e-3
            except ValueError:
                expected = False
            assert type(converged) is bool
            assert converged == expected
            flags.append(converged)
        assert code == (0 if all(flags) else 1)
        assert flags == ([True, True, False, True] if seed == 7 else [True] * 4)

    def test_duplicate_asset_is_input_error(self, sim_ws, tmp_path, capsys):
        src = str(sim_ws / "sim_SIM1.csv")
        doc = {"assets": [{"symbol": "ONE", "source": src},
                          {"symbol": "TWO", "source": src}]}
        cfg = _write_cfg(tmp_path / "dup.yaml", doc)
        d = tmp_path / "out"
        assert main(["fit", "--config", cfg, "--out", str(d)]) == 2
        err = capsys.readouterr().err
        assert "input error" in err and "ONE" in err and "TWO" in err
        # the stage-1 fits are written before the joint stage's error exits
        assert {p.name for p in d.iterdir()} == {"fit_ONE.json", "fit_TWO.json", "summary.txt"}
        assert json.loads((d / "fit_TWO.json").read_text())["symbol"] == "TWO"
        text = (d / "summary.txt").read_text()
        assert "ONE  egarch-student_t" in text and "TWO  egarch-student_t" in text
        assert "joint dcc" not in text


class TestReport:
    def test_loads_each_csv_once(self, sim_ws, sim_cfg, fit_dir, monkeypatch):
        real = md_mod._read_text
        sources = []

        def counting(source):
            sources.append(source)
            return real(source)

        monkeypatch.setattr(md_mod, "_read_text", counting)
        d = sim_ws / "report1"
        assert main(["report", "--config", sim_cfg, "--out", str(d)]) == 0
        assert sorted(sources) == [str(sim_ws / "sim_SIM1.csv"), str(sim_ws / "sim_SIM2.csv")]
        # the fit outputs match those of the standalone command
        _, fd = fit_dir
        for name in ("fit_SIM1.json", "dcc.json", "summary.txt"):
            assert (d / name).read_bytes() == (fd / name).read_bytes()
        assert (d / "stats.csv").exists() and (d / "risk.csv").exists()


    def test_summary_stars_only_rows_whose_null_is_zero(self, sim_ws, sim_cfg):
        # a shape exceeds 2, so its row ends at its SE; b_pers is tested against 0
        d = sim_ws / "report_stars"
        assert main(["report", "--config", sim_cfg, "--out", str(d)]) == 0
        rows = [line.split() for line in (d / "summary.txt").read_text().splitlines()]
        shapes = [row for row in rows if row[:1] in (["shape"], ["joint_shape"])]
        assert len(shapes) == 3 and all(len(row) == 3 for row in shapes)
        assert [row[3:] for row in rows if row[:1] == ["b_pers"]] == [["***"], ["***"]]

    def test_tree_is_union_of_describe_fit_risk(self, sim_ws, sim_cfg, fit_dir):
        _, fd = fit_dir
        trees = {}
        for cmd in ("describe", "risk", "report"):
            d = sim_ws / f"union_{cmd}"
            assert main([cmd, "--config", sim_cfg, "--out", str(d)]) == 0
            trees[cmd] = _tree(d)
        union = {**trees["describe"], **_tree(fd), **trees["risk"]}
        assert len(union) == len(trees["describe"]) + len(_tree(fd)) + len(trees["risk"])
        assert trees["report"] == union

    def test_joint_stage_error_keeps_describe_and_stage1_files(self, sim_ws, tmp_path, capsys):
        src = str(sim_ws / "sim_SIM1.csv")
        doc = {"assets": [{"symbol": "ONE", "source": src},
                          {"symbol": "TWO", "source": src}]}
        cfg = _write_cfg(tmp_path / "dup.yaml", doc)
        d = tmp_path / "out"
        assert main(["report", "--config", cfg, "--out", str(d)]) == 2
        assert "input error" in capsys.readouterr().err
        assert {p.name for p in d.iterdir()} == set(DESCRIBE_FILES) | {
            "fit_ONE.json", "fit_TWO.json", "summary.txt"}


    def test_risk_error_keeps_describe_and_fit_files(self, sim_cfg, tmp_path, capsys):
        doc = yaml.safe_load(open(sim_cfg, encoding="utf-8"))
        doc["periods"] = {"before": {"end": "2000-01-01"}}
        cfg = _write_cfg(tmp_path / "early.yaml", doc)
        d = tmp_path / "out"
        assert main(["report", "--config", cfg, "--out", str(d)]) == 2
        assert "input error: period 'before': no observations" in capsys.readouterr().err
        assert {p.name for p in d.iterdir()} == set(DESCRIBE_FILES) | {
            "fit_SIM1.json", "fit_SIM2.json", "dcc.json", "summary.txt"}


class TestRisk:
    def test_outputs_and_drawdown_rows(self, risk_dir):
        names = {p.name for p in risk_dir.iterdir()}
        assert names == {"risk.csv", "risk.json", "drawdown_SIM1.csv",
                         "drawdown_SIM2.csv"}
        dd = (risk_dir / "drawdown_SIM1.csv").read_text().splitlines()
        assert dd[0] == "date,drawdown"
        assert len(dd) == 1 + 260
        assert float(dd[1].split(",")[1]) == 0.0

    def test_drawdown_rows_are_the_drawdown_series(self, sim_ws, sim_cfg):
        d = sim_ws / "risk_dd"
        assert main(["risk", "--config", sim_cfg, "--out", str(d)]) == 0
        panel = md_mod.load_panel([(a.symbol, a.source, a.columns)
                                   for a in load_run_config(sim_cfg).assets])
        for s in panel.series:
            series, max_dd = drawdown(s)
            rows = (d / f"drawdown_{s.symbol}.csv").read_text().splitlines()
            assert rows == ["date,drawdown"] + [f"{day.isoformat()},{v:.8f}" for day, v in series]
            assert max_dd == min(v for _, v in series)

    def test_levels_and_amount_overrides(self, sim_ws, sim_cfg, risk_dir):
        doc1 = json.loads((risk_dir / "risk.json").read_text())
        d2 = sim_ws / "risk2"
        rc = main(["risk", "--config", sim_cfg, "--out", str(d2),
                   "--levels", "0.95", "--portfolio-amount", "1000"])
        assert rc == 0
        doc2 = json.loads((d2 / "risk.json").read_text())
        assert doc2["levels"] == ["0.95"]
        assert doc2["amount"] == 1000.0
        for sym in ("SIM1", "SIM2"):
            v1 = doc1["assets"][sym]["full"]["var"]["0.95"]
            v2 = doc2["assets"][sym]["full"]["var"]["0.95"]
            for kind in ("gaussian", "cornish_fisher", "empirical"):
                assert v2[kind] == pytest.approx(1000.0 * v1[kind], rel=1e-12)

    def test_csv_shape(self, risk_dir):
        rows = (risk_dir / "risk.csv").read_text().splitlines()
        assert rows[0] == "symbol,level,full_var,full_cfvar,full_empvar"
        assert len(rows) == 1 + 2 * 3

    @pytest.mark.parametrize("end, n", [("2019-01-04", 3), ("2019-01-09", 6)])
    def test_short_period_names_itself_and_the_minimum(self, sim_cfg, tmp_path, capsys,
                                                         end, n):
        # simulate's returns start on 2019-01-02; the risk step takes 10 returns
        doc = yaml.safe_load(open(sim_cfg, encoding="utf-8"))
        doc["periods"]["short"] = {"start": "2019-01-02", "end": end}
        d = tmp_path / "out"
        assert main(["risk", "--config", _write_cfg(tmp_path / "c.yaml", doc),
                     "--out", str(d)]) == 2
        assert capsys.readouterr().err == (
            f"input error: period 'short': SIM1: need at least 10 observations, got {n}\n")
        assert not d.exists()


class TestExitCodes:
    def test_missing_config_is_3(self, capsys):
        assert main(["describe"]) == 3
        assert "config error" in capsys.readouterr().err

    def test_bad_config_is_3(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path / "c.yaml", dict(MINIMAL, wrong=1))
        assert main(["describe", "--config", cfg]) == 3
        assert "unknown keys" in capsys.readouterr().err

    def test_fractional_seed_is_3(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path / "c.yaml", dict(MINIMAL, seed=1.7))
        assert main(["describe", "--config", cfg, "--validate"]) == 3
        assert "config error: config: 'seed' must be an integer, got 1.7" in capsys.readouterr().err

    def test_missing_data_is_2(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path / "c.yaml", MINIMAL)
        assert main(["describe", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "input error" in err and "X" in err

    def test_files_sharing_no_date_are_2(self, sim_ws, sim_cfg, tmp_path, capsys):
        # the message names the asset whose dates empty the intersection, then those before it
        moved = tmp_path / "sim_SIM2.csv"
        moved.write_text((sim_ws / "sim_SIM2.csv").read_text().replace("2019-", "2030-"))
        doc = yaml.safe_load(open(sim_cfg, encoding="utf-8"))
        doc["assets"][1]["source"] = str(moved)
        cfg = _write_cfg(tmp_path / "c.yaml", doc)
        assert main(["describe", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == "input error: SIM2: empty calendar intersection with SIM1\n"

    def test_one_row_price_file_is_2(self, tmp_path, capsys):
        # the file's own error, prefixed once by the asset
        src = tmp_path / "x.csv"
        src.write_text("date,close\n2020-01-02,1\n", encoding="utf-8")
        cfg = _write_cfg(tmp_path / "c.yaml", {"assets": [{"symbol": "AAA", "source": str(src)}]})
        assert main(["describe", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == f"input error: AAA: {src}: need at least 2 observations, got 1\n"

    @pytest.mark.parametrize("key", ["open", "high", "low", "volume"])
    def test_price_fields_other_than_date_and_close_are_3(self, tmp_path, capsys, key):
        # a file is read for its dates and closes only
        doc = {"assets": [{"symbol": "X", "source": "x.csv", "columns": {key: key.title()}}]}
        assert main(["describe", "--config", _write_cfg(tmp_path / "c.yaml", doc),
                     "--validate"]) == 3
        assert capsys.readouterr().err == f"config error: assets[0].columns: unknown keys {[key]}\n"

    def test_url_source_is_unreadable_file(self, tmp_path, capsys):
        # sources are local files only; a URL is read as a path that does not exist
        url = "http://example.invalid/x.csv"
        cfg = _write_cfg(tmp_path / "c.yaml", {"assets": [{"symbol": "X", "source": url}]})
        assert main(["describe", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "input error" in err and url in err

    def test_non_utf8_source_is_2(self, tmp_path, capsys):
        src = tmp_path / "x.csv"
        src.write_bytes(b"date,close\n2020-01-02,1\xff\n")
        cfg = _write_cfg(tmp_path / "c.yaml", {"assets": [{"symbol": "X", "source": str(src)}]})
        assert main(["describe", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "input error: X: cannot read" in err and str(src) in err

    def test_field_over_csv_limit_is_2(self, tmp_path, capsys):
        src = tmp_path / "x.csv"
        src.write_text('date,close\n2020-01-02,"' + "1" * 200_000 + '"\n', encoding="utf-8")
        cfg = _write_cfg(tmp_path / "c.yaml", {"assets": [{"symbol": "X", "source": str(src)}]})
        assert main(["describe", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "input error: X:" in err and str(src) in err and "field larger" in err

    def test_unquoted_field_over_csv_limit_is_2(self, tmp_path, capsys):
        src = tmp_path / "x.csv"
        src.write_text("date,close\n2020-01-02," + "1" * 200_000 + "\n", encoding="utf-8")
        cfg = _write_cfg(tmp_path / "c.yaml", {"assets": [{"symbol": "X", "source": str(src)}]})
        assert main(["describe", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "input error: X:" in err and str(src) in err and "field larger" in err

    def test_collinear_adf_design_is_2(self, tmp_path, capsys):
        # returns alternate +-0.01, so the ADF lags repeat the lagged level
        src = tmp_path / "alt.csv"
        up = repr(100.0 * math.exp(0.01))
        src.write_text("date,close\n" + "".join(
            f"{datetime.date(2020, 1, 1) + datetime.timedelta(days=i)},{up if i % 2 else '100.0'}\n"
            for i in range(301)), encoding="utf-8")
        cfg = _write_cfg(tmp_path / "c.yaml", {"assets": [{"symbol": "ALT", "source": str(src)}]})
        d = tmp_path / "out"
        for cmd in ("describe", "test"):
            assert main([cmd, "--config", cfg, "--out", str(d)]) == 2
            err = capsys.readouterr().err
            assert "input error: ALT: collinear regressors in ADF regression" in err
            assert "Traceback" not in err
            assert not d.exists()

    def test_non_utf8_config_is_3(self, tmp_path, capsys):
        cfg = tmp_path / "c.yaml"
        cfg.write_bytes(b"assets: \xff\n")
        assert main(["describe", "--config", str(cfg)]) == 3
        assert "config error: cannot read config" in capsys.readouterr().err

    def test_boolean_risk_free_rate_is_3(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path / "c.yaml", dict(MINIMAL, risk_free_rate=True))
        assert main(["describe", "--config", cfg, "--validate"]) == 3
        err = capsys.readouterr().err
        assert "config error: config: 'risk_free_rate' must be a number, got True" in err

    @pytest.mark.parametrize("value", [".nan", ".inf", "-.inf"])
    def test_non_finite_risk_free_rate_is_3(self, sim_ws, tmp_path, capsys, value):
        doc = yaml.safe_load((sim_ws / "sim_config.yaml").read_text(encoding="utf-8"))
        text = yaml.safe_dump(doc) + f"risk_free_rate: {value}\n"
        cfg = tmp_path / "c.yaml"
        cfg.write_text(text, encoding="utf-8")
        d = tmp_path / "out"
        for extra in (["--validate"], ["--out", str(d)]):
            assert main(["describe", "--config", str(cfg), *extra]) == 3
            assert "config error: risk_free_rate must be finite" in capsys.readouterr().err
        assert not d.exists()

    def test_repeated_levels_is_3(self, sim_cfg, tmp_path, capsys):
        doc = yaml.safe_load(open(sim_cfg, encoding="utf-8"))
        doc["levels"] = [0.95, 0.99, 0.95]
        d = tmp_path / "out"
        for argv in (["--config", _write_cfg(tmp_path / "c.yaml", doc)],
                     ["--config", sim_cfg, "--levels", "0.95,0.95"]):
            assert main(["risk", *argv, "--out", str(d)]) == 3
            assert "config error: levels must be distinct" in capsys.readouterr().err
            assert not d.exists()

    @pytest.mark.parametrize("level", ["0.9999997", "1e-320"])
    def test_level_the_report_cannot_key_is_3(self, sim_cfg, tmp_path, capsys, level):
        # 0.9999997 keys as "1", and 1 - 1e-320 rounds to 1, a -inf quantile
        d = tmp_path / "out"
        assert main(["risk", "--config", sim_cfg, "--levels", f"0.95,{level}",
                     "--out", str(d)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error: confidence levels must") and level in err
        assert not d.exists()

    def test_output_dir_below_a_file_is_3(self, sim_cfg, tmp_path, capsys):
        (tmp_path / "file").write_text("x")
        out = tmp_path / "file" / "sub"
        assert main(["describe", "--config", sim_cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"config error: output directory {out}:")

    def test_unwritable_results_file_is_3(self, sim_cfg, tmp_path, capsys):
        # a directory where stats.csv goes; the files sorted before it are written
        out = tmp_path / "out"
        (out / "stats.csv").mkdir(parents=True)
        assert main(["describe", "--config", sim_cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == (f"config error: cannot write {out / 'stats.csv'}: "
                       f"[Errno 21] Is a directory: '{out / 'stats.csv'}'\n")
        assert sorted(p.name for p in out.iterdir()) == [
            "correlation.csv", "correlation.json", "jarque_bera.csv", "jarque_bera.json",
            "stats.csv"]

    def test_constant_price_fit_is_2(self, tmp_path, capsys):
        rows = [f"{datetime.date(2019, 1, 1) + datetime.timedelta(days=i)},100.0"
                for i in range(300)]
        (tmp_path / "c.csv").write_text("date,close\n" + "\n".join(rows) + "\n")
        cfg = _write_cfg(tmp_path / "c.yaml",
                         {"assets": [{"symbol": "C", "source": str(tmp_path / "c.csv")}]})
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "input error: C: degenerate: zero variance" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_failed_step_writes_nothing(self, tmp_path, capsys):
        # enough returns for the moments, too few for the unit-root tests
        src = tmp_path / "x.csv"
        src.write_text("date,close\n" + "".join(
            f"2020-01-{i + 1:02d},{100 + (-1) ** i * i}\n" for i in range(9)), encoding="utf-8")
        cfg = _write_cfg(tmp_path / "c.yaml", {"assets": [{"symbol": "X", "source": str(src)}]})
        d = tmp_path / "out"
        for cmd in ("describe", "test", "report"):
            assert main([cmd, "--config", cfg, "--out", str(d)]) == 2
            assert "input error: X: need more than" in capsys.readouterr().err
            assert not d.exists()

    def test_bad_portfolio_amount_is_3(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path / "c.yaml", dict(MINIMAL, portfolio_amount="abc"))
        assert main(["describe", "--config", cfg, "--validate"]) == 3
        err = capsys.readouterr().err
        assert "config error" in err and "portfolio_amount" in err

    @pytest.mark.parametrize("line,argv,match", [
        ("portfolio_amount: 1" + "0" * 400, ["describe"], "'portfolio_amount' must be a number"),
        ("risk_free_rate: 1" + "0" * 400, ["describe"], "'risk_free_rate' must be a number"),
        ("levels: [0.95, 1" + "0" * 400 + "]", ["describe"], "'levels' must be a number"),
        # over Python's limit of 4300 digits for an int read from a string
        ("seed: " + "1" * 5001, ["describe"], "cannot parse config"),
        ("seed: 1", ["risk", "--portfolio-amount", "1e400"], "portfolio amount must be finite, got inf"),
        ("seed: 1", ["risk", "--portfolio-amount", "nan"], "portfolio amount must be finite, got nan"),
        ("seed: 1", ["risk", "--portfolio-amount", "inf"], "portfolio amount must be finite, got inf"),
        ("seed: 1", ["risk", "--portfolio-amount=-inf"], "portfolio amount must be finite, got -inf"),
    ], ids=["portfolio_amount", "risk_free_rate", "levels", "seed", "flag", "nan", "inf", "-inf"])
    def test_numbers_out_of_range_are_3(self, tmp_path, capsys, line, argv, match):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(yaml.safe_dump(dict(MINIMAL, output_dir=str(tmp_path / "out")))
                       + line + "\n", encoding="utf-8")
        assert main(argv + ["--config", str(cfg), "--validate"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and match in err and "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["c.yaml"]

    @pytest.mark.parametrize("amount", ["0", "-1"])
    def test_nonpositive_portfolio_amount_override_is_3(self, tmp_path, capsys, amount):
        cfg = _write_cfg(tmp_path / "c.yaml", MINIMAL)
        argv = ["risk", "--config", cfg, "--validate", "--portfolio-amount", amount]
        assert main(argv) == 3
        assert "config error: portfolio amount must be > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fit", "risk"])
    def test_symbols_with_one_file_name_are_3(self, sim_ws, tmp_path, capsys, command):
        # "A/B" and "A_B" would both write fit_A_B.json and drawdown_A_B.csv
        doc = {"assets": [{"symbol": sym, "source": str(sim_ws / f"sim_SIM{i + 1}.csv")}
                          for i, sym in enumerate(("A/B", "A_B"))]}
        d = tmp_path / "out"
        assert main([command, "--config", _write_cfg(tmp_path / "c.yaml", doc),
                     "--out", str(d)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error: duplicate file fit_A_B.json")
        assert "'A/B'" in err and "'A_B'" in err
        assert not d.exists()

    @pytest.mark.parametrize("validate", [[], ["--validate"]])
    def test_symbols_that_differ_in_case_are_3(self, sim_ws, tmp_path, capsys, validate):
        # fit_AAPL.json and fit_aapl.json are one file where names ignore case
        doc = {"assets": [{"symbol": sym, "source": str(sim_ws / f"sim_SIM{i + 1}.csv")}
                          for i, sym in enumerate(("AAPL", "aapl"))]}
        d = tmp_path / "out"
        assert main(["fit", "--config", _write_cfg(tmp_path / "c.yaml", doc),
                     "--out", str(d), *validate]) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error: duplicate file fit_aapl.json")
        assert "'AAPL'" in err and "'aapl'" in err
        assert not d.exists()

    @pytest.mark.parametrize("name", ["A,B", 'A"B', "A\nB", "A\rB"])
    @pytest.mark.parametrize("where", ["symbol", "period"])
    def test_names_that_break_csv_rows_are_3(self, sim_ws, tmp_path, capsys, name, where):
        # the CSV writers join cells unquoted, so each would widen or split a row
        doc = yaml.safe_load((sim_ws / "sim_config.yaml").read_text(encoding="utf-8"))
        if where == "symbol":
            doc["assets"][1]["symbol"] = name
            want = f"config error: assets[1]: symbol {name!r} must not contain"
        else:
            doc["periods"] = {"full": None, name: None}
            want = f"config error: period {name!r} must not contain"
        d = tmp_path / "out"
        for command in ("describe", "risk"):
            assert main([command, "--config", _write_cfg(tmp_path / "c.yaml", doc),
                         "--out", str(d)]) == 3
            assert capsys.readouterr().err.startswith(want)
        assert not d.exists()

    def test_validate_short_circuits(self, sim_cfg, capsys):
        assert main(["describe", "--config", sim_cfg, "--validate"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("config ok:")
        assert "2 asset(s)" in out

    def test_validate_surfaces_config_errors(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path / "c.yaml", {"assets": []})
        assert main(["describe", "--config", cfg, "--validate"]) == 3
        capsys.readouterr()

    def test_bogus_log_level_falls_back(self, sim_cfg, monkeypatch):
        monkeypatch.setenv("VOLRISK_LOG", "BOGUS")
        assert main(["describe", "--config", sim_cfg, "--validate"]) == 0


class TestUsageErrors:
    """A flag the parser refuses is a config error: exit 3, one
    ``config error:`` line naming the flag, and nothing written."""

    @pytest.mark.parametrize("argv, message", [
        (["report", "--bogus"], "unrecognized arguments: --bogus"),
        (["simulate", "--seed", "x"], "argument --seed: invalid int value: 'x'"),
        (["risk", "--portfolio-amount", "lots"],
         "argument --portfolio-amount: invalid float value: 'lots'"),
        (["simulate", "--length", "1e3"], "argument --length: invalid int value: '1e3'"),
        # simulate takes neither of the risk flags
        (["simulate", "--levels", "zz"], "unrecognized arguments: --levels zz"),
        (["simulate", "--levels", "0.95"], "unrecognized arguments: --levels 0.95"),
        (["simulate", "--portfolio-amount", "2", "--validate"],
         "unrecognized arguments: --portfolio-amount 2"),
        ([], "the following arguments are required: COMMAND"),
        # only simulate draws random numbers, and only the risk step reads
        # levels and the portfolio amount
        (["report", "--seed", "5"], "unrecognized arguments: --seed 5"),
        (["describe", "--levels", "0.9"], "unrecognized arguments: --levels 0.9"),
        (["fit", "--portfolio-amount", "2"], "unrecognized arguments: --portfolio-amount 2"),
        # each flag has one spelling: a prefix of it is an unknown flag
        (["risk", "--lev", "0.9", "--port", "2", "--val"],
         "unrecognized arguments: --lev 0.9 --port 2 --val"),
        (["simulate", "--len", "60", "--se", "4", "--val"],
         "unrecognized arguments: --len 60 --se 4 --val"),
    ])
    def test_refused_flags_exit_3_and_write_nothing(self, sim_cfg, tmp_path, capsys,
                                                     argv, message):
        d = tmp_path / "out"
        assert main(argv + ["--config", sim_cfg, "--out", str(d)] if argv else argv) == 3
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not d.exists()

    @pytest.mark.parametrize("flag, value", [("--levels", "zz"), ("--portfolio-amount", "2")])
    def test_simulate_without_config_refuses_the_risk_flags(self, tmp_path, capsys, flag, value):
        d = tmp_path / "d"
        assert main(["simulate", "--out", str(d), flag, value]) == 3
        assert capsys.readouterr().err == f"config error: unrecognized arguments: {flag} {value}\n"
        assert not d.exists()

    def test_an_unknown_command_is_3(self, capsys):
        assert main(["frob"]) == 3
        assert capsys.readouterr().err.startswith("config error: argument COMMAND: invalid choice: 'frob'")

    @pytest.mark.parametrize("argv", [["--help"], ["report", "--help"], ["simulate", "-h"]])
    def test_help_still_exits_0(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: volrisk")

    def test_simulate_lists_only_its_own_flags(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--help"])
        usage = capsys.readouterr().out
        assert "--assets" in usage and "--seed" in usage
        assert "--levels" not in usage and "--portfolio-amount" not in usage

    @pytest.mark.parametrize("command, flags", [
        *((c, ["--config", "--out", "--validate"]) for c in ("describe", "test", "fit")),
        *((c, ["--config", "--out", "--validate", "--levels", "--portfolio-amount"])
          for c in ("risk", "report")),
        ("simulate", ["--config", "--out", "--validate", "--seed", "--assets", "--length",
                      "--start"]),
    ])
    def test_each_command_lists_only_the_flags_it_reads(self, capsys, command, flags):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        usage = capsys.readouterr().out
        listed = {w.strip("[]") for w in usage.split() if w.startswith(("--", "[--"))}
        assert listed == {"--help", *flags}


# drawdowns reach toward -1; prices are positive, but any float must keep its bytes
_ROW_FLOATS = st.one_of(
    st.floats(),
    st.floats(-1.0, 0.0),
    st.floats(-1.0, -0.999),
    st.sampled_from((-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1.0, -0.999999995,
                     -0.9999999949999999, 0.000000005, 99.99999999995)),
)


def _check_drawdown_text(values) -> None:
    # the reference: one f-string per drawdown row
    iso = [(datetime.date(2020, 2, 27) + datetime.timedelta(days=i)).isoformat()
           for i in range(len(values))]
    expected = "".join(["date,drawdown\n"] + [f"{d},{v:.8f}\n" for d, v in zip(iso, values)])
    assert cli_mod._drawdown_writer(iso)(np.array(values, dtype=float)) == expected


@settings(max_examples=300, deadline=None, database=None)
@given(values=st.lists(_ROW_FLOATS, max_size=40))
def test_row_template_gives_the_per_row_formats(values):
    # drawdowns through the byte writer, prices through simulate's %-template
    # against one %-format per row
    _check_drawdown_text(values)
    iso = [(datetime.date(2020, 2, 27) + datetime.timedelta(days=i)).isoformat()
           for i in range(len(values))]
    prices = "\n".join(["date,close"] + ["%s,%.10f" % row for row in zip(iso, values)])
    template = "date,close\n" + "".join([f"{d},%.10f\n" for d in iso])
    assert template % tuple(values) == prices + "\n"


def test_drawdown_writer_matches_the_f_string_at_ties_and_edges():
    # -k/512 times 1e8 is an exact half for odd k, where %.8f rounds half to even;
    # the doubles nearest the decimal halves -(k + 0.5)e-8 lie just off them, on
    # either side, where the rounded product -v * 1e8 can land on the half itself.
    # One row near a half sends its whole file to the f-string, so each value is
    # a file of its own, and the exact path meets every value it keeps
    ties = [-k / 512 for k in range(513)]
    halves = [-(k + 0.5) / 1e8 for k in range(0, 10 ** 8, 99991)]
    edges = [-0.0, 0.0, -1.0, -0.999999995, -0.9999999949999999, 5e-324, -5e-324,
             math.nan, math.inf, -math.inf]
    for v in ties + halves + edges:
        _check_drawdown_text([v])


_WITHOUT_SCIPY = """
import sys


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, NoScipy())
from volrisk.cli import main

ws = sys.argv[1]
sim = main(["simulate", "--out", ws, "--seed", "3", "--assets", "2", "--length", "300"])
code = main(["report", "--config", ws + "/sim_config.yaml"])
print(sim, code, sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


_RUN_AND_LIST_NUMPY_MA = """
import sys
from volrisk.cli import main

code = main(sys.argv[1:])
print(code, "numpy.ma" in sys.modules)
"""


def _package_env() -> dict:
    # a child interpreter that imports this volrisk
    src = str(pathlib.Path(cli_mod.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


class TestEntryPoint:
    def test_runs_without_scipy(self, tmp_path):
        proc = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, str(tmp_path)],
                              capture_output=True, text=True, env=_package_env())
        assert proc.returncode == 0, proc.stderr
        sim, code, loaded = proc.stdout.split(" ", 2)
        assert sim == "0" and code in ("0", "1")
        assert loaded.strip() == "[]"
        assert (tmp_path / "results" / "dcc.json").is_file()

    @pytest.mark.parametrize("command", ["describe", "risk", "report"])
    def test_run_commands_leave_numpy_ma_unimported(self, tmp_path, command):
        # importing numpy.ma costs a process about 1.2 MB; np.quantile's
        # np.unique imports it, the package's own quantiles do not
        assert main(["simulate", "--out", str(tmp_path), "--seed", "3", "--assets", "2",
                     "--length", "300"]) == 0
        proc = subprocess.run(
            [sys.executable, "-c", _RUN_AND_LIST_NUMPY_MA, command,
             "--config", str(tmp_path / "sim_config.yaml")],
            capture_output=True, text=True, env=_package_env())
        assert proc.returncode == 0, proc.stderr
        code, loaded = proc.stdout.split()
        assert code in ("0", "1") and loaded == "False"

    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "volrisk.cli", "simulate",
             "--out", str(tmp_path), "--seed", "1", "--assets", "2",
             "--length", "60"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "sim_config.yaml").exists()
