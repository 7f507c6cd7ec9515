"""Whole-workspace property test: every hostile input lands on its exit code.

Each example perturbs a copy of one simulated workspace (3 assets, 400
returns) and runs ``report`` and ``risk`` on it in-process.  Whatever the
exit code, the files written are the ones the README names for it, the
config check agrees with the run, and a second run writes the same bytes.
Pinned cases also check the exit code and message each perturbation
lands on.
"""
import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from volrisk.cli import _slug, main

DESCRIBE = {
    "stats.csv", "stats.json", "correlation.csv", "correlation.json",
    "jarque_bera.csv", "jarque_bera.json", "unit_root.csv", "unit_root.json",
}
SYMBOLS = ("SIM1", "SIM2", "SIM3")
T = 400


@pytest.fixture(scope="module")
def prices(tmp_path_factory):
    """The dates and closes of each simulated price file."""
    root = tmp_path_factory.mktemp("fuzz_ws")
    assert main(["simulate", "--out", str(root), "--seed", "7", "--assets", "3",
                 "--length", str(T)]) == 0
    tables = {}
    for sym in SYMBOLS:
        rows = [line.split(",") for line in (root / f"sim_{sym}.csv").read_text().splitlines()[1:]]
        tables[sym] = ([d for d, _ in rows], [float(p) for _, p in rows])
    return tables


# each perturbation acts on the panel's columns, given by their position
_COPY = st.tuples(st.just("copy"), st.integers(0, 2), st.integers(0, 2),
                  st.sampled_from([1.0, 0.01, 3.0, 1e4]), st.booleans())
_STALE = st.tuples(st.just("stale"), st.integers(0, 2), st.sampled_from(["all", "90%"]))
_SPIKE = st.tuples(st.just("spike"), st.integers(0, 2), st.integers(0, T),
                   st.sampled_from([5.0, 10.0, 30.0, 1e3, 1e8]))
_SHORT = st.tuples(st.just("short"), st.integers(0, T - 1), st.integers(1, 9))
_NEGATE = st.tuples(st.just("negate"), st.integers(0, 2), st.integers(0, 2),
                    st.sampled_from([1.0, 1e4]))
# row edits act on one file's rows, given by their position among its data rows
_DROP = st.tuples(st.just("drop"), st.integers(0, 2), st.integers(0, T), st.integers(1, 100))
_REPEAT = st.tuples(st.just("repeat"), st.integers(0, 2), st.integers(0, T))
_SYMBOL = st.one_of(
    st.tuples(st.just("symbol"), st.integers(0, 2), st.sampled_from([",", '"', "\n", "\r"])),
    st.tuples(st.just("slug"), st.integers(0, 2), st.integers(0, 2)),
)
# one top-level config value replaced by a document shaped like test_cli's, in
# the types YAML's safe dumper writes
_VALUE = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=4), st.floats()),
    lambda inner: st.one_of(st.lists(inner, max_size=5),
                            st.dictionaries(st.text(max_size=4), inner, max_size=5)),
    max_leaves=40,
)
_CONFIG = st.tuples(st.just("config"),
                    st.sampled_from(["distribution", "levels", "output_dir", "periods",
                                     "portfolio_amount", "risk_free_rate", "seed"]),
                    _VALUE)

WORKSPACES = st.tuples(
    st.permutations(SYMBOLS).flatmap(lambda order: st.integers(1, 3).map(lambda k: order[:k])),
    st.lists(st.one_of(_COPY, _STALE, _SPIKE, _SHORT, _NEGATE, _DROP, _REPEAT, _SYMBOL,
                       _CONFIG), max_size=2),
)


def _workspace(root: Path, prices: dict, symbols: tuple, perturbations: list) -> Path:
    """Write the price files and config of the perturbed panel under ``root``."""
    k = len(symbols)
    dates = prices[symbols[0]][0]
    columns = [list(prices[sym][1]) for sym in symbols]
    names = list(symbols)
    # the rows each file writes, as indices into dates and its column
    rows = [list(range(T + 1)) for _ in symbols]
    periods = {"full": {"start": dates[1], "end": dates[-1]}}
    doc = {"periods": periods}
    for kind, *arg in perturbations:
        if kind == "copy" and k > 1:
            # column dst := factor * column src, under src's symbol when ``clash``
            src, dst, factor, clash = arg[0] % k, arg[1] % k, arg[2], arg[3]
            if src != dst:
                columns[dst] = [factor * p for p in columns[src]]
                names[dst] = names[src] if clash else f"{names[src]}x{factor:g}"
        elif kind == "negate" and k > 1:
            # column dst := c / column src, whose returns are src's negated
            src, dst, c = arg[0] % k, arg[1] % k, arg[2]
            if src != dst:
                columns[dst] = [c / p for p in columns[src]]
        elif kind == "drop":
            del rows[arg[0] % k][arg[1]:arg[1] + arg[2]]
        elif kind == "repeat":
            file_rows = rows[arg[0] % k]
            i = arg[1] % len(file_rows)
            file_rows.insert(i, file_rows[i])
        elif kind == "symbol":
            names[arg[0] % k] += arg[1] + "x"
        elif kind == "slug" and k > 1 and arg[0] % k != arg[1] % k:
            # two symbols that both write fit_A_B.json
            names[arg[0] % k], names[arg[1] % k] = "A/B", "A_B"
        elif kind == "config":
            doc[arg[0]] = arg[1]
        elif kind == "stale":
            col = columns[arg[0] % k]
            step = len(col) if arg[1] == "all" else 10
            col[:] = [col[i - i % step] for i in range(len(col))]
        elif kind == "spike":
            columns[arg[0] % k][arg[1]] *= arg[2]
        elif kind == "short":
            # returns are dated from the second price row on
            start, n = arg
            periods["short"] = {"start": dates[1 + start], "end": dates[min(start + n, T)]}
    assets = []
    for i, (name, col) in enumerate(zip(names, columns)):
        path = root / f"p{i}.csv"
        path.write_text("date,close\n" + "".join(f"{dates[j]},{col[j]!r}\n" for j in rows[i]),
                        encoding="utf-8")
        assets.append({"symbol": name, "source": str(path)})
    config = root / "config.yaml"
    config.write_text(yaml.safe_dump({"assets": assets, **doc}), encoding="utf-8")
    return config


def _run(argv: list) -> tuple:
    """The exit code and stderr of one in-process CLI run."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _tree(d: Path) -> dict:
    return {p.name: p.read_bytes() for p in d.iterdir()} if d.exists() else {}


def _expected_files(config: Path) -> tuple:
    """The full trees of ``risk`` and ``report`` on ``config``, and the stage-1
    fit files."""
    symbols = [a["symbol"] for a in yaml.safe_load(config.read_text(encoding="utf-8"))["assets"]]
    stage1 = {f"fit_{_slug(s)}.json" for s in symbols} | {"summary.txt"}
    joint = {"dcc.json"} if len(symbols) > 1 else set()
    risk = {"risk.csv", "risk.json"} | {f"drawdown_{_slug(s)}.csv" for s in symbols}
    return risk, DESCRIBE | stage1 | joint | risk, stage1, joint


def _check_report_input_error(written: set, err: str, stage1: set, joint: set, tree: dict):
    """A report that exits 2 leaves the files of the steps that finished:
    none, describe's, describe's and the stage-1 fits' when the joint stage
    refuses the panel, or describe's and fit's when a risk period fails."""
    assert written in (set(), DESCRIBE, DESCRIBE | stage1, DESCRIBE | stage1 | joint), err
    # a risk-step error names its period, and the joint stage names the collinear pair
    risk_step = err.startswith("input error: period '")
    assert risk_step == (written == DESCRIBE | stage1 | joint), err
    collinear = " are collinear " in err
    assert collinear == (bool(joint) and written == DESCRIBE | stage1), err
    if collinear:
        text = tree["summary.txt"].decode()
        assert "joint dcc" not in text
        assert text.count("converged=") == len(stage1) - 1


def _check_workspace(prices: dict, symbols: tuple, perturbations: list) -> dict:
    """Run ``risk`` and ``report`` on the perturbed workspace, check the
    files of each exit code, ``--validate`` and a second run, and return
    each command's exit code, stderr and written tree."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        config = _workspace(root, prices, symbols, perturbations)
        risk_files, report_files, stage1, joint = _expected_files(config)
        runs = {}
        for command, full in (("risk", risk_files), ("report", report_files)):
            out = root / command
            code, err = _run([command, "--config", str(config), "--out", str(out)])
            tree = _tree(out)
            written = set(tree)
            assert code in (0, 1, 2, 3), err
            if code == 3:
                assert written == set(), err
            elif code == 2 and command == "report":
                _check_report_input_error(written, err, stage1, joint, tree)
            elif code == 2:
                assert written == set(), err
            else:
                # risk fits nothing, so it cannot exit 1
                assert code == 0 or command == "report"
                assert written == full, err
            # the config check refuses exactly what the run refuses as a config error
            check, _ = _run([command, "--config", str(config), "--validate"])
            assert check == (3 if code == 3 else 0)
            again = root / f"{command}_again"
            assert _run([command, "--config", str(config), "--out", str(again)]) == (code, err)
            assert _tree(again) == tree
            runs[command] = code, err, tree
    (risk_code, risk_err, risk_tree), (code, err, tree) = runs["risk"], runs["report"]
    # report's risk step sees the panel the risk command does
    if code in (0, 1):
        assert risk_code == 0
        assert {name: tree[name] for name in risk_tree} == risk_tree
    if risk_code == 2:
        assert code == 2
        if err.startswith("input error: period '"):
            assert err == risk_err
    return runs


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(WORKSPACES)
# one example of each perturbation, which the drawn ones need not all reach
@example((("SIM1", "SIM2"), [("copy", 0, 1, 1.0, False)]))
@example((("SIM2", "SIM3", "SIM1"), [("copy", 1, 2, 1e4, False)]))
@example((("SIM2", "SIM3"), [("copy", 0, 1, 3.0, True)]))
@example((("SIM2", "SIM3"), [("stale", 1, "all")]))
@example((("SIM2", "SIM3"), [("stale", 0, "90%")]))
@example((("SIM2", "SIM3"), [("spike", 0, 200, 5.0)]))
@example((("SIM3", "SIM2"), [("spike", 1, 57, 1e8)]))
@example((("SIM2", "SIM3"), [("short", 100, 5)]))
@example((("SIM3",), []))
@example((("SIM1", "SIM2"), [("config", "levels", [0.5])]))
def test_hostile_workspace_lands_on_its_exit_code(prices, case):
    symbols, perturbations = case
    _check_workspace(prices, symbols, perturbations)


@pytest.mark.parametrize("symbols, perturbation", [
    (("SIM1", "SIM2"), ("negate", 0, 1, 1.0)),
    (("SIM2", "SIM3", "SIM1"), ("negate", 2, 0, 1e4)),
])
def test_a_negated_column_is_refused_by_the_joint_stage(prices, symbols, perturbation):
    runs = _check_workspace(prices, symbols, [perturbation])
    code, err, _ = runs["report"]
    first, second = sorted((perturbation[1], perturbation[2]))
    assert code == 2
    # the shared check has found the stage-1 files written beside describe's
    assert err.startswith(f"input error: {symbols[first]} and {symbols[second]} are collinear "
                          f"(residual correlation -1.000000)"), err
    assert runs["risk"][0] == 0


@pytest.mark.parametrize("symbols, perturbation", [
    (("SIM1", "SIM2", "SIM3"), ("drop", 1, 100, 50)),
    (("SIM3", "SIM1"), ("drop", 0, 0, 30)),
])
def test_dropped_rows_leave_the_calendars_intersection(prices, symbols, perturbation):
    runs = _check_workspace(prices, symbols, [perturbation])
    code, err, tree = runs["report"]
    assert code in (0, 1), err
    assert runs["risk"][0] == 0
    # n prices gone from one file take n returns from every column
    n = perturbation[3]
    stats = json.loads(tree["stats.json"])
    assert {s["n"] for s in stats.values()} == {T - n}


@pytest.mark.parametrize("symbols, perturbation", [
    (("SIM1", "SIM2"), ("repeat", 1, 200)),
    (("SIM3",), ("repeat", 0, 0)),
])
def test_a_repeated_row_names_its_date_and_row(prices, symbols, perturbation):
    runs = _check_workspace(prices, symbols, [perturbation])
    _, col, i = perturbation
    date = prices[symbols[col]][0][i]
    # the header is row 1, so data row i is row i + 2 and its copy row i + 3
    want = rf"^input error: {symbols[col]}: .*p{col}\.csv: duplicate date {date} at row {i + 3}\n$"
    for command in ("risk", "report"):
        code, err, tree = runs[command]
        assert (code, tree) == (2, {}), err
        assert re.match(want, err), err


@pytest.mark.parametrize("perturbation, message", [
    (("symbol", 0, ","), "assets[0]: symbol 'SIM2,x' must not contain"),
    (("symbol", 1, '"'), "assets[1]: symbol 'SIM3\"x' must not contain"),
    (("symbol", 1, "\n"), "assets[1]: symbol 'SIM3\\nx' must not contain"),
    (("slug", 0, 1), "duplicate file fit_A_B.json of assets 'A/B' and 'A_B'"),
])
def test_a_symbol_that_breaks_a_file_is_a_config_error(prices, perturbation, message):
    runs = _check_workspace(prices, ("SIM2", "SIM3"), [perturbation])
    for command in ("risk", "report"):
        code, err, tree = runs[command]
        assert (code, tree) == (3, {}), err
        assert err.startswith(f"config error: {message}"), err
