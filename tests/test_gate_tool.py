"""Unit tests of the byte-identity gate's ``compare`` and ``drift``
(``tools/gate_trees.py``) on small hand-built digests, and of the format of
the committed ``tests/gate_digest.json``."""
import copy
import json
import pathlib

import pytest

import gate_trees


def _run(converged=True, params=None, loglik=-10.0):
    return {
        "exit": {"report": 0 if converged else 1},
        "files": {"sim_A.csv": "aa", "results/fit_A.json": "bb"},
        "converged": {"fit_A.json": converged},
        "values": {"fit_A.json": {"params": params or {"omega": 0.5, "xi": -0.25},
                                  "loglik": loglik}},
    }


DIGEST = {"report-1": _run(), "report-2": _run(converged=False)}


def test_identical_digests_give_no_diffs():
    assert gate_trees.compare(DIGEST, copy.deepcopy(DIGEST)) == []


@pytest.mark.parametrize("part, key, value", [
    ("files", "results/fit_A.json", "cc"),
    ("exit", "report", 2),
    ("converged", "fit_A.json", False),
])
def test_a_changed_entry_is_listed(part, key, value):
    b = copy.deepcopy(DIGEST)
    old = b["report-1"][part][key]
    b["report-1"][part][key] = value
    assert gate_trees.compare(DIGEST, b) == [f"report-1: {part} {key}: {old} -> {value}"]


def test_an_entry_on_one_side_only_is_listed():
    b = copy.deepcopy(DIGEST)
    b["report-1"]["files"]["results/extra.csv"] = "dd"
    assert gate_trees.compare(DIGEST, b) == ["report-1: files results/extra.csv: None -> dd"]


def test_a_run_on_one_side_only_is_listed():
    b = copy.deepcopy(DIGEST)
    b["report-3"] = b.pop("report-2")
    assert gate_trees.compare(DIGEST, b) == ["report-2: only in A", "report-3: only in B"]


def _drift(b_run, a_run=None):
    return gate_trees.drift({"r": a_run or _run()}, {"r": b_run})


def test_drift_of_equal_values_is_zero():
    lines = _drift(_run())
    assert [line.split(":")[0] for line in lines] == [
        "worst relative change, loglik (converged)",
        "worst relative change, params (converged)",
    ]
    assert all(": 0 at r fit_A.json" in line for line in lines)


def test_drift_reports_the_worst_relative_change():
    lines = _drift(_run(params={"omega": 0.5, "xi": -0.3}))
    assert lines[1] == ("worst relative change, params (converged): 0.2 at "
                        "r fit_A.json params.xi: -0.25 -> -0.3")


def test_a_null_on_one_side_is_an_infinite_change():
    lines = _drift(_run(loglik=None))
    assert lines[0] == ("worst relative change, loglik (converged): inf at "
                        "r fit_A.json loglik: -10.0 -> None")
    lines = _drift(_run(), _run(loglik=None))
    assert lines[0].startswith("worst relative change, loglik (converged): inf at")


def test_a_pair_of_nulls_is_skipped():
    lines = _drift(_run(loglik=None), _run(loglik=None))
    assert [line.split(":")[0] for line in lines] == [
        "worst relative change, params (converged)"]


@pytest.mark.parametrize("b, want", [(0.0, "0"), (1e-300, "inf")])
def test_a_zero_base(b, want):
    # from 0.0, staying at 0.0 is no change and any other value an infinite one
    lines = _drift(_run(params={"omega": b, "xi": 0.0}),
                   _run(params={"omega": 0.0, "xi": 0.0}))
    assert lines[1].startswith(f"worst relative change, params (converged): {want} at")


def test_drift_is_split_by_the_converged_flag_of_b():
    a = {"r": _run(converged=False), "s": _run(converged=True)}
    b = {"r": _run(converged=True, loglik=-11.0), "s": _run(converged=False, loglik=-12.0)}
    lines = gate_trees.drift(a, b)
    assert lines[0] == ("worst relative change, loglik (converged): 0.1 at "
                        "r fit_A.json loglik: -10.0 -> -11.0")
    assert lines[1] == ("worst relative change, loglik (unconverged): 0.2 at "
                        "s fit_A.json loglik: -10.0 -> -12.0")


def test_the_committed_digest_compares_identical_to_itself(capsys):
    # one format: versions and runs, each run with the estimates of every fit file it lists
    path = pathlib.Path(__file__).with_name("gate_digest.json")
    committed = json.loads(path.read_text())
    assert sorted(committed) == ["numpy", "python", "runs"]
    for run in committed["runs"].values():
        outputs = {name.rsplit("/", 1)[1] for name in run["files"] if "/" in name}
        fits = {name for name in outputs if name.startswith("fit_") or name == "dcc.json"}
        assert set(run["values"]) == set(run["converged"]) == fits
    assert gate_trees.main(["--compare", str(path), str(path)]) == 0
    first, *lines = capsys.readouterr().out.splitlines()
    assert first == "identical: 34 runs"
    assert {line.split(" (")[0] for line in lines} == {
        f"worst relative change, {field}" for field in gate_trees.FIELDS}
    assert all(": 0 at " in line for line in lines)


def test_there_is_no_second_format():
    with pytest.raises(SystemExit) as exc:
        gate_trees.main(["--digest", "d.json"])
    assert exc.value.code == 2
