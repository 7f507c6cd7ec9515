"""The byte gate in tier-1: the 34 runs of ``tools/gate_trees.py``, run in
this process on ``src/``, must give the exit codes, output bytes and
``converged`` flags recorded in ``tests/gate_digest.json``; on a failure
the message also gives the worst relative change of each estimate field.

The digest also holds the estimates of every fit file, so one run shows
how far a change moves them:

    python3 tools/gate_trees.py --out new.json
    python3 tools/gate_trees.py --compare tests/gate_digest.json new.json

A change that means to move output bytes regenerates the digest with
``python3 tools/gate_trees.py --out tests/gate_digest.json``, and its
``git diff`` shows which runs and files moved.  The digest records the
Python and numpy versions it was made under; under other versions the test
skips, since numpy or its BLAS can move the last bits of an estimate.
"""
import json
import pathlib
import sys

import pytest

import gate_trees

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_outputs_match_the_committed_digest(tmp_path, monkeypatch):
    committed = json.loads((ROOT / "tests" / "gate_digest.json").read_text())
    here = gate_trees.versions()
    made = {key: committed[key] for key in here}
    if made != here:
        pytest.skip(f"digest made under Python {made['python']}, numpy {made['numpy']}; "
                    f"this is Python {here['python']}, numpy {here['numpy']}")
    # perfbench/ is on the path for the whole session, but gate() still
    # inserts its src/ argument; keep that to this test
    monkeypatch.setattr(sys, "path", list(sys.path))
    runs = gate_trees.gate(ROOT / "src", tmp_path)
    diffs = gate_trees.compare(committed["runs"], runs)
    assert diffs == [], "\n".join(diffs + gate_trees.drift(committed["runs"], runs))


@pytest.mark.parametrize("run", ["csvpath-7", "reordered-7"])
def test_rewritten_price_files_write_the_outputs_of_report_7(run):
    # quoted cells, a missing last newline or rows out of date order change
    # the input bytes, not the exit code or the output files
    runs = json.loads((ROOT / "tests" / "gate_digest.json").read_text())["runs"]
    # an output file is keyed <results dir>/<name>, an input file by its name
    inputs, outputs = ({}, {}), ({}, {})
    for side, name in enumerate((run, "report-7")):
        for key, sha in runs[name]["files"].items():
            if "/" in key:
                outputs[side][key.split("/", 1)[1]] = sha
            else:
                inputs[side][key] = sha
    assert {k for k in inputs[0] if inputs[0][k] != inputs[1][k]} == {
        "sim_SIM1.csv", "sim_SIM2.csv"}
    assert outputs[0] == outputs[1]
    assert runs[run]["exit"] == runs["report-7"]["exit"]
