"""Byte-identity gate: digest every output file of fixed CLI runs.

    python3 tools/gate_trees.py --out new.json
    python3 tools/gate_trees.py --compare tests/gate_digest.json new.json

``tests/gate_digest.json`` is the digest of the committed tree, which
tier-1 keeps equal to what ``src/`` gives, so one run and one compare show
what a change moved.  The committed digest applies only under the Python
and numpy versions it records; under others, digest the parent's tree too
(``--src ../parent/src --out before.json``) and compare the two runs.

A run imports ``volrisk`` from ``--src`` and drives ``volrisk.cli.main``
in-process on workspaces simulated with the ``perfbench`` workloads:

- ``report`` on the ``report_small`` shape (k=3, T=1000) at simulate seeds
  1, 7, 21-40 and 1001-1003, the last three being the workspaces
  ``report_small`` times;
- ``describe`` then ``risk`` on the ``ingest_risk`` workspace at seed 3;
- ``simulate`` alone on the ``report_wide`` shape (k=8, T=1500) at seed 5,
  the one panel width between k=3 and k=32 that is gated;
- ``report`` on a variant of the seed-7 workspace that covers the other
  config paths: ARMA(1,1) and AR(2) without a constant, skew-t
  innovations, a risk-free rate and two periods;
- ``report`` on the seed-7 workspace with a second period that holds 5
  returns, too few for the risk step: it exits 2 with the describe and
  fit files written;
- ``report`` on copies of the seed-7 price files that do not share one
  date column: SIM2's without rows 100-199 (the header being row 1) and
  SIM3's with every date written ``YYYY-MM-DDT00:00:00``, the same days in
  other cells, so each file is parsed on its own and the panel is the
  calendars' intersection;
- ``report`` on copies of the seed-7 price files rewritten as a vendor
  export, under the header ``Date,Open,High,Low,Close,Adj Close,Volume``:
  the price in ``Adj Close``, the price to 2 places in the four columns
  before it and ``n/a`` in ``Volume``, read through
  ``columns: {date: Date, close: Adj Close}``, so the plain split takes
  two columns that are not adjacent;
- ``report`` on copies of the seed-7 price files that leave the plain
  split: SIM1's with every cell quoted, so ``csv.reader`` reads it, and
  SIM2's without the newline of its last line, which the split supplies;
  SIM3's is unchanged.  Its output files equal those of ``report-7``;
- ``report`` on copies of the seed-7 price files out of date order:
  SIM1's rows shuffled by ``random.Random(7)`` and SIM2's reversed, under
  their headers, so the loader sorts both; SIM3's is unchanged.  Its
  output files equal those of ``report-7`` too;
- ``risk`` alone on the seed-7 workspace with ``portfolio_amount: 1000``
  and ``levels: [0.9, 0.975, 0.995]``, the one run that scales the VaRs.

That makes 34 runs.

It writes one JSON document: the ``python`` and ``numpy`` versions it ran
under, and ``runs``, mapping each run to the SHA-256 digest of every input
price file and output file, the ``converged`` flag, estimates and
likelihood of every fit file, and the exit code of every command.
``--compare A B`` lists the files, flags and exit codes that differ and
exits 1 on any difference; after them it prints the worst relative change
of each estimate field (``params``, ``std_errors``, ``loglik``,
``loglik_joint``) over converged and over unconverged fits, which does not
change the exit status.  A run takes about 8 s on a 2-core machine.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import sys
import tempfile
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
REPORT_SEEDS = (1, 7, *range(21, 41), 1001, 1002, 1003)
INGEST_SEED = 3
WIDE_SEED = 5
VARIANT_SEED = 7
# the estimate fields of fit_*.json and dcc.json whose drift --compare reports
FIELDS = ("params", "std_errors", "loglik", "loglik_joint")


def _variant(sim_config: Path, name: str, edit=None, rewrite=None) -> Path:
    """``sim_config`` after ``edit(doc)``, written as ``<name>_config.yaml``
    with its outputs going to ``<name>_results``.  Given ``rewrite(asset,
    text)``, each price file's text passes through it into the directory
    ``name``, which then holds the config; ``rewrite`` may also edit the
    asset's config entry."""
    doc = yaml.safe_load(sim_config.read_text())
    ws = sim_config.parent
    if edit:
        edit(doc)
    if rewrite:
        ws = ws / name
        ws.mkdir()
        for asset in doc["assets"]:
            source = Path(asset["source"])
            (ws / source.name).write_text(rewrite(asset, source.read_text()))
            asset["source"] = str(ws / source.name)
    doc["output_dir"] = str(ws / f"{name}_results")
    path = ws / f"{name}_config.yaml"
    path.write_text(yaml.safe_dump(doc, sort_keys=True))
    return path


def _arma_skew(doc: dict) -> None:
    doc["distribution"] = "skew_student_t"
    doc["risk_free_rate"] = 0.0001
    doc["assets"][0]["mean"] = {"ar": 1, "ma": 1}
    doc["assets"][1]["mean"] = {"ar": 2, "constant": False}
    full = doc["periods"]["full"]
    doc["periods"]["first"] = {"start": full["start"], "end": "2020-06-30"}


def _short_period(doc: dict) -> None:
    # the first 5 weekdays of returns: simulate's prices start on 2019-01-01
    doc["periods"]["week"] = {"start": "2019-01-02", "end": "2019-01-08"}


def _amount(doc: dict) -> None:
    doc["portfolio_amount"] = 1000
    doc["levels"] = [0.9, 0.975, 0.995]


def _calendars(asset: dict, text: str) -> str:
    # SIM2 without rows 100-199, SIM3's dates as midnight timestamps
    lines = text.splitlines(keepends=True)
    if asset["symbol"] == "SIM2":
        del lines[99:199]
    elif asset["symbol"] == "SIM3":
        lines[1:] = [line.replace(",", "T00:00:00,", 1) for line in lines[1:]]
    return "".join(lines)


def _vendor(asset: dict, text: str) -> str:
    # every file under a seven-column vendor header
    asset["columns"] = {"date": "Date", "close": "Adj Close"}
    _, *rows = text.splitlines()
    lines = ["Date,Open,High,Low,Close,Adj Close,Volume"]
    for row in rows:
        day, close = row.split(",")
        rounded = f"{float(close):.2f}"
        lines.append(",".join([day, rounded, rounded, rounded, rounded, close, "n/a"]))
    return "\n".join(lines) + "\n"


def _csvpath(asset: dict, text: str) -> str:
    # SIM1's cells quoted, SIM2's last newline dropped
    if asset["symbol"] == "SIM1":
        return "".join(f'"{a}","{b}"\n' for a, b in
                       (line.split(",") for line in text.splitlines()))
    if asset["symbol"] == "SIM2":
        return text.removesuffix("\n")
    return text


def _reordered(asset: dict, text: str) -> str:
    # SIM1's rows shuffled, SIM2's reversed
    header, *rows = text.splitlines(keepends=True)
    if asset["symbol"] == "SIM1":
        random.Random(7).shuffle(rows)
    elif asset["symbol"] == "SIM2":
        rows.reverse()
    return header + "".join(rows)


# the seed-7 variants: name, edit, rewrite and the commands run
VARIANTS = (
    ("variant", _arma_skew, None, ("report",)),
    ("short_period", _short_period, None, ("report",)),
    ("calendars", None, _calendars, ("report",)),
    ("vendor", None, _vendor, ("report",)),
    ("csvpath", None, _csvpath, ("report",)),
    ("reordered", None, _reordered, ("report",)),
    ("amount", _amount, None, ("risk",)),
)


def _digest_run(cli_main, config: Path, commands: tuple = ("report",)) -> dict:
    exits = {c: cli_main([c, "--config", str(config)]) for c in commands}
    results = Path(yaml.safe_load(config.read_text())["output_dir"])
    files, converged, values = {}, {}, {}
    outputs = sorted(results.iterdir()) if commands else []
    for p in sorted(config.parent.glob("sim_*.csv")) + outputs:
        data = p.read_bytes()
        name = p.name if p.parent == config.parent else f"{results.name}/{p.name}"
        files[name] = hashlib.sha256(data).hexdigest()
        if p.name.startswith("fit_") or p.name == "dcc.json":
            doc = json.loads(data)
            converged[p.name] = doc["converged"]
            values[p.name] = {f: doc[f] for f in FIELDS if f in doc}
    return {"exit": exits, "files": files, "converged": converged, "values": values}


def gate(src: Path, work: Path) -> dict:
    sys.path.insert(0, str(src.resolve()))
    sys.path.insert(0, str(ROOT / "perfbench"))
    from volrisk.cli import main as cli_main
    from workloads import WORKLOADS, make_workspace

    small, ingest = WORKLOADS["report_small"], WORKLOADS["ingest_risk"]
    runs = {f"report-{seed}": _digest_run(cli_main, make_workspace(cli_main, small, work, seed))
            for seed in REPORT_SEEDS}
    seed7 = work / f"report_small-{VARIANT_SEED}" / "sim_config.yaml"
    for name, edit, rewrite, commands in VARIANTS:
        config = _variant(seed7, name, edit, rewrite)
        runs[f"{name}-{VARIANT_SEED}"] = _digest_run(cli_main, config, commands)
    config = make_workspace(cli_main, ingest, work, INGEST_SEED)
    runs[f"ingest_risk-{INGEST_SEED}"] = _digest_run(cli_main, config, ingest.commands)
    config = make_workspace(cli_main, WORKLOADS["report_wide"], work, WIDE_SEED)
    runs[f"simulate_wide-{WIDE_SEED}"] = _digest_run(cli_main, config, ())
    return runs


def versions() -> dict:
    """The Python and numpy versions of this process: numpy or its BLAS can
    move the last bits of an estimate, so digests compare only under equal
    versions."""
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__}


def compare(a: dict, b: dict) -> list:
    diffs = []
    for run in sorted(set(a) | set(b)):
        if run not in a or run not in b:
            diffs.append(f"{run}: only in {'B' if run not in a else 'A'}")
            continue
        for part in ("exit", "files", "converged"):
            x, y = a[run][part], b[run][part]
            for key in sorted(set(x) | set(y)):
                if x.get(key) != y.get(key):
                    diffs.append(f"{run}: {part} {key}: {x.get(key)} -> {y.get(key)}")
    return diffs


def _leaves(field, value):
    # (name, number) pairs of a field: the scalar itself or a dict's entries
    if isinstance(value, dict):
        return [(f"{field}.{k}", v) for k, v in sorted(value.items())]
    return [(field, value)]


def drift(a: dict, b: dict) -> list:
    """The worst relative change of each field, A to B, over the fit files
    both digests hold, split by B's converged flag; a null (NaN) on one
    side only counts as an infinite change."""
    worst = {}
    for run in sorted(set(a) & set(b)):
        va, vb = a[run].get("values", {}), b[run].get("values", {})
        for name in sorted(set(va) & set(vb)):
            group = "converged" if b[run]["converged"][name] else "unconverged"
            for field in FIELDS:
                if field not in va[name] or field not in vb[name]:
                    continue
                for (leaf, x), (_, y) in zip(_leaves(field, va[name][field]),
                                             _leaves(field, vb[name][field])):
                    if x is None and y is None:
                        continue
                    if x is None or y is None:
                        rel = math.inf
                    else:
                        rel = abs(y - x) / abs(x) if x != 0.0 else (0.0 if y == 0.0 else math.inf)
                    key = (field, group)
                    if key not in worst or rel > worst[key][0]:
                        worst[key] = (rel, f"{run} {name} {leaf}: {x!r} -> {y!r}")
    return [f"worst relative change, {field} ({group}): {rel:.2g} at {where}"
            for (field, group), (rel, where) in sorted(worst.items())]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="the src/ directory to import volrisk from")
    ap.add_argument("--out", type=Path, help="write the digest here (default stdout)")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                    help="compare two digest files instead of running")
    args = ap.parse_args(argv)
    if args.compare:
        a, b = (json.loads(p.read_text())["runs"] for p in args.compare)
        diffs = compare(a, b)
        print("\n".join(diffs) if diffs else f"identical: {len(a)} runs")
        for line in drift(a, b):
            print(line)
        return 1 if diffs else 0
    os.environ.setdefault("VOLRISK_LOG", "ERROR")
    with tempfile.TemporaryDirectory() as tmp:
        runs = gate(args.src, Path(tmp))
    text = json.dumps({**versions(), "runs": runs}, indent=1, sort_keys=True) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
