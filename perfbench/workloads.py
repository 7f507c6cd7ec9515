"""Workload definitions, workspace generation and output checks.

A workspace is what ``volrisk simulate`` writes for one seed: price CSVs,
``sim_config.yaml`` and ``sim_truth.json``.  A workload runs a fixed
command sequence through ``volrisk.cli.main`` on the workspace simulated
from the benchmark seed and on its reference workspaces, then checks what
the commands wrote.
"""
from __future__ import annotations

import hashlib
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

# files each command documents in the README
DESCRIBE_FILES = ("stats.csv", "stats.json", "correlation.csv", "correlation.json",
                  "jarque_bera.csv", "jarque_bera.json", "unit_root.csv", "unit_root.json")
RISK_FILES = ("risk.csv", "risk.json")

# Estimates of converged fits must land this close to the simulation truth,
# unless the fit's loglik beats the loglik at the true parameters on the
# same data.  The truth is a point the optimizer could have reached, so a
# fit that beats it is a maximum the sample put there: at T=1000 the
# standard error of one b_pers can reach 0.16 (simulate seed 306, SIM1:
# b_pers 0.55 with loglik 3356.1, against 3348.5 at b_pers 0.95).
B_PERS_TOL = 0.15
ALPHA_TOL = 0.06
BETA_TOL = 0.20

INGEST_LEVELS = (0.90, 0.95, 0.975, 0.99)


@dataclass(frozen=True)
class Workload:
    name: str
    assets: int
    length: int
    commands: tuple
    # Simulation seeds of the fixed reference workspaces that run_s is
    # timed on.  The time of one report varies by about 30% (interquartile
    # range over median) from one simulated panel to the next, because the
    # optimizer's restarts depend on the data, and a run has room for only a
    # few reports; so report workloads time the same panels in every run.
    # The workspace simulated from --seed runs first in every run and is
    # checked like the others; it is timed only where this tuple is empty.
    reference_seeds: tuple = ()

    @property
    def fits(self) -> bool:
        return "report" in self.commands


WORKLOADS = {
    w.name: w for w in (
        Workload("report_small", 3, 1000, ("report",), (1001, 1002, 1003)),
        Workload("ingest_risk", 32, 5000, ("describe", "risk")),
        # Runs by hand only, not listed in BENCHMARK.json: one k=8 report takes
        # 21-36 s, so the seed's workspace plus the reference makes a run of
        # about 60 s, too slow for dozens of runs per comparison.
        Workload("report_wide", 8, 1500, ("report",), (1001,)),
    )
}


def workspace_seed(w: Workload, seed: int, index: int) -> int:
    """Simulation seed of workspace ``index``: 0 is the benchmark seed itself,
    1.. are the workload's reference workspaces."""
    return seed if index == 0 else w.reference_seeds[index - 1]


def make_workspace(cli_main, w: Workload, root: Path, sim_seed: int) -> Path:
    """Simulate a workspace and return the config the commands run on."""
    ws = root / f"{w.name}-{sim_seed}"
    shutil.rmtree(ws, ignore_errors=True)
    code = cli_main(["simulate", "--out", str(ws), "--seed", str(sim_seed),
                     "--assets", str(w.assets), "--length", str(w.length)])
    if code != 0:
        raise RuntimeError(f"simulate exited {code}")
    config = ws / "sim_config.yaml"
    if w.name == "ingest_risk":
        config = ws / "ingest_config.yaml"
        config.write_text(yaml.safe_dump(_ingest_config(ws / "sim_config.yaml"), sort_keys=True))
    return config


def _ingest_config(sim_config: Path) -> dict:
    doc = yaml.safe_load(sim_config.read_text())
    first = str(doc["periods"]["full"]["start"])
    last = str(doc["periods"]["full"]["end"])
    years = list(range(int(first[:4]), int(last[:4]) + 1))
    periods = {"full": {"start": first, "end": last}}
    for i in range(0, len(years), 4):
        span = years[i:i + 4]
        periods[f"y{span[0]}"] = {"start": f"{span[0]}-01-01", "end": f"{span[-1]}-12-31"}
    doc["periods"] = periods
    doc["levels"] = list(INGEST_LEVELS)
    return doc


def results_dir(config: Path) -> Path:
    return Path(yaml.safe_load(config.read_text())["output_dir"])


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode() + b"\0")
            h.update(p.read_bytes())
    return h.hexdigest()


def expected_files(w: Workload, symbols: list) -> list:
    names = []
    if "describe" in w.commands or "report" in w.commands:
        names += DESCRIBE_FILES
    if w.fits:
        names += [f"fit_{s}.json" for s in symbols] + ["summary.txt"]
        if len(symbols) >= 2:
            names.append("dcc.json")
    if "risk" in w.commands or "report" in w.commands:
        names += list(RISK_FILES) + [f"drawdown_{s}.csv" for s in symbols]
    return names


@dataclass
class FitSummary:
    fits: int = 0
    converged: int = 0
    loglik: float = 0.0
    loglik_truth: float = 0.0


def check_outputs(w: Workload, config: Path) -> tuple:
    """Check one finished sequence.  Returns (problems, FitSummary)."""
    ws = config.parent
    truth = json.loads((ws / "sim_truth.json").read_text())
    symbols = sorted(truth["assets"], key=lambda s: int(s[3:]))
    out = results_dir(config)
    problems = [f"missing {n}" for n in expected_files(w, symbols) if not (out / n).is_file()]
    summary = FitSummary()
    if problems or not w.fits:
        return problems, summary
    from volrisk import (DccParams, EgarchParams, InnovationDist, MeanParams,
                         dcc_loglik, egarch_loglik, load_price_series, log_returns,
                         unconditional_corr)
    z_paths = []
    log_scale = math.log(truth["return_scale"] ** 2)
    for sym in symbols:
        fit = json.loads((out / f"fit_{sym}.json").read_text())
        true = truth["assets"][sym]
        summary.fits += 1
        summary.converged += bool(fit["converged"])
        summary.loglik += fit["loglik"]
        # loglik of the true data-generating parameters, on the data scale
        params = EgarchParams(
            mean=MeanParams(), omega=true["omega"] + (1.0 - true["b_pers"]) * log_scale,
            a_mag=true["a_mag"], xi=true["xi"], b_pers=true["b_pers"],
            dist=InnovationDist("student_t", shape=true["shape"]),
        )
        source = ws / f"sim_{sym}.csv"
        truth_ll = egarch_loglik(log_returns(load_price_series(str(source))), params)
        summary.loglik_truth += truth_ll
        if (fit["converged"] and fit["loglik"] < truth_ll
                and abs(fit["params"]["b_pers"] - true["b_pers"]) > B_PERS_TOL):
            problems.append(f"{sym}: b_pers {fit['params']['b_pers']:.4f} vs truth {true['b_pers']}, "
                            f"loglik {fit['loglik']:.2f} below {truth_ll:.2f} at the truth")
        z_paths.append(fit["z"])
    joint = json.loads((out / "dcc.json").read_text())
    summary.fits += 1
    summary.converged += bool(joint["converged"])
    summary.loglik += joint["loglik_joint"]
    Z = np.column_stack(z_paths)
    truth_ll = dcc_loglik(Z, DccParams(**truth["dcc"]), unconditional_corr(Z))
    summary.loglik_truth += truth_ll
    if joint["converged"] and joint["loglik_joint"] < truth_ll:
        for key, tol in (("alpha", ALPHA_TOL), ("beta", BETA_TOL)):
            if abs(joint["params"][key] - truth["dcc"][key]) > tol:
                problems.append(f"dcc: {key} {joint['params'][key]:.4f} vs truth {truth['dcc'][key]}, "
                                f"loglik {joint['loglik_joint']:.2f} below {truth_ll:.2f} at the truth")
    return problems, summary
