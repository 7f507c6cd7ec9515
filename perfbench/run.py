"""volrisk benchmark: drives ``volrisk.cli.main`` in-process on simulated
workspaces and checks every run's outputs.

    python3 perfbench/run.py --workload report_small --seed 1 --seconds 25 --trace 0

Every run first runs the workload's command sequence untraced on the
workspace simulated from ``--seed`` (checked, and the process's warm-up),
then runs it on the workload's timed workspaces, cycling through them
until ``--seconds`` have passed (each at least once).  ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` runs the timed workspaces
under the span tracer (tracer.py) and prints the per-layer metrics and the
single-threaded kernel probe (kernels.py).  The likelihood, optimizer,
load and output counts of a traced sequence must equal those of every
earlier traced pass over the same workspace, sources and library
versions, in this run or an earlier one, so running the traced command
twice is the benchmark's self-test.

Times are wall-clock seconds.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; a line before it,
starting ``record``, holds the machine facts, the seed, the ``src/`` line
count and every sequence and set-up time.  The exit code is 0 only when
every output check passed.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import kernels
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REPEATS = WORK / "repeats.json"
SETUP_REPEATS = 3


def _src_facts() -> tuple:
    h = hashlib.sha256()
    lines = 0
    for p in sorted(SRC.rglob("*.py")):
        data = p.read_bytes()
        h.update(str(p.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return h.hexdigest()[:16], lines


def _import_seconds() -> float:
    """Time to import volrisk.cli, numpy and scipy included, in a fresh
    interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
            "import volrisk.cli; print(time.perf_counter() - t0)")
    done = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                          text=True, check=True, timeout=120)
    return float(done.stdout)


def _machine() -> dict:
    import numpy
    import scipy
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


class Run:
    """One benchmark process: set-up, the command sequences, the checks."""

    def __init__(self, w: workloads.Workload, seed: int, seconds: float, work: Path):
        self.w, self.seed, self.seconds, self.work = w, seed, seconds, work
        sys.path.insert(0, str(SRC))
        import volrisk.cli
        self.cli = volrisk.cli
        self.src_hash, self.src_lines = _src_facts()
        self.machine = _machine()
        self.simulate_samples: list = []
        self.configs: dict = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.repeats = json.loads(REPEATS.read_text()) if REPEATS.is_file() else {}
        self.fits = workloads.FitSummary()
        self.fitted: set = set()
        # (workspace index, traced) -> sequence wall times
        self.times: dict = {}
        # index 0 is the seed's workspace; 1.. are the references, if any
        self.timed = list(range(1, len(w.reference_seeds) + 1)) or [0]
        # set-up is repeated for its median; the last workspace copy is the one used
        self.import_samples = [_import_seconds() for _ in range(SETUP_REPEATS)]
        for _ in range(SETUP_REPEATS):
            self._make_workspace(0)

    def _make_workspace(self, index: int) -> Path:
        sim_seed = workloads.workspace_seed(self.w, self.seed, index)
        t0 = time.perf_counter()
        config = workloads.make_workspace(self.cli.main, self.w, self.work, sim_seed)
        self.simulate_samples.append(time.perf_counter() - t0)
        self.configs[index] = config
        return config

    def sequence(self, index: int, tracer=None) -> "dict | None":
        """Run the command sequence on one workspace and check its outputs.
        Returns the layer metrics of a traced sequence."""
        config = self.configs.get(index) or self._make_workspace(index)
        out = workloads.results_dir(config)
        shutil.rmtree(out, ignore_errors=True)
        if tracer is not None:
            tracer.take()
            tracer.enabled = True
        bad = 0
        t0 = time.perf_counter()
        for cmd in self.w.commands:
            self.attempted += 1
            try:
                code = self.cli.main([cmd, "--config", str(config)])
            except Exception as exc:  # an uncaught error is a failed command, not a crash
                self.problems.append(f"{cmd}: raised {type(exc).__name__}: {exc}")
                bad += 1
                continue
            if code not in (0, 1):
                self.problems.append(f"{cmd}: exit code {code}")
                bad += 1
        self.times.setdefault((index, tracer is not None), []).append(time.perf_counter() - t0)
        layers = None
        if tracer is not None:
            tracer.enabled = False
            layers = tracing.layer_metrics(*tracer.take())
        problems, fits = workloads.check_outputs(self.w, config)
        problems += self._check_digest(index, workloads.tree_digest(out))
        if problems:
            self.problems += [f"{config.parent.name}: {p}" for p in problems]
            bad = len(self.w.commands)
        self.failed += bad
        if index not in self.fitted:  # each workspace's fits count once
            self.fitted.add(index)
            for name, value in vars(fits).items():
                setattr(self.fits, name, getattr(self.fits, name) + value)
        return layers

    def _key(self, index: int) -> str:
        # the key includes the sources and the library versions, so only runs
        # of the same code compare
        sim_seed = workloads.workspace_seed(self.w, self.seed, index)
        m = self.machine
        return f"{self.w.name}:{sim_seed}:{self.src_hash}:{m['python']}:{m['numpy']}:{m['scipy']}"

    def _check_digest(self, index: int, digest: str) -> list:
        # the README promises byte-identical outputs for one config and seed
        known = self.repeats.setdefault(self._key(index), digest)
        if known != digest:
            return [f"output digest {digest[:12]} differs from {known[:12]} of an earlier run"]
        return []

    def _check_counts(self, index: int, layers: dict) -> list:
        """Counts of a traced sequence must repeat exactly, in this run and
        across runs, for one workspace and one version of the sources."""
        counts = {name: layers[name] for name in tracing.DETERMINISTIC}
        known = self.repeats.setdefault(self._key(index) + ":counts", counts)
        return [f"self-test: {name} {counts[name]} differs from {known[name]} of an earlier pass"
                for name in tracing.DETERMINISTIC if counts[name] != known[name]]

    def save_repeats(self) -> None:
        tmp = REPEATS.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.repeats, sort_keys=True, indent=1))
        os.replace(tmp, REPEATS)

    def _passes(self, deadline: float, tracer=None):
        """Cycle the timed workspaces, each at least once, until ``deadline``.
        Yields (workspace index, layer metrics or None)."""
        for i, index in enumerate(itertools.cycle(self.timed)):
            if i >= len(self.timed) and time.perf_counter() >= deadline:
                return
            yield index, self.sequence(index, tracer)

    def run_s(self, traced: bool) -> float:
        """Mean over the timed workspaces of each one's median sequence time."""
        return statistics.fmean(statistics.median(self.times[(i, traced)]) for i in self.timed)

    def untraced(self) -> dict:
        deadline = time.perf_counter() + self.seconds
        self.sequence(0)
        for _ in self._passes(deadline):
            pass
        fits = self.fits
        return {
            "setup_s": statistics.median(self.import_samples) + statistics.median(self.simulate_samples),
            "run_s": self.run_s(traced=False),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            # a workload with no fit leaves the fit-quality ratios at a neutral 1
            "loglik_ratio": fits.loglik / fits.loglik_truth if fits.fits else 1.0,
            "converged_ratio": fits.converged / fits.fits if fits.fits else 1.0,
            "ok_ratio": 1.0 - self.failed / self.attempted,
        }

    def traced(self) -> dict:
        deadline = time.perf_counter() + self.seconds
        self.sequence(0)
        metrics = kernels.probe(self.seed)
        tr = tracing.Tracer().install()
        runs: dict = {}  # workspace index -> layer metrics of each traced sequence
        try:
            for index, layers in self._passes(deadline, tr):
                runs.setdefault(index, []).append(layers)
                self.problems += self._check_counts(index, layers)
        finally:
            tr.uninstall()
        # like run_s: how often a workspace is traced depends on host speed,
        # so each workspace weighs the same whatever its number of passes
        for name in tracing.LAYER_METRICS:
            metrics[name] = statistics.fmean(
                statistics.median(r[name] for r in runs[i]) for i in self.timed)
        # the tracing overhead is this minus run_s of an untraced run, same seed
        metrics["trace.run_s"] = self.run_s(traced=True)
        return metrics


def _parse(argv) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _units() -> dict:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["end_to_end"] + doc["per_layer"]}


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "volrisk" / "cli.py").is_file():
        print(f"error: volrisk sources not found under {SRC}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{w.name}-{args.seed}-{os.getpid()}"
    try:
        run = Run(w, args.seed, args.seconds, work)
        metrics = run.traced() if args.trace else run.untraced()
        run.save_repeats()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = _units()
    record = {
        "workload": w.name,
        "seed": args.seed,
        "trace": args.trace,
        "machine": run.machine,
        "src_lines": run.src_lines,
        "src_hash": run.src_hash,
        "sequence_s": {
            f"{workloads.workspace_seed(w, args.seed, i)}{'/traced' if t else ''}":
                [round(s, 4) for s in ts]
            for (i, t), ts in sorted(run.times.items())
        },
        "import_samples_s": [round(t, 4) for t in run.import_samples],
        "simulate_samples_s": [round(t, 4) for t in run.simulate_samples],
        "fits": vars(run.fits),
        "problems": run.problems,
    }
    print("record " + json.dumps(record, sort_keys=True))
    for name, value in metrics.items():
        print(f"  {name:<42} {value:>16.6f} {units.get(name, '')}")
    correct = not run.problems
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": v, "unit": units.get(n, "")} for n, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
