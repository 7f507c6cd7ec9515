"""Span tracer that wraps volrisk's public functions from outside the package.

``Tracer.install()`` replaces every public module-level function of the
traced modules (and ``cli.OutputCollector.write``) with a wrapper that
records a span: name, parent, thread, wall start/end and thread CPU
start/end.  Every binding of the original function in any volrisk module
is replaced, so calls through ``from .x import f`` names and through
``module.f`` attributes are both seen.  ``uninstall()`` restores them.

Threads: a span opened on a thread with an empty stack (a stage-1 pool
worker) takes as parent the innermost span open on the main thread, which
is the command that started the pool.  Self time is computed per thread
from CPU time, so spans that overlap in wall time on other threads never
subtract from each other.
"""
from __future__ import annotations

import collections
import functools
import importlib
import itertools
import os
import threading
import time
import warnings

MODULES = ("market_data", "distributions", "optimize", "egarch", "dcc", "risk", "cli")
_MINIMIZE = ("optimize.simplex", "optimize.quasi_newton")


class Span:
    __slots__ = ("id", "name", "parent", "thread", "start", "end",
                 "cpu_start", "cpu_end", "evals", "improved", "nbytes")

    def __init__(self, sid, name, parent, thread):
        self.id, self.name, self.parent, self.thread = sid, name, parent, thread
        self.evals = 0
        self.improved = False
        self.nbytes = 0
        self.start = time.perf_counter()
        self.cpu_start = time.thread_time()

    @property
    def cpu(self) -> float:
        return self.cpu_end - self.cpu_start


class Tracer:
    """Collects spans and warning counts while installed and enabled.
    Starts disabled; the caller enables it around the calls to trace."""

    def __init__(self) -> None:
        self.spans: list = []
        self.warnings = collections.Counter()
        self.enabled = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list = []
        self._patches: list = []
        self._lock = threading.Lock()
        self._saved_warnings = None

    # -- span bookkeeping ---------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            is_main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if is_main else []
            self._local.stack = stack
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        elif stack is not self._main_stack and self._main_stack:
            parent = self._main_stack[-1].id
        else:
            parent = None
        span = Span(next(self._ids), name, parent, threading.get_ident())
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.cpu_end = time.thread_time()
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def take(self) -> tuple:
        """Return and clear the spans and warning counts recorded so far."""
        spans, self.spans = self.spans, []
        counts, self.warnings = self.warnings, collections.Counter()
        return spans, counts

    # -- wrappers -----------------------------------------------------------

    def _plain(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)
        return traced

    def _counted(self, name, fn, minimize: bool):
        # counts calls of the objective (first positional argument); for
        # minimize also records whether the result beat the starting value
        @functools.wraps(fn)
        def traced(objective, *args, **kwargs):
            if not self.enabled:
                return fn(objective, *args, **kwargs)
            if minimize:
                method = kwargs.get("method", args[2] if len(args) > 2 else "simplex")
                span = self._open(f"optimize.{method}")
            else:
                span = self._open(name)
            first = []

            def counted(x):
                v = objective(x)
                span.evals += 1
                if not first:
                    first.append(float(v))
                return v

            try:
                result = fn(counted, *args, **kwargs)
                if minimize and first:
                    span.improved = result.f_opt < first[0]
                return result
            finally:
                self._close(span)
        return traced

    def _writer(self, fn):
        @functools.wraps(fn)
        def traced(collector, out_dir, *args, **kwargs):
            if not self.enabled:
                return fn(collector, out_dir, *args, **kwargs)
            span = self._open("cli.OutputCollector.write")
            try:
                names = fn(collector, out_dir, *args, **kwargs)
                span.nbytes = sum(os.path.getsize(os.path.join(out_dir, n)) for n in names)
                return names
            finally:
                self._close(span)
        return traced

    def _showwarning(self, message, category, *args, **kwargs):
        with self._lock:
            self.warnings[category.__name__] += 1

    # -- install / uninstall --------------------------------------------------

    def install(self) -> "Tracer":
        mods = {name: importlib.import_module(f"volrisk.{name}") for name in MODULES}
        everywhere = [importlib.import_module("volrisk")] + list(mods.values())
        replace = {}
        for short, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not callable(fn) or isinstance(fn, type):
                    continue
                if getattr(fn, "__module__", None) != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                if name == "optimize.minimize":
                    replace[fn] = self._counted(name, fn, minimize=True)
                elif name in ("optimize.finite_diff_gradient", "optimize.finite_diff_hessian"):
                    replace[fn] = self._counted(name, fn, minimize=False)
                else:
                    replace[fn] = self._plain(name, fn)
        for mod in everywhere:
            for attr, value in list(vars(mod).items()):
                if callable(value) and not isinstance(value, type) and value in replace:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, replace[value])
        collector = mods["cli"].OutputCollector
        self._patches.append((collector, "write", collector.write))
        collector.write = self._writer(collector.write)
        # every warning is counted, none printed, while the tracer is installed
        self._saved_warnings = warnings.catch_warnings()
        self._saved_warnings.__enter__()
        warnings.simplefilter("always")
        warnings.showwarning = self._showwarning
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if self._saved_warnings is not None:
            self._saved_warnings.__exit__(None, None, None)
            self._saved_warnings = None


# ---------------------------------------------------------------------------
# per-layer metrics from one traced command sequence

LAYER_METRICS = (
    "market_data.load_price_series.calls",
    "market_data.load_price_series.self_s",
    "market_data.align_panel.self_s",
    "market_data.unit_root.self_s",
    "distributions.logpdf.calls",
    "distributions.logpdf.self_s",
    "optimize.simplex.calls",
    "optimize.simplex.evals",
    "optimize.simplex.s",
    "optimize.quasi_newton.calls",
    "optimize.quasi_newton.evals",
    "optimize.quasi_newton.s",
    "optimize.quasi_newton.improved_ratio",
    "optimize.finite_diff_gradient.evals",
    "optimize.finite_diff_hessian.evals",
    "optimize.finite_diff_hessian.s",
    "optimize.warnings",
    "egarch.fit_egarch.busy_s",
    "egarch.stage1.wall_s",
    "egarch.egarch_loglik.calls",
    "egarch.egarch_loglik.self_s",
    "egarch.egarch_filter.self_s",
    "dcc.fit_dcc.s",
    "dcc.dcc_loglik.calls",
    "dcc.dcc_loglik.self_s",
    "risk.risk_report.self_s",
    "risk.drawdown.self_s",
    "cli.OutputCollector.write.s",
    "cli.output_bytes",
    "cli.load_run_config.s",
)

# counts that must repeat exactly for one workspace and one version of the sources
DETERMINISTIC = (
    "market_data.load_price_series.calls",
    "distributions.logpdf.calls",
    "optimize.simplex.calls",
    "optimize.simplex.evals",
    "optimize.quasi_newton.calls",
    "optimize.quasi_newton.evals",
    "optimize.finite_diff_gradient.evals",
    "optimize.finite_diff_hessian.evals",
    "egarch.egarch_loglik.calls",
    "dcc.dcc_loglik.calls",
    "cli.output_bytes",
)


def self_cpu(spans: list) -> dict:
    """Span id -> CPU self time: the span's thread CPU minus that of its
    children on the same thread (children on other threads ran on their
    own thread's clock)."""
    own = {s.id: s.cpu for s in spans}
    by_id = {s.id: s for s in spans}
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is not None and parent.thread == s.thread:
            own[parent.id] -= s.cpu
    return own


def layer_metrics(spans: list, warning_counts: collections.Counter) -> dict:
    by_id = {s.id: s for s in spans}
    own = self_cpu(spans)
    named = collections.defaultdict(list)
    for s in spans:
        named[s.name].append(s)

    def calls(name):
        return float(len(named[name]))

    def self_s(*names):
        return sum(own[s.id] for n in names for s in named[n])

    def cpu_s(name):
        return sum(s.cpu for s in named[name])

    def evals(name):
        return float(sum(s.evals for s in named[name]))

    def inside_minimize(s):
        p = by_id.get(s.parent)
        while p is not None:
            if p.name in _MINIMIZE:
                return True
            p = by_id.get(p.parent)
        return False

    polishes = named["optimize.quasi_newton"]
    stage1 = collections.defaultdict(list)
    for s in named["egarch.fit_egarch"]:
        stage1[s.parent].append(s)
    return {
        "market_data.load_price_series.calls": calls("market_data.load_price_series"),
        "market_data.load_price_series.self_s": self_s("market_data.load_price_series"),
        "market_data.align_panel.self_s": self_s("market_data.align_panel"),
        "market_data.unit_root.self_s": self_s("market_data.adf_test", "market_data.kpss_test"),
        "distributions.logpdf.calls": calls("distributions.logpdf"),
        "distributions.logpdf.self_s": self_s("distributions.logpdf"),
        "optimize.simplex.calls": calls("optimize.simplex"),
        "optimize.simplex.evals": evals("optimize.simplex"),
        "optimize.simplex.s": cpu_s("optimize.simplex"),
        "optimize.quasi_newton.calls": calls("optimize.quasi_newton"),
        "optimize.quasi_newton.evals": evals("optimize.quasi_newton"),
        "optimize.quasi_newton.s": cpu_s("optimize.quasi_newton"),
        "optimize.quasi_newton.improved_ratio": (
            sum(s.improved for s in polishes) / len(polishes) if polishes else 0.0
        ),
        "optimize.finite_diff_gradient.evals": float(sum(
            s.evals for s in named["optimize.finite_diff_gradient"] if not inside_minimize(s)
        )),
        "optimize.finite_diff_hessian.evals": evals("optimize.finite_diff_hessian"),
        "optimize.finite_diff_hessian.s": cpu_s("optimize.finite_diff_hessian"),
        "optimize.warnings": float(sum(warning_counts.values())),
        "egarch.fit_egarch.busy_s": cpu_s("egarch.fit_egarch"),
        "egarch.stage1.wall_s": sum(
            max(s.end for s in group) - min(s.start for s in group) for group in stage1.values()
        ),
        "egarch.egarch_loglik.calls": calls("egarch.egarch_loglik"),
        "egarch.egarch_loglik.self_s": self_s("egarch.egarch_loglik"),
        "egarch.egarch_filter.self_s": self_s("egarch.egarch_filter"),
        "dcc.fit_dcc.s": cpu_s("dcc.fit_dcc"),
        "dcc.dcc_loglik.calls": calls("dcc.dcc_loglik"),
        "dcc.dcc_loglik.self_s": self_s("dcc.dcc_loglik"),
        "risk.risk_report.self_s": self_s("risk.risk_report"),
        "risk.drawdown.self_s": self_s("risk.drawdown"),
        "cli.OutputCollector.write.s": cpu_s("cli.OutputCollector.write"),
        "cli.output_bytes": float(sum(s.nbytes for s in named["cli.OutputCollector.write"])),
        "cli.load_run_config.s": cpu_s("cli.load_run_config"),
    }
