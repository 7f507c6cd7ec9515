"""Single-threaded likelihood kernel probe.

Times one call of each likelihood on fixed-size synthetic inputs, on the
main thread with no pool running, so the figures carry no GIL contention.
The DCC points span k = 3, 8 and 20 at T = 2500; no workload has k = 20,
so that point keeps the large-k cost of the correlation recursion visible.
"""
from __future__ import annotations

import datetime
import statistics
import time

import numpy as np

N_UNIVARIATE = 4000
T_DCC = 2500
DCC_SIZES = (3, 8, 20)


def _median_ms(fn, reps: int) -> float:
    fn()  # first call outside the timing: lazy imports and caches
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(samples)


def probe(seed: int, reps: int = 15) -> dict:
    """Median milliseconds per call, keyed by per-layer metric name."""
    from volrisk import (
        DccParams, EgarchParams, Garch11Params, InnovationDist, MeanParams,
        ReturnSeries, dcc_loglik, egarch_loglik, garch11_loglik, simulate_egarch,
        unconditional_corr,
    )

    t8 = InnovationDist("student_t", shape=8.0)
    eg = EgarchParams(mean=MeanParams(), omega=-0.0125, a_mag=0.15, xi=-0.08, b_pers=0.95, dist=t8)
    values = 0.01 * simulate_egarch(eg, N_UNIVARIATE, seed=seed)
    day0 = datetime.date(2000, 1, 1)
    dates = [day0 + datetime.timedelta(days=i) for i in range(N_UNIVARIATE)]
    r = ReturnSeries(symbol="K", dates=dates, values=values)
    eg_data = EgarchParams(mean=MeanParams(), omega=eg.omega + (1.0 - eg.b_pers) * np.log(1e-4),
                           a_mag=eg.a_mag, xi=eg.xi, b_pers=eg.b_pers, dist=t8)
    g11 = Garch11Params(mu=0.0, alpha0=1e-6, alpha1=0.08, gamma1=0.90, dist=t8)
    out = {
        "egarch.egarch_loglik.ms_n4000": _median_ms(lambda: egarch_loglik(r, eg_data), 3 * reps),
        "egarch.garch11_loglik.ms_n4000": _median_ms(lambda: garch11_loglik(r, g11), 3 * reps),
    }
    rng = np.random.default_rng(seed)
    dcc = DccParams(alpha=0.05, beta=0.90, joint_shape=8.0)
    for k in DCC_SIZES:
        C = np.full((k, k), 0.5)
        np.fill_diagonal(C, 1.0)
        Z = rng.standard_normal((T_DCC, k)) @ np.linalg.cholesky(C).T
        Qbar = unconditional_corr(Z)
        out[f"dcc.dcc_loglik.ms_k{k}"] = _median_ms(lambda: dcc_loglik(Z, dcc, Qbar), reps)
    return out
