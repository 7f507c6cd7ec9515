"""Volatility, correlation, and downside-risk toolkit for daily return
panels: asymmetric log-variance models per asset, a two-stage dynamic
correlation layer, and VaR/drawdown reporting."""

from . import dcc, market_data, optimize, risk
from .distributions import InnovationDist
from .market_data import *
from .optimize import *
from .egarch import (
    EgarchFit,
    EgarchParams,
    Garch11Params,
    MeanParams,
    MeanSpec,
    aic,
    egarch_filter,
    egarch_loglik,
    egarch_score,
    fit_egarch,
    fit_garch11,
    garch11_filter,
    garch11_loglik,
    garch11_score,
    simulate_egarch,
    simulate_garch11,
)
from .dcc import *
from .risk import *

__version__ = "0.1.0"

# all of market_data, optimize, dcc and risk is public here, but only part
# of distributions and egarch
__all__ = [
    "__version__",
    "InnovationDist",
    *market_data.__all__,
    *optimize.__all__,
    "EgarchFit",
    "EgarchParams",
    "Garch11Params",
    "MeanParams",
    "MeanSpec",
    "aic",
    "egarch_filter",
    "egarch_loglik",
    "egarch_score",
    "fit_egarch",
    "fit_garch11",
    "garch11_filter",
    "garch11_loglik",
    "garch11_score",
    "simulate_egarch",
    "simulate_garch11",
    *dcc.__all__,
    *risk.__all__,
]
