"""Volatility, correlation, and downside-risk toolkit for daily return
panels: asymmetric log-variance models per asset, a two-stage dynamic
correlation layer, and VaR/drawdown reporting."""

from . import dcc, egarch, market_data, optimize, risk
from .distributions import InnovationDist
from .market_data import *
from .optimize import *
from .egarch import *
from .dcc import *
from .risk import *

__version__ = "0.1.0"

# every module's __all__ is public here but distributions': its functions
# (logpdf, cdf, quantile, sample, ...) take an InnovationDist and have names
# too generic for the package namespace, so they stay volrisk.distributions.*
__all__ = [
    "__version__",
    "InnovationDist",
    *market_data.__all__,
    *optimize.__all__,
    *egarch.__all__,
    *dcc.__all__,
    *risk.__all__,
]
