import os
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

from volrisk.market_data import ReturnSeries

# pyproject's ``pythonpath`` puts src/ on this process's path; the tests that
# start ``python -m volrisk.cli`` need it in the environment as well
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH"))))


def _make_series(values, symbol="test", start=date(2019, 1, 1)):
    values = np.asarray(values, dtype=float)
    dates = tuple(start + timedelta(days=i) for i in range(values.size))
    return ReturnSeries(symbol=symbol, dates=dates, values=values)


@pytest.fixture
def make_series():
    return _make_series


@pytest.fixture
def write_csv(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write
