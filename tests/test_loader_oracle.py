"""Property test of the CSV price loader against a reference loader.

``reference_load_price_series`` is the ``csv.DictReader`` loader that
``load_price_series`` replaced, reading only the date and close columns
and naming the file when it holds fewer than 2 rows.  On any CSV text
both must return an equal PriceSeries or raise DataError with the same
message; where the reference lets a ``csv.Error`` through, the loader
must raise a DataError caused by the same one.
"""
import csv
import io
import math
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from volrisk.cli import main
from volrisk.market_data import (
    _DEFAULT_COLUMNS,
    DataError,
    PriceSeries,
    _infer_symbol,
    _read_text,
    _split_columns,
    load_price_series,
)


# ---------------------------------------------------------------------------
# reference loader


def _parse_date(text: str) -> date:
    # intraday timestamps truncated to the calendar day
    return date.fromisoformat(text.strip()[:10])


def reference_load_price_series(source, columns=None, *, symbol=None):
    mapping = dict(_DEFAULT_COLUMNS)
    if columns:
        mapping.update(columns)
    text = _read_text(source)
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None:
        raise DataError(f"{source}: empty file, header row required")
    for logical in ("date", "close"):
        if mapping[logical] not in reader.fieldnames:
            raise DataError(
                f"{source}: missing column {mapping[logical]!r} "
                f"(have {reader.fieldnames})"
            )

    rows = []
    for idx, row in enumerate(reader, start=2):  # header is row 1
        raw_date = row.get(mapping["date"])
        raw_close = row.get(mapping["close"])
        if raw_date is None or raw_close is None or raw_close.strip() == "":
            raise DataError(f"{source}: malformed row {idx}")
        try:
            d = _parse_date(raw_date)
            c = float(raw_close)
        except (ValueError, TypeError) as exc:
            raise DataError(f"{source}: malformed row {idx}: {exc}") from exc
        if not math.isfinite(c):
            raise DataError(f"{source}: non-finite price at row {idx}")
        if c <= 0.0:
            raise DataError(f"{source}: non-positive price at row {idx}")
        rows.append((d, idx, c))

    if len(rows) < 2:
        raise DataError(f"{source}: need at least 2 observations, got {len(rows)}")
    rows.sort(key=lambda t: (t[0], t[1]))
    for (d1, _, _), (d2, i2, _) in zip(rows, rows[1:]):
        if d1 == d2:
            raise DataError(f"{source}: duplicate date {d2} at row {i2}")

    name = symbol if symbol is not None else _infer_symbol(source)
    return PriceSeries(
        symbol=name,
        dates=tuple(r[0] for r in rows),
        close=np.array([r[2] for r in rows]),
    )


# ---------------------------------------------------------------------------
# CSV text generator

_BASE = date(2020, 1, 1)
_NAMES = ("date", "close", "volume", "open", "adj", "note")
_COLUMNS = (
    None,
    {"close": "close"},
    {"close": "adj"},
    {"date": "note"},
    {"date": "note", "close": "adj"},
)


def _valid_date_cells(d):
    iso = d.isoformat()
    year, week, day = d.isocalendar()
    # the ISO, basic and week-date forms parse whole; the rest once stripped and cut to 10
    return (iso, iso, f"{iso}T09:30:00", f"{iso} 16:00", f" {iso} ", d.strftime("%Y%m%d"),
            f"{year}-W{week:02d}-{day}", f"{year}W{week:02d}{day}")


@st.composite
def _date_cell(draw):
    d = _BASE + timedelta(days=draw(st.integers(0, 40)))
    # the last four name a week's day, or its Monday
    junk = ("not-a-date", "", "2020-13-01", "20200101", "2020-W01-4", "2020W014", "2020-W01",
            "2020W01")
    return draw(st.sampled_from(_valid_date_cells(d) + junk))


_NUMBER_CELL = st.one_of(
    st.floats(0.01, 1e6).map(repr),
    st.sampled_from(("nan", "inf", "-inf", "0", "-1.5", "", " ", "abc", "1e3", " 7 ")),
)
_TEXT_CELL = st.text(alphabet="ab ,\"1.-", max_size=6)
_RARELY = st.sampled_from((False,) * 9 + (True,))
# a cell the csv module refuses to read, and the longest one it reads
_OVERSIZED = "1" * (csv.field_size_limit() + 1)
_LONGEST = "1" * csv.field_size_limit()


@st.composite
def _row(draw, header):
    cells = []
    for name in header:
        if name == "date" or (name == "note" and draw(st.booleans())):
            cells.append(draw(_date_cell()))
        elif name in ("close", "adj", "volume", "open"):
            cells.append(draw(_NUMBER_CELL))
        else:
            cells.append(draw(_TEXT_CELL))
    shape = draw(st.sampled_from(("full", "full", "full", "short", "long", "blank")))
    if shape == "short":
        cells = cells[:draw(st.integers(0, len(cells)))]
    elif shape == "long":
        cells += draw(st.lists(_TEXT_CELL, min_size=1, max_size=2))
    elif shape == "blank":
        cells = []
    return cells


@st.composite
def _clean_rows(draw, header):
    # cells parse unless a row is cut short; dates are shuffled and distinct unless ``unique``
    # is off, so that most examples load or fail on a duplicate date
    unique = draw(st.booleans())
    offsets = draw(st.lists(st.integers(0, 40), max_size=10, unique=unique))
    rows = []
    for k in offsets:
        cells = _valid_date_cells(_BASE + timedelta(days=k))
        row = [
            draw(st.sampled_from(cells)) if name in ("date", "note")
            else repr(draw(st.floats(0.01, 1e6)))
            for name in header
        ]
        if draw(_RARELY):
            row = row[:draw(st.integers(0, len(row)))]
        rows.append(row)
    return rows


@st.composite
def csv_text(draw):
    if not draw(_RARELY):
        header = ["date", "close"] + draw(st.lists(st.sampled_from(_NAMES), max_size=3))
        header = draw(st.permutations(header))
    else:
        header = draw(st.lists(st.sampled_from(_NAMES), min_size=1, max_size=5))
    if draw(st.booleans()):
        rows = draw(_clean_rows(header))
    else:
        rows = draw(st.lists(_row(header), max_size=12))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator=draw(st.sampled_from(("\n", "\r\n"))))
    if draw(_RARELY):
        writer.writerow([])  # a blank first line is read as the header
    if not draw(_RARELY):
        writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _outcome(loader, path, columns):
    try:
        p = loader(path, columns)
    except csv.Error as exc:
        return ("unreadable", str(exc))
    except DataError as exc:
        if isinstance(exc.__cause__, csv.Error):
            return ("unreadable", str(exc.__cause__))
        return ("error", str(exc))
    return ("ok", p.symbol, p.dates, p.close.tobytes())


@settings(max_examples=400, deadline=None, database=None)
@given(text=csv_text(), columns=st.sampled_from(_COLUMNS))
@example(text="date,close,close\n2020-01-02,1,5\n2020-01-03,2\n", columns=None)
@example(text="date,close,close\n2020-01-02,1,5\n2020-01-03,2,6,7\n", columns=None)
@example(text="\ndate,close\n2020-01-02,1\n2020-01-03,2\n", columns=None)
@example(text="date,close\n2020-01-03,1\n\n2020-01-02,2\n2020-01-03T10:00,3\n", columns=None)
# the first bad row is reported even when a later row fails an earlier check
@example(text="date,close\n2020-01-02,x\n2020-01-03\n", columns=None)
@example(text="date,close\n2020-01-02,-1\n2020-01-03,x\n", columns=None)
@example(text=f"date,close\nbad,1\n2020-01-03,2\n2020-01-04,{_OVERSIZED}\n", columns=None)
@example(text=f"date,close\n2020-01-02\n2020-01-03,2\n2020-01-04,{_OVERSIZED}\n", columns=None)
@example(text="date,close\n2020-01-04,1\n2020-01-02,2\n2020-01-04,3\n2020-01-03,4\n", columns=None)
# the edges of the plain split: line ends, blank and whitespace lines, uneven
# rows, characters that str.splitlines would break on (and NUL), and the field
# size limit
@example(text="date,close\r\n2020-01-02,1\r\n\r\n2020-01-03,2\r\n", columns=None)
@example(text="date,close\n2020-01-02,1\r2020-01-03,2\n", columns=None)
@example(text="date,close\n2020-01-02,1\n2020-01-03,2\r", columns=None)
@example(text="date,close\nbad,1\n2020-01-03,2\r2020-01-04,3\n", columns=None)
@example(text="date,close,note\n2020-01-02,1,a\rb\n2020-01-03,2,c\n", columns=None)
@example(text='date,close\n"2020-01-02",1\n2020-01-03,"2"\n', columns=None)
@example(text="date,close\n\n2020-01-02,1\n\n\n2020-01-03,2\n\n", columns=None)
# under a one-column header, a blank line has the separators of a row
@example(text="date\n\n\n", columns={"close": "date"})
@example(text="date,close\n2020-01-02,1\n \n2020-01-03,2\n", columns=None)
@example(text="date,close,note\n2020-01-02,1\n2020-01-03,2,x\n", columns=None)
@example(text="date,close\n2020-01-02,1,x\n2020-01-03,2\n", columns=None)
@example(text="date,close,note\n2020-01-02\x0c,1\x85,\u2028\n2020-01-03,2,a\x0cb\x00\n", columns=None)
@example(text="date,close\n2020-01-02,1\x0c2020-01-03,2\n\n", columns=None)
@example(text="date,close\n2020-01-02,1\x852020-01-03,2\n", columns=None)
@example(text="date,close\n2020-01-02,1\u20282020-01-03,2\n", columns=None)
@example(text=f"date,close,note\n2020-01-02,1,{_OVERSIZED}\n2020-01-03,2,x\n", columns=None)
@example(text=f"date,close,note\n2020-01-02,1,{_LONGEST}\n2020-01-03,2,x\n", columns=None)
def test_loader_matches_reference(tmp_path_factory, text, columns):
    path = tmp_path_factory.getbasetemp() / "ASSET.csv"
    path.write_text(text, encoding="utf-8", newline="")
    expected = _outcome(reference_load_price_series, str(path), columns)
    assert _outcome(load_price_series, str(path), columns) == expected


def test_generator_reaches_both_outcomes(tmp_path):
    # the property above is vacuous unless some examples load and some fail;
    # about 5% of 100-example runs drew no loadable file, so the probe draws
    # as many examples as the property does
    path = tmp_path / "A.csv"
    seen = set()

    @settings(max_examples=400, deadline=None, database=None)
    @given(text=csv_text(), columns=st.sampled_from(_COLUMNS))
    def probe(text, columns):
        path.write_text(text, encoding="utf-8", newline="")
        seen.add(_outcome(load_price_series, str(path), columns)[0])

    probe()
    assert seen == {"ok", "error"}


def test_simulated_csv_takes_the_split_path(tmp_path):
    # what simulate writes, with either line end, is read without csv.reader
    # from the text that _read_text returns; with blank lines it takes the
    # csv.reader pass and loads as its plain twin
    assert main(["simulate", "--out", str(tmp_path), "--seed", "7",
                 "--assets", "2", "--length", "300"]) == 0
    text = (tmp_path / "sim_SIM1.csv").read_text(encoding="utf-8")
    for name, raw in (("LF.csv", text), ("CRLF.csv", text.replace("\n", "\r\n")),
                      ("BLANK.csv", text.replace("\n", "\n\n"))):
        (tmp_path / name).write_text(raw, encoding="utf-8", newline="")
        t = _read_text(str(tmp_path / name))
        header, *rows = filter(None, csv.reader(io.StringIO(t)))
        assert header == ["date", "close"] and len(rows) == 301
        if name == "BLANK.csv":
            assert _split_columns(t, [0, 1]) is None
            blank, plain = (load_price_series(str(tmp_path / n)) for n in (name, "LF.csv"))
            assert blank.dates == plain.dates
            assert blank.close.tobytes() == plain.close.tobytes()
        else:
            assert _split_columns(t, [0, 1]) == [list(c) for c in zip(*rows)]


def test_lone_carriage_return_leaves_the_split_path(tmp_path):
    # the plain split declines a lone "\r", which csv.reader reads only as a
    # line end; the loader opens files with universal newlines, so a file
    # with "\r" line ends loads as its "\n" twin
    text = "date,close\n2020-01-02,1\r2020-01-03,2\n"
    assert _split_columns(text, [0, 1]) is None
    twin = text.replace("\r", "\n")
    assert _split_columns(twin, [0, 1]) == [["2020-01-02", "2020-01-03"], ["1", "2"]]
    for name, t in (("CR.csv", text), ("LF.csv", twin), ("OLD.csv", twin.replace("\n", "\r"))):
        (tmp_path / name).write_text(t, encoding="utf-8", newline="")
    loaded = [_outcome(load_price_series, str(tmp_path / name), None)[2:]
              for name in ("CR.csv", "LF.csv", "OLD.csv")]
    assert loaded[0] == loaded[1] == loaded[2]


@pytest.mark.parametrize("blank", ["first", "middle", "last"])
def test_blank_line_leaves_the_split_path(tmp_path, blank):
    # under a header with a comma, a blank line breaks the separator
    # pattern by itself; csv.reader skips it, so the file loads as its twin
    rows = ["2020-01-02,1", "2020-01-03,2", "2020-01-06,3"]
    at = {"first": 0, "middle": 2, "last": 3}[blank]
    text = "\n".join(["date,close", *rows[:at], "", *rows[at:]]) + "\n"
    twin = "\n".join(["date,close", *rows]) + "\n"
    assert _split_columns(text, [0, 1]) is None
    (tmp_path / "BLANK.csv").write_text(text, encoding="utf-8", newline="")
    (tmp_path / "PLAIN.csv").write_text(twin, encoding="utf-8", newline="")
    assert (_outcome(load_price_series, str(tmp_path / "BLANK.csv"), None)[2:]
            == _outcome(load_price_series, str(tmp_path / "PLAIN.csv"), None)[2:])


@pytest.mark.parametrize("text", ["date,close\n2020-01-02,1\n2020-01-03,2",
                                  "date,close,note\n2020-01-02,1,a\n2020-01-03,2,",
                                  "date,close\n2020-01-02,1"])
def test_last_line_without_its_newline_splits_as_with_it(text):
    cells = _split_columns(text + "\n", [0, 1])
    assert cells is not None and _split_columns(text, [0, 1]) == cells


def test_header_without_a_comma_leaves_the_split_path(tmp_path):
    # every line of a one-column file, blank ones too, has the header's
    # separators, so only csv.reader, which skips blank lines, reads it
    text = "date\n2020-01-02\n2020-01-03\n"
    assert _split_columns(text, [0, 0]) is None
    path = tmp_path / "ONE.csv"
    path.write_text(text, encoding="utf-8", newline="")
    assert _outcome(load_price_series, str(path), {"close": "date"}) == (
        "error", f"{path}: malformed row 2: could not convert string to float: '2020-01-02'")
