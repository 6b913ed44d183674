from __future__ import annotations

import csv
import dataclasses
import gc
import os
import struct
import tempfile
import threading
import tracemalloc
import warnings
from datetime import date, datetime, timedelta
from importlib.util import source_hash
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csie.market_data import (
    DUPLICATE_DATE,
    DUPLICATE_SYMBOL,
    FIELD_COUNT,
    MALFORMED_DATE,
    NONFINITE_PRICE,
    NONPOSITIVE_PRICE,
    OHLC_ORDERING,
    UNPARSEABLE_FIELD,
    ZERO_VOLUME,
    DailyBar,
    IndexSeries,
    MarketDay,
    eod_filename_date,
    parse_eod_file,
    parse_index_csv,
    read_eod_dir,
    read_eod_file,
)

from csie import cross_section, market_data
from csie._vocab import ALPHA_DEFAULT
from csie.cross_section import csie_day
from helpers import FIXTURE_DAY, make_unreadable, table1_csv, to_eod_csv
from rowwise_ingest import _verdict
from test_ingest_fuzz import inputs
from test_ingest_oracle import clean_files

D = FIXTURE_DAY


def collect():
    rejected = []
    return rejected, rejected.append


# --- daily file parsing -----------------------------------------------------

def test_parse_fixture_row_symbol_a():
    day = parse_eod_file(table1_csv(), D)
    bar = day.bar("A")
    assert bar == DailyBar("A", 139.54, 140.49, 137.49, 137.51, 1_878_600)


def test_parse_fixture_has_24_bars_and_verbatim_symbols():
    day = parse_eod_file(table1_csv(), D)
    assert len(day) == 24
    assert day.day == D
    for sym in ("AAC.U", "AAI-B", "AAM-A", "ZYME"):
        assert day.bar(sym).symbol == sym
    assert list(day.symbols) == sorted(day.symbols)


def test_thousands_separators_quoted_and_bare():
    day = parse_eod_file(table1_csv(), D)
    assert day.bar("A").volume == 1_878_600       # quoted "1,878,600"
    assert day.bar("AA").volume == 11_024_900     # bare 11,024,900
    assert day.bar("AAI-B").volume == 600         # no separator at all


def test_header_only_file_errors():
    with pytest.raises(ValueError, match="no usable rows"):
        parse_eod_file("Symbol,Open,High,Low,Close,Volume\n", D)


def test_empty_file_errors():
    with pytest.raises(ValueError):
        parse_eod_file("", D)


def test_headerless_file_parses():
    day = parse_eod_file("XX,1,2,0.5,1.5,100\n", D)
    assert len(day) == 1 and day.bar("XX").close == 1.5


THREE_SYMBOLS = [
    {"symbol": "A", "open": "10", "high": "11", "low": "9", "close": "10.5", "volume": "100"},
    {"symbol": "B", "open": "20", "high": "21", "low": "19.5", "close": "19.8", "volume": "300"},
    {"symbol": "C", "open": "5", "high": "5.5", "low": "4.9", "close": "5.2", "volume": "50"},
]


def eod_text(header: str) -> str:
    """``THREE_SYMBOLS`` under ``header``, each column where its name stands;
    a column of another name holds a date."""
    names = [f.strip().lower() for f in header.split(",")]
    rows = [",".join(row.get(name, "2021-01-04") for name in names) for row in THREE_SYMBOLS]
    return "\n".join([header, *rows]) + "\n"


@pytest.mark.parametrize("header", [
    "Symbol,Close,High,Low,Open,Volume",
    "Symbol,Date,Open,High,Low,Close,Volume",
    " VOLUME ,symbol,low,high,close,open",
])
def test_an_eod_header_names_its_columns(header):
    """Each column is read from the position its name holds in the header,
    and any other column is ignored."""
    standard = parse_eod_file(eod_text("Symbol,Open,High,Low,Close,Volume"), D)
    assert standard.bar("B") == DailyBar("B", 20.0, 21.0, 19.5, 19.8, 300)
    rejected, on_reject = collect()
    assert parse_eod_file(eod_text(header), D, on_reject=on_reject) == standard
    assert rejected == []


@pytest.mark.parametrize("header, missing", [
    ("symbol,o,h,l,c,v", ["close", "high", "low", "open", "volume"]),
    ("Symbol,Open,High,Low,Close", ["volume"]),
])
def test_an_eod_header_that_lacks_a_column_refuses_the_file(header, missing):
    """A first record that names a symbol column is a header, and one that
    lacks a price or volume name refuses the whole file, delivering no
    reject."""
    rejected, on_reject = collect()
    text = header + "\nA,10,11,9,10.5,100\nB,oops\n"
    with pytest.raises(ValueError) as info:
        parse_eod_file(text, D, on_reject=on_reject)
    assert str(info.value) == f"EOD header missing columns: {missing}"
    assert rejected == []


@pytest.mark.parametrize("parse, key, header, row, message", [
    (parse_eod_file, D, "Symbol,Open,High,Low,Close,Volume,Close", "A,10,11,9,10.5,100,10.2",
     "EOD header repeats columns: ['close']"),
    (parse_index_csv, "X", "Date,Open,High,Low,Close,Volume,Close",
     "2021-01-04,10,11,9,10.5,100,10.2", "index header repeats columns: ['close']"),
    (parse_index_csv, "X", "Date,Open,High, open ,Low,Close,Volume,DATE",
     "2021-01-04,10,11,10,9,10.5,100,2021-01-05", "index header repeats columns: ['date', 'open']"),
], ids=["eod", "index", "index-case-and-spaces"])
def test_a_header_that_names_a_column_twice_refuses_the_file(parse, key, header, row, message):
    """A column named twice is read from neither position: the file is
    refused, delivering no reject, as when a column is missing."""
    rejected, on_reject = collect()
    with pytest.raises(ValueError) as info:
        parse(f"{header}\n{row}\n", key, on_reject=on_reject)
    assert str(info.value) == message
    assert rejected == []


def test_duplicate_symbol_keeps_first_reports_later():
    rejected, on_reject = collect()
    text = "XX,1,2,0.5,1.5,100\nXX,3,4,2.5,3.5,200\n"
    day = parse_eod_file(text, D, on_reject=on_reject)
    assert len(day) == 1
    assert day.bar("XX").open == 1.0
    assert [r.reason for r in rejected] == [DUPLICATE_SYMBOL]
    assert rejected[0].line == 2


def test_malformed_rows_rejected_with_reasons():
    rejected, on_reject = collect()
    text = (
        "Symbol,Open,High,Low,Close,Volume\n"
        "OK,1,2,0.5,1.5,100\n"
        "BADNUM,1,2,0.5,oops,100\n"
        "SHORT,1,2\n"
        "NEGP,-1,2,0.5,1.5,100\n"
        "ORD,1,0.9,0.5,0.8,100\n"
        "HUGEVOL,1,2,0.5,1.5,99999999999999999999\n"
        "NANP,nan,2,0.5,1.5,100\n"
        "INFP,1,inf,0.5,1.5,100\n"
        "NEGVOL,1,2,0.5,1.5,-5\n"
        "NEGP_HUGEVOL,-1,2,0.5,1.5,99999999999999999999\n"
        "ORD_NEGVOL,1,0.9,0.5,0.8,-5\n"
        ",1,2,0.5,1.5,100\n"
        "OK,3,4,2.5,3.5,200\n"
    )
    day = parse_eod_file(text, D, on_reject=on_reject)
    assert [str(s) for s in day.symbols] == ["OK"]
    # delivered in line order; a price fault outranks a bad volume on the same row
    assert [(r.line, r.reason) for r in rejected] == [
        (3, UNPARSEABLE_FIELD),
        (4, FIELD_COUNT),
        (5, NONPOSITIVE_PRICE),
        (6, OHLC_ORDERING),
        (7, UNPARSEABLE_FIELD),
        (8, NONFINITE_PRICE),
        (9, NONFINITE_PRICE),
        (10, UNPARSEABLE_FIELD),
        (11, NONPOSITIVE_PRICE),
        (12, OHLC_ORDERING),
        (13, UNPARSEABLE_FIELD),
        (14, DUPLICATE_SYMBOL),
    ]


def test_zero_volume_bar_kept_but_not_tradable():
    text = "AA,1,2,0.5,1.5,100\nBB,1,2,0.5,1.5,0\n"
    day = parse_eod_file(text, D)
    assert len(day) == 2
    assert day.n_tradable == 1
    assert list(day.tradable) == [True, False]


def test_ordering_check_uses_open_close_bracketing():
    # low above the open is invalid even when low <= high
    rejected, on_reject = collect()
    parse_eod_file("AA,1.0,2.0,1.2,1.8,10\nOK,1,1,1,1,5\n", D, on_reject=on_reject)
    assert [r.reason for r in rejected] == [OHLC_ORDERING]


def test_crlf_and_blank_lines_tolerated():
    text = "Symbol,Open,High,Low,Close,Volume\r\nAA,1,2,0.5,1.5,100\r\n\r\n"
    assert len(parse_eod_file(text, D)) == 1


def test_bytes_input_accepted():
    assert len(parse_eod_file(table1_csv().encode(), D)) == 24


def test_a_utf8_byte_order_mark_is_not_part_of_the_header():
    bom = "\ufeff".encode()
    rejected, on_reject = collect()
    assert len(parse_eod_file(bom + table1_csv().encode(), D, on_reject=on_reject)) == 24
    index = b"Date,Open,High,Low,Close,Adj Close,Volume\n2021-01-04,10,11,9.5,10.5,9.9,1000\n"
    s = parse_index_csv(bom + index, on_reject=on_reject)
    assert s.volume.tolist() == [1000] and rejected == []


# A record the csv module refuses: a bare carriage return inside an unquoted
# field, or a field past the csv field size limit.
UNREADABLE = ["B\rC", "7" * (csv.field_size_limit() + 1)]


@pytest.mark.parametrize("field", UNREADABLE, ids=["bare-cr", "long-field"])
def test_an_unreadable_eod_record_is_an_unparseable_row(field):
    bad = f"{field},1,2,0.5,1.5,10"
    text = f"Symbol,Open,High,Low,Close,Volume\nAA,1,2,0.5,1.5,100\n{bad}\nDD,1,2,0.5,1.5,100\n"
    rejected, on_reject = collect()
    day = parse_eod_file(text, D, on_reject=on_reject)
    assert day.symbols.tolist() == ["AA", "DD"]
    assert [(r.line, r.content, r.reason) for r in rejected] == [(3, bad, UNPARSEABLE_FIELD)]


@pytest.mark.parametrize("field", UNREADABLE, ids=["bare-cr", "long-field"])
def test_an_unreadable_index_record_is_an_unparseable_row(field):
    bad = f"2021-01-05,1,2,0.5,1.5,{field}"
    text = f"2021-01-04,1,2,0.5,1.5,100\n{bad}\n2021-01-06,1,2,0.5,1.5,100\n"
    rejected, on_reject = collect()
    s = parse_index_csv(text, on_reject=on_reject)
    assert [str(d) for d in s.dates] == ["2021-01-04", "2021-01-06"]
    assert [(r.line, r.content, r.reason) for r in rejected] == [(2, bad, UNPARSEABLE_FIELD)]


# --- one rule set for parser and constructor ----------------------------------

@pytest.mark.parametrize(
    "row, reason",
    [
        ((1, 2, 0.5, 1.5, 100), None),
        ((1, 1, 1, 1, 0), ZERO_VOLUME),
        ((1, 0.9, 0.5, 0.8, 100), OHLC_ORDERING),
        ((0.0, 1, 0.5, 0.5, 10), NONPOSITIVE_PRICE),
        ((1, 1, -0.5, 1, 10), NONPOSITIVE_PRICE),
        ((float("nan"), 1, 0.5, 0.5, 10), NONFINITE_PRICE),
        ((float("nan"), 1, 0.5, 0.5, -1), NONFINITE_PRICE),
    ],
    ids=["usable", "zero-volume", "high-below-open", "zero-open", "negative-low", "nan-open",
         "nan-open-negative-volume"],
)
def test_parser_and_constructor_apply_the_same_rules(row, reason):
    rejected, on_reject = collect()
    text = "X," + ",".join(map(str, row)) + "\nOK,1,2,0.5,1.5,100\n"
    day = parse_eod_file(text, D, on_reject=on_reject)
    if reason in (None, ZERO_VOLUME):
        assert rejected == [] and day.bar("X").volume == row[4]
        assert MarketDay(D, ["X"], *([v] for v in row)).n_tradable == (reason is None)
    else:
        assert [(r.line, r.reason) for r in rejected] == [(1, reason)]
        with pytest.raises(ValueError, match=reason):
            MarketDay(D, ["X"], *([v] for v in row))


# --- round-trip and order insensitivity --------------------------------------

@st.composite
def market_days(draw):
    m = draw(st.integers(min_value=1, max_value=8))
    rows = []
    for _ in range(m):
        o = draw(st.floats(0.01, 1000.0, allow_nan=False, allow_infinity=False))
        r = draw(st.floats(0.8, 1.25))
        up = draw(st.floats(1.0, 1.3))
        dn = draw(st.floats(1.0, 1.3))
        c = o * r
        rows.append((o, max(o, c) * up, min(o, c) / dn, c, draw(st.integers(0, 10**7))))
    return MarketDay(date(2022, 1, 21), [f"S{i:03d}" for i in range(m)], *zip(*rows))


@given(market_days())
def test_round_trip_serialization(day):
    assert parse_eod_file(to_eod_csv(day), day.day) == day


def test_row_order_does_not_matter():
    lines = table1_csv().strip().split("\n")
    header, rows = lines[0], lines[1:]
    shuffled = "\n".join([header] + rows[::-1]) + "\n"
    assert parse_eod_file(shuffled, D) == parse_eod_file(table1_csv(), D)


def test_accepted_bars_satisfy_ordering():
    day = parse_eod_file(table1_csv(), D)
    assert (day.low <= np.minimum(day.open, day.close)).all()
    assert (day.high >= np.maximum(day.open, day.close)).all()


# --- MarketDay construction ---------------------------------------------------

def test_market_day_sorts_symbols():
    day = MarketDay(D, ["B", "A"], [1, 1], [2, 2], [0.5, 0.5], [1.5, 1.5], [1, 1])
    assert list(day.symbols) == ["A", "B"]


def test_market_day_rejects_duplicates_and_bad_columns():
    with pytest.raises(ValueError, match=f"^{DUPLICATE_SYMBOL} A$"):
        MarketDay(D, ["A", "A"], [1, 1], [2, 2], [0.5, 0.5], [1.5, 1.5], [1, 1])
    with pytest.raises(ValueError):
        MarketDay(D, ["A"], [1, 1], [2], [0.5], [1.5], [1])
    with pytest.raises(ValueError, match="empty"):
        MarketDay(D, [], [], [], [], [], [])
    with pytest.raises(ValueError, match=NONPOSITIVE_PRICE):
        MarketDay(D, ["A"], [-1.0], [2], [0.5], [1.5], [1])
    with pytest.raises(ValueError, match=NONFINITE_PRICE):
        MarketDay(D, ["A"], [1.0], [np.inf], [0.5], [1.5], [1])
    with pytest.raises(ValueError):
        MarketDay(D, ["A"], [1.0], [0.9], [0.5], [1.5], [1])
    with pytest.raises(ValueError, match="volume"):
        MarketDay(D, ["A"], [1.0], [2.0], [0.5], [1.5], [-1])


@pytest.mark.parametrize("volume", [2**63, -(2**63) - 1, 10**30])
@pytest.mark.parametrize("kind", ["MarketDay", "IndexSeries"])
def test_a_volume_past_int64_is_an_unparseable_field(kind, volume):
    """The constructors convert volumes as the parsers do: one that int64
    cannot hold is the first unusable row's reason, not an OverflowError."""
    key_of, build, keys_of, _ = BUILDS[kind]
    keys = [key_of(0), key_of(1)]
    with pytest.raises(ValueError, match=f"^{UNPARSEABLE_FIELD} at {keys[1]}: "):
        build(keys, [1.0, 1.0], [2.0, 2.0], [0.5, 0.5], [1.5, 1.5], [10, volume])
    built = build(keys, [1.0, 1.0], [2.0, 2.0], [0.5, 0.5], [1.5, 1.5], [10, 2**63 - 1])
    assert built.volume.tolist() == [10, 2**63 - 1]


@pytest.mark.parametrize("volume", [1.5, -0.5, np.nan, np.inf, 2.0**63])
@pytest.mark.parametrize("kind", ["MarketDay", "IndexSeries"])
def test_a_volume_that_is_not_a_whole_number_is_an_unparseable_field(kind, volume):
    """The constructors hold a volume as no parser would: one with a
    fraction, NaN or infinite is the first unusable row's reason, neither
    truncated nor an error that names no row.  A whole float is kept."""
    key_of, build, _, _ = BUILDS[kind]
    keys = [key_of(0), key_of(1)]
    prices = ([1.0, 1.0], [2.0, 2.0], [0.5, 0.5], [1.5, 1.5])
    for volumes in ([10, volume], np.array([10.0, volume])):
        with pytest.raises(ValueError, match=f"^{UNPARSEABLE_FIELD} at {keys[1]}: .* volume -1$"):
            build(keys, *prices, volumes)
    built = build(keys, *prices, np.array([10.0, 7.0]))
    assert built.volume.dtype == np.int64 and built.volume.tolist() == [10, 7]


@st.composite
def keyed_bars(draw):
    """Rows of (key, open, high, low, close, volume): valid bars, bars with one
    or two faults (each reject reason and zero volume), few distinct keys so
    that some repeat, in the order drawn."""
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        o, c = (draw(st.floats(0.5, 100.0)) for _ in range(2))
        bar = [o, max(o, c) * draw(st.floats(1.0, 1.5)), min(o, c) / draw(st.floats(1.0, 1.5)),
               c, draw(st.integers(1, 10**6))]
        for fault in draw(st.lists(st.sampled_from(
                [NONFINITE_PRICE, NONPOSITIVE_PRICE, OHLC_ORDERING, UNPARSEABLE_FIELD,
                 ZERO_VOLUME]), max_size=2)):
            if fault == NONFINITE_PRICE:
                bar[draw(st.integers(0, 3))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
            elif fault == NONPOSITIVE_PRICE:
                bar[draw(st.integers(0, 3))] = draw(st.sampled_from([0.0, -1.0]))
            elif fault == OHLC_ORDERING:
                bar[1] = min(bar[0], bar[3]) * 0.9
            else:
                bar[4] = -1 if fault == UNPARSEABLE_FIELD else 0
        rows.append((draw(st.integers(0, 7)), *bar))
    return rows


BUILDS = {
    "MarketDay": (lambda k: f"S{k}", lambda keys, *cols: MarketDay(D, keys, *cols),
                  lambda day: day.symbols, DUPLICATE_SYMBOL),
    "IndexSeries": (lambda k: date(2021, 1, 4) + timedelta(days=k),
                    lambda keys, *cols: IndexSeries("X", keys, *cols),
                    lambda series: series.dates, "duplicate date"),
}


@pytest.mark.parametrize("kind", BUILDS)
@settings(max_examples=150, deadline=None)
@given(rows=keyed_bars(), data=st.data())
def test_constructors_judge_rows_like_the_rowwise_reference(kind, rows, data):
    key_of, build, keys_of, duplicate = BUILDS[kind]
    rows = [(key_of(k), *bar) for k, *bar in rows]
    keys = [row[0] for row in rows]
    rejected = [(row[0], v) for row in rows if (v := _verdict(*row[1:])) not in (None, ZERO_VOLUME)]
    repeated = sorted(k for k in set(keys) if keys.count(k) > 1)
    if rejected or repeated:
        with pytest.raises(ValueError) as info:
            build(*zip(*rows))
        if rejected:
            key, code = rejected[0]
            assert str(info.value).startswith(f"{code} at {key}: ")
        else:
            assert str(info.value) == f"{duplicate} {repeated[0]}"
        return
    built = build(*zip(*rows))
    assert list(map(str, keys_of(built))) == sorted(map(str, keys))  # ISO dates sort as dates
    assert build(*zip(*data.draw(st.permutations(rows)))) == built


def test_market_day_bar_lookup_missing():
    day = parse_eod_file(table1_csv(), D)
    with pytest.raises(KeyError):
        day.bar("NOPE")


# --- file naming and directory reading ----------------------------------------

def test_eod_filename_date():
    assert eod_filename_date("NYSE_20220121.csv") == ("NYSE", date(2022, 1, 21))
    with pytest.raises(ValueError):
        eod_filename_date("NYSE-20220121.csv")
    with pytest.raises(ValueError):
        eod_filename_date("NYSE_20221321.csv")
    with pytest.raises(ValueError, match="not an EOD file name"):
        eod_filename_date("NYSE_20220121.csv\n")
    # strptime read a year of non-ASCII digits when month and day were ASCII
    with pytest.raises(ValueError, match="bad date in file name"):
        eod_filename_date("NYSE_\uff12\uff10\uff11\uff161231.csv")


@pytest.mark.parametrize(
    "stamp", ["20220121", "00000000", "20160230", "20161301", "99991231",
              "\uff12\uff10\uff11\uff16\uff10\uff16\uff10\uff11"],
    ids=["valid", "year-0", "feb-30", "month-13", "last-day", "fullwidth"],
)
def test_eod_filename_date_reads_as_strptime_did(stamp):
    name = f"NYSE_{stamp}.csv"
    try:
        expected = datetime.strptime(stamp, "%Y%m%d").date()
    except ValueError:
        with pytest.raises(ValueError, match=f"^bad date in file name: {name}$"):
            eod_filename_date(name)
    else:
        assert eod_filename_date(name) == ("NYSE", expected)


def test_read_eod_dir_sorted_and_filtered(tmp_path):
    for stamp in ("20210602", "20210601", "20210603"):
        (tmp_path / f"SYN_{stamp}.csv").write_text("AA,1,2,0.5,1.5,10\n")
    (tmp_path / "notes.txt").write_text("ignore me")
    (tmp_path / "SYN_2021060.csv").write_text("AA,1,2,0.5,1.5,10\n")  # not the shape
    # the shape of an EOD file's name, but no date: a skipped file
    for name in ("SYN_20210230.csv", "SYN_2021010\uff14.csv"):
        (tmp_path / name).write_text("AA,1,2,0.5,1.5,10\n")
    skipped = []
    days = read_eod_dir(tmp_path, on_skip=skipped.append)
    assert [d.day.isoformat() for d in days] == [
        "2021-06-01", "2021-06-02", "2021-06-03",
    ]
    assert skipped == [
        f"skipped {tmp_path / name}: bad date in file name: {name}"
        for name in ("SYN_2021010\uff14.csv", "SYN_20210230.csv")  # in name order
    ]


def test_read_eod_dir_duplicate_date_errors(tmp_path):
    (tmp_path / "A_20210601.csv").write_text("AA,1,2,0.5,1.5,10\n")
    (tmp_path / "B_20210601.csv").write_text("AA,1,2,0.5,1.5,10\n")
    with pytest.raises(ValueError, match="duplicate date"):
        read_eod_dir(tmp_path)


def test_read_eod_dir_threads_equivalent(tmp_path):
    for stamp in ("20210601", "20210602", "20210603", "20210604"):
        (tmp_path / f"SYN_{stamp}.csv").write_text(
            f"AA,1,2,0.5,1.5,{stamp[-1]}0\nBAD{stamp},1,0.9,0.5,0.8,1\nSHORT{stamp},1\n"
            f"AA,1,2,0.5,1.5,7{stamp}\n"
        )
    results = []
    for threads in (1, 4):
        rejected, on_reject = collect()
        results.append((read_eod_dir(tmp_path, threads=threads, on_reject=on_reject), rejected))
    (days1, rejected1), (days4, rejected4) = results
    assert days1 == days4
    assert rejected1 == rejected4
    # date order, then line order
    assert [r.content for r in rejected1] == [
        row
        for stamp in ("20210601", "20210602", "20210603", "20210604")
        for row in (f"BAD{stamp},1,0.9,0.5,0.8,1", f"SHORT{stamp},1", f"AA,1,2,0.5,1.5,7{stamp}")
    ]
    assert [(r.line, r.reason) for r in rejected1] == [
        (2, OHLC_ORDERING), (3, FIELD_COUNT), (4, DUPLICATE_SYMBOL)
    ] * 4


@pytest.mark.parametrize("threads", [1, 4])
def test_read_eod_dir_skips_a_file_it_cannot_parse(tmp_path, monkeypatch, threads):
    good = "AA,1,2,0.5,1.5,10\n"
    (tmp_path / "SYN_20210601.csv").write_text(good)
    (tmp_path / "SYN_20210602.csv").write_text("AA,1,0.9,0.5,0.8,10\n")
    (tmp_path / "SYN_20210603.csv").write_bytes(good.encode() + b"\xff\n")
    (tmp_path / "SYN_20210604.csv").write_text(good)
    unreadable = tmp_path / "SYN_20210607.csv"
    unreadable.write_text(good)
    read_error = make_unreadable(monkeypatch, unreadable)
    skips = [
        f"skipped {tmp_path / 'SYN_20210602.csv'}: no usable rows for 2021-06-02",
        f"skipped {tmp_path / 'SYN_20210603.csv'}: 'utf-8' codec can't decode byte 0xff "
        "in position 18: invalid start byte",
        f"skipped {unreadable}: {read_error}",
    ]
    events = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a skip is reported through on_skip alone
        days = read_eod_dir(tmp_path, threads=threads, on_reject=events.append,
                            on_skip=events.append)
        assert [d.day.isoformat() for d in days] == ["2021-06-01", "2021-06-04"]
        # a file's rejects come before its skip
        assert events[1:] == skips
        assert (events[0].line, events[0].reason) == (1, OHLC_ORDERING)
        for name in ("SYN_20210601.csv", "SYN_20210604.csv"):
            (tmp_path / name).unlink()
        skipped = []
        with pytest.raises(ValueError, match="no usable EOD file"):
            read_eod_dir(tmp_path, threads=threads, on_skip=skipped.append)
        assert skipped == skips


def test_read_eod_dir_starts_no_thread(tmp_path, monkeypatch):
    """``threads`` is accepted and ignored: files are read one at a time."""
    for stamp in ("20210601", "20210602", "20210603"):
        (tmp_path / f"SYN_{stamp}.csv").write_text(f"AA,1,2,0.5,1.5,10\nBB,1,0.9,0.5,0.8,{stamp}\n")
    rejected, on_reject = collect()
    expected = read_eod_dir(tmp_path, on_reject=on_reject)

    def refuse(self):
        raise AssertionError(f"started thread {self.name}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    rejected4, on_reject4 = collect()
    assert read_eod_dir(tmp_path, threads=4, on_reject=on_reject4) == expected
    assert rejected4 == rejected and len(rejected) == 3


def test_read_eod_dir_empty_errors(tmp_path):
    with pytest.raises(ValueError, match="no EOD files"):
        read_eod_dir(tmp_path)


# --- the cache of csie and compare ----------------------------------------------

def _entry(directory: Path) -> Path:
    return directory / ".csie-cache" / "days.bin"


def _bits(row) -> object:
    """A ``CsieDay`` with its floats as their bytes, so that -0.0 is not 0.0;
    a refused day's text as it is."""
    if isinstance(row, str):
        return row
    return tuple(struct.pack("<d", v) if type(v) is float else v
                 for v in (getattr(row, f.name) for f in dataclasses.fields(row)))


def _outcome(read) -> tuple:
    """What one read gives: the day's bits or the ValueError's text, and the
    rejects."""
    rejected = []
    try:
        return _bits(read(rejected.append)), rejected
    except ValueError as exc:
        return str(exc), rejected


def _uncached(data: bytes | str, alpha: float = ALPHA_DEFAULT):
    """The reader that parses and judges ``data`` with no cache."""
    def read(on_reject):
        return csie_day(parse_eod_file(data, D, on_reject=on_reject), alpha)
    return read


def _cached(path: Path, alpha: float = ALPHA_DEFAULT):
    """The reader of the one EOD file ``path`` through its directory's cache:
    its ``CsieDay``, or a ValueError with the text of its skip, whether the
    parse or ``csie_day`` refused it."""
    def read(on_reject):
        skipped = []
        try:
            [row] = cross_section._cached_csie_days(path.parent, alpha, skipped.append, on_reject)
        except ValueError:
            [skip] = skipped
            raise ValueError(skip.removeprefix(f"skipped {path}: ")) from None
        return row
    return read


def _counting_parses():
    return mock.patch.object(market_data, "parse_eod_file", wraps=parse_eod_file)


@settings(max_examples=150, deadline=None)
@given(inputs(table1_csv()))
def test_a_cached_day_is_the_parse_and_csie_day(data):
    parsed = _outcome(_uncached(data))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"SYN_{D.strftime('%Y%m%d')}.csv"
        path.write_bytes(data)
        with _counting_parses() as parse:
            miss = _outcome(_cached(path))
            written = _entry(path.parent).exists()
            hit = _outcome(_cached(path))
    assert miss == parsed and hit == parsed
    assert [r.line for r in hit[1]] == sorted(r.line for r in hit[1])
    cached = isinstance(parsed[0], tuple)  # neither a failed parse nor a refused day
    assert written == cached and parse.call_count == (1 if cached else 2)


CACHED_TEXT = table1_csv() + "BAD,1,0.5,0.9,1,3\nSHORT,1\n"
_HEADER = cross_section._ENTRY_HEADER.size


def _last_reject_byte(blob: bytes, before_end: int, value: int) -> bytes:
    at = len(blob) - before_end
    return blob[:at] + bytes([value]) + blob[at + 1:]


def _rebuilt(blob: bytes, row, rejects, key: bytes | None = None) -> bytes:
    """The one-day entry ``blob`` with its key, its ``CsieDay`` or its
    rejects replaced, unchecked; the file's hash stays."""
    head = blob[:_HEADER] if key is None else cross_section._ENTRY_HEADER.pack(
        cross_section._CACHE_MAGIC, key)
    return head + cross_section._day_bytes(blob[_HEADER + 4:_HEADER + 12], row, rejects)


def _planted(**fields):
    """A corrupt entry: the good one's key and rejects, and its CsieDay with
    some fields replaced."""
    return lambda blob, row, rej: _rebuilt(blob, dataclasses.replace(row, **fields), rej)


def _dated(ordinal: int):
    """A corrupt entry: the good one with its day's date ordinal replaced."""
    return lambda blob, row, rej: (
        blob[:_HEADER] + struct.pack("<i", ordinal) + blob[_HEADER + 4:])


_SHORT = len("SHORT,1")  # the content of the last reject
# Each builds a corrupt entry from the good one, its CsieDay and its rejects.
CORRUPT_ENTRIES = {
    "empty": lambda blob, row, rej: b"",
    "truncated": lambda blob, row, rej: blob[:-1],
    "last-reject-cut-off": lambda blob, row, rej: blob[
        :-(_SHORT + cross_section._ENTRY_REJECT.size)],
    "extended": lambda blob, row, rej: blob + b"\0",
    "bad-magic": lambda blob, row, rej: b"X" + blob[1:],
    "wrong-key": lambda blob, row, rej: _rebuilt(blob, row, rej, key=bytes(16)),
    "rejects-out-of-order": lambda blob, row, rej: _rebuilt(blob, row, rej[::-1]),
    "unknown-reason": lambda blob, row, rej: _last_reject_byte(blob, _SHORT + 9, 200),
    "reject-not-utf8": lambda blob, row, rej: _last_reject_byte(blob, 1, 0xFF),
    "reject-past-the-end": lambda blob, row, rej: _last_reject_byte(blob, _SHORT + 8, 99),
    "nan-value": _planted(h_oc=float("nan")),
    "inf-value": _planted(total_value=float("inf")),
    "no-symbols": _planted(m=0),
    "negative-m": _planted(m=-3),
    "degenerate-wide": _planted(degenerate=True),
    "one-symbol-not-degenerate": _planted(m=1),
    "date-before-year-1": _dated(0),
    "date-past-year-9999": _dated(date.max.toordinal() + 1),
}


@pytest.mark.parametrize("corrupt", CORRUPT_ENTRIES.values(), ids=CORRUPT_ENTRIES.keys())
def test_a_corrupt_or_planted_entry_is_a_miss_and_rewritten(tmp_path, corrupt):
    path = tmp_path / f"SYN_{D.strftime('%Y%m%d')}.csv"
    path.write_text(CACHED_TEXT)
    uncached = _outcome(_uncached(CACHED_TEXT))
    rejected = []
    row = _cached(path)(rejected.append)
    assert (_bits(row), rejected) == uncached
    blob = _entry(tmp_path).read_bytes()
    key = cross_section._code_id() + struct.pack("<d", ALPHA_DEFAULT)
    assert blob == _rebuilt(blob, row, rejected, key)
    assert blob[_HEADER:_HEADER + 12] == struct.pack("<i", D.toordinal()) + source_hash(
        path.read_bytes())
    with _counting_parses() as parse:
        assert _outcome(_cached(path)) == uncached
        assert parse.call_count == 0
        _entry(tmp_path).write_bytes(corrupt(blob, row, rejected))
        assert _outcome(_cached(path)) == uncached
        assert parse.call_count == 1
    assert _entry(tmp_path).read_bytes() == blob


def test_one_bad_day_makes_the_whole_entry_a_miss(tmp_path):
    """The checks hold for the entry as a whole: a good day beside a
    planted one is parsed again too, and the entry is rewritten whole."""
    for stamp in ("20210601", "20210602"):
        (tmp_path / f"SYN_{stamp}.csv").write_text(CACHED_TEXT)
    days = cross_section._cached_csie_days
    good = list(days(tmp_path, ALPHA_DEFAULT, [].append))
    blob = _entry(tmp_path).read_bytes()
    m_at = _HEADER + (len(blob) - _HEADER) // 2 + 12  # the second of two equal days, its m
    _entry(tmp_path).write_bytes(blob[:m_at] + struct.pack("<q", 0) + blob[m_at + 8:])
    with _counting_parses() as parse:
        assert list(days(tmp_path, ALPHA_DEFAULT, [].append)) == good
    assert parse.call_count == 2 and _entry(tmp_path).read_bytes() == blob


def test_an_entry_that_is_a_directory_costs_only_the_parse(tmp_path):
    path = tmp_path / f"SYN_{D.strftime('%Y%m%d')}.csv"
    path.write_text(CACHED_TEXT)
    _entry(tmp_path).mkdir(parents=True)
    with _counting_parses() as parse:
        for _ in range(2):
            assert _outcome(_cached(path)) == _outcome(_uncached(CACHED_TEXT))
    assert parse.call_count == 2
    assert [p.name for p in _entry(tmp_path).parent.iterdir()] == [_entry(tmp_path).name]


def test_nothing_is_cached_without_the_package_source(tmp_path, monkeypatch):
    monkeypatch.setattr(cross_section, "__file__", str(tmp_path / "gone" / "cross_section.py"))
    assert cross_section._code_id.__wrapped__() is None
    monkeypatch.setattr(cross_section, "_code_id", cross_section._code_id.__wrapped__)
    path = tmp_path / f"SYN_{D.strftime('%Y%m%d')}.csv"
    path.write_text(CACHED_TEXT)
    day, rejected = _outcome(_cached(path))
    assert (day, rejected) == _outcome(_uncached(CACHED_TEXT))
    assert [r.content for r in rejected] == ["BAD,1,0.5,0.9,1,3", "SHORT,1"]
    assert not _entry(tmp_path).parent.exists()


def test_an_edit_to_any_module_is_a_new_key(tmp_path, monkeypatch):
    package = tmp_path / "csie"
    package.mkdir()
    for name in ("__init__.py", "cross_section.py", "svg.py"):
        (package / name).write_text(f"# {name}\n")
    (package / "notes.txt").write_text("not a module")
    monkeypatch.setattr(cross_section, "__file__", str(package / "cross_section.py"))
    ids = [cross_section._code_id.__wrapped__()]
    (package / "notes.txt").write_text("still not a module")
    ids.append(cross_section._code_id.__wrapped__())
    (package / "svg.py").write_text("# an edit\n")
    ids.append(cross_section._code_id.__wrapped__())
    assert ids[0] == ids[1] != ids[2]


def test_an_edit_that_keeps_size_and_mtime_is_seen(tmp_path):
    path = tmp_path / "SYN_20210601.csv"
    path.write_text("AA,1,2,0.5,1.5,10\n")
    before = path.stat()
    assert _cached(path)([].append).total_value == 15.0
    path.write_text("AA,1,2,0.5,1.5,20\n")
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = path.stat()
    assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
    assert _cached(path)([].append).total_value == 30.0


def test_a_day_csie_day_refuses_is_not_cached(tmp_path):
    """Cold and warm, a refused day's rejects reach ``on_reject`` in line
    order before its skip reaches ``on_skip``, and it gets no record; the
    held day before it replays its rejects in the same order on a hit."""
    held, refused = tmp_path / "SYN_20210601.csv", tmp_path / "SYN_20210602.csv"
    held.write_text(CACHED_TEXT)
    refused.write_text("AA,10,11,9,10.5,0\nBB,20,21,19,20.5,0\nCC,1,2,0.5,3,5\nDD,1\n")
    held_rejects, on_reject = collect()
    parse_eod_file(CACHED_TEXT, D, on_reject=on_reject)
    expected = [*((r.line, r.reason) for r in held_rejects), (3, OHLC_ORDERING), (4, FIELD_COUNT),
                f"skipped {refused}: empty cross-section on 2021-06-02"]
    key = cross_section._code_id() + struct.pack("<d", ALPHA_DEFAULT)
    with _counting_parses() as parse:
        for parses in (2, 3):  # warm, only the refused day is parsed again
            events = []
            rows = list(cross_section._cached_csie_days(
                tmp_path, ALPHA_DEFAULT, events.append,
                lambda r: events.append((r.line, r.reason))))
            assert [r.day for r in rows] == [date(2021, 6, 1)]
            assert events == expected and parse.call_count == parses
            assert list(cross_section._held_days(_entry(tmp_path), key)) == [date(2021, 6, 1)]


def _tree(root: Path) -> dict[str, bytes | None]:
    """Every path under ``root`` with its bytes, None for a directory."""
    return {str(p.relative_to(root)): None if p.is_dir() else p.read_bytes()
            for p in root.rglob("*")}


def test_a_library_read_creates_changes_and_deletes_no_file(tmp_path):
    path = tmp_path / "SYN_20210601.csv"
    path.write_text(CACHED_TEXT)
    _cached(path)([].append)  # writes the entry
    (tmp_path / "notes.txt").write_text("not an EOD file")
    cache = _entry(tmp_path).parent
    for name in ("SYN_20200101.csv.bin", "SYN_20210601.csv.bin.12345.tmp", "days.bin.12345.tmp",
                 "notes.bin"):
        (cache / name).write_bytes(b"planted")
    before = _tree(tmp_path)
    assert len(read_eod_dir(tmp_path)) == len(read_eod_dir(tmp_path, threads=2)) == 1
    read_eod_file(path)
    assert _tree(tmp_path) == before


@pytest.mark.parametrize(
    "second, reason",
    [(b"A\x00,1,2,0.5,1.6,10\n", DUPLICATE_SYMBOL), (b"\x00,1,2,0.5,1.5,10\n", UNPARSEABLE_FIELD),
     (b",1,2,0.5,1.5,10\n", UNPARSEABLE_FIELD)],
    ids=["nul-twin", "nul-only", "empty"],
)
def test_a_symbol_is_read_without_its_trailing_nuls(tmp_path, second, reason):
    """numpy drops trailing NULs, so the parser does too: ``A\\x00`` is a
    second ``A`` and ``\\x00`` an empty symbol.  The constructor agrees,
    given the symbols as a list or as a numpy array."""
    path = tmp_path / f"SYN_{D.strftime('%Y%m%d')}.csv"
    path.write_bytes(b"A,1,2,0.5,1.5,10\n" + second)
    rejected, on_reject = collect()
    assert read_eod_file(path, on_reject=on_reject).symbols.tolist() == ["A"]
    assert [(r.line, r.reason) for r in rejected] == [(2, reason)]
    symbols = ["A", second.decode().split(",")[0]]
    for given in (symbols, np.array(symbols)):
        with pytest.raises(ValueError, match=f"^{reason}"):
            MarketDay(D, given, [1, 1], [2, 2], [0.5, 0.5], [1.5, 1.5], [1, 1])


@pytest.mark.parametrize("length, kept", [(64, True), (65, False), (50_000, False)])
def test_a_symbol_longer_than_64_characters_is_unparseable(tmp_path, length, kept):
    """A day holds its symbols as one numpy string array as wide as the
    longest symbol, so one 50,000-character symbol among 1,001 short ones
    once made a 72 KB file's day take about 200 MB; that row is a reject,
    and the constructor refuses it before building the array."""
    symbols = [f"S{i:04d}" for i in range(1001)]
    symbols.insert(500, "X" * length)
    columns = ([1.0] * 1002, [2.0] * 1002, [0.5] * 1002, [1.5] * 1002, [10] * 1002)
    tracemalloc.start()
    try:
        if kept:
            assert MarketDay(D, symbols, *columns).symbols.dtype.itemsize == 4 * length
        else:
            with pytest.raises(ValueError, match=f"^{UNPARSEABLE_FIELD} at symbol 500 "):
                MarketDay(D, symbols, *columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    rows = [f"S{i:04d},1,2,0.5,1.5,10" for i in range(1001)]
    rows.insert(500, f"{'X' * length},1,2,0.5,1.5,10")
    path = tmp_path / f"SYN_{D.strftime('%Y%m%d')}.csv"
    path.write_text("\n".join(rows) + "\n")
    rejected, on_reject = collect()
    tracemalloc.start()
    try:
        day = read_eod_file(path, on_reject=on_reject)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(day) == 1001 + kept
    assert [(r.line, r.reason) for r in rejected] == ([] if kept else [(501, UNPARSEABLE_FIELD)])
    assert day.symbols.dtype.itemsize == 4 * (length if kept else 5)
    assert peak < 4 * 2**20


# --- index series ---------------------------------------------------------------

def test_index_two_rows_ascending():
    text = (
        "Date,Open,High,Low,Close,Volume\n"
        "2021-01-05,11,12,10.5,11.5,2000\n"
        "2021-01-04,10,11,9.5,10.5,1000\n"
    )
    s = parse_index_csv(text, "X")
    assert len(s) == 2
    assert [str(d) for d in s.dates] == ["2021-01-04", "2021-01-05"]
    assert s.close[0] == 10.5


def test_index_duplicate_date_keeps_the_first_usable_row():
    text = (
        "Date,Open,High,Low,Close,Volume\n"
        "2021-01-04,10,11,10.6,10.5,500\n"
        "2021-01-04,10,11,9.5,10.5,1000\n"
        "2021-01-05,10,11,9.5,10.5,1000\n"
        "2021-01-04,11,12,10.5,11.5,2000\n"
    )
    rejected = []
    s = parse_index_csv(text, on_reject=rejected.append)
    assert [str(d) for d in s.dates] == ["2021-01-04", "2021-01-05"]
    assert s.volume.tolist() == [1000, 1000]
    assert [(r.line, r.reason) for r in rejected] == [(2, OHLC_ORDERING), (5, DUPLICATE_DATE)]
    assert rejected[1].content == "2021-01-04,11,12,10.5,11.5,2000"


def test_index_adj_close_column_ignored():
    text = (
        "Date,Open,High,Low,Close,Adj Close,Volume\n"
        "2021-01-04,10,11,9.5,10.5,9.99,1000\n"
    )
    s = parse_index_csv(text)
    assert s.close[0] == 10.5
    assert s.volume[0] == 1000


def test_index_headerless_positional():
    s = parse_index_csv("2021-01-04,10,11,9.5,10.5,1000\n")
    assert len(s) == 1 and s.high[0] == 11.0


@pytest.mark.parametrize(
    "header", ["", "Date,Open,High,Low,Close,Volume\n", "Date,Open,High,Low,Close,Adj Close,Volume\n"]
)
def test_index_volume_split_on_bare_separators_is_rejoined(header):
    adj = "10.4," if "Adj" in header else ""
    rejected, on_reject = collect()
    text = header + (
        f"2021-01-04,10,11,9.5,10.5,{adj}8,814,085\n"
        f"2021-01-05,11,12,10.5,11.5,{adj}2, 000\n"
        f"2021-01-06,11,12,10.5,11.5,{adj}2,00x\n"
        f"2021-01-07,11,12,10.5,11.5,{adj}3,000,,\n"
    )
    s = parse_index_csv(text, on_reject=on_reject)
    assert s.volume.tolist() == [8_814_085, 2_000]
    assert [(r.line, r.reason) for r in rejected] == [
        (3 + bool(header), FIELD_COUNT), (4 + bool(header), FIELD_COUNT)
    ]


def test_index_row_longer_than_the_header_is_a_field_count_reject():
    # volume is not the last column, so the extra fields cannot be rejoined
    rejected, on_reject = collect()
    text = (
        "Date,Open,High,Low,Close,Volume,Note\n"
        "2021-01-04,10,11,9.5,10.5,8,814,085\n"
        "2021-01-05,11,12,10.5,11.5,2000,x\n"
        "2021-01-06,11,12,10.5,11.5,3000\n"
    )
    s = parse_index_csv(text, on_reject=on_reject)
    assert s.volume.tolist() == [2000, 3000]
    assert [(r.line, r.reason) for r in rejected] == [(2, FIELD_COUNT)]


def test_index_malformed_date_rejected_reported():
    rejected, on_reject = collect()
    text = (
        "Date,Open,High,Low,Close,Volume\n"
        "04/01/2021,10,11,9.5,10.5,1000\n"
        "2021-01-05,11,12,10.5,11.5,2000\n"
        "2021-01-06,11,12,10.5,11.5,inf\n"
        "2021-01-07,11,12,10.5,11.5,1e30\n"
        "2021-01-08,nan,12,10.5,11.5,2000\n"
        "2021-01-11,11,inf,10.5,11.5,2000\n"
    )
    s = parse_index_csv(text, on_reject=on_reject)
    assert len(s) == 1
    assert [(r.line, r.reason) for r in rejected] == [
        (2, MALFORMED_DATE),
        (4, UNPARSEABLE_FIELD),
        (5, UNPARSEABLE_FIELD),
        (6, NONFINITE_PRICE),
        (7, NONFINITE_PRICE),
    ]


def test_index_date_is_only_the_extended_form():
    """``date.fromisoformat`` also reads the ISO basic and week forms; an
    index Date field must be YYYY-MM-DD."""
    rejected, on_reject = collect()
    text = "Date,Open,High,Low,Close,Volume\n" + "".join(
        f"{d},10,11,9.5,10.5,1000\n" for d in ("2021-01-04", "2021W012", "20210106", "2021-W01-1")
    )
    s = parse_index_csv(text, on_reject=on_reject)
    assert [str(d) for d in s.dates] == ["2021-01-04"]
    assert [(r.line, r.reason) for r in rejected] == [
        (3, MALFORMED_DATE), (4, MALFORMED_DATE), (5, MALFORMED_DATE)
    ]


def test_index_bad_ordering_row_rejected():
    rejected, on_reject = collect()
    text = (
        "2021-01-04,10,9.5,9.0,10.5,100\n"
        "2021-01-05,11,12,10.5,11.5,2000\n"
    )
    s = parse_index_csv(text, on_reject=on_reject)
    assert len(s) == 1
    assert [r.reason for r in rejected] == [OHLC_ORDERING]


def test_index_slice():
    text = "\n".join(
        f"2021-01-{4 + i:02d},10,11,9.5,10.5,100" for i in range(5)
    )
    s = parse_index_csv(text)
    cols = (s.dates, s.open, s.high, s.low, s.close, s.volume)
    sub = IndexSeries(s.name, *(c[1:4] for c in cols))
    assert len(sub) == 3
    assert str(sub.dates[0]) == "2021-01-05"
    with pytest.raises(ValueError, match="empty index series"):
        IndexSeries(s.name, *(c[3:3] for c in cols))


def test_index_series_constructor_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate date"):
        IndexSeries(
            "X",
            [date(2021, 1, 4), date(2021, 1, 4)],
            [10, 10], [11, 11], [9, 9], [10, 10], [1, 1],
        )
    with pytest.raises(ValueError, match=NONFINITE_PRICE):
        IndexSeries("X", [date(2021, 1, 4)], [10], [11], [9], [np.nan], [1])


def test_parsed_dates_equal_the_constructors():
    """``parse_index_csv`` converts dates through their ordinals; the
    public constructor through numpy.  Both give the same dates."""
    dates = [date(1, 1, 1), date(1969, 12, 31), date(2000, 2, 29), date(9999, 12, 31)]
    columns = ([10.0] * 4, [11.0] * 4, [9.0] * 4, [10.5] * 4, [100] * 4)
    parsed = parse_index_csv("".join(f"{d},10,11,9,10.5,100\n" for d in dates), "X")
    built = IndexSeries("X", dates, *columns)
    assert parsed.dates.dtype == built.dates.dtype
    assert parsed.dates.tolist() == built.dates.tolist() == dates
    assert parsed == built


# --- the cyclic collector during a parse ----------------------------------------

def test_wide_parses_run_next_to_no_collection():
    """A parse holds one chunk of ``_CHUNK_RECORDS`` records at a time, too
    few allocations to trigger the cyclic collector at its default
    thresholds: 10 parses of each 3,500-row clean file run at most 2
    collections (at 1,024 records per chunk they ran about 140)."""
    eod, index, _ = clean_files()
    collections = []

    def count(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    assert gc.isenabled()
    thresholds = gc.get_threshold()
    gc.set_threshold(700, 10, 10)
    gc.collect()
    gc.callbacks.append(count)
    try:
        for _ in range(10):
            parse_eod_file(eod, D)
            parse_index_csv(index)
    finally:
        gc.callbacks.remove(count)
        gc.set_threshold(*thresholds)
    assert len(collections) <= 2


INDEX_TEXT = "Date,Open,High,Low,Close,Volume\n2021-06-01,10,11,9,10.5,100\n"
PARSES = {
    "eod": lambda data, on_reject: parse_eod_file(data, D, on_reject=on_reject),
    "index": lambda data, on_reject: parse_index_csv(data, "X", on_reject=on_reject),
}
# Each parser's input with one rejected row, and one that it refuses outright.
GOOD = {"eod": table1_csv() + "BAD,1\n", "index": INDEX_TEXT + "2021-06-02,1\n"}
BAD = {"eod": "AA,10,9,9,10.5,200\n", "index": "Date,Open\n"}


@pytest.mark.parametrize("parser", PARSES)
def test_a_parse_leaves_a_paused_collector_paused(parser):
    """A parse leaves the collector's state as it found it, whether the
    parse succeeds or fails."""
    gc.disable()
    try:
        PARSES[parser](GOOD[parser], None)
        assert not gc.isenabled()
        with pytest.raises(ValueError):
            PARSES[parser](BAD[parser], None)
        assert not gc.isenabled()
    finally:
        gc.enable()
    rejected = []
    PARSES[parser](GOOD[parser], rejected.append)
    assert len(rejected) == 1
    assert gc.isenabled()
