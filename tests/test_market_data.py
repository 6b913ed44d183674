from __future__ import annotations

import csv
import gc
import warnings
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csie.market_data import (
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
)

from helpers import FIXTURE_DAY, table1_csv, to_eod_csv
from rowwise_ingest import _verdict
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


def test_read_eod_dir_sorted_and_filtered(tmp_path):
    for stamp in ("20210602", "20210601", "20210603"):
        (tmp_path / f"SYN_{stamp}.csv").write_text("AA,1,2,0.5,1.5,10\n")
    (tmp_path / "notes.txt").write_text("ignore me")
    days = read_eod_dir(tmp_path)
    assert [d.day.isoformat() for d in days] == [
        "2021-06-01", "2021-06-02", "2021-06-03",
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
def test_read_eod_dir_skips_a_file_it_cannot_parse(tmp_path, threads):
    good = "AA,1,2,0.5,1.5,10\n"
    (tmp_path / "SYN_20210601.csv").write_text(good)
    (tmp_path / "SYN_20210602.csv").write_text("AA,1,0.9,0.5,0.8,10\n")
    (tmp_path / "SYN_20210603.csv").write_bytes(good.encode() + b"\xff\n")
    (tmp_path / "SYN_20210604.csv").write_text(good)
    skips = [
        f"skipped {tmp_path / 'SYN_20210602.csv'}: no usable rows for 2021-06-02",
        f"skipped {tmp_path / 'SYN_20210603.csv'}: 'utf-8' codec can't decode byte 0xff "
        "in position 18: invalid start byte",
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


def test_read_eod_dir_empty_errors(tmp_path):
    with pytest.raises(ValueError, match="no EOD files"):
        read_eod_dir(tmp_path)


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


def test_index_duplicate_date_errors():
    text = (
        "Date,Open,High,Low,Close,Volume\n"
        "2021-01-04,10,11,9.5,10.5,1000\n"
        "2021-01-04,11,12,10.5,11.5,2000\n"
    )
    with pytest.raises(ValueError, match="duplicate date"):
        parse_index_csv(text)


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
    """``IndexSeries._parsed`` converts dates through their ordinals; the
    public constructor through numpy.  Both give the same dates."""
    dates = [date(1, 1, 1), date(1969, 12, 31), date(2000, 2, 29), date(9999, 12, 31)]
    columns = ([10.0] * 4, [11.0] * 4, [9.0] * 4, [10.5] * 4, [100] * 4)
    parsed = IndexSeries._parsed("X", dates, *(np.array(c) for c in columns))
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
