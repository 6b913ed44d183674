"""Differential test: the columnar parsers against the row-wise reference."""

from __future__ import annotations

import csv
import gc
import tracemalloc
from datetime import date, timedelta
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import csie.market_data as md
import rowwise_ingest
from csie.market_data import parse_eod_file, parse_index_csv

from helpers import FIXTURE_DAY

# Past csv.field_size_limit(), so the csv module refuses the record.
LONG_FIELD = "7" * (csv.field_size_limit() + 1)

PRICE_FIELDS = st.one_of(
    st.floats(0.5, 200.0).map(repr),
    st.sampled_from(
        ["1", "0", "-1", "-0.0", "nan", "inf", "-inf", "oops", "", " 2 ", "1_0", '"1,000.5"', "2,5",
         '"1\n5"', '"2,5"', "B\rC", LONG_FIELD]
    ),
)
# Thousands separators both quoted and bare (a bare one splits the row into
# more fields), plus volumes that are negative, past int64 or not integers.
VOLUME_FIELDS = st.one_of(
    st.integers(0, 10**7).map(str),
    st.integers(1000, 10**9).map(lambda v: f"{v:,}"),
    st.integers(1000, 10**9).map(lambda v: f'"{v:,}"'),
    st.sampled_from(
        ["0", "-5", "99999999999999999999", "9223372036854775807", "9223372036854775808",
         "1.5", "abc", "", "1e3", "1, 234", "+1,234", "1,,234", "\u0661,234", "1234,",
         '" 1,234 "', '"12\n34"', "12\r34"]
    ),
)
INDEX_VOLUME_FIELDS = st.one_of(
    VOLUME_FIELDS, st.sampled_from(["1e30", "inf", "nan", "-0.5", "1000.7", "-1e3"])
)
SYMBOLS = st.sampled_from(
    ["A", "B", "C", "AA", " A ", "", "symbol", '"A,B"', '"A\nB"', "A\rB", "A\x00", "\x00"]
)
BLANK = st.sampled_from(["", "  ", ",,,,,", " , ,,\t, , "])


@st.composite
def valid_prices(draw) -> list[str]:
    o = draw(st.floats(1.0, 100.0))
    c = draw(st.floats(1.0, 100.0))
    up, down = draw(st.floats(1.0, 1.1)), draw(st.floats(1.0, 1.1))
    return [repr(o), repr(max(o, c) * up), repr(min(o, c) / down), repr(c)]


def rows_of(key, volume, adj_close: bool = False) -> st.SearchStrategy[str]:
    """Data rows: well formed, random fields, two faults at once, a wrong width."""
    adj = ["9.5"] if adj_close else []
    return st.one_of(
        st.tuples(key, valid_prices(), volume).map(lambda r: ",".join([r[0], *r[1], *adj, r[2]])),
        st.tuples(key, st.lists(PRICE_FIELDS, min_size=4, max_size=4), volume).map(
            lambda r: ",".join([r[0], *r[1], *adj, r[2]])
        ),
        st.tuples(key, valid_prices()).map(
            lambda r: ",".join([r[0], "-" + r[1][0], *r[1][1:], *adj, "99999999999999999999"])
        ),
        st.lists(PRICE_FIELDS, min_size=1, max_size=8).map(",".join),
        BLANK,
    )


def file_bytes(draw, header: str | None, rows: st.SearchStrategy[str]) -> bytes:
    """The file as bytes: sometimes with a UTF-8 byte-order mark, and
    sometimes with a byte that is not UTF-8."""
    lines = draw(st.lists(rows, max_size=12))
    if header is not None:
        lines.insert(0, header)
    lines[:0] = draw(st.lists(BLANK, max_size=2))  # the header is the first non-blank record
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(lines) + draw(st.sampled_from(["", newline]))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return (bom + text).encode() + draw(st.sampled_from([b""] * 7 + [b"\xff"]))


@st.composite
def eod_files(draw) -> bytes:
    """An EOD file without a header or with one: the standard one, one that
    lacks every price and volume name (the file is refused), one that lists
    Close before Open, one with a column the parsers ignore, or one that
    names Close twice (the file is refused)."""
    header = draw(
        st.sampled_from(
            [
                None,
                "Symbol,Open,High,Low,Close,Volume",
                "symbol,o,h,l,c,v",
                "Symbol,Close,High,Low,Open,Volume",
                "Symbol,Open,High,Low,Close,Adj Close,Volume",
                "Symbol,Open,High,Low,Close,Volume,Close",
            ]
        )
    )
    adj_close = header is not None and "Adj Close" in header
    return file_bytes(draw, header, rows_of(SYMBOLS, VOLUME_FIELDS, adj_close))


INDEX_DATES = st.one_of(
    st.dates(date(2021, 1, 4), date(2021, 2, 26)).map(date.isoformat),
    st.sampled_from(["04/01/2021", "2021-13-01", "", "date"]),
)


@st.composite
def index_files(draw) -> bytes:
    header = draw(
        st.sampled_from(
            [
                None,
                "Date,Open,High,Low,Close,Volume",
                "Date,Open,High,Low,Close,Adj Close,Volume",
                "Date,Open,High,Low,Close,Volume,Note",
                "date,open,high,low,close",
                "Date,Open,High,Low,Close,Volume, close",
            ]
        )
    )
    adj_close = header is not None and "Adj Close" in header
    return file_bytes(draw, header, rows_of(INDEX_DATES, INDEX_VOLUME_FIELDS, adj_close))


def outcome(parse, data: bytes, *args):
    rejected = []
    try:
        result = parse(data, *args, on_reject=rejected.append)
    except ValueError as exc:
        result = f"ValueError: {exc}"
    return result, rejected


@settings(max_examples=300, deadline=None)
@given(eod_files())
def test_eod_parser_matches_rowwise_reference(data):
    got = outcome(parse_eod_file, data, FIXTURE_DAY)
    assert got == outcome(rowwise_ingest.parse_eod_file, data, FIXTURE_DAY)


@settings(max_examples=300, deadline=None)
@given(index_files())
def test_index_parser_matches_rowwise_reference(data):
    got = outcome(parse_index_csv, data, "X")
    assert got == outcome(rowwise_ingest.parse_index_csv, data, "X")


# Chunk sizes that put every kind of record on each side of a chunk boundary.
SMALL_CHUNKS = [1, 2, 3]


@pytest.mark.parametrize("chunk", SMALL_CHUNKS)
@settings(max_examples=30, deadline=None)
@given(eod_files())
def test_eod_parser_matches_rowwise_reference_in_small_chunks(chunk, data):
    with mock.patch.object(md, "_CHUNK_RECORDS", chunk):
        got = outcome(parse_eod_file, data, FIXTURE_DAY)
    assert got == outcome(rowwise_ingest.parse_eod_file, data, FIXTURE_DAY)


@pytest.mark.parametrize("chunk", SMALL_CHUNKS)
@settings(max_examples=30, deadline=None)
@given(index_files())
def test_index_parser_matches_rowwise_reference_in_small_chunks(chunk, data):
    with mock.patch.object(md, "_CHUNK_RECORDS", chunk):
        got = outcome(parse_index_csv, data, "X")
    assert got == outcome(rowwise_ingest.parse_index_csv, data, "X")


# Records whose handling spans records: after the header (or none) and a
# number of filler rows, so that each lands on either side of a boundary.
EOD_RECORDS = [
    "A,10,9,9,10.5,100",  # an unusable A: the later usable one is kept
    '"B\nC",10,11,9,10.5,200',  # one record on two physical lines
    "D\rE,10,11,9,10.5,300",  # refused by the csv module, quoted from its physical line
    "A,10,11,9,10.5,400",
    "A,10,11,9,10.5,500",  # a duplicate symbol
    "symbol,10,11,9,10.5,600",  # a header only on line 1
    "G\rH,10,11,9,10.5,700",  # a second refused record, further down
]
INDEX_RECORDS = [
    "2021-01-04,10,9,9,10.5,100",
    '"2021-01-05\n",10,11,9,10.5,200',
    "2021-01-06\r,10,11,9,10.5,300",
    "2021-01-07,10,11,9,10.5,400",
    "2021-01-08\r,10,11,9,10.5,500",
]


def boundary_file(header: str, records: list[str], filler: list[str]) -> bytes:
    return "\n".join(([header] if header else []) + filler + records).encode()


@pytest.mark.parametrize("chunk", SMALL_CHUNKS)
@pytest.mark.parametrize("n_filler", range(4))
@pytest.mark.parametrize("header", ["Symbol,Open,High,Low,Close,Volume", ""])
def test_eod_records_across_a_chunk_boundary(chunk, n_filler, header):
    filler = [f"S{i},10,11,9,10.5,1" for i in range(n_filler)]
    data = boundary_file(header, EOD_RECORDS, filler)
    with mock.patch.object(md, "_CHUNK_RECORDS", chunk):
        got = outcome(parse_eod_file, data, FIXTURE_DAY)
    assert got == outcome(rowwise_ingest.parse_eod_file, data, FIXTURE_DAY)
    day, rejected = got
    assert day.symbols.tolist() == ["A", "B\nC", *(f"S{i}" for i in range(n_filler)), "symbol"]
    assert day.bar("A").volume == 400
    assert [r.reason for r in rejected] == [
        md.OHLC_ORDERING, md.UNPARSEABLE_FIELD, md.DUPLICATE_SYMBOL, md.UNPARSEABLE_FIELD
    ]
    assert [rejected[1].content, rejected[3].content] == [
        "D\rE,10,11,9,10.5,300", "G\rH,10,11,9,10.5,700"
    ]


@pytest.mark.parametrize("chunk", SMALL_CHUNKS)
@pytest.mark.parametrize("n_filler", range(4))
@pytest.mark.parametrize("header", ["Date,Open,High,Low,Close,Volume", ""])
@pytest.mark.parametrize("repeat", [False, True])
def test_index_records_across_a_chunk_boundary(chunk, n_filler, header, repeat):
    filler = [f"2020-12-{i + 1:02d},10,11,9,10.5,1" for i in range(n_filler)]
    records = INDEX_RECORDS + ["2021-01-05,10,11,9,10.5,600"] * repeat
    data = boundary_file(header, records, filler)
    with mock.patch.object(md, "_CHUNK_RECORDS", chunk):
        got = outcome(parse_index_csv, data, "X")
    assert got == outcome(rowwise_ingest.parse_index_csv, data, "X")
    series, rejected = got
    assert len(series) == n_filler + 2
    assert series.volume[n_filler] == 200  # the first 2021-01-05 row
    assert [r.reason for r in rejected] == [
        md.OHLC_ORDERING, md.UNPARSEABLE_FIELD, md.UNPARSEABLE_FIELD,
        *[md.DUPLICATE_DATE] * repeat,
    ]
    assert rejected[2].content == "2021-01-08\r,10,11,9,10.5,500"


@pytest.mark.parametrize("parse, data", [
    (lambda data, **kw: parse_eod_file(data, FIXTURE_DAY, **kw), b"AA,10,11,9,10.5,100\n" * 3000),
    # the missing volume column is not the error: the bytes are
    (parse_index_csv, b"Date,Open,High,Low,Close\n" + b"2021-01-04,10,11,9,10.5\n" * 3000),
    # nor is a record the csv module refuses
    (lambda data, **kw: parse_eod_file(data, FIXTURE_DAY, **kw),
     b"A\rB,10,11,9,10.5,100\n" + b"AA,10,11,9,10.5,100\n" * 3000),
], ids=["eod", "index-header", "eod-refused-record"])
def test_bytes_that_are_not_utf8_deep_in_a_file(parse, data):
    """Past the first chunks read, a byte that is not UTF-8 is still the
    file's error, at its position in the whole file, and no reject of the
    rows before it is delivered."""
    rejected = []
    with pytest.raises(UnicodeDecodeError, match=f"in position {len(data)}: invalid start byte"):
        parse(data + b"\xff", on_reject=rejected.append)
    assert rejected == []


def clean_files(n: int = 3500) -> tuple[bytes, bytes, list[int]]:
    """An EOD file and an index file of ``n`` usable rows each, whose volumes
    are spelled plain, with bare and with quoted thousands separators, and
    those volumes."""
    rng = np.random.default_rng(7)
    o = rng.uniform(1.0, 100.0, n)
    c = o * rng.uniform(0.95, 1.05, n)
    o, h, l, c = (x.tolist() for x in (o, np.maximum(o, c) * 1.01, np.minimum(o, c) / 1.01, c))
    volumes = rng.integers(0, 10**8, n).tolist()
    spellings = (lambda v: str(v), lambda v: f"{v:,}", lambda v: f'"{v:,}"')
    eod = "Symbol,Open,High,Low,Close,Volume\n" + "".join(
        f"S{i:04d},{o[i]!r},{h[i]!r},{l[i]!r},{c[i]!r},{spellings[i % 3](volumes[i])}\n"
        for i in range(n)
    )
    index = "Date,Open,High,Low,Close,Volume\n" + "".join(
        f"{date(2000, 1, 1) + timedelta(days=i)},{o[i]!r},{h[i]!r},{l[i]!r},{c[i]!r},"
        f"{spellings[i % 3](volumes[i])}\n"
        for i in range(n)
    )
    return eod.encode(), index.encode(), volumes


def test_clean_files_take_no_per_field_conversion(monkeypatch):
    """A clean file's columns each convert in one pass: the per-field rule,
    the only caller of ``_strip_thousands``, never runs."""
    calls = []
    strip = md._strip_thousands
    monkeypatch.setattr(md, "_strip_thousands", lambda f: calls.append(f) or strip(f))
    eod, index, volumes = clean_files()
    day = parse_eod_file(eod, FIXTURE_DAY)
    assert len(day) == len(volumes) and day.volume.tolist() == volumes
    assert parse_index_csv(index).volume.tolist() == volumes
    assert calls == []


def test_a_wide_file_parses_in_bounded_memory():
    """A parse holds one chunk of records at a time: on a 3,500-row file of
    about 300 KB, its traced peak stays under 1.5 MB (the whole-file parse
    it replaced peaked at about 3.7 MB)."""
    eod, _, _ = clean_files()
    parse_eod_file(eod, FIXTURE_DAY)  # imports and caches outside the trace
    tracemalloc.start()
    try:
        parse_eod_file(eod, FIXTURE_DAY)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5e6


@pytest.mark.parametrize("parse", [
    lambda eod, index: parse_eod_file(eod, FIXTURE_DAY),
    lambda eod, index: parse_index_csv(index),
], ids=["eod", "index"])
def test_a_chunk_starts_below_the_young_collection_threshold(monkeypatch, parse):
    """The reader drops a chunk's rows before it reads the next: with the
    collector off, the tracked objects a parse holds at each chunk's start
    stay below the young generation's threshold of 700, and exceed those at
    the first chunk's start by less than one chunk's records (holding the
    chunk before too took about 380 more)."""
    eod, index, _ = clean_files()
    counts = []
    chunks = md._record_chunks

    def counted(data, rejected):
        for item in chunks(data, rejected):
            counts.append(gc.get_count()[0])
            yield item

    monkeypatch.setattr(md, "_record_chunks", counted)
    parse(eod, index)  # imports and caches outside the count
    counts.clear()
    gc.collect()
    gc.disable()
    try:
        parse(eod, index)
    finally:
        gc.enable()
    assert len(counts) == 14 and max(counts) < 700, counts
    assert max(counts) - counts[0] < md._CHUNK_RECORDS, counts
