"""Differential test: the columnar parsers against the row-wise reference."""

from __future__ import annotations

from datetime import date

from hypothesis import given, settings
from hypothesis import strategies as st

import rowwise_ingest
from csie.market_data import parse_eod_file, parse_index_csv

from helpers import FIXTURE_DAY

PRICE_FIELDS = st.one_of(
    st.floats(0.5, 200.0).map(repr),
    st.sampled_from(
        ["1", "0", "-1", "-0.0", "nan", "inf", "-inf", "oops", "", " 2 ", "1_0", '"1,000.5"', "2,5"]
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
         "1.5", "abc", "", "1e3"]
    ),
)
INDEX_VOLUME_FIELDS = st.one_of(
    VOLUME_FIELDS, st.sampled_from(["1e30", "inf", "nan", "-0.5", "1000.7", "-1e3"])
)
SYMBOLS = st.sampled_from(["A", "B", "C", "AA", " A ", "", "symbol"])
BLANK = st.sampled_from(["", "  ", ",,,,,"])


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


def file_text(draw, header: str | None, rows: st.SearchStrategy[str]) -> str:
    lines = draw(st.lists(rows, max_size=12))
    if header is not None:
        lines.insert(0, header)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


@st.composite
def eod_files(draw) -> str:
    header = draw(st.sampled_from([None, "Symbol,Open,High,Low,Close,Volume", "symbol,o,h,l,c,v"]))
    return file_text(draw, header, rows_of(SYMBOLS, VOLUME_FIELDS))


INDEX_DATES = st.one_of(
    st.dates(date(2021, 1, 4), date(2021, 2, 26)).map(date.isoformat),
    st.sampled_from(["04/01/2021", "2021-13-01", "", "date"]),
)


@st.composite
def index_files(draw) -> str:
    header = draw(
        st.sampled_from(
            [
                None,
                "Date,Open,High,Low,Close,Volume",
                "Date,Open,High,Low,Close,Adj Close,Volume",
                "date,open,high,low,close",
            ]
        )
    )
    adj_close = header is not None and "Adj Close" in header
    return file_text(draw, header, rows_of(INDEX_DATES, INDEX_VOLUME_FIELDS, adj_close))


def outcome(parse, text: str, *args):
    rejected = []
    try:
        result = parse(text, *args, on_reject=rejected.append)
    except ValueError as exc:
        result = f"ValueError: {exc}"
    return result, rejected


@settings(max_examples=300, deadline=None)
@given(eod_files())
def test_eod_parser_matches_rowwise_reference(text):
    got = outcome(parse_eod_file, text, FIXTURE_DAY)
    assert got == outcome(rowwise_ingest.parse_eod_file, text, FIXTURE_DAY)


@settings(max_examples=300, deadline=None)
@given(index_files())
def test_index_parser_matches_rowwise_reference(text):
    got = outcome(parse_index_csv, text, "X")
    assert got == outcome(rowwise_ingest.parse_index_csv, text, "X")
