"""Fuzzing the readers of outside input with arbitrary and mutated bytes.

Whatever bytes they are given, ``parse_eod_file``, ``parse_index_csv`` and
``load_config_file`` raise nothing but ``ValueError``, and an EOD parse
accounts for every csv record: each is accepted, rejected, blank or the
header row.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

import rowwise_ingest
from csie.cli import load_config_file
from csie.market_data import parse_eod_file, parse_index_csv

from helpers import FIXTURE_DAY, table1_csv

VALID_INDEX = (
    "Date,Open,High,Low,Close,Adj Close,Volume\n"
    "2022-01-20,4482.0,4498.6,4449.1,4452.3,4452.3,\"2,030,121,000\"\n"
    "2022-01-21,4471.38,4494.52,4395.34,4397.94,4397.94,2030121000\n"
)
VALID_CONFIG = "# run\nwindows = 5,10\nintervals = 30,all\nalpha = 1.34\nabs = true\n"

# Bytes that change how a csv record or a field is read.
SPECIAL = st.sampled_from(
    [b",", b'"', b"\n", b"\r", b"\r\n", b" ", b"\t", b"=", b"#", b"\x00", b"\xff",
     b"\xef\xbb\xbf", b"nan", b"-", b"1,000", b"99999999999999999999", b"Symbol", b"Date"]
)
BYTE_EDITS = st.lists(
    st.tuples(
        st.integers(0, 10**6),
        st.sampled_from(["insert", "replace", "delete"]),
        st.one_of(SPECIAL, st.binary(min_size=1, max_size=4)),
    ),
    min_size=1,
    max_size=6,
)
# Whole fields that a parser must reject or read with care.
FIELDS = st.sampled_from(
    ["", " ", "x", "nan", "inf", "-inf", "1e400", "-1", "0", "1e3", "2.5", "1,000", '"1,000"',
     '"', "\r", "\n", "Symbol", "Date", "2022-02-30", "99999999999999999999", "\ufeff"]
)
FIELD_EDITS = st.lists(
    st.tuples(st.integers(0, 10**6), st.integers(0, 10**6), FIELDS), min_size=1, max_size=6
)


def edit_bytes(data: bytes, edits) -> bytes:
    """``data`` after each (position, operation, bytes) edit in turn."""
    for pos, op, chunk in edits:
        at = pos % (len(data) + 1)
        if op == "insert":
            data = data[:at] + chunk + data[at:]
        elif op == "replace":
            data = data[:at] + chunk + data[at + len(chunk):]
        else:
            data = data[:at] + data[at + len(chunk):]
    return data


def edit_fields(text: str, edits) -> bytes:
    """``text`` with each (line, field, value) edit setting one comma-separated
    field, or adding one past the end of the line."""
    rows = [line.split(",") for line in text.split("\n")]
    for line, field, value in edits:
        row = rows[line % len(rows)]
        at = field % (len(row) + 1)
        row[at:at + 1] = [value]
    return "\n".join(",".join(row) for row in rows).encode()


def inputs(valid: str) -> st.SearchStrategy[bytes]:
    """Arbitrary bytes, or the valid text with a few byte or field edits."""
    return st.one_of(
        st.binary(max_size=300),
        BYTE_EDITS.map(lambda e: edit_bytes(valid.encode(), e)),
        FIELD_EDITS.map(lambda e: edit_fields(valid, e)),
    )


@settings(max_examples=200, deadline=None)
@given(inputs(table1_csv()))
def test_eod_parser_raises_only_value_error_and_accounts_for_every_record(data):
    rejected = []
    try:
        accepted = len(parse_eod_file(data, FIXTURE_DAY, on_reject=rejected.append))
    except ValueError:
        accepted = 0
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError:
        return  # the parser refuses such bytes as a whole
    records = [fields for _, fields, _ in rowwise_ingest._records(text)]
    blank = sum(fields is not None and not "".join(fields).strip() for fields in records)
    header = bool(records and records[0] and records[0][0].strip().lower() == "symbol")
    assert accepted + len(rejected) + blank + header == len(records)


@settings(max_examples=200, deadline=None)
@given(inputs(VALID_INDEX))
def test_index_parser_raises_only_value_error(data):
    try:
        parse_index_csv(data, "X")
    except ValueError:
        pass


@settings(max_examples=100, deadline=None)
@given(inputs(VALID_CONFIG))
def test_config_reader_raises_only_value_error(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("cfg") / "run.cfg"
    path.write_bytes(data)
    try:
        load_config_file(path)
    except ValueError:
        pass
