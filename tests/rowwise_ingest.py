"""Row-wise reference parsers: the ingest path before it went columnar.

Each row is converted and judged on its own, as the package did before its
parsers judged whole columns in one call.  ``test_ingest_oracle`` requires the
package's parsers to give the same ``MarketDay``/``IndexSeries`` (or the same
``ValueError`` message) and the same rejected rows as these.  Only the row
objects the package no longer has are inlined here; the constructors and the
reason codes are the package's own.

An index row longer than its header (six columns without one) has its
bare-thousands volume tail rejoined when volume is the last column, and is a
field-count reject otherwise.

Bytes are decoded as UTF-8 with an optional byte-order mark.  A csv record
the csv module cannot read (a bare carriage return in an unquoted field, a
field past the csv field size limit) is an ``unparseable-field`` reject whose
content is the physical line where reading stopped; the next record starts
on the following line.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from datetime import date

import numpy as np

from csie.market_data import (
    DUPLICATE_SYMBOL,
    FIELD_COUNT,
    MALFORMED_DATE,
    NONFINITE_PRICE,
    NONPOSITIVE_PRICE,
    OHLC_ORDERING,
    UNPARSEABLE_FIELD,
    ZERO_VOLUME,
    IndexSeries,
    MarketDay,
    OnReject,
    RejectedRow,
)

_INT64_MAX = int(np.iinfo(np.int64).max)


@dataclass(frozen=True, slots=True)
class DailyBar:
    symbol: str
    open: float
    high: float
    low: float
    close: float
    volume: int


def _verdict(o: float, h: float, l: float, c: float, volume: int) -> str | None:
    if not all(map(np.isfinite, (o, h, l, c))):
        return NONFINITE_PRICE
    if min(o, h, l, c) <= 0.0:
        return NONPOSITIVE_PRICE
    if l > min(o, c) or h < max(o, c):
        return OHLC_ORDERING
    if not 0 <= volume <= _INT64_MAX:
        return UNPARSEABLE_FIELD
    if volume == 0:
        return ZERO_VOLUME
    return None


def validate_bar(bar: DailyBar) -> str | None:
    return _verdict(bar.open, bar.high, bar.low, bar.close, bar.volume)


def _strip_thousands(field: str) -> str:
    return field.replace(",", "").replace('"', "").strip()


def _split_row(row: list[str], n_fixed: int) -> list[str] | None:
    if len(row) < n_fixed + 1:
        return None
    if len(row) == n_fixed + 1:
        return row
    tail = row[n_fixed:]
    if not all(part.strip().isdigit() for part in tail):
        return None
    return row[:n_fixed] + ["".join(p.strip() for p in tail)]


def _records(text: str):
    """(record number, fields or None, content) for each csv record."""
    physical = io.StringIO(text).readlines()
    reader = csv.reader(io.StringIO(text))
    number = 0
    while True:
        number += 1
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error:
            yield number, None, physical[reader.line_num - 1].rstrip("\r\n")
        else:
            yield number, row, ",".join(row)


def parse_eod_file(
    data: str | bytes,
    day: date,
    *,
    on_reject: OnReject | None = None,
) -> MarketDay:
    if isinstance(data, bytes):
        data = data.decode("utf-8-sig")

    def reject(line: int, content: str, reason: str) -> None:
        if on_reject is not None:
            on_reject(RejectedRow(line, content, reason))

    bars: list[DailyBar] = []
    seen: set[str] = set()
    for line_no, row, raw in _records(data):
        if row is None:
            reject(line_no, raw, UNPARSEABLE_FIELD)
            continue
        if not row or all(not f.strip() for f in row):
            continue
        if line_no == 1 and row[0].strip().lower() == "symbol":
            continue
        row = _split_row(row, 5)
        if row is None:
            reject(line_no, raw, FIELD_COUNT)
            continue
        symbol = row[0].strip()
        try:
            o, h, l, c = (float(_strip_thousands(f)) for f in row[1:5])
            volume = int(_strip_thousands(row[5]))
        except ValueError:
            reject(line_no, raw, UNPARSEABLE_FIELD)
            continue
        if not symbol:
            reject(line_no, raw, UNPARSEABLE_FIELD)
            continue
        bar = DailyBar(symbol, o, h, l, c, volume)
        verdict = validate_bar(bar)
        if verdict not in (None, ZERO_VOLUME):
            reject(line_no, raw, verdict)
            continue
        if symbol in seen:
            reject(line_no, raw, DUPLICATE_SYMBOL)
            continue
        seen.add(symbol)
        bars.append(bar)
    if not bars:
        raise ValueError(f"no usable rows for {day.isoformat()}")
    return MarketDay(
        day,
        [b.symbol for b in bars],
        [b.open for b in bars],
        [b.high for b in bars],
        [b.low for b in bars],
        [b.close for b in bars],
        [b.volume for b in bars],
    )


_INDEX_COLUMNS = {"date", "open", "high", "low", "close", "volume"}
_ADJ_CLOSE = {"adjclose", "adj close", "adj_close", "adj.close"}


def _parse_day(field: str) -> date:
    return date.fromisoformat(field.strip())


def parse_index_csv(
    data: str | bytes,
    name: str = "index",
    *,
    on_reject: OnReject | None = None,
) -> IndexSeries:
    if isinstance(data, bytes):
        data = data.decode("utf-8-sig")

    def reject(line: int, content: str, reason: str) -> None:
        if on_reject is not None:
            on_reject(RejectedRow(line, content, reason))

    rows = list(_records(data))
    col_of = {"date": 0, "open": 1, "high": 2, "low": 3, "close": 4, "volume": 5}
    start = 0
    if rows and rows[0][1] is not None:
        header = [f.strip().lower() for f in rows[0][1]]
        if "date" in header:
            col_of = {}
            for i, field in enumerate(header):
                if field in _INDEX_COLUMNS:
                    col_of[field] = i
                elif field in _ADJ_CLOSE:
                    continue
            missing = _INDEX_COLUMNS - col_of.keys()
            if missing:
                raise ValueError(f"index header missing columns: {sorted(missing)}")
            start = 1

    days: list[date] = []
    cols: dict[str, list[float]] = {k: [] for k in ("open", "high", "low", "close")}
    volumes: list[int] = []
    width = max(col_of.values())
    n_columns = len(rows[0][1]) if start else 6
    for line_no, row, raw in rows[start:]:
        if row is None:
            reject(line_no, raw, UNPARSEABLE_FIELD)
            continue
        if not row or all(not f.strip() for f in row):
            continue
        if len(row) > n_columns:
            # only a volume in the last column can have been split on separators
            row = _split_row(row, n_columns - 1) if col_of["volume"] == n_columns - 1 else None
        if row is None or len(row) <= width:
            reject(line_no, raw, FIELD_COUNT)
            continue
        try:
            d = _parse_day(row[col_of["date"]])
        except ValueError:
            reject(line_no, raw, MALFORMED_DATE)
            continue
        try:
            o, h, l, c = (
                float(_strip_thousands(row[col_of[k]]))
                for k in ("open", "high", "low", "close")
            )
            volume = int(float(_strip_thousands(row[col_of["volume"]])))
        except (ValueError, OverflowError):
            reject(line_no, raw, UNPARSEABLE_FIELD)
            continue
        verdict = _verdict(o, h, l, c, volume)
        if verdict not in (None, ZERO_VOLUME):
            reject(line_no, raw, verdict)
            continue
        days.append(d)
        cols["open"].append(o)
        cols["high"].append(h)
        cols["low"].append(l)
        cols["close"].append(c)
        volumes.append(volume)
    if not days:
        raise ValueError(f"no usable rows in index {name!r}")
    return IndexSeries(
        name, days, cols["open"], cols["high"], cols["low"], cols["close"], volumes
    )
