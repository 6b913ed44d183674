"""End-of-day market data: columnar days and index series, and CSV ingestion.

Daily files carry one row per listed symbol (Symbol,Open,High,Low,Close,Volume);
index files carry one row per trading day (Date,Open,High,Low,Close[,AdjClose],
Volume).  Both parsers read their rows with one reader, ``_read_rows``,
which differs between the formats only in the key column's name and rule,
the reason codes of a bad and of a repeated key, and the volume rule.  A
first record that names the key column (``symbol`` or ``date``) is a
header: each column is read from the position its name holds, any other
column is ignored, and a header that lacks a column or names one twice
refuses the file.  The reader is tolerant of a UTF-8 byte-order mark and of
thousands separators inside the volume field.  It refuses bytes that are
not UTF-8 before it reads a record (a file of ASCII bytes needs no check),
then decodes the file's csv records straight from its bytes,
``_CHUNK_RECORDS`` at a time, and converts and judges each chunk before it
reads the next, so what a parse holds besides the rows it keeps does not
grow with the file.  Within
a chunk, the row loop only splits rows and rejects those of the wrong shape
or with a bad key; ``_Judged`` then reads each price and volume column in
one pass (only a field that fails takes the per-field rule), judges the
columns with the one rule set, ``_unusable_rows``, and keeps the usable
rows, the first of each symbol or date across chunks.
``MarketDay`` and ``IndexSeries`` share one constructor body in their
``_Bars`` base and differ only in their key column; every day and series,
whether given or parsed, is built and checked by its public constructor.
Every skipped row, including a record the csv module cannot read, is
reported through an ``on_reject`` callback, in line order once the whole
file is read (and by ``read_eod_dir`` in date order, then line order),
instead of failing the whole file.  A market directory is read by one path,
``_eod_files``, for ``read_eod_dir`` and the CLI alike: it dates each listed
name once, reads each EOD file's bytes once, in date order and in one
thread, and hands them with their date to a reader (``parse_eod_file``, or
the result cache of ``cross_section``).  A file whose name has no valid
date, or that its reader cannot use, costs only itself, and is reported
through an ``on_skip`` callback.  ``read_eod_file`` and ``read_eod_dir``
always parse, and create, change or delete no file.
"""

from __future__ import annotations

import csv
import io
import itertools
import os
import re
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from ._util import int64_volumes

# Reason codes for rows a parser cannot use.
NONFINITE_PRICE = "nonfinite-price"
NONPOSITIVE_PRICE = "nonpositive-price"
OHLC_ORDERING = "ohlc-ordering"
FIELD_COUNT = "field-count"
UNPARSEABLE_FIELD = "unparseable-field"
DUPLICATE_SYMBOL = "duplicate-symbol"
DUPLICATE_DATE = "duplicate-date"
MALFORMED_DATE = "malformed-date"
# The reasons of EOD rejects; a cache entry stores a reject's reason as its index here.
EOD_REASONS = (NONFINITE_PRICE, NONPOSITIVE_PRICE, OHLC_ORDERING, FIELD_COUNT,
               UNPARSEABLE_FIELD, DUPLICATE_SYMBOL)

# Not a rejection: the bar stays in the day but is excluded from trade-value
# weighting (nothing changed hands, so it carries no information).
ZERO_VOLUME = "zero-volume"

# A day's symbols are one numpy string array as wide as the longest: longer is unusable.
_MAX_SYMBOL_CHARS = 64

# Records a parser reads, converts and judges at a time, so that what a parse
# holds besides the rows it keeps does not grow with the file.  A chunk stays
# below the young generation's 700-allocation threshold, so a parse runs next
# to no garbage collection.
_CHUNK_RECORDS = 256

# datetime64[D] counts days from 1970-01-01.
_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()

_EOD_NAME = re.compile(r"(?P<market>.+)_(?P<date>\d{8})\.csv")

OnReject = Callable[["RejectedRow"], None]
OnSkip = Callable[[str], None]
_T = TypeVar("_T")

_Prices = Sequence[float] | np.ndarray

@dataclass(frozen=True, slots=True)
class DailyBar:
    """One symbol's OHLCV for one day."""

    symbol: str
    open: float
    high: float
    low: float
    close: float
    volume: int


@dataclass(frozen=True, slots=True)
class RejectedRow:
    """A source row that was skipped, with the 1-based line it came from."""

    line: int
    content: str
    reason: str


def _unusable_rows(
    o: np.ndarray, h: np.ndarray, l: np.ndarray, c: np.ndarray, volume: np.ndarray
) -> dict[int, str]:
    """The reason code of each row that cannot be used, keyed by position, in row order.

    The first code that applies wins: a nonfinite price, a nonpositive
    price, OHLC ordering, then a negative volume, which is an unparseable
    field (``int64_volumes`` makes -1 of a volume past int64, with a
    fraction or NaN).  Zero volume is usable.  Only the rows some mask
    flags are labelled.
    """
    masks = {
        NONFINITE_PRICE: ~(np.isfinite(o) & np.isfinite(h) & np.isfinite(l) & np.isfinite(c)),
        NONPOSITIVE_PRICE: ~((o > 0.0) & (h > 0.0) & (l > 0.0) & (c > 0.0)),
        OHLC_ORDERING: (l > np.minimum(o, c)) | (h < np.maximum(o, c)),
        UNPARSEABLE_FIELD: volume < 0,
    }
    bad = np.flatnonzero(np.logical_or.reduce(list(masks.values())))
    return {i: next(code for code, mask in masks.items() if mask[i]) for i in bad.tolist()}


def _usable_symbol_length(n: int | np.ndarray) -> bool | np.ndarray:
    """Whether a symbol of ``n`` characters (an int, or elementwise an array) is usable."""
    return (n > 0) & (n <= _MAX_SYMBOL_CHARS)


def _symbol_array(symbols: Sequence[str] | np.ndarray) -> np.ndarray:
    """``symbols`` as one numpy string array (one given is not copied), each
    length checked before an array as wide as the longest is built."""
    if isinstance(symbols, np.ndarray) and symbols.dtype.kind == "U":
        lengths = np.char.str_len(symbols)
    else:
        symbols = [s.rstrip("\x00") for s in symbols]  # what numpy would store
        lengths = np.array([len(s) for s in symbols], dtype=np.int64)
    bad = np.flatnonzero(~_usable_symbol_length(lengths))
    if bad.size:
        raise ValueError(f"{UNPARSEABLE_FIELD} at symbol {bad[0]} in the order given: "
                         f"{lengths[bad[0]]} characters, not 1 to {_MAX_SYMBOL_CHARS}")
    return np.asarray(symbols, dtype=str)


class _Bars:
    """Daily OHLCV bars held as columns in ascending order of their keys."""

    __slots__ = ("open", "high", "low", "close", "volume")

    def _set_columns(
        self, keys: np.ndarray, duplicate: str, open: _Prices, high: _Prices, low: _Prices,
        close: _Prices, volume: Sequence[int] | np.ndarray,
    ) -> np.ndarray:
        """Check the columns, store them in key order and return the sorted keys.

        Raises ValueError when the lengths differ, with the reason code of
        the first unusable row in the order given, or ``<duplicate> <key>``
        for a repeated key.
        """
        o, h, l, c = (np.asarray(col, dtype=float) for col in (open, high, low, close))
        vol = int64_volumes(volume)
        for col in (o, h, l, c, vol):
            if col.shape != keys.shape:
                raise ValueError("column lengths differ")
        for i, code in _unusable_rows(o, h, l, c, vol).items():  # the first one raises
            raise ValueError(
                f"{code} at {keys[i]}: open {o[i]}, high {h[i]}, low {l[i]}, "
                f"close {c[i]}, volume {vol[i]}"
            )
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        repeated = np.flatnonzero(keys[1:] == keys[:-1])
        if repeated.size:
            raise ValueError(f"{duplicate} {keys[repeated[0]]}")
        self.open, self.high, self.low, self.close = o[order], h[order], l[order], c[order]
        self.volume = vol[order]
        return keys

    def __len__(self) -> int:
        return len(self.open)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, slot), getattr(other, slot))
            for slot in (*type(self).__slots__, *_Bars.__slots__)
        )


class MarketDay(_Bars):
    """All accepted bars for one trading day, held as columns.

    Symbols are stored in ascending order regardless of source order, so any
    computation that runs over the columns is independent of file layout.
    """

    __slots__ = ("day", "symbols")

    def __init__(
        self, day: date, symbols: Sequence[str] | np.ndarray, open: _Prices, high: _Prices,
        low: _Prices, close: _Prices, volume: Sequence[int] | np.ndarray,
    ) -> None:
        symbols = _symbol_array(symbols)
        if len(symbols) == 0:
            raise ValueError("empty market day")
        self.day = day
        self.symbols = self._set_columns(symbols, DUPLICATE_SYMBOL, open, high, low, close, volume)

    def __repr__(self) -> str:
        return f"MarketDay({self.day.isoformat()}, {len(self)} symbols)"

    @property
    def tradable(self) -> np.ndarray:
        """Boolean mask of bars with volume > 0."""
        return self.volume > 0

    @property
    def n_tradable(self) -> int:
        return int(self.tradable.sum())

    def _bar(self, i: int) -> DailyBar:
        prices = (float(col[i]) for col in (self.open, self.high, self.low, self.close))
        return DailyBar(str(self.symbols[i]), *prices, int(self.volume[i]))

    def bars(self) -> Iterator[DailyBar]:
        return map(self._bar, range(len(self)))

    def bar(self, symbol: str) -> DailyBar:
        i = int(np.searchsorted(self.symbols, symbol))
        if i >= len(self) or self.symbols[i] != symbol:
            raise KeyError(symbol)
        return self._bar(i)


class IndexSeries(_Bars):
    """An index's daily bars in strictly increasing date order."""

    __slots__ = ("name", "dates")

    def __init__(
        self, name: str, dates: Sequence[date] | np.ndarray, open: _Prices, high: _Prices,
        low: _Prices, close: _Prices, volume: Sequence[int] | np.ndarray,
    ) -> None:
        dates = np.asarray(dates, dtype="datetime64[D]")
        if len(dates) == 0:
            raise ValueError("empty index series")
        self.name = name
        self.dates = self._set_columns(dates, "duplicate date", open, high, low, close, volume)

    def __repr__(self) -> str:
        return f"IndexSeries({self.name!r}, {len(self)} days)"


def _strip_thousands(field: str) -> str:
    return field.replace(",", "").replace('"', "").strip()


def _split_row(row: list[str], n_fixed: int) -> list[str] | None:
    """Collapse a row whose trailing volume was split on embedded commas.

    ``row`` has more than ``n_fixed + 1`` fields, ``n_fixed`` being the
    number of columns preceding volume; anything beyond that width is
    rejoined into the volume field when every part is digits, apart from
    surrounding whitespace.
    """
    tail = row[n_fixed:]
    joined = "".join(tail)
    if all(tail) and joined.isdigit():  # no part empty or with whitespace: one test
        return row[:n_fixed] + [joined]
    if not all(part.strip().isdigit() for part in tail):
        return None
    return row[:n_fixed] + ["".join(p.strip() for p in tail)]


def _lines(data: str | bytes) -> io.TextIOBase:
    """The lines of ``data``, split on ``\\n`` alone and not translated; bytes
    are decoded as they are read, as UTF-8 with or without a byte-order mark."""
    if isinstance(data, str):
        return io.StringIO(data)
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline="\n")


def _record_chunks(
    data: str | bytes, rejected: list[RejectedRow]
) -> Iterator[tuple[int, list[list[str]]]]:
    """The csv records of ``data`` in order, ``_CHUNK_RECORDS`` at a time.

    Yields ``(offset, chunk)``: record ``j`` of the chunk is the file's
    record ``offset + j``, line ``offset + j + 1``.  A record the csv module
    cannot read (a bare carriage return inside an unquoted field, or a field
    longer than ``csv.field_size_limit()``) is an unparseable-field reject
    holding the physical line where reading stopped.  It stands in its chunk
    as an empty, that is blank, row, and reading resumes on the next physical
    line.  Bytes that are not UTF-8 raise the error of decoding the whole
    file before any record is read.
    """
    if isinstance(data, bytes) and not data.isascii():
        data.decode("utf-8-sig")  # an ASCII file, the common one, is not decoded twice
    reader = csv.reader(_lines(data))
    physical: Iterator[str] | None = None  # read again only to quote a refused record
    quoted = 0  # lines taken from ``physical``
    offset = 0
    more = True
    while more:
        chunk: list[list[str]] = []
        while more and len(chunk) < _CHUNK_RECORDS:
            try:
                # extend keeps the records read before a raise
                chunk.extend(itertools.islice(reader, _CHUNK_RECORDS - len(chunk)))
                more = len(chunk) == _CHUNK_RECORDS
            except csv.Error:
                if physical is None:
                    physical = _lines(data)
                line = next(itertools.islice(physical, reader.line_num - 1 - quoted, None))
                quoted = reader.line_num
                chunk.append([])
                rejected.append(
                    RejectedRow(offset + len(chunk), line.rstrip("\r\n"), UNPARSEABLE_FIELD)
                )
        if chunk:
            yield offset, chunk
        offset += len(chunk)


def _blank(row: list[str]) -> bool:
    return not "".join(row).strip()


def _index_volume(field: str) -> int:
    """An index volume; one written as a float (``1e3``) loses its fraction."""
    return int(float(field))


def _convert(fields: Sequence[str], convert: Callable[[str], float]) -> tuple[list, list[int]]:
    """``convert`` applied to one column, and the positions it cannot read.

    The column goes through ``convert`` in one pass.  Only a field that
    raises takes the per-field rule: it is converted again with thousands
    separators, quotes and surrounding whitespace stripped, and if that
    raises too it is unparseable and holds 0.  The pass then resumes after
    it; ``list.extend`` keeps what it appended before a raise, so the length
    of ``values`` is the position of the field that raised.
    """
    values: list = []
    failed: list[int] = []
    rest = iter(fields)
    while True:
        try:
            values.extend(map(convert, rest))
            return values, failed
        except (ValueError, OverflowError):
            i = len(values)
        try:
            values.append(convert(_strip_thousands(fields[i])))
        except (ValueError, OverflowError):
            values.append(0)
            failed.append(i)


class _Judged:
    """The rows a parser has kept so far, and the rows it has rejected.

    Chunk by chunk, ``judge`` converts and judges the rows that reached
    conversion and keeps the usable ones: their keys, and their OHLCV values
    as one array part per chunk.  A usable row whose key is already kept is
    a ``duplicate`` reject, across chunks.
    """

    def __init__(self, duplicate: str) -> None:
        self.keys: list = []
        self.rejected: list[RejectedRow] = []
        self._parts: list[list[np.ndarray]] = [[], [], [], [], []]
        self._duplicate = duplicate
        self._seen: set = set()

    def judge(
        self, offset: int, chunk: list[list[str]], lines: list[int], keys: list,
        fields: list[Sequence[str]], to_volume: Callable[[str], int],
    ) -> None:
        """Convert one chunk's price and volume columns and apply the OHLCV rules.

        ``fields`` holds the open, high, low, close and volume field columns
        of the chunk's rows that reached conversion: row ``i`` came from line
        ``lines[i]``, whose fields are ``chunk[lines[i] - offset - 1]``, and
        has key ``keys[i]``.  Through ``_convert``, prices are read with
        ``float`` and volumes, their commas removed, with ``to_volume``.  A
        row with a field that cannot be read is unparseable; the others are
        judged by ``_unusable_rows``.
        """
        columns = []
        unparseable: set[int] = set()
        opens, highs, lows, closes, volumes = fields
        for column, convert in zip(
            (opens, highs, lows, closes, [v.replace(",", "") for v in volumes]),
            (float, float, float, float, to_volume),
        ):
            values, failed = _convert(column, convert)
            columns.append(values)
            unparseable.update(failed)
        o, h, l, c = (np.array(col, dtype=float) for col in columns[:4])
        volume = int64_volumes(columns[4])
        faults = _unusable_rows(o, h, l, c, volume)
        faults.update(dict.fromkeys(unparseable, UNPARSEABLE_FIELD))
        kept: list[int] = []
        seen = self._seen
        for i, key in enumerate(keys):
            if i in faults:
                continue
            if key in seen:
                faults[i] = self._duplicate
                continue
            seen.add(key)
            kept.append(i)
        self.rejected.extend(
            RejectedRow(lines[i], ",".join(chunk[lines[i] - offset - 1]), fault)
            for i, fault in faults.items()
        )
        self.keys.extend([keys[i] for i in kept])
        take = np.array(kept, dtype=np.intp)
        for part, col in zip(self._parts, (o, h, l, c, volume)):
            part.append(col[take])

    def columns(self) -> list[np.ndarray]:
        """The kept rows' open, high, low, close and volume columns."""
        return [np.concatenate(part) for part in self._parts]

    def deliver(self, on_reject: OnReject | None) -> None:
        """Report every reject through ``on_reject``, in line order."""
        if on_reject is not None:
            for r in sorted(self.rejected, key=lambda r: r.line):
                on_reject(r)


def _symbol(field: str) -> str:
    """A symbol field's key, its surrounding whitespace stripped: the field
    without trailing NULs, which numpy's strings do not hold; ValueError
    when that leaves it empty or longer than ``_MAX_SYMBOL_CHARS``."""
    symbol = field.rstrip("\x00")
    if not _usable_symbol_length(len(symbol)):
        raise ValueError(field)
    return symbol


def _parse_day(field: str) -> date:
    """A date field's key, its surrounding whitespace stripped."""
    # fromisoformat alone also reads 20210106 and 2021-W01-1
    if len(field) != 10 or field[4] != "-" or field[7] != "-":
        raise ValueError(f"not a YYYY-MM-DD date: {field!r}")
    return date.fromisoformat(field)


# The columns after a file's key column, in the order a headerless file holds them.
_OHLCV = ("open", "high", "low", "close", "volume")


def _read_rows(
    data: str | bytes, on_reject: OnReject | None, kind: str, key: str,
    key_of: Callable[[str], object], bad_key: str, duplicate: str, to_volume: Callable[[str], int],
) -> _Judged:
    """The usable rows of a ``kind`` file (``EOD`` or ``index``), once every
    reject has reached ``on_reject`` in line order.

    ``key_of`` reads the ``key`` column's field, stripped, and raises
    ValueError for a ``bad_key`` reject; a later usable row of a kept key is
    a ``duplicate`` reject; ``to_volume`` reads a volume field without its
    commas.  The first record is a header when a field of it names the key
    column: each column is then read where its name stands, any other column
    is ignored, a header that lacks one of the six names raises
    ``<kind> header missing columns: [...]`` and one that names one twice
    ``<kind> header repeats columns: [...]``.  Without a header the key
    comes first, then ``_OHLCV``.  A row longer than the header (six fields
    without one) is rejoined when volume is the last column and every extra
    part is digits; any other such row, or one too short for every column,
    is a field-count reject.
    """
    judged = _Judged(duplicate)
    columns = (key, *_OHLCV)
    col_of = {name: i for i, name in enumerate(columns)}
    n_columns = len(columns)
    for offset, chunk in _record_chunks(data, judged.rejected):
        if offset == 0:
            header = [f.strip().lower() for f in chunk[0]]
            if key in header:
                col_of = {field: i for i, field in enumerate(header) if field in columns}
                missing = set(columns) - col_of.keys()
                if missing:
                    raise ValueError(f"{kind} header missing columns: {sorted(missing)}")
                repeated = sorted({f for f in header if f in columns and header.count(f) > 1})
                if repeated:
                    raise ValueError(f"{kind} header repeats columns: {repeated}")
                n_columns = len(chunk[0])
                chunk[0] = []  # the header, read, stands in its chunk as a blank row
            k = col_of[key]
            width = max(col_of.values())
            volume_last = col_of["volume"] == n_columns - 1
        lines: list[int] = []
        rows: list[list[str]] = []
        keys: list = []
        for line_no, row in enumerate(chunk, start=offset + 1):
            field = row[k].strip() if len(row) > k else ""
            if not field and _blank(row):
                continue
            split = row
            if len(row) > n_columns:  # a bare-thousands volume tail, or too many fields
                split = _split_row(row, n_columns - 1) if volume_last else None
            if split is None or len(split) <= width:
                judged.rejected.append(RejectedRow(line_no, ",".join(row), FIELD_COUNT))
                continue
            try:
                keys.append(key_of(field))  # a split keeps the fields before volume
            except ValueError:
                judged.rejected.append(RejectedRow(line_no, ",".join(row), bad_key))
                continue
            lines.append(line_no)
            rows.append(split)
        fields = list(zip(*rows)) or [()] * n_columns
        judged.judge(offset, chunk, lines, keys, [fields[col_of[c]] for c in _OHLCV], to_volume)
    judged.deliver(on_reject)
    return judged


def parse_eod_file(
    data: str | bytes,
    day: date,
    *,
    on_reject: OnReject | None = None,
) -> MarketDay:
    """Parse one daily Symbol,Open,High,Low,Close,Volume file.

    Rows are read by ``_read_rows``: column order is taken from the header
    when its first record names a ``symbol`` column (any other column, such
    as a date, is ignored), otherwise assumed positional.  Rows that cannot
    be used are skipped and reported through ``on_reject`` once the file is
    read; zero-volume rows are kept (they are flagged through
    ``MarketDay.tradable``).  A symbol is its field without surrounding
    whitespace or trailing NULs, which numpy's strings do not hold; one left
    empty or longer than ``_MAX_SYMBOL_CHARS`` is unparseable.  Duplicate
    symbols keep the first usable occurrence.
    Raises ValueError for a header that lacks a column (``EOD header missing
    columns: [...]``) or names one twice (``EOD header repeats columns:
    [...]``), when no usable row remains, or for bytes that are not UTF-8.
    """
    judged = _read_rows(data, on_reject, "EOD", "symbol", _symbol, UNPARSEABLE_FIELD,
                        DUPLICATE_SYMBOL, int)
    if not judged.keys:
        raise ValueError(f"no usable rows for {day.isoformat()}")
    return MarketDay(day, np.asarray(judged.keys, dtype=str), *judged.columns())


class _NotAnEodName(ValueError):
    """A file name not of the ``<MARKET>_<YYYYMMDD>.csv`` shape."""


def eod_filename_date(name: str) -> tuple[str, date]:
    """Split ``<MARKET>_<YYYYMMDD>.csv`` into market name and date."""
    m = _EOD_NAME.fullmatch(name)
    if m is None:
        raise _NotAnEodName(f"not an EOD file name: {name}")
    stamp = m.group("date")  # eight digits, but ``\d`` also matches those of other scripts
    try:
        if not stamp.isascii():
            raise ValueError(stamp)
        d = date(int(stamp[:4]), int(stamp[4:6]), int(stamp[6:]))
    except ValueError as exc:
        raise ValueError(f"bad date in file name: {name}") from exc
    return m.group("market"), d


def read_eod_file(path: str | Path, *, on_reject: OnReject | None = None) -> MarketDay:
    """Parse one EOD file, dated by its ``<MARKET>_<YYYYMMDD>.csv`` name."""
    path = Path(path)
    _, day = eod_filename_date(path.name)
    return parse_eod_file(path.read_bytes(), day, on_reject=on_reject)


def _dated_eod_files(
    paths: Iterable[Path], on_skip: OnSkip | None = None
) -> list[tuple[date, Path]]:
    """The regular files among ``paths`` named ``<MARKET>_<YYYYMMDD>.csv``,
    with their dates, in date order; two files of one date are a ValueError.
    Each name is dated once, by ``eod_filename_date``.  A file of that shape
    whose eight digits are no date goes to ``on_skip`` as ``skipped <file>:
    bad date in file name: <name>``, in name order."""
    dated: list[tuple[date, Path]] = []
    undated: list[str] = []
    for p in paths:
        try:
            d = eod_filename_date(p.name)[1]
        except _NotAnEodName:
            continue
        except ValueError as exc:
            if p.is_file():
                undated.append(f"skipped {p}: {exc}")
            continue
        if p.is_file():
            dated.append((d, p))
    if on_skip is not None:
        for message in sorted(undated):
            on_skip(message)
    dated.sort()
    for (d1, p1), (d2, p2) in zip(dated, dated[1:]):
        if d1 == d2:
            raise ValueError(f"duplicate date {d1.isoformat()}: {p1.name}, {p2.name}")
    return dated


def _eod_files(
    path: Path,
    read: Callable[..., _T],
    on_reject: OnReject | None = None,
    on_skip: OnSkip | None = None,
) -> Iterator[_T]:
    """``read(data, day, on_reject=on_reject)`` of each
    ``<MARKET>_<YYYYMMDD>.csv`` in a directory, in date order, one file at a
    time: ``data`` is the file's bytes, read once here, and ``day`` the date
    ``_dated_eod_files`` gave its name.  A file is read only when the result
    before it has been taken.

    This is the one place where a listed file meets its outcome: a file
    that ``read`` raises OSError or ValueError for (no usable row, bytes
    that are not UTF-8, a read error, or a day the caller refuses) goes to
    ``on_skip`` as ``skipped <file>: <reason>``, in date order after the
    skips of names with no valid date.  A file's rejects reach
    ``on_reject`` as ``read`` delivers them, before its result or its skip.
    Raises ValueError when there is no EOD file, or once every file is read
    if none was usable.
    """
    dated = _dated_eod_files(path.iterdir(), on_skip)
    if not dated:
        raise ValueError(f"no EOD files in {path}")
    usable = False
    for day, file in dated:
        try:
            result = read(file.read_bytes(), day, on_reject=on_reject)
        except (OSError, ValueError) as exc:
            if on_skip is not None:
                on_skip(f"skipped {file}: {exc}")
            continue
        usable = True
        yield result
    if not usable:
        raise ValueError(f"no usable EOD file in {path}")


def read_eod_dir(
    path: str | Path,
    *,
    threads: int = 1,
    on_reject: OnReject | None = None,
    on_skip: OnSkip | None = None,
) -> list[MarketDay]:
    """Parse every ``<MARKET>_<YYYYMMDD>.csv`` in a directory, sorted by date.

    Files not matching the naming convention are ignored, and files are
    read one at a time: ``_eod_files`` reads each file's bytes and hands
    them to ``parse_eod_file`` with the date of its name.  ``threads`` is
    accepted and ignored, as the CLI ignores ``CSIE_THREADS``; it stays only
    while the benchmark harness passes it.
    A file whose name has no valid date, or that does not parse (no usable
    row, bytes that are not UTF-8, or a read error), costs only itself: it
    is left out, and ``on_skip`` receives ``skipped <file>: <reason>``.
    Skips reach ``on_skip`` in date order after those of bad names, and
    rejects reach ``on_reject`` in date order, then line order.  Raises
    ValueError when no file is left.
    """
    return list(_eod_files(Path(path), parse_eod_file, on_reject, on_skip))


def parse_index_csv(
    data: str | bytes,
    name: str = "index",
    *,
    on_reject: OnReject | None = None,
) -> IndexSeries:
    """Parse a Date,Open,High,Low,Close[,AdjClose],Volume index file.

    Rows are read by ``_read_rows``, as in ``parse_eod_file``: column order
    is taken from the header when its first record names a ``date`` column
    (any other column, such as an adjusted close, is ignored), otherwise
    assumed positional, and a header that lacks a column or names one twice
    is a ValueError (``index header missing columns: [...]``, ``index header
    repeats columns: [...]``).  Bad rows are skipped and reported; a date
    that is not YYYY-MM-DD is a malformed-date reject, and a repeated date
    keeps the first usable row of that date, the others being
    duplicate-date rejects.
    """
    judged = _read_rows(data, on_reject, "index", "date", _parse_day, MALFORMED_DATE,
                        DUPLICATE_DATE, _index_volume)
    if not judged.keys:
        raise ValueError(f"no usable rows in index {name!r}")
    # through the ordinals, far faster than ``np.asarray`` of ``date`` objects
    days = np.fromiter(map(date.toordinal, judged.keys), np.int64, len(judged.keys))
    dates = (days - _EPOCH_ORDINAL).astype("datetime64[D]")
    return IndexSeries(name, dates, *judged.columns())


def read_index_csv(path: str | Path, *, on_reject: OnReject | None = None) -> IndexSeries:
    """Read one index file; the series is named after the file's stem, read
    as UTF-8 whatever the locale (a byte that is not UTF-8 reads as U+FFFD)."""
    path = Path(path)
    name = os.fsencode(path.stem).decode("utf-8", "replace")
    return parse_index_csv(path.read_bytes(), name, on_reject=on_reject)
