"""End-of-day market data: columnar days and index series, and CSV ingestion.

Daily files carry one row per listed symbol (Symbol,Open,High,Low,Close,Volume);
index files carry one row per trading day (Date,Open,High,Low,Close[,AdjClose],
Volume).  Both parsers are tolerant of header rows, of a UTF-8 byte-order
mark and of thousands separators inside the volume field.  A parser reads a
file's csv records straight from its bytes, ``_CHUNK_RECORDS`` at a time,
and converts and judges each chunk before it reads the next, so what a
parse holds besides the rows it keeps does not grow with the file.  Within
a chunk, the row loop only splits rows and rejects those of the wrong shape;
``_Judged`` then reads each price and volume column in one pass (only a
field that fails takes the per-field rule), judges the columns with the one
rule set, ``_unusable_rows``, and keeps the usable rows, the first of each
symbol across chunks.  ``MarketDay`` and ``IndexSeries`` share one
constructor body in their ``_Bars`` base and differ only in their key
column; the public constructors check whatever they are given, while a
parser's judged columns are only sorted.  Every skipped row, including a
record the csv module cannot read, is reported through an ``on_reject``
callback, in line order once the whole file is read (and by
``read_eod_dir`` in date order, then line order), instead of failing the
whole file; a file that does not parse costs ``read_eod_dir`` only that
file, which it reports through an ``on_skip`` callback.
"""

from __future__ import annotations

import csv
import io
import itertools
import re
from dataclasses import dataclass
from datetime import date, datetime
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

# Reason codes for rows a parser cannot use.
NONFINITE_PRICE = "nonfinite-price"
NONPOSITIVE_PRICE = "nonpositive-price"
OHLC_ORDERING = "ohlc-ordering"
FIELD_COUNT = "field-count"
UNPARSEABLE_FIELD = "unparseable-field"
DUPLICATE_SYMBOL = "duplicate-symbol"
MALFORMED_DATE = "malformed-date"

# Not a rejection: the bar stays in the day but is excluded from trade-value
# weighting (nothing changed hands, so it carries no information).
ZERO_VOLUME = "zero-volume"

# Volumes are held as int64; a larger one is an unusable number.
_INT64_MAX = int(np.iinfo(np.int64).max)

# Records a parser reads, converts and judges at a time, so that what a parse
# holds besides the rows it keeps does not grow with the file.  A chunk stays
# below the young generation's 700-allocation threshold, so a parse runs next
# to no garbage collection.
_CHUNK_RECORDS = 256

# datetime64[D] counts days from 1970-01-01.
_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()

_EOD_NAME = re.compile(r"^(?P<market>.+)_(?P<date>\d{8})\.csv$")

OnReject = Callable[["RejectedRow"], None]
OnSkip = Callable[[str], None]

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
    field (the parsers store a volume past int64 as -1).  Zero volume is
    usable.  Only the rows some mask flags are labelled.
    """
    masks = {
        NONFINITE_PRICE: ~(np.isfinite(o) & np.isfinite(h) & np.isfinite(l) & np.isfinite(c)),
        NONPOSITIVE_PRICE: ~((o > 0.0) & (h > 0.0) & (l > 0.0) & (c > 0.0)),
        OHLC_ORDERING: (l > np.minimum(o, c)) | (h < np.maximum(o, c)),
        UNPARSEABLE_FIELD: volume < 0,
    }
    bad = np.flatnonzero(np.logical_or.reduce(list(masks.values())))
    return {i: next(code for code, mask in masks.items() if mask[i]) for i in bad.tolist()}


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
        vol = np.asarray(volume, dtype=np.int64)
        for col in (o, h, l, c, vol):
            if col.shape != keys.shape:
                raise ValueError("column lengths differ")
        for i, code in _unusable_rows(o, h, l, c, vol).items():  # the first one raises
            raise ValueError(
                f"{code} at {keys[i]}: open {o[i]}, high {h[i]}, low {l[i]}, "
                f"close {c[i]}, volume {vol[i]}"
            )
        return self._store(keys, duplicate, o, h, l, c, vol)

    def _store(
        self, keys: np.ndarray, duplicate: str | None, o: np.ndarray, h: np.ndarray,
        l: np.ndarray, c: np.ndarray, volume: np.ndarray,
    ) -> np.ndarray:
        """Store usable columns of one length in key order and return the
        sorted keys; with ``duplicate``, a repeated key raises ValueError
        ``<duplicate> <key>``."""
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        if duplicate is not None:
            repeated = np.flatnonzero(keys[1:] == keys[:-1])
            if repeated.size:
                raise ValueError(f"{duplicate} {keys[repeated[0]]}")
        self.open, self.high, self.low, self.close = o[order], h[order], l[order], c[order]
        self.volume = volume[order]
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
        symbols = np.asarray(symbols, dtype=str)
        if len(symbols) == 0:
            raise ValueError("empty market day")
        self.day = day
        self.symbols = self._set_columns(symbols, DUPLICATE_SYMBOL, open, high, low, close, volume)

    @classmethod
    def _parsed(cls, day: date, symbols: list[str], *columns: np.ndarray) -> MarketDay:
        """A day from ``parse_eod_file``'s judged OHLCV columns, whose symbols
        are unique: sorted once and not checked again."""
        self = cls.__new__(cls)
        self.day = day
        self.symbols = self._store(np.asarray(symbols, dtype=str), None, *columns)
        return self

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

    @classmethod
    def _parsed(cls, name: str, dates: list[date], *columns: np.ndarray) -> IndexSeries:
        """A series from ``parse_index_csv``'s judged OHLCV columns: sorted
        once, with only its dates checked for repeats.  The dates convert
        through their ordinals, far faster than ``np.asarray`` of ``date``
        objects."""
        self = cls.__new__(cls)
        self.name = name
        days = np.fromiter(map(date.toordinal, dates), np.int64, len(dates)) - _EPOCH_ORDINAL
        self.dates = self._store(days.astype("datetime64[D]"), "duplicate date", *columns)
        return self

    def __repr__(self) -> str:
        return f"IndexSeries({self.name!r}, {len(self)} days)"


def _strip_thousands(field: str) -> str:
    return field.replace(",", "").replace('"', "").strip()


def _split_row(row: list[str], n_fixed: int) -> list[str] | None:
    """Collapse a row whose trailing volume was split on embedded commas.

    ``n_fixed`` is the number of columns preceding volume; anything beyond the
    expected width is rejoined into the volume field when every part is
    digits, apart from surrounding whitespace.
    """
    if len(row) < n_fixed + 1:
        return None
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


def _check_utf8(data: str | bytes) -> None:
    """Raise the UnicodeDecodeError of decoding ``data`` whole, whose byte
    position counts from the start of the file, if it is not UTF-8."""
    if isinstance(data, bytes):
        data.decode("utf-8-sig")


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
    file, wherever in it the reader meets them.
    """
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
            except UnicodeDecodeError:
                _check_utf8(data)
                raise
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


def _volume_in_range(volume: int) -> int:
    """The volume, or -1 when int64 cannot hold it (the rules reject that later)."""
    return volume if 0 <= volume <= _INT64_MAX else -1


class _Judged:
    """The rows a parser has kept so far, and the rows it has rejected.

    Chunk by chunk, ``judge`` converts and judges the rows that reached
    conversion and keeps the usable ones: their keys, and their OHLCV values
    as one array part per chunk.  With ``unique_keys`` a key already kept
    makes a row a duplicate, across chunks.
    """

    def __init__(self, *, unique_keys: bool) -> None:
        self.keys: list = []
        self.rejected: list[RejectedRow] = []
        self._parts: list[list[np.ndarray]] = [[], [], [], [], []]
        self._seen: set | None = set() if unique_keys else None

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
        try:
            volume = np.array(columns[4], dtype=np.int64)
        except OverflowError:
            volume = np.array([_volume_in_range(v) for v in columns[4]], dtype=np.int64)
        faults = _unusable_rows(o, h, l, c, volume)
        faults.update(dict.fromkeys(unparseable, UNPARSEABLE_FIELD))
        kept: list[int] = []
        seen = self._seen
        for i, key in enumerate(keys):
            if i in faults:
                continue
            if seen is not None:
                if key in seen:
                    faults[i] = DUPLICATE_SYMBOL
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


def _transpose(rows: list[list[str]], width: int) -> list[Sequence[str]]:
    """The first ``width`` columns of rows that have at least that many fields."""
    return list(zip(*rows))[:width] if rows else [()] * width


def parse_eod_file(
    data: str | bytes,
    day: date,
    *,
    on_reject: OnReject | None = None,
) -> MarketDay:
    """Parse one daily Symbol,Open,High,Low,Close,Volume file.

    Records are read a chunk at a time.  In each chunk, the row loop only
    splits rows and rejects those of the wrong shape; the price and volume
    columns are then converted in one pass each.  Rows that cannot be used
    are skipped and reported through ``on_reject`` once the file is read;
    zero-volume rows are kept (they are flagged through
    ``MarketDay.tradable``).  Duplicate symbols keep the first usable
    occurrence.
    Raises ValueError when no usable row remains, or for bytes that are not
    UTF-8.
    """
    judged = _Judged(unique_keys=True)
    for offset, chunk in _record_chunks(data, judged.rejected):
        lines: list[int] = []
        symbols: list[str] = []
        rows: list[list[str]] = []
        for line_no, row in enumerate(chunk, start=offset + 1):
            symbol = row[0].strip() if row else ""
            if (line_no == 1 and symbol.lower() == "symbol") or (not symbol and _blank(row)):
                continue
            split = row if len(row) == 6 else _split_row(row, 5)
            if split is None:
                judged.rejected.append(RejectedRow(line_no, ",".join(row), FIELD_COUNT))
                continue
            if not symbol:
                judged.rejected.append(RejectedRow(line_no, ",".join(row), UNPARSEABLE_FIELD))
                continue
            lines.append(line_no)
            symbols.append(symbol)
            rows.append(split)
        judged.judge(offset, chunk, lines, symbols, _transpose(rows, 6)[1:], int)
    judged.deliver(on_reject)
    if not judged.keys:
        raise ValueError(f"no usable rows for {day.isoformat()}")
    return MarketDay._parsed(day, judged.keys, *judged.columns())


def eod_filename_date(name: str) -> tuple[str, date]:
    """Split ``<MARKET>_<YYYYMMDD>.csv`` into market name and date."""
    m = _EOD_NAME.match(name)
    if m is None:
        raise ValueError(f"not an EOD file name: {name}")
    try:
        d = datetime.strptime(m.group("date"), "%Y%m%d").date()
    except ValueError as exc:
        raise ValueError(f"bad date in file name: {name}") from exc
    return m.group("market"), d


def read_eod_file(
    path: str | Path,
    day: date | None = None,
    *,
    on_reject: OnReject | None = None,
) -> MarketDay:
    """Read one EOD file; the date comes from the file name unless given."""
    path = Path(path)
    if day is None:
        _, day = eod_filename_date(path.name)
    return parse_eod_file(path.read_bytes(), day, on_reject=on_reject)


def _dated_eod_files(paths: Iterable[Path]) -> list[tuple[date, Path]]:
    """The regular files among ``paths`` named ``<MARKET>_<YYYYMMDD>.csv``,
    with their dates, in date order; two files of one date are a ValueError."""
    dated: list[tuple[date, Path]] = []
    for p in paths:
        if not p.is_file():
            continue
        try:
            _, d = eod_filename_date(p.name)
        except ValueError:
            continue
        dated.append((d, p))
    dated.sort()
    for (d1, p1), (d2, p2) in zip(dated, dated[1:]):
        if d1 == d2:
            raise ValueError(f"duplicate date {d1.isoformat()}: {p1.name}, {p2.name}")
    return dated


def _eod_files(
    path: Path,
    threads: int = 1,
    on_reject: OnReject | None = None,
    on_skip: OnSkip | None = None,
) -> Iterator[MarketDay]:
    """Each ``<MARKET>_<YYYYMMDD>.csv`` in a directory, loaded in date order.

    Yields the ``MarketDay`` of each file that parses.  A file that does not
    (no usable row, or bytes that are not UTF-8) goes to ``on_skip`` as
    ``skipped <file>: <reason>``.  A file's rejects reach ``on_reject``, in
    line order, before its day or its skip.  Serially, a file is read only
    when the day before it has been taken, so a consumer that keeps no day
    holds one at a time; ``threads`` > 1 reads them all in a pool first.
    Raises ValueError when there is no EOD file, or once every file is read
    if none parsed.
    """
    dated = _dated_eod_files(path.iterdir())
    if not dated:
        raise ValueError(f"no EOD files in {path}")

    def load(item: tuple[date, Path]) -> tuple[MarketDay | str, list[RejectedRow]]:
        rejects: list[RejectedRow] = []
        try:
            return read_eod_file(item[1], item[0], on_reject=rejects.append), rejects
        except ValueError as exc:
            return f"skipped {item[1]}: {exc}", rejects

    loaded: Iterable[tuple[MarketDay | str, list[RejectedRow]]] = map(load, dated)
    if threads > 1 and len(dated) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=min(threads, len(dated))) as pool:
            loaded = list(pool.map(load, dated))
    usable = False
    for day, rejects in loaded:
        if on_reject is not None:
            for r in rejects:
                on_reject(r)
        if isinstance(day, str):
            if on_skip is not None:
                on_skip(day)
            continue
        usable = True
        yield day
    if not usable:
        raise ValueError(f"no usable EOD file in {path}")


def read_eod_dir(
    path: str | Path,
    *,
    threads: int = 1,
    on_reject: OnReject | None = None,
    on_skip: OnSkip | None = None,
) -> list[MarketDay]:
    """Read every ``<MARKET>_<YYYYMMDD>.csv`` in a directory, sorted by date.

    Files not matching the naming convention are ignored.  ``threads`` > 1
    parses files in a thread pool, which the GIL keeps from being faster; it
    is kept only for the benchmark's ``pool_speedup`` metric, and the CLI
    reads serially.  Results are assembled in date order either way.
    A file that does not parse (no usable row, or bytes that are not UTF-8)
    costs only itself: it is left out, and ``on_skip`` receives
    ``skipped <file>: <reason>``.  Skips reach ``on_skip`` in date order, and
    rejects reach ``on_reject`` in date order, then line order.  Raises
    ValueError when no file is left.
    """
    return list(_eod_files(Path(path), threads, on_reject, on_skip))


_INDEX_COLUMNS = {"date", "open", "high", "low", "close", "volume"}


def _parse_day(field: str) -> date:
    return date.fromisoformat(field.strip())


def parse_index_csv(
    data: str | bytes,
    name: str = "index",
    *,
    on_reject: OnReject | None = None,
) -> IndexSeries:
    """Parse a Date,Open,High,Low,Close[,AdjClose],Volume index file.

    Column order is taken from the header when present (any other column,
    such as an adjusted close, is ignored), otherwise assumed positional.  A
    row longer than the header (six columns without one) is a volume split on
    bare thousands separators when volume is the last column and every extra
    part is digits, and is rejoined as in ``parse_eod_file``; any other such
    row is a field-count reject.  Records are read a chunk at a time; in each
    chunk, dates are read row by row, prices and volumes a column at a time.
    Bad rows are skipped and reported; duplicate dates are an error.
    """
    judged = _Judged(unique_keys=False)
    col_of = {"date": 0, "open": 1, "high": 2, "low": 3, "close": 4, "volume": 5}
    start = 0
    n_columns = 6
    for offset, chunk in _record_chunks(data, judged.rejected):
        if offset == 0:
            header = [f.strip().lower() for f in chunk[0]]
            if "date" in header:
                col_of = {field: i for i, field in enumerate(header) if field in _INDEX_COLUMNS}
                missing = _INDEX_COLUMNS - col_of.keys()
                if missing:
                    _check_utf8(data)  # bytes that are not UTF-8 are the error first
                    raise ValueError(f"index header missing columns: {sorted(missing)}")
                start, n_columns = 1, len(chunk[0])
            width = max(col_of.values())
            volume_last = col_of["volume"] == n_columns - 1
        lines: list[int] = []
        rows: list[list[str]] = []
        days: list[date] = []
        skip = start if offset == 0 else 0
        for line_no, row in enumerate(chunk[skip:], start=offset + skip + 1):
            if _blank(row):
                continue
            split = row
            if len(row) > n_columns:  # a bare-thousands volume tail, or too many fields
                split = _split_row(row, n_columns - 1) if volume_last else None
            if split is None or len(split) <= width:
                judged.rejected.append(RejectedRow(line_no, ",".join(row), FIELD_COUNT))
                continue
            try:
                d = _parse_day(split[col_of["date"]])
            except ValueError:
                judged.rejected.append(RejectedRow(line_no, ",".join(row), MALFORMED_DATE))
                continue
            lines.append(line_no)
            rows.append(split)
            days.append(d)
        columns = _transpose(rows, width + 1)
        fields = [columns[col_of[k]] for k in ("open", "high", "low", "close", "volume")]
        judged.judge(offset, chunk, lines, days, fields, _index_volume)
    judged.deliver(on_reject)
    if not judged.keys:
        raise ValueError(f"no usable rows in index {name!r}")
    return IndexSeries._parsed(name, judged.keys, *judged.columns())


def read_index_csv(
    path: str | Path,
    name: str | None = None,
    *,
    on_reject: OnReject | None = None,
) -> IndexSeries:
    path = Path(path)
    return parse_index_csv(
        path.read_bytes(), name if name is not None else path.stem, on_reject=on_reject
    )
