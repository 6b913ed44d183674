"""End-of-day market data: columnar days and index series, and CSV ingestion.

Daily files carry one row per listed symbol (Symbol,Open,High,Low,Close,Volume);
index files carry one row per trading day (Date,Open,High,Low,Close[,AdjClose],
Volume).  Both parsers are tolerant of header rows, of a UTF-8 byte-order
mark and of thousands separators inside the volume field.  The row loop of a
parser only splits rows and rejects those of the wrong shape; ``_convert``
then reads each price and volume column in one pass, and only a field that
fails takes the per-field rule.  One rule set, ``_unusable_rows``, judges
the columns of a whole parsed file in one call and whatever a constructor
is given; ``MarketDay`` and ``IndexSeries`` share one constructor body in
their ``_Bars`` base and differ only in their key column.  Every skipped
row, including a record the csv module cannot read, is reported through an
``on_reject`` callback, in line order (and by ``read_eod_dir`` in date
order, then line order), instead of failing the whole file; a file that
does not parse costs ``read_eod_dir`` only that file.  Both parsers run with
the cyclic garbage collector paused: a parse makes no reference cycles, so
a collection during one finds nothing to free.
"""

from __future__ import annotations

import csv
import functools
import gc
import io
import re
import warnings
from dataclasses import dataclass
from datetime import date, datetime
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

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

_EOD_NAME = re.compile(r"^(?P<market>.+)_(?P<date>\d{8})\.csv$")

OnReject = Callable[["RejectedRow"], None]

_Prices = Sequence[float] | np.ndarray

_Parsed = TypeVar("_Parsed")


def _collector_paused(parse: Callable[..., _Parsed]) -> Callable[..., _Parsed]:
    """``parse`` run with the cyclic garbage collector paused.

    A parse builds one list per csv record and frees them all by reference
    counting, yet the allocations trigger hundreds of collections per
    directory of wide files, each walking the heap for nothing.  The
    collector is re-enabled afterwards only if it was enabled on entry, so a
    caller that paused it finds it paused still.
    """

    @functools.wraps(parse)
    def paused(*args, **kwargs) -> _Parsed:
        enabled = gc.isenabled()
        gc.disable()
        try:
            return parse(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused


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
        """Store the columns in key order and return the sorted keys.

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
        symbols = np.asarray(symbols, dtype=str)
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

    ``n_fixed`` is the number of columns preceding volume; anything beyond the
    expected width is rejoined into the volume field when every part is
    digits, apart from surrounding whitespace.
    """
    if len(row) < n_fixed + 1:
        return None
    if len(row) == n_fixed + 1:
        return row
    tail = row[n_fixed:]
    joined = "".join(tail)
    if all(tail) and joined.isdigit():  # no part empty or with whitespace: one test
        return row[:n_fixed] + [joined]
    if not all(part.strip().isdigit() for part in tail):
        return None
    return row[:n_fixed] + ["".join(p.strip() for p in tail)]


def _decode(data: str | bytes) -> str:
    """Text as given; bytes are UTF-8, with or without a byte-order mark."""
    return data.decode("utf-8-sig") if isinstance(data, bytes) else data


def _records(text: str, rejected: list[RejectedRow]) -> list[list[str]]:
    """The csv records of ``text`` in order; record ``i`` is line ``i + 1``.

    A record the csv module cannot read (a bare carriage return inside an
    unquoted field, or a field longer than ``csv.field_size_limit()``) is an
    unparseable-field reject holding the physical line where reading
    stopped.  It stands in the list as an empty, that is blank, row, and
    reading resumes on the next physical line.
    """
    reader = csv.reader(io.StringIO(text))
    records: list[list[str]] = []
    physical: list[str] | None = None
    while True:
        try:
            for row in reader:
                records.append(row)
            return records
        except csv.Error:
            if physical is None:
                physical = io.StringIO(text).readlines()
            content = physical[reader.line_num - 1].rstrip("\r\n")
            records.append([])
            rejected.append(RejectedRow(len(records), content, UNPARSEABLE_FIELD))


def _blank(row: list[str]) -> bool:
    return not "".join(row).strip()


def _without_commas(fields: Sequence[str]) -> list[str]:
    """The fields with every comma removed, by one replace over the column
    joined on newlines; a field holding a newline makes the split miscount,
    and then each field is replaced on its own."""
    parts = "\n".join(fields).replace(",", "").split("\n")
    return parts if len(parts) == len(fields) else [f.replace(",", "") for f in fields]


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


def _judge(
    lines: list[int], records: list[list[str]], keys: list, fields: list[Sequence[str]],
    to_volume: Callable[[str], int], rejected: list[RejectedRow],
    on_reject: OnReject | None, *, unique_keys: bool,
) -> tuple[list, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Convert a file's price and volume columns and apply the OHLCV rules.

    ``fields`` holds the open, high, low, close and volume field columns of
    the rows that reached conversion: row ``i`` came from line ``lines[i]``,
    whose fields are ``records[lines[i] - 1]``, and has key ``keys[i]``.
    ``rejected`` holds the rows rejected before conversion.  Through
    ``_convert``, prices are read with ``float`` and volumes, their commas
    removed, with ``to_volume``.  A row with a field that cannot be read is
    unparseable; the others are judged by ``_unusable_rows``.  With
    ``unique_keys`` a key already kept makes a row a duplicate.  Delivers
    every reject in line order and returns the kept rows' keys and columns.
    """
    columns = []
    unparseable: set[int] = set()
    opens, highs, lows, closes, volumes = fields
    for column, convert in zip(
        (opens, highs, lows, closes, _without_commas(volumes)),
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
    seen = set()
    for i, key in enumerate(keys):
        if i in faults:
            continue
        if unique_keys and key in seen:
            faults[i] = DUPLICATE_SYMBOL
        else:
            seen.add(key)
            kept.append(i)
    rejected.extend(
        RejectedRow(lines[i], ",".join(records[lines[i] - 1]), fault)
        for i, fault in faults.items()
    )
    if on_reject is not None:
        for r in sorted(rejected, key=lambda r: r.line):
            on_reject(r)
    take = np.array(kept, dtype=np.intp)
    return [keys[i] for i in kept], o[take], h[take], l[take], c[take], volume[take]


def _transpose(rows: list[list[str]], width: int) -> list[Sequence[str]]:
    """The first ``width`` columns of rows that have at least that many fields."""
    return list(zip(*rows))[:width] if rows else [()] * width


@_collector_paused
def parse_eod_file(
    data: str | bytes,
    day: date,
    *,
    on_reject: OnReject | None = None,
) -> MarketDay:
    """Parse one daily Symbol,Open,High,Low,Close,Volume file.

    The row loop only splits rows and rejects those of the wrong shape; the
    price and volume columns are then converted in one pass each.  Rows
    that cannot be used are skipped and reported through ``on_reject``;
    zero-volume rows are kept (they are flagged through
    ``MarketDay.tradable``).  Duplicate symbols keep the first occurrence.
    Raises ValueError when no usable row remains, or for bytes that are not
    UTF-8.
    """
    rejected: list[RejectedRow] = []
    records = _records(_decode(data), rejected)
    lines: list[int] = []
    symbols: list[str] = []
    rows: list[list[str]] = []
    for line_no, row in enumerate(records, start=1):
        symbol = row[0].strip() if row else ""
        if (line_no == 1 and symbol.lower() == "symbol") or (not symbol and _blank(row)):
            continue
        split = row if len(row) == 6 else _split_row(row, 5)
        if split is None:
            rejected.append(RejectedRow(line_no, ",".join(row), FIELD_COUNT))
            continue
        if not symbol:
            rejected.append(RejectedRow(line_no, ",".join(row), UNPARSEABLE_FIELD))
            continue
        lines.append(line_no)
        symbols.append(symbol)
        rows.append(split)
    fields = _transpose(rows, 6)[1:]
    symbols, o, h, l, c, volume = _judge(
        lines, records, symbols, fields, int, rejected, on_reject, unique_keys=True
    )
    if not symbols:
        raise ValueError(f"no usable rows for {day.isoformat()}")
    return MarketDay(day, symbols, o, h, l, c, volume)


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


class SkippedFileWarning(UserWarning):
    """``read_eod_dir`` left out a file it could not parse."""


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
    path: Path, threads: int = 1
) -> Iterator[tuple[MarketDay | str, list[RejectedRow]]]:
    """Each ``<MARKET>_<YYYYMMDD>.csv`` in a directory, loaded in date order.

    Yields each file's ``MarketDay``, or ``skipped <file>: <reason>`` for a
    file that does not parse (no usable row, or bytes that are not UTF-8),
    with the rows the file rejected.  Serially, a file is read only when the
    one before it has been taken, so a consumer that keeps no day holds one
    at a time; ``threads`` > 1 reads them all in a pool first.  Raises
    ValueError when there is no EOD file, or once every file is yielded if
    none parsed.
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
    for item in loaded:
        usable = usable or isinstance(item[0], MarketDay)
        yield item
    if not usable:
        raise ValueError(f"no usable EOD file in {path}")


def read_eod_dir(
    path: str | Path,
    *,
    threads: int = 1,
    on_reject: OnReject | None = None,
) -> list[MarketDay]:
    """Read every ``<MARKET>_<YYYYMMDD>.csv`` in a directory, sorted by date.

    Files not matching the naming convention are ignored.  ``threads`` > 1
    parses files in a thread pool, which the GIL keeps from being faster; it
    is kept only for the benchmark's ``pool_speedup`` metric, and the CLI
    reads serially.  Results are assembled in date order either way.
    A file that does not parse (no usable row, or bytes that are not UTF-8)
    costs only itself: it is left out with a ``SkippedFileWarning``
    ``skipped <file>: <reason>``.  The warnings are issued in date order, and
    rejects reach ``on_reject`` in date order, then line order.  Raises
    ValueError when no file is left.
    """
    days: list[MarketDay] = []
    for day, rejects in _eod_files(Path(path), threads):
        if isinstance(day, str):
            warnings.warn(day, SkippedFileWarning, stacklevel=2)
        else:
            days.append(day)
        if on_reject is not None:
            for r in rejects:
                on_reject(r)
    return days


_INDEX_COLUMNS = {"date", "open", "high", "low", "close", "volume"}
_ADJ_CLOSE = {"adjclose", "adj close", "adj_close", "adj.close"}


def _parse_day(field: str) -> date:
    return date.fromisoformat(field.strip())


@_collector_paused
def parse_index_csv(
    data: str | bytes,
    name: str = "index",
    *,
    on_reject: OnReject | None = None,
) -> IndexSeries:
    """Parse a Date,Open,High,Low,Close[,AdjClose],Volume index file.

    Column order is taken from the header when present (an adjusted-close
    column is ignored), otherwise assumed positional.  A row longer than the
    header (six columns without one) is a volume split on bare thousands
    separators when volume is the last column and every extra part is
    digits, and is rejoined as in ``parse_eod_file``; any other such row is
    a field-count reject.  Dates are read row by row, prices and volumes a
    column at a time.  Bad rows are skipped and reported; duplicate dates are
    an error.
    """
    rejected: list[RejectedRow] = []
    records = _records(_decode(data), rejected)
    col_of = {"date": 0, "open": 1, "high": 2, "low": 3, "close": 4, "volume": 5}
    start = 0
    if records:
        header = [f.strip().lower() for f in records[0]]
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

    lines: list[int] = []
    rows: list[list[str]] = []
    days: list[date] = []
    width = max(col_of.values())
    n_columns = len(records[0]) if start else 6
    volume_last = col_of["volume"] == n_columns - 1
    for line_no, row in enumerate(records[start:], start=start + 1):
        if _blank(row):
            continue
        split = row
        if len(row) > n_columns:  # a bare-thousands volume tail, or too many fields
            split = _split_row(row, n_columns - 1) if volume_last else None
        if split is None or len(split) <= width:
            rejected.append(RejectedRow(line_no, ",".join(row), FIELD_COUNT))
            continue
        try:
            d = _parse_day(split[col_of["date"]])
        except ValueError:
            rejected.append(RejectedRow(line_no, ",".join(row), MALFORMED_DATE))
            continue
        lines.append(line_no)
        rows.append(split)
        days.append(d)
    columns = _transpose(rows, width + 1)
    fields = [columns[col_of[k]] for k in ("open", "high", "low", "close", "volume")]
    days, o, h, l, c, volume = _judge(
        lines, records, days, fields, _index_volume, rejected, on_reject, unique_keys=False
    )
    if not days:
        raise ValueError(f"no usable rows in index {name!r}")
    return IndexSeries(name, days, o, h, l, c, volume)


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
