"""End-of-day market data: columnar days and index series, and CSV ingestion.

Daily files carry one row per listed symbol (Symbol,Open,High,Low,Close,Volume);
index files carry one row per trading day (Date,Open,High,Low,Close[,AdjClose],
Volume).  Both parsers are tolerant of header rows, of a UTF-8 byte-order
mark and of thousands separators inside the volume field.  A parser refuses
bytes that are not UTF-8 before it reads a record (a file of ASCII bytes
needs no check), then decodes the file's csv records straight from its
bytes, ``_CHUNK_RECORDS`` at a time, and converts and judges each chunk
before it reads the next, so what a parse holds besides the rows it keeps
does not grow with the file.  Within a chunk, the row loop only splits rows
and rejects those of the wrong shape; ``_Judged`` then reads each price and
volume column in one pass (only a field that fails takes the per-field
rule), judges the columns with the one rule set, ``_unusable_rows``, and
keeps the usable rows, the first of each symbol or date across chunks.
``MarketDay`` and ``IndexSeries`` share one constructor body in their
``_Bars`` base and differ only in their key column; every day and series,
whether given, parsed or read from the parse cache, is built and checked by
its public constructor.  Every skipped row, including a record the csv
module cannot read, is reported through an
``on_reject`` callback, in line order once the whole file is read (and by
``read_eod_dir`` in date order, then line order), instead of failing the
whole file; a file that does not parse costs ``read_eod_dir`` only that
file, which it reports through an ``on_skip`` callback.  ``read_eod_file``,
through which every EOD file is read, keeps the parse of a file of at least
``_CACHE_MIN_BYTES`` in a parse cache beside it, ``.csie-cache/<file
name>.bin``, keyed by a hash of the file's bytes and of this module's
source, so such a file that has not changed is parsed once across runs;
smaller files and index files are not cached.
"""

from __future__ import annotations

import csv
import io
import itertools
import os
import re
import struct
import sys
from dataclasses import dataclass
from datetime import date
from functools import cache
from importlib.util import source_hash
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
DUPLICATE_DATE = "duplicate-date"
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

_EOD_NAME = re.compile(r"(?P<market>.+)_(?P<date>\d{8})\.csv")

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


def _volume_in_range(volume: int) -> int:
    """The volume, or -1 when int64 cannot hold it (the rules reject that later)."""
    return volume if 0 <= volume <= _INT64_MAX else -1


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
    ``MarketDay.tradable``).  A symbol is its field without surrounding
    whitespace or trailing NULs, which numpy's strings do not hold; one
    left empty is unparseable.  Duplicate symbols keep the first usable
    occurrence.
    Raises ValueError when no usable row remains, or for bytes that are not
    UTF-8.
    """
    judged = _Judged(DUPLICATE_SYMBOL)
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
            symbol = symbol.rstrip("\x00")  # the key numpy's strings store
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
    return MarketDay(day, judged.keys, *judged.columns())


def eod_filename_date(name: str) -> tuple[str, date]:
    """Split ``<MARKET>_<YYYYMMDD>.csv`` into market name and date."""
    m = _EOD_NAME.fullmatch(name)
    if m is None:
        raise ValueError(f"not an EOD file name: {name}")
    stamp = m.group("date")  # eight digits, but ``\d`` also matches those of other scripts
    try:
        if not stamp.isascii():
            raise ValueError(stamp)
        d = date(int(stamp[:4]), int(stamp[4:6]), int(stamp[6:]))
    except ValueError as exc:
        raise ValueError(f"bad date in file name: {name}") from exc
    return m.group("market"), d


# The parse cache: one entry per EOD file, ``<directory>/.csie-cache/<name>.bin``.
_CACHE_DIR = ".csie-cache"
# A smaller file is only parsed.  Creating an entry costs a fixed 0.1-1 ms,
# more than parsing a 43-line file (1.5 KiB, 0.2-0.4 ms), while a 64 KiB file
# parses in 7-9 ms and its entry is read in 0.3-0.5 ms.
_CACHE_MIN_BYTES = 64 * 1024
_CACHE_MAGIC = b"csie-pc1"
# magic, key, rows, code points per symbol, then the size in bytes of the rejects
_ENTRY_HEADER = struct.Struct("<8s16sQQQ")
# one reject: its line, its reason as a position in _REASONS and its content's
# size in bytes, followed by the content as UTF-8
_ENTRY_REJECT = struct.Struct("<QBQ")
_REASONS = (NONFINITE_PRICE, NONPOSITIVE_PRICE, OHLC_ORDERING, FIELD_COUNT, UNPARSEABLE_FIELD,
            DUPLICATE_SYMBOL)


@cache
def _code_id() -> bytes | None:
    """A hash of this module's source, the interpreter's version and numpy's,
    which every cache key carries; None, and no caching, when the source
    cannot be read."""
    try:
        source = Path(__file__).read_bytes()
    except OSError:
        return None
    return source_hash(source + sys.version.encode() + np.__version__.encode())


def _canonical(symbols: np.ndarray) -> bool:
    """Whether ``symbols`` are strictly ascending and only as wide as the
    widest, as an entry's must be.  A parse's always are: its symbols are
    unique and hold no trailing NUL."""
    width = symbols.dtype.itemsize // 4
    widest = symbols.view(np.uint32)[width - 1::width]
    return bool(widest.any() and (symbols[1:] > symbols[:-1]).all())


def _entry_bytes(key: bytes, day: MarketDay, rejects: list[RejectedRow]) -> bytes:
    """The cache entry of a parse: the header, the symbols as their ``<U``
    array padded to 8 bytes, the price and volume columns, then the rejects,
    all little-endian."""
    columns = [
        col.astype(col.dtype.newbyteorder("<"), copy=False).tobytes()
        for col in (day.symbols, day.open, day.high, day.low, day.close, day.volume)
    ]
    columns.insert(1, bytes(-len(columns[0]) % 8))
    rejected = bytearray()
    for r in rejects:
        content = r.content.encode()
        rejected += _ENTRY_REJECT.pack(r.line, _REASONS.index(r.reason), len(content)) + content
    header = _ENTRY_HEADER.pack(
        _CACHE_MAGIC, key, len(day), day.symbols.dtype.itemsize // 4, len(rejected)
    )
    return b"".join([header, *columns, rejected])


def _cached_day(entry: Path, key: bytes, day: date) -> tuple[MarketDay, list[RejectedRow]] | None:
    """The day and the rejects that the cache entry holds for ``key``, or None.

    Nothing in the entry is trusted: None unless its magic and key match,
    its sizes add up to its length exactly, its symbols are valid code points
    of the narrowest width and strictly ascending, every reject has a known
    reason, a line past the one before it and UTF-8 content, and
    ``MarketDay`` accepts the day.
    """
    try:
        with open(entry, "rb") as f:
            magic, stored, n, width, rejects_size = _ENTRY_HEADER.unpack(
                f.read(_ENTRY_HEADER.size)
            )
            if magic != _CACHE_MAGIC or stored != key or n < 1 or width < 1:
                return None
            symbols_size = 4 * n * width
            columns_at = symbols_size + -symbols_size % 8
            size = columns_at + 40 * n + rejects_size
            if os.fstat(f.fileno()).st_size != _ENTRY_HEADER.size + size:
                return None
            body = bytearray(size)
            if f.readinto(body) != size:
                return None
    except (OSError, struct.error):
        return None
    codes = np.frombuffer(body, "<u4", n * width)
    if not ((codes < 0xD800) | ((codes > 0xDFFF) & (codes < 0x110000))).all():
        return None
    symbols = codes.view(f"<U{width}")
    o, h, l, c, volume = (
        np.frombuffer(body, "<i8" if i == 4 else "<f8", n, columns_at + 8 * n * i)
        for i in range(5)
    )
    if not _canonical(symbols):
        return None
    rejects: list[RejectedRow] = []
    at = columns_at + 40 * n
    try:
        while at < size:
            line, reason, length = _ENTRY_REJECT.unpack_from(body, at)
            at += _ENTRY_REJECT.size + length
            if at > size or line <= (rejects[-1].line if rejects else 0):
                return None
            rejects.append(RejectedRow(line, body[at - length:at].decode(), _REASONS[reason]))
    except (struct.error, IndexError, UnicodeDecodeError):
        return None
    try:
        return MarketDay(day, symbols, o, h, l, c, volume), rejects
    except ValueError:
        return None


def _prune_cache(directory: Path, names: set[str]) -> None:
    """Remove the cache entries of ``directory`` whose file is not among
    ``names``, and the temporary files of writes cut short; an OSError
    leaves the entry it meets as it was.  The temporary file of a write in
    flight in another process goes too, which costs that process only its
    entry."""
    try:
        entries = list((directory / _CACHE_DIR).iterdir())
    except OSError:
        return
    for entry in entries:
        name = entry.name
        if name.endswith(".tmp") or (name.endswith(".bin") and name[:-4] not in names):
            try:
                entry.unlink()
            except OSError:
                pass


def _write_entry(entry: Path, blob: bytes) -> None:
    """Write a cache entry through a temporary file of this process; an
    OSError (a read-only directory, a file in the cache directory's place,
    a full disk) leaves the cache as it was."""
    tmp = entry.with_name(f"{entry.name}.{os.getpid()}.tmp")
    try:
        entry.parent.mkdir(exist_ok=True)
        tmp.write_bytes(blob)
        os.replace(tmp, entry)
    except OSError:
        try:
            tmp.unlink(missing_ok=True)
        except OSError:
            pass


def read_eod_file(path: str | Path, *, on_reject: OnReject | None = None) -> MarketDay:
    """Read one EOD file, dated by its ``<MARKET>_<YYYYMMDD>.csv`` name.

    The parse of a file of at least ``_CACHE_MIN_BYTES`` is kept in the
    file's entry of the parse cache, ``.csie-cache/<file name>.bin`` in its
    directory, so such a file whose bytes have not changed is parsed once
    across runs.  The file is always read first: an entry is used only when
    its key matches the hash of those bytes and of the parser's code, and
    when every field passes the checks of ``_cached_day``; otherwise the
    file is parsed and the entry rewritten.  A hit gives a day equal to the
    parse's and replays its rejects to ``on_reject`` in line order.  A parse
    that raises is not cached, and its rejects reach ``on_reject`` before the
    raise.  A cache that cannot be read or written only costs the parse.
    Reading the directory with ``_eod_files`` removes the entries of files
    renamed or deleted and the temporary files of writes cut short.
    """
    path = Path(path)
    _, day = eod_filename_date(path.name)
    data = path.read_bytes()
    code_id = _code_id() if len(data) >= _CACHE_MIN_BYTES else None
    if code_id is None:
        return parse_eod_file(data, day, on_reject=on_reject)
    key = source_hash(data) + code_id
    entry = path.parent / _CACHE_DIR / f"{path.name}.bin"
    cached = _cached_day(entry, key, day)
    if cached is not None:
        market_day, rejects = cached
        if on_reject is not None:
            for r in rejects:
                on_reject(r)
        return market_day
    rejects = []

    def keep(r: RejectedRow) -> None:
        rejects.append(r)
        if on_reject is not None:
            on_reject(r)

    market_day = parse_eod_file(data, day, on_reject=keep)
    _write_entry(entry, _entry_bytes(key, market_day, rejects))
    return market_day


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
    (no usable row, bytes that are not UTF-8, or a read error) goes to
    ``on_skip`` as ``skipped <file>: <reason>``.  A file's rejects reach
    ``on_reject``, in line order, before its day or its skip.  Serially, a file is read only
    when the day before it has been taken, so a consumer that keeps no day
    holds one at a time; ``threads`` > 1 reads them all in a pool first.
    Raises ValueError when there is no EOD file, or once every file is read
    if none parsed.  The parse cache keeps only the entries of the files
    listed.
    """
    dated = _dated_eod_files(path.iterdir())
    _prune_cache(path, {p.name for _, p in dated})
    if not dated:
        raise ValueError(f"no EOD files in {path}")

    def load(item: tuple[date, Path]) -> tuple[MarketDay | str, list[RejectedRow]]:
        rejects: list[RejectedRow] = []
        try:
            return read_eod_file(item[1], on_reject=rejects.append), rejects
        except (OSError, ValueError) as exc:
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
    A file that does not parse (no usable row, bytes that are not UTF-8, or a
    read error) costs only itself: it is left out, and ``on_skip`` receives
    ``skipped <file>: <reason>``.  Skips reach ``on_skip`` in date order, and
    rejects reach ``on_reject`` in date order, then line order.  Raises
    ValueError when no file is left.
    """
    return list(_eod_files(Path(path), threads, on_reject, on_skip))


_INDEX_COLUMNS = {"date", "open", "high", "low", "close", "volume"}


def _parse_day(field: str) -> date:
    field = field.strip()  # fromisoformat alone also reads 20210106 and 2021-W01-1
    if len(field) != 10 or field[4] != "-" or field[7] != "-":
        raise ValueError(f"not a YYYY-MM-DD date: {field!r}")
    return date.fromisoformat(field)


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
    Bad rows are skipped and reported; a repeated date keeps the first
    usable row of that date, and the others are duplicate-date rejects.
    """
    judged = _Judged(DUPLICATE_DATE)
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
