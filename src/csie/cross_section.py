"""Cross-sectional intrinsic entropy (CSIE) of one market day.

Each traded symbol contributes its share of the day's total traded value,
psi_i = C_i * V_i / S.  Those shares weight two price-movement terms:

* an open-to-close term, sum of -(C_i/O_i - 1) * psi_i * ln(psi_i)
* a range term built from (H_i/O_i - 1)(H_i/C_i - 1) + (L_i/O_i - 1)(L_i/C_i - 1)

and the day's estimate blends them as (1 - f) * H_oc + f * H_olhc, where f
depends only on the cross-section width m.  The signed blend keeps direction
(negative means predominantly selling); the absolute blend is the magnitude
variant used when comparing against classic volatility estimators.

``csie`` and ``compare`` read each EOD file of at least ``_CACHE_MIN_BYTES``
through a cache of its ``CsieDay`` and rejects, ``.csie-cache/<file
name>.bin`` beside it, so an unchanged file is parsed once across runs with
the same alpha.  Only this module writes or prunes that cache.
"""

from __future__ import annotations

import math
import os
import re
import struct
import sys
from dataclasses import dataclass
from datetime import date
from functools import cache, partial
from importlib.util import source_hash
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import market_data
from ._util import exact_sum, xlogx
from ._vocab import ALPHA_DEFAULT, check_alpha
from .market_data import (_EOD_NAME, EOD_REASONS, MarketDay, OnReject, OnSkip, RejectedRow,
                          _eod_files, eod_filename_date)

CSIE_CSV_HEADER = (
    "date,m,total_value,f,h_oc,h_olhc,csie_signed,csie_abs,degenerate_flag"
)


@dataclass(frozen=True, slots=True)
class SymbolWeight:
    """A symbol's share of the day's traded value."""

    symbol: str
    psi: float


@dataclass(frozen=True, slots=True)
class CsieDay:
    """One day's cross-sectional entropy estimate and its components."""

    day: date
    m: int
    total_value: float
    f: float
    h_oc: float
    h_olhc: float
    csie_signed: float
    csie_abs: float
    degenerate: bool


def _traded_values(close: np.ndarray, volume: np.ndarray, day: date) -> tuple[np.ndarray, float]:
    """close * volume of each traded bar of ``day`` and their exact total;
    ValueError if no bar traded or the total is past the float range."""
    if len(close) == 0:
        raise ValueError(f"empty cross-section on {day.isoformat()}")
    with np.errstate(over="ignore"):  # an infinite product fails the check below
        values = close * volume
    total = exact_sum(values)
    if not np.isfinite(total):
        raise ValueError(f"traded value on {day.isoformat()} is not finite")
    return values, total


def symbol_weights(day: MarketDay) -> list[SymbolWeight]:
    """Traded-value shares psi_i in ascending symbol order; they sum to ~1."""
    mask = day.tradable
    values, total = _traded_values(day.close[mask], day.volume[mask], day.day)
    psi = values / total
    return [SymbolWeight(str(s), float(p)) for s, p in zip(day.symbols[mask], psi)]


def csie_weight_f(m: int, alpha: float = ALPHA_DEFAULT) -> float:
    """Blend weight on the range component for a cross-section of m symbols.

    Increases with m and stays below (alpha - 1)/(alpha + 1); needs m >= 2
    and 1 < alpha < inf.
    """
    if m < 2:
        raise ValueError("degenerate cross-section: f needs at least two traded symbols")
    check_alpha(alpha)
    return (alpha - 1.0) / (alpha + (m + 1.0) / (m - 1.0))


def csie_day(day: MarketDay, alpha: float = ALPHA_DEFAULT) -> CsieDay:
    """Compute one day's CSIE from its traded bars.

    A single traded symbol is a degenerate cross-section: its weight is 1, so
    every entropy term vanishes and the day is reported as exactly zero with
    the flag set.  No traded symbol, an overflowing total value or a price
    ratio that takes an entropy term past the float range is an error.
    """
    mask = day.tradable
    o, h, l, c, v = (col[mask] for col in (day.open, day.high, day.low, day.close, day.volume))
    values, total = _traded_values(c, v, day.day)
    m = len(o)
    ent = xlogx(values / total)
    # a price ratio past the float range makes an inf term, or inf * 0 = nan
    # where psi = 1; the check below turns either into an error
    with np.errstate(over="ignore", invalid="ignore"):
        oc = (c / o - 1.0) * ent
        spread = (h / o - 1.0) * (h / c - 1.0) + (l / o - 1.0) * (l / c - 1.0)
        olhc = spread * ent
    if not (np.isfinite(oc).all() and np.isfinite(olhc).all()):
        raise ValueError(f"entropy terms on {day.day.isoformat()} are past the float range")
    h_oc, h_olhc = -exact_sum(oc), -exact_sum(olhc)
    if m == 1:
        return CsieDay(day.day, 1, total, 0.0, h_oc, h_olhc, 0.0, 0.0, True)
    f = csie_weight_f(m, alpha)
    signed = (1.0 - f) * h_oc + f * h_olhc
    magnitude = (1.0 - f) * abs(h_oc) + f * abs(h_olhc)
    return CsieDay(day.day, m, total, f, h_oc, h_olhc, signed, magnitude, False)


def csie_series(days: Iterable[MarketDay], alpha: float = ALPHA_DEFAULT) -> list[CsieDay]:
    """CSIE for a run of market days, which must be in strictly increasing order."""
    out: list[CsieDay] = []
    for day in days:
        if out and day.day <= out[-1].day:
            raise ValueError(
                f"market days out of order: {day.day.isoformat()} after "
                f"{out[-1].day.isoformat()}"
            )
        out.append(csie_day(day, alpha))
    return out


def csie_csv(rows: Sequence[CsieDay]) -> str:
    """Serialize CSIE days with full-precision floats, one row per day."""
    lines = [CSIE_CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.day.isoformat()},{r.m},{float(r.total_value)!r},{float(r.f)!r},"
            f"{float(r.h_oc)!r},{float(r.h_olhc)!r},{float(r.csie_signed)!r},"
            f"{float(r.csie_abs)!r},{int(r.degenerate)}"
        )
    return "\n".join(lines) + "\n"


# The cache: one entry per EOD file, ``<directory>/.csie-cache/<name>.bin``,
# written through ``<name>.bin.<pid>.tmp``; only these two names are the cache's.
_CACHE_DIR = ".csie-cache"
_CACHE_NAME = re.compile(rf"(?P<file>{_EOD_NAME.pattern})\.bin(?P<tmp>\.\d+\.tmp)?")
# A smaller file is only parsed.  Creating an entry costs a fixed 0.1-1 ms,
# more than parsing a 43-line file (1.5 KiB, 0.2-0.4 ms), while a 64 KiB file
# parses in 7-9 ms and its entry is read and checked in about 0.1 ms.
_CACHE_MIN_BYTES = 64 * 1024
_CACHE_MAGIC = b"csie-cd1"
# magic, key, then the CsieDay without its date (m, total_value, f, h_oc,
# h_olhc, csie_signed, csie_abs, degenerate) and the size in bytes of the rejects
_ENTRY_HEADER = struct.Struct("<8s24sq6d?Q")
# one reject: its line, its reason as a position in EOD_REASONS and its
# content's size in bytes, followed by the content as UTF-8
_ENTRY_REJECT = struct.Struct("<QBQ")


@cache
def _code_id() -> bytes | None:
    """A hash of every module of this package, the interpreter's version and
    numpy's, which every cache key carries; None, and no caching, when the
    sources cannot be read."""
    try:
        package = Path(__file__).parent
        source = b"".join(p.read_bytes() for p in sorted(package.iterdir()) if p.suffix == ".py")
    except OSError:
        return None
    return source_hash(source + sys.version.encode() + np.__version__.encode())


def _entry_bytes(key: bytes, row: CsieDay, rejects: list[RejectedRow]) -> bytes:
    """The cache entry of a day: the header, then the rejects, little-endian."""
    rejected = bytearray()
    for r in rejects:
        text = r.content.encode()
        rejected += _ENTRY_REJECT.pack(r.line, EOD_REASONS.index(r.reason), len(text)) + text
    header = _ENTRY_HEADER.pack(
        _CACHE_MAGIC, key, row.m, row.total_value, row.f, row.h_oc, row.h_olhc,
        row.csie_signed, row.csie_abs, row.degenerate, len(rejected),
    )
    return header + rejected


def _cached_row(entry: Path, key: bytes, day: date) -> tuple[CsieDay, list[RejectedRow]] | None:
    """The day's ``CsieDay`` and the rejects that the cache entry holds for
    ``key``; None unless its magic and key match, its size is its header's
    and its rejects' exactly, its numbers are finite, ``m`` is at least 1,
    the day is degenerate exactly when ``m`` is 1, and every reject has a
    known reason, a line past the one before it and UTF-8 content."""
    try:
        blob = entry.read_bytes()
        magic, stored, m, *values, degenerate, size = _ENTRY_HEADER.unpack_from(blob)
    except (OSError, struct.error):
        return None
    if (magic != _CACHE_MAGIC or stored != key or len(blob) != _ENTRY_HEADER.size + size
            or m < 1 or degenerate != (m == 1) or not all(map(math.isfinite, values))):
        return None
    rejects: list[RejectedRow] = []
    at = _ENTRY_HEADER.size
    try:
        while at < len(blob):
            line, reason, length = _ENTRY_REJECT.unpack_from(blob, at)
            at += _ENTRY_REJECT.size + length
            if at > len(blob) or line <= (rejects[-1].line if rejects else 0):
                return None
            rejects.append(RejectedRow(line, blob[at - length:at].decode(), EOD_REASONS[reason]))
    except (struct.error, IndexError, UnicodeDecodeError):
        return None
    return CsieDay(day, m, *values, degenerate), rejects


def _cached_csie_day(path: Path, alpha: float, on_reject: OnReject) -> CsieDay | str:
    """The ``CsieDay`` of one EOD file, or ``skipped <date>: <reason>`` for
    a day ``csie_day`` refuses.

    A file of at least ``_CACHE_MIN_BYTES`` has a cache entry keyed by the
    hash of its bytes, ``_code_id`` and alpha.  An entry that ``_cached_row``
    accepts skips the parse and ``csie_day``, and gives ``on_reject`` the
    rejects the parse gave.  On a miss the entry is rewritten unless the
    parse or ``csie_day`` fails; a cache that cannot be read or written only
    costs the parse.
    """
    _, day = eod_filename_date(path.name)
    data = path.read_bytes()
    key = entry = None
    if len(data) >= _CACHE_MIN_BYTES and _code_id() is not None:
        key = source_hash(data) + _code_id() + struct.pack("<d", alpha)
        entry = path.parent / _CACHE_DIR / f"{path.name}.bin"
        cached = _cached_row(entry, key, day)
        if cached is not None:
            row, rejects = cached
            for r in rejects:
                on_reject(r)
            return row
    rejects = []

    def keep(r: RejectedRow) -> None:
        rejects.append(r)
        on_reject(r)

    # looked up in its module at each call, so that a wrapper set there (the
    # benchmark's layer trace) sees this parse too
    market = market_data.parse_eod_file(data, day, on_reject=keep)
    try:
        row = csie_day(market, alpha)
    except ValueError as exc:
        return f"skipped {day.isoformat()}: {exc}"
    if entry is not None:
        _write_entry(entry, _entry_bytes(key, row, rejects))
    return row


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


def _prune_cache(directory: Path) -> None:
    """Remove the entries of the EOD files that ``directory`` no longer lists
    and every temporary file of a write (one in flight in another process
    costs that process only its entry); any other name stays, and an OSError
    leaves the name it meets as it was."""
    try:
        names = os.listdir(directory / _CACHE_DIR)
        listed = set(os.listdir(directory))
    except OSError:
        return
    for name in names:
        match = _CACHE_NAME.fullmatch(name)
        if match and (match["tmp"] or match["file"] not in listed):
            try:
                os.unlink(directory / _CACHE_DIR / name)
            except OSError:
                pass


def _cached_csie_days(directory: Path, alpha: float, on_skip: OnSkip) -> Iterator[CsieDay | str]:
    """``_eod_files`` of ``directory`` through ``_cached_csie_day``, once the cache is pruned."""
    _prune_cache(directory)
    return _eod_files(directory, partial(_cached_csie_day, alpha=alpha), on_skip=on_skip)
