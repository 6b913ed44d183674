"""Cross-sectional intrinsic entropy (CSIE) of one market day.

Each traded symbol contributes its share of the day's total traded value,
psi_i = C_i * V_i / S.  Those shares weight two price-movement terms:

* an open-to-close term, sum of -(C_i/O_i - 1) * psi_i * ln(psi_i)
* a range term built from (H_i/O_i - 1)(H_i/C_i - 1) + (L_i/O_i - 1)(L_i/C_i - 1)

and the day's estimate blends them as (1 - f) * H_oc + f * H_olhc, where f
depends only on the cross-section width m.  The signed blend keeps direction
(negative means predominantly selling); the absolute blend is the magnitude
variant used when comparing against classic volatility estimators.

``csie`` and ``compare`` read a market directory through its cache, one
entry ``.csie-cache/days.bin`` that holds each day's ``CsieDay`` and rejects
with the hash of its file, so an unchanged file is parsed once across runs
with the same alpha.  Only this module writes or prunes that cache.
"""

from __future__ import annotations

import math
import os
import re
import struct
import sys
from contextlib import suppress
from dataclasses import dataclass
from datetime import date
from functools import cache
from importlib.util import source_hash
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import market_data
from ._util import exact_sum, xlogx
from ._vocab import ALPHA_DEFAULT, check_alpha
from .market_data import EOD_REASONS, MarketDay, OnReject, OnSkip, RejectedRow, _eod_files

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


# The cache: one entry per market directory, ``<directory>/.csie-cache/days.bin``,
# written through ``days.bin.<pid>.tmp``.
_CACHE_DIR = ".csie-cache"
# What pruning removes: the entry's temporary files.
_STALE_NAME = re.compile(r"days\.bin\.\d+\.tmp")
_CACHE_MAGIC = b"csie-dd1"
# magic, then the key: ``_code_id()`` and alpha
_ENTRY_HEADER = struct.Struct("<8s16s")
# one day: its date's ordinal, the hash of its file's bytes, its CsieDay
# without its date (m, total_value, f, h_oc, h_olhc, csie_signed, csie_abs,
# degenerate) and the size in bytes of its rejects
_ENTRY_DAY = struct.Struct("<i8sq6d?Q")
# one reject: its line, its reason as a position in EOD_REASONS and its
# content's size in bytes, followed by the content as UTF-8
_ENTRY_REJECT = struct.Struct("<QBQ")


@cache
def _code_id() -> bytes | None:
    """A hash of every module of this package, the interpreter's version and
    numpy's, which the cache's key carries; None, and no caching, when the
    sources cannot be read."""
    try:
        package = Path(__file__).parent
        source = b"".join(p.read_bytes() for p in sorted(package.iterdir()) if p.suffix == ".py")
    except OSError:
        return None
    return source_hash(source + sys.version.encode() + np.__version__.encode())


def _day_bytes(digest: bytes, row: CsieDay, rejects: list[RejectedRow]) -> bytes:
    """A day's part of the cache entry: the day, then its rejects, little-endian."""
    rejected = bytearray()
    for r in rejects:
        text = r.content.encode()
        rejected += _ENTRY_REJECT.pack(r.line, EOD_REASONS.index(r.reason), len(text)) + text
    return _ENTRY_DAY.pack(
        row.day.toordinal(), digest, row.m, row.total_value, row.f, row.h_oc, row.h_olhc,
        row.csie_signed, row.csie_abs, row.degenerate, len(rejected),
    ) + rejected


def _held_days(entry: Path, key: bytes | None) -> dict[date, tuple]:
    """Each day that the cache entry holds for ``key``, as its file's hash,
    its ``CsieDay`` and its rejects.  Empty unless the entry can be read,
    its magic and key match, its size is its header's and its days'
    exactly, and every day checks out: its date is one ``date`` holds, its
    numbers are finite, ``m`` is at least 1, it is degenerate exactly when
    ``m`` is 1, and each reject has a known reason, a line past the one
    before it and UTF-8 content."""
    held = {}
    try:
        blob = entry.read_bytes()
        magic, stored = _ENTRY_HEADER.unpack_from(blob)
        at = _ENTRY_HEADER.size
        while magic == _CACHE_MAGIC and stored == key and at < len(blob):
            ordinal, digest, m, *values, degenerate, size = _ENTRY_DAY.unpack_from(blob, at)
            at += _ENTRY_DAY.size
            end = at + size
            if (end > len(blob) or m < 1 or degenerate != (m == 1)
                    or not all(map(math.isfinite, values))):
                return {}
            rejects: list[RejectedRow] = []
            while at < end:
                line, reason, length = _ENTRY_REJECT.unpack_from(blob, at)
                at += _ENTRY_REJECT.size + length
                if at > end or line <= (rejects[-1].line if rejects else 0):
                    return {}
                text = blob[at - length:at].decode()
                rejects.append(RejectedRow(line, text, EOD_REASONS[reason]))
            day = date.fromordinal(ordinal)
            held[day] = (digest, CsieDay(day, m, *values, degenerate), rejects)
    except (OSError, struct.error, IndexError, ValueError):  # ValueError: a bad date or UTF-8
        return {}
    return held


def _write_entry(entry: Path, blob: bytes) -> None:
    """Write the cache entry through a temporary file of this process; an
    OSError (a read-only directory, a file in the cache directory's place,
    a full disk) leaves the cache as it was."""
    tmp = entry.with_name(f"{entry.name}.{os.getpid()}.tmp")
    try:
        entry.parent.mkdir(exist_ok=True)
        tmp.write_bytes(blob)
        os.replace(tmp, entry)
    except OSError:
        with suppress(OSError):
            tmp.unlink(missing_ok=True)


def _prune_cache(directory: Path) -> None:
    """Remove the names ``_STALE_NAME`` matches from the cache of
    ``directory``: the temporary files of writes (one in flight in another
    process costs that process only its write).  Any other name stays, and
    an OSError leaves the name it meets as it was."""
    with suppress(OSError):
        for name in os.listdir(directory / _CACHE_DIR):
            if _STALE_NAME.fullmatch(name):
                with suppress(OSError):
                    os.unlink(directory / _CACHE_DIR / name)


def _cached_csie_days(directory: Path, alpha: float, on_skip: OnSkip,
                      on_reject: OnReject = lambda r: None) -> Iterator[CsieDay]:
    """The ``CsieDay`` of each usable EOD file of ``directory``, read by
    ``_eod_files`` once the cache is pruned.

    The cache entry is read once.  ``_eod_files`` hands each file's bytes
    and date to ``read``, which only hashes them: a date whose bytes hash
    to what the entry holds for it skips the parse and ``csie_day``, and
    gives ``on_reject`` the rejects the parse gave; any other file is parsed
    and judged.  A file that does not parse and a day that ``csie_day``
    refuses raise out of ``read`` alike, so each reaches ``on_skip`` as
    ``skipped <file>: <reason>`` after its rejects, and gets no record.
    After the last file the entry is rewritten if its dates changed: a date
    was computed, or a date it held is no longer read.  A cache that cannot
    be read or written only costs the parse.
    """
    _prune_cache(directory)
    entry = directory / _CACHE_DIR / "days.bin"
    key = None if _code_id() is None else _code_id() + struct.pack("<d", alpha)
    held = _held_days(entry, key)
    days: dict[date, tuple] = {}

    def read(data: bytes, day: date, on_reject: OnReject) -> CsieDay:
        digest = source_hash(data)
        if day in held and held[day][0] == digest:
            _, row, rejects = days[day] = held[day]
            for r in rejects:
                on_reject(r)
            return row
        rejects = []

        def keep(r: RejectedRow) -> None:
            rejects.append(r)
            on_reject(r)

        # looked up in its module at each call, so that a wrapper set there (the
        # benchmark's layer trace) sees this parse too
        row = csie_day(market_data.parse_eod_file(data, day, on_reject=keep), alpha)
        days[day] = (digest, row, rejects)
        return row

    yield from _eod_files(directory, read, on_reject, on_skip)
    if key is not None and days != held:  # a date was computed, or a held one is no longer read
        records = b"".join(_day_bytes(*d) for d in days.values())
        _write_entry(entry, _ENTRY_HEADER.pack(_CACHE_MAGIC, key) + records)
