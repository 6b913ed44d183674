"""Shared builders for synthetic market data used across the test suite."""

from __future__ import annotations

from datetime import date, timedelta
from pathlib import Path

import numpy as np

from csie.market_data import IndexSeries, MarketDay

FIXTURE_DAY = date(2022, 1, 21)

# The 24 bars of the daily-file fixture: first and last 12 symbols of a real
# 3562-symbol NYSE day, exactly as printed (volumes carry thousands
# separators in the source file).
TABLE1_ROWS = [
    ("A", "139.54", "140.49", "137.49", "137.51", "1,878,600"),
    ("AA", "60.02", "60.15", "56.04", "56.21", "11,024,900"),
    ("AAC", "9.74", "9.74", "9.72", "9.74", "1,164,800"),
    ("AAC.U", "9.86", "9.89", "9.84", "9.84", "45,900"),
    ("AAC.W", "0.7202", "0.7629", "0.6122", "0.668", "336,900"),
    ("AAI-B", "24.88", "24.9", "24.85", "24.9", "600"),
    ("AAI-C", "25.1", "25.1011", "24.83", "25.04", "3100"),
    ("AAIC", "3.49", "3.49", "3.4", "3.41", "142,400"),
    ("AAIN", "25.14", "25.14", "24.92", "24.92", "2100"),
    ("AAM-A", "25.39", "25.49", "25.32", "25.32", "156,700"),
    ("AAM-B", "26.75", "26.75", "26.239", "26.26", "169,400"),
    ("AAN", "21.33", "22.24", "21", "21.32", "259,300"),
    ("ZH", "4.38", "4.48", "4.15", "4.21", "1,606,700"),
    ("ZIM", "60.5", "61.17", "57.1", "58.12", "5,136,500"),
    ("ZIP", "21.11", "21.22", "19.87", "20.04", "739,200"),
    ("ZME", "1.78", "1.8999", "1.69", "1.78", "156,900"),
    ("ZNH", "33", "33.29", "32.28", "32.28", "12,700"),
    ("ZTO", "29.19", "29.24", "28.33", "28.76", "3,125,200"),
    ("ZTR", "9.46", "9.48", "9.25", "9.32", "191,700"),
    ("ZTS", "203.11", "203.71", "200.28", "200.33", "2,632,900"),
    ("ZUO", "16.18", "16.79", "15.96", "15.96", "1,817,700"),
    ("ZVIA", "7.5", "8.02", "7.4", "7.64", "168,900"),
    ("ZWS", "32.39", "32.39", "31.4", "31.51", "874,600"),
    ("ZYME", "11.43", "11.7", "11", "11.21", "953,700"),
]


def table1_csv() -> str:
    """The 24-row fixture as file text, alternating quoted and bare volumes
    so both thousands-separator spellings get exercised."""
    lines = ["Symbol,Open,High,Low,Close,Volume"]
    for i, (sym, o, h, l, c, v) in enumerate(TABLE1_ROWS):
        vol = f'"{v}"' if i % 2 == 0 else v
        lines.append(f"{sym},{o},{h},{l},{c},{vol}")
    return "\n".join(lines) + "\n"


def table1_tuples() -> list[tuple[float, float, float, float, int]]:
    return [
        (float(o), float(h), float(l), float(c), int(v.replace(",", "")))
        for _, o, h, l, c, v in TABLE1_ROWS
    ]


def to_eod_csv(day: MarketDay) -> str:
    """Serialize a MarketDay so that parsing the result reproduces it exactly."""
    lines = ["Symbol,Open,High,Low,Close,Volume"]
    for b in day.bars():
        lines.append(f"{b.symbol},{b.open!r},{b.high!r},{b.low!r},{b.close!r},{b.volume}")
    return "\n".join(lines) + "\n"


def weekdays(start: date, count: int) -> list[date]:
    out = []
    d = start
    while len(out) < count:
        if d.weekday() < 5:
            out.append(d)
        d += timedelta(days=1)
    return out


def random_bars(
    rng: np.random.Generator, n: int, base: float = 50.0, drift: float = 0.0
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """n consecutive valid OHLC bars following a rough random walk."""
    opens = np.empty(n)
    highs = np.empty(n)
    lows = np.empty(n)
    closes = np.empty(n)
    level = base
    for i in range(n):
        o = level * float(np.exp(rng.normal(drift, 0.006)))
        c = o * float(np.exp(rng.normal(drift, 0.014)))
        h = max(o, c) * float(np.exp(abs(rng.normal(0.0, 0.005))))
        l = min(o, c) * float(np.exp(-abs(rng.normal(0.0, 0.005))))
        opens[i], highs[i], lows[i], closes[i] = o, h, l, c
        level = c
    return opens, highs, lows, closes


def make_market_day(
    rng: np.random.Generator,
    day: date,
    m: int,
    zero_volume: int = 0,
) -> MarketDay:
    """m random valid bars on one day; the first ``zero_volume`` get volume 0."""
    symbols = [f"S{i:04d}" for i in range(m)]
    opens, highs, lows, closes = random_bars(rng, m, base=20.0)
    volumes = rng.integers(1_000, 2_000_000, m)
    volumes[:zero_volume] = 0
    return MarketDay(day, symbols, opens, highs, lows, closes, volumes)


def make_index_series(
    rng: np.random.Generator,
    n: int,
    start: date = date(2021, 1, 4),
    name: str = "TEST",
    base: float = 100.0,
) -> IndexSeries:
    opens, highs, lows, closes = random_bars(rng, n, base=base)
    volumes = rng.integers(100_000, 5_000_000, n)
    return IndexSeries(name, weekdays(start, n), opens, highs, lows, closes, volumes)


def write_world(
    root: Path,
    rng: np.random.Generator,
    n_symbols: int = 3,
    n_days: int = 90,
    market: str = "SYN",
) -> tuple[Path, Path]:
    """A small synthetic market on disk: EOD files plus a matching index CSV.

    The index is the equal-weighted average of the symbols' OHLC columns
    (which preserves the high/low bracketing) with summed volume.  Returns
    (eod_dir, index_path).
    """
    eod_dir = root / "eod"
    eod_dir.mkdir(parents=True, exist_ok=True)
    days = weekdays(date(2021, 6, 1), n_days)
    levels = [30.0 * (i + 1) for i in range(n_symbols)]
    index_lines = ["Date,Open,High,Low,Close,Volume"]
    for d in days:
        rows = []
        sums = np.zeros(4)
        vol_sum = 0
        for i in range(n_symbols):
            o, h, l, c = (float(x[0]) for x in random_bars(rng, 1, base=levels[i]))
            v = int(rng.integers(10_000, 900_000))
            rows.append(f"SY{i:02d},{o!r},{h!r},{l!r},{c!r},{v}")
            sums += (o, h, l, c)
            vol_sum += v
            levels[i] = c
        (eod_dir / f"{market}_{d.strftime('%Y%m%d')}.csv").write_text(
            "Symbol,Open,High,Low,Close,Volume\n" + "\n".join(rows) + "\n"
        )
        o, h, l, c = (float(x) / n_symbols for x in sums)
        index_lines.append(f"{d.isoformat()},{o!r},{h!r},{l!r},{c!r},{vol_sum}")
    index_path = root / "index.csv"
    index_path.write_text("\n".join(index_lines) + "\n")
    return eod_dir, index_path


def make_unreadable(monkeypatch, path: Path) -> str:
    """Have ``Path.read_bytes`` raise ``PermissionError`` for ``path`` (a
    ``chmod`` does not stop a process that runs as root), and return the
    error's text."""
    error = PermissionError(13, "Permission denied", str(path))
    real = Path.read_bytes

    def read_bytes(self: Path) -> bytes:
        if self == path:
            raise error
        return real(self)

    monkeypatch.setattr(Path, "read_bytes", read_bytes)
    return str(error)
