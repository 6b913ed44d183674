"""Seeded synthetic inputs for the csie benchmark, and the workloads that use them.

Depends only on numpy and the standard library, and not on the package's
tests, so edits to the test suite cannot change what the benchmark measures.
The same ``(inputs, seed)`` always writes byte-identical files.

Each input set is a directory of ``SYN_<YYYYMMDD>.csv`` end-of-day files plus
``index.csv``, the value-weighted aggregate of the accepted rows.  The EOD
files look like real exchange dumps: volumes carry thousands separators,
quoted and bare; some rows have zero volume; a share of extra rows is
malformed, cycling through every reason code the EOD parser knows.  No day is
all zero-volume, since that aborts ``csie csie`` (a known defect, not a load
property).
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path

import numpy as np

MARKET = "SYN"
FIRST_DAY = date(2016, 1, 4)
EOD_HEADER = "Symbol,Open,High,Low,Close,Volume"
INDEX_HEADER = "Date,Open,High,Low,Close,Volume"

# Reason codes of csie.market_data, in the order malformed rows cycle through.
REJECT_REASONS = (
    "field-count",
    "unparseable-field",
    "nonpositive-price",
    "ohlc-ordering",
    "duplicate-symbol",
)


@dataclass(frozen=True)
class InputSpec:
    """Shape of one synthetic input set."""

    key: int  # mixed into the seed so each input set has its own stream
    days: int
    symbols: int
    malformed: float  # extra malformed rows, as a share of valid rows
    zero_volume: float  # share of valid rows with volume 0


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: InputSpec
    # CLI argument lists, run in order; the first is the workload's main
    # command.  {eod}, {index}, {last_day} and {out} are filled in.
    commands: tuple[tuple[str, ...], ...]


SCAN = InputSpec(key=1, days=40, symbols=3500, malformed=0.005, zero_volume=0.02)
LONG = InputSpec(key=2, days=400, symbols=40, malformed=0.05, zero_volume=0.02)

# How each subcommand is run when a workload does not say otherwise.
COMMANDS = {
    "csie": ("csie", "--market-dir", "{eod}", "--ma", "30", "--bubble", "value", "--out", "{out}"),
    "cluster": ("cluster", "--market-dir", "{eod}", "--date", "{last_day}", "--out", "{out}"),
    "compare": ("compare", "--market-dir", "{eod}", "--index", "{index}", "--out", "{out}"),
    "indexvol": ("indexvol", "--index", "{index}", "--windows", "30", "--out", "{out}"),
}

# Why each workload exists is recorded in BENCHMARK.json.  In short:
# market-scan is ingest-bound (big files, estimators unused); long-compare is
# estimator- and grid-bound on many tiny dirty files; raw-days-compare runs
# the same inputs through the interval-slicing path of comparison_grid.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "market-scan",
            SCAN,
            (COMMANDS["csie"], COMMANDS["cluster"]),
        ),
        Workload(
            "long-compare",
            LONG,
            (COMMANDS["compare"], COMMANDS["indexvol"]),
        ),
        Workload(
            "raw-days-compare",
            LONG,
            (
                ("compare", "--market-dir", "{eod}", "--index", "{index}",
                 "--interval-semantics", "raw-days", "--windows", "10,30", "--out", "{out}"),
            ),
        ),
    )
}


def weekdays(start: date, count: int) -> list[date]:
    out = []
    d = start
    while len(out) < count:
        if d.weekday() < 5:
            out.append(d)
        d += timedelta(days=1)
    return out


def _tickers(rng: np.random.Generator, n: int) -> list[str]:
    letters = np.array(list("ABCDEFGHIJKLMNOPQRSTUVWXYZ"))
    seen: set[str] = set()
    while len(seen) < n:
        length = int(rng.integers(1, 6))
        seen.add("".join(rng.choice(letters, length)))
    return sorted(seen)


def _price(x: float) -> str:
    return f"{x:.2f}" if x >= 1.0 else f"{x:.4f}"


def _volume(v: int, style: int) -> str:
    if style == 0:
        return f'"{v:,}"'
    if style == 1:
        return f"{v:,}"
    return str(v)


def _malformed(rng: np.random.Generator, reason: str, sym: str, o: str, h: str, l: str,
               c: str, v: str) -> str:
    if reason == "field-count":
        return f"{sym},{o},{h},{l}"
    if reason == "unparseable-field":
        return f"{sym},{o},N/A,{l},{c},{v}" if rng.random() < 0.5 else f"{sym},{o},{h},{l},{c},12x4"
    if reason == "nonpositive-price":
        return f"{sym},0,{h},{l},{c},{v}" if rng.random() < 0.5 else f"{sym},{o},{h},-{l},{c},{v}"
    if reason == "ohlc-ordering":
        return f"{sym},{o},{h},{_price(float(h) * 1.01)},{c},{v}"
    # duplicate-symbol: a valid-looking second row for a symbol already seen
    return f"{sym},{o},{h},{l},{h},{v}"


def write_inputs(spec: InputSpec, seed: int, root: Path) -> tuple[Path, Path, date]:
    """Write one input set under ``root``; returns (eod_dir, index_csv, last_day)."""
    if seed < 0:
        raise ValueError("seed must be non-negative")
    rng = np.random.default_rng([spec.key, seed])
    eod = root / "eod"
    eod.mkdir(parents=True, exist_ok=True)
    n = spec.symbols
    tickers = _tickers(rng, n)
    level = np.exp(rng.uniform(np.log(2.0), np.log(400.0), n))
    scale = np.exp(rng.uniform(np.log(2e3), np.log(5e6), n))
    days = weekdays(FIRST_DAY, spec.days)
    index_lines = [INDEX_HEADER]
    n_bad = 0
    for d in days:
        o = level * np.exp(rng.normal(0.0, 0.006, n))
        c = o * np.exp(rng.normal(0.0, 0.014, n))
        h = np.maximum(o, c) * np.exp(np.abs(rng.normal(0.0, 0.005, n)))
        l = np.minimum(o, c) * np.exp(-np.abs(rng.normal(0.0, 0.005, n)))
        level = np.clip(c, 0.5, 5000.0)
        vol = np.maximum(1, (scale * rng.lognormal(0.0, 0.5, n)).astype(np.int64))
        vol[rng.random(n) < spec.zero_volume] = 0
        vol[rng.integers(n)] = max(1, int(vol.max()))  # never an all-zero-volume day
        styles = rng.integers(0, 3, n)
        fields = [
            (sym, _price(oi), _price(hi), _price(li), _price(ci), _volume(vi, si))
            for sym, oi, hi, li, ci, vi, si in zip(
                tickers, o.tolist(), h.tolist(), l.tolist(), c.tolist(), vol.tolist(),
                styles.tolist())
        ]
        rows = [",".join(f) for f in fields]

        # Malformed rows are extra; a duplicate goes after its original so
        # the first (valid) occurrence is the one the parser keeps.
        k = int(rng.binomial(n, spec.malformed))
        inserts: list[tuple[int, int, str]] = []
        for j in range(k):
            reason = REJECT_REASONS[(n_bad + j) % len(REJECT_REASONS)]
            src = int(rng.integers(n))
            pos = int(rng.integers(src + 1, n + 1)) if reason == "duplicate-symbol" \
                else int(rng.integers(n + 1))
            inserts.append((pos, j, _malformed(rng, reason, *fields[src])))
        n_bad += k
        inserts.sort()
        lines = [EOD_HEADER]
        at = 0
        for pos, _, text in inserts:
            lines.extend(rows[at:pos])
            lines.append(text)
            at = pos
        lines.extend(rows[at:])
        (eod / f"{MARKET}_{d.strftime('%Y%m%d')}.csv").write_text("\n".join(lines) + "\n")

        # The index aggregates the values as the parser reads them back.
        po, ph, pl, pc = (np.array([float(f[i]) for f in fields]) for i in (1, 2, 3, 4))
        weight = pc * vol
        weight = weight / weight.sum()
        ao, ah, al, ac = (float(np.dot(weight, col)) for col in (po, ph, pl, pc))
        ah, al = max(ah, ao, ac), min(al, ao, ac)  # keep the bracket exact after rounding
        index_lines.append(f"{d.isoformat()},{ao!r},{ah!r},{al!r},{ac!r},"
                           f"{int(vol.sum())}")
    index = root / "index.csv"
    index.write_text("\n".join(index_lines) + "\n")
    return eod, index, days[-1]
