"""Differential fuzzing of the command line against the frozen seed package.

``perfbench/csie_seed`` is a frozen copy of the seed package, which the
benchmark uses to make its reference outputs.  Each example writes one input
directory with the edits of ``test_cli_fuzz`` and runs all four subcommands
on it through ``csie.cli.main`` and ``csie_seed.cli.main``.  Wherever the
seed exits 0 and writes no ``nan`` or ``inf``, this package must exit 0 too
and write the same files, byte for byte, unless ``divergence`` names the
deliberate change since the seed that the input runs into.  Stderr is not
compared, as its messages changed on purpose.

Some changes need no name, because the seed fails on their inputs: a volume
past int64 raised ``OverflowError`` out of the seed's ``main``, a day without
traded volume made its ``csie`` and ``compare`` exit 1, and a file that is not
UTF-8 made it give up on the whole directory.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import sys
import tempfile
import warnings
from datetime import date
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csie.cli import main
from csie.market_data import IndexSeries, MarketDay, read_eod_file, read_index_csv

from test_cli_fuzz import (CONTENTS, DAYS, N_DAYS, NOT_A_NUMBER, market_texts,
                           write_inputs)

_PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
sys.path.insert(0, _PERFBENCH)
try:
    from csie_seed.cli import main as seed_main
finally:
    sys.path.remove(_PERFBENCH)

COMMANDS = ("csie", "indexvol", "compare", "cluster")
# Three files in four are valid, so that most examples get past the seed,
# which gives up on a directory at the first file it cannot read.
MOSTLY_VALID = st.one_of(*[st.just(("valid", None))] * 3, CONTENTS)
EOD_FILES = st.lists(
    st.tuples(st.integers(0, N_DAYS - 1), st.sampled_from(["SYN", "NYSE"]),
              st.one_of(MOSTLY_VALID, st.just(("directory", None)))),
    min_size=1, max_size=8,
)
INDEX = st.one_of(MOSTLY_VALID, st.just("short"))
WINDOWS = st.sampled_from(["2", "3", "2,3", "3,2", "2,2"])
INTERVALS = st.sampled_from(["3,all", "2,5", "all", "3,3"])


@pytest.fixture(scope="module")
def templates(tmp_path_factory):
    return market_texts(tmp_path_factory.mktemp("templates"))


def run(cli_main, argv: list[str], out: Path) -> tuple[int | None, dict[str, bytes]]:
    """The exit code (None when an exception escaped) and the written files."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()), \
            warnings.catch_warnings(), mock.patch.dict(os.environ, {"CSIE_THREADS": "1"}):
        warnings.simplefilter("ignore")
        try:
            rc = cli_main([*argv, "--out", str(out)])
        except Exception:
            rc = None
    files = {p.name: p.read_bytes() for p in sorted(out.glob("*"))}
    return rc, files


def _repeats(values: str) -> bool:
    parts = values.split(",")
    return len(set(parts)) < len(parts)


def _market_days(eod: Path) -> list[MarketDay]:
    """The days of the market files this package parses."""
    days = []
    for path in sorted(eod.glob("*.csv")) if eod.is_dir() else ():
        with contextlib.suppress(OSError, ValueError):
            days.append(read_eod_file(path))
    return days


def _ratio_past_the_float_range(bars: IndexSeries) -> bool:
    """Whether a price ratio of a bar, or to the close before it, overflows
    or underflows to zero."""
    o, h, l, c, prev = bars.open, bars.high, bars.low, bars.close, bars.close[:-1]
    with np.errstate(over="ignore", under="ignore"):
        ratios = [h / l, c / o, h / o, h / c, l / o, l / c, o[1:] / prev, c[1:] / prev]
    return any(((r == 0.0) | np.isinf(r)).any() for r in ratios)


def _traded_value_past_the_float_range(day: MarketDay) -> bool:
    with np.errstate(over="ignore"):
        values = day.close[day.tradable] * day.volume[day.tradable]
    try:
        return not math.isfinite(math.fsum(values.tolist()))
    except OverflowError:
        return True


def _entropy_terms_past_the_float_range(day: MarketDay) -> bool:
    """Whether a traded bar's open-to-close or range term overflows."""
    o, h, l, c = (col[day.tradable] for col in (day.open, day.high, day.low, day.close))
    with np.errstate(over="ignore", invalid="ignore"):
        spread = (h / o - 1.0) * (h / c - 1.0) + (l / o - 1.0) * (l / c - 1.0)
        return not (np.isfinite(c / o).all() and np.isfinite(spread).all())


def _index_records(index: Path) -> list[list[str]]:
    try:
        return list(csv.reader(io.StringIO(index.read_bytes().decode("utf-8-sig"))))
    except (OSError, ValueError, csv.Error):
        return []


def divergence(command: str, windows: str, intervals: str, cluster_date: date,
               eod: Path, index: Path) -> str | None:
    """The deliberate change since the seed that lets this run's outputs
    differ from the seed's, or None where they must be the same."""
    if _repeats(windows) or _repeats(intervals):
        return "a repeated window or interval is a configuration error"
    uses_market = command in ("csie", "compare")
    uses_index = command in ("indexvol", "compare")
    if command == "indexvol" and windows.split(",")[0] != min(windows.split(","), key=int):
        return "indexvol uses the first window as written, not the smallest"
    if uses_index:
        records = _index_records(index)
        has_header = bool(records) and "date" in [f.strip().lower() for f in records[0]]
        width = len(records[0]) if has_header else 6
        if any(len(r) > width and "".join(r).strip() for r in records):
            return ("an index row longer than the header is a field-count reject or a "
                    "rejoined bare-thousands volume")
        with contextlib.suppress(OSError, ValueError):
            if _ratio_past_the_float_range(read_index_csv(index)):
                return "an index window whose price ratios pass the float range fails"
    days = _market_days(eod)
    if uses_market and any(_traded_value_past_the_float_range(d) for d in days):
        return "a day whose traded value passes the float range is an error"
    if uses_market and any(_entropy_terms_past_the_float_range(d) for d in days):
        return "a day whose entropy terms pass the float range is skipped"
    if command == "cluster":
        stamp = cluster_date.strftime("%Y%m%d")
        if len([p for p in eod.glob(f"*_{stamp}.csv") if p.is_file()]) > 1:
            return "two EOD files of the day to cluster are an input error"
        if any(d.day == cluster_date and _extreme_price(d) for d in days):
            return "pearson scales each price column before it centres it"
    return None


def _extreme_price(day: MarketDay) -> bool:
    """Whether a price is past 1e50 or below 1e-50, where the sums of squares
    of unscaled prices and their products can leave the float range."""
    prices = np.concatenate((day.open, day.high, day.low, day.close))
    return bool(((prices > 1e50) | (prices < 1e-50)).any())


@settings(max_examples=150, deadline=None)
@given(files=EOD_FILES, index=INDEX, cluster_day=st.integers(0, N_DAYS - 1),
       windows=WINDOWS, intervals=INTERVALS)
def test_outputs_match_the_seed(templates, files, index, cluster_day, windows, intervals):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        eod, index_path = write_inputs(root, templates, files, index)
        for command in COMMANDS:
            argv = [command, "--market-dir", str(eod), "--index", str(index_path),
                    "--windows", windows, "--intervals", intervals,
                    "--date", DAYS[cluster_day].isoformat()]
            seed_rc, seed_files = run(seed_main, argv, root / f"seed-{command}")
            if seed_rc != 0 or any(NOT_A_NUMBER.search(b.decode()) for b in seed_files.values()):
                continue
            if divergence(command, windows, intervals, DAYS[cluster_day], eod, index_path):
                continue
            rc, files_now = run(main, argv, root / f"now-{command}")
            assert (rc, files_now) == (seed_rc, seed_files), command
