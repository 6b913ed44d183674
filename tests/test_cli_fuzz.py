"""Fuzzing the command line with generated input directories.

Each example writes a small market directory (valid EOD files, files with
byte or field edits or with bars of extreme magnitude, files that are not
UTF-8, two markets on one date, a directory with an EOD file's name), or
none, and an index file that is valid, edited, too short or missing, then
runs one subcommand in-process.  Whatever it is given, ``main`` returns 0, 1
or 2, no exception escapes it, no numpy ``RuntimeWarning`` is raised and no
file it writes holds a ``nan`` or ``inf``.
"""

from __future__ import annotations

import contextlib
import io
import re
import tempfile
import warnings
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csie.cli import main

from helpers import weekdays, write_world
from test_ingest_fuzz import BYTE_EDITS, FIELD_EDITS, edit_bytes, edit_fields

N_DAYS = 8
DAYS = weekdays(date(2021, 6, 1), N_DAYS)
NOT_A_NUMBER = re.compile(r"\b(?:nan|inf)\b", re.I)


def market_texts(root: Path) -> tuple[list[str], str]:
    """The EOD file texts and the index text of one small valid market."""
    eod, index = write_world(root, np.random.default_rng(7), n_symbols=4, n_days=N_DAYS)
    files = [(eod / f"SYN_{d.strftime('%Y%m%d')}.csv").read_text() for d in DAYS]
    return files, index.read_text()


@pytest.fixture(scope="module")
def templates(tmp_path_factory):
    return market_texts(tmp_path_factory.mktemp("templates"))


# Prices at the ends of the float range, with ordinary ones to mix them with.
MAGNITUDES = st.sampled_from(["1e-300", "1e300", "5e-324", "1.7e308", "2.5e-310", "1", "10"])
# (row, four prices, whether close is the larger of the middle two): each edit
# gives one data row the four prices in a valid OHLC order.
EXTREME_EDITS = st.lists(
    st.tuples(st.integers(0, 10**6), st.lists(MAGNITUDES, min_size=4, max_size=4), st.booleans()),
    min_size=1, max_size=3,
)

# How one file is made from its valid text: as it is, edited, given extreme
# prices, or not UTF-8.
CONTENTS = st.one_of(
    st.just(("valid", None)),
    BYTE_EDITS.map(lambda e: ("bytes", e)),
    FIELD_EDITS.map(lambda e: ("fields", e)),
    EXTREME_EDITS.map(lambda e: ("extreme", e)),
    st.integers(0, 10**6).map(lambda at: ("not-utf8", at)),
)


def edit_extremes(text: str, edits) -> bytes:
    """``text`` with each edit setting the open, high, low and close of one
    row after the header: low and high are the least and the greatest price,
    open and close the other two."""
    lines = text.splitlines()
    for row, prices, close_up in edits:
        at = 1 + row % (len(lines) - 1)
        fields = lines[at].split(",")
        low, mid1, mid2, high = sorted(prices, key=float)
        fields[1:5] = [mid1, high, low, mid2] if close_up else [mid2, high, low, mid1]
        lines[at] = ",".join(fields)
    return ("\n".join(lines) + "\n").encode()


def build(text: str, how: tuple) -> bytes:
    kind, arg = how
    if kind == "bytes":
        return edit_bytes(text.encode(), arg)
    if kind == "fields":
        return edit_fields(text, arg)
    if kind == "extreme":
        return edit_extremes(text, arg)
    data = text.encode()
    if kind == "not-utf8":
        at = arg % (len(data) + 1)
        return data[:at] + b"\xff" + data[at:]
    return data


# None is a market directory that does not exist; a "directory" entry is a
# directory with an EOD file's name.
EOD_FILES = st.one_of(st.none(), st.lists(
    st.tuples(st.integers(0, N_DAYS - 1), st.sampled_from(["SYN", "NYSE"]),
              st.one_of(CONTENTS, st.just(("directory", None)))),
    max_size=5,
))
INDEX = st.one_of(st.none(), st.just("short"), CONTENTS)


def write_inputs(root: Path, templates, files, index) -> tuple[Path, Path]:
    eod_texts, index_text = templates
    eod = root / "eod"
    if files is not None:
        eod.mkdir()
    for day, market, how in files or ():
        path = eod / f"{market}_{DAYS[day].strftime('%Y%m%d')}.csv"
        if path.exists():
            continue
        if how[0] == "directory":
            path.mkdir()
        else:
            path.write_bytes(build(eod_texts[day], how))
    index_path = root / "index.csv"
    if index == "short":
        index_path.write_text("\n".join(index_text.splitlines()[:2]) + "\n")
    elif index is not None:
        index_path.write_bytes(build(index_text, index))
    return eod, index_path


@pytest.mark.parametrize("command", ["csie", "indexvol", "compare", "cluster"])
@settings(max_examples=30, deadline=None)
@given(files=EOD_FILES, index=INDEX, cluster_day=st.integers(0, N_DAYS - 1))
def test_a_command_exits_0_1_or_2_on_any_input(templates, command, files, index, cluster_day):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        eod, index_path = write_inputs(root, templates, files, index)
        argv = [command, "--market-dir", str(eod), "--index", str(index_path),
                "--out", str(root / "out"), "--windows", "2", "--intervals", "3,all",
                "--date", DAYS[cluster_day].isoformat()]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as warned:
            warnings.simplefilter("always")
            rc = main(argv)
        written = {p.name: p.read_text() for p in sorted((root / "out").glob("*"))}
    assert rc in (0, 1, 2), err.getvalue()
    assert "Traceback" not in out.getvalue() + err.getvalue()
    numpy_warnings = [str(w.message) for w in warned if issubclass(w.category, RuntimeWarning)]
    assert numpy_warnings == [] and "RuntimeWarning" not in err.getvalue()
    for name, text in written.items():
        assert not NOT_A_NUMBER.findall(text), name
