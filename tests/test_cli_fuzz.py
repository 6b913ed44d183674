"""Fuzzing the command line with generated input directories.

Each example writes a small market directory (valid EOD files, files with
byte or field edits, files that are not UTF-8, two markets on one date, a
directory with an EOD file's name), or none, and an index file that is
valid, edited, too short or missing, then runs one subcommand in-process.  Whatever it is given, ``main`` returns 0, 1 or 2 and
no exception escapes it.
"""

from __future__ import annotations

import contextlib
import io
import tempfile
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


@pytest.fixture(scope="module")
def templates(tmp_path_factory):
    """The EOD file texts and the index text of one small valid market."""
    eod, index = write_world(tmp_path_factory.mktemp("templates"),
                             np.random.default_rng(7), n_symbols=4, n_days=N_DAYS)
    files = [(eod / f"SYN_{d.strftime('%Y%m%d')}.csv").read_text() for d in DAYS]
    return files, index.read_text()


# How one file is made from its valid text: as it is, edited, or not UTF-8.
CONTENTS = st.one_of(
    st.just(("valid", None)),
    BYTE_EDITS.map(lambda e: ("bytes", e)),
    FIELD_EDITS.map(lambda e: ("fields", e)),
    st.integers(0, 10**6).map(lambda at: ("not-utf8", at)),
)


def build(text: str, how: tuple) -> bytes:
    kind, arg = how
    if kind == "bytes":
        return edit_bytes(text.encode(), arg)
    if kind == "fields":
        return edit_fields(text, arg)
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
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    assert rc in (0, 1, 2), err.getvalue()
    assert "Traceback" not in out.getvalue() + err.getvalue()
