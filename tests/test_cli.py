from __future__ import annotations

import ast
import gc
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from datetime import date
from pathlib import Path

import numpy as np
import pytest

import csie
from csie import analytics, cli, cross_section, market_data
from csie.cli import _resolve, build_parser, load_config_file, main
from csie.market_data import MarketDay

from helpers import weekdays, write_world


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    root = tmp_path_factory.mktemp("world")
    eod_dir, index_path = write_world(root, np.random.default_rng(81), n_symbols=4, n_days=90)
    return eod_dir, index_path


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- csie subcommand ----------------------------------------------------------------

def test_csie_outputs(world, tmp_path, capsys):
    eod, _ = world
    out = tmp_path / "out"
    code, stdout, stderr = run(["csie", "--market-dir", str(eod), "--out", str(out)], capsys)
    assert code == 0, stderr
    assert stdout.count("wrote ") == 2
    csv_text = (out / "csie_daily.csv").read_text()
    lines = csv_text.strip().split("\n")
    assert lines[0] == "date,m,total_value,f,h_oc,h_olhc,csie_signed,csie_abs,degenerate_flag"
    assert len(lines) == 91  # header + 90 days
    assert lines[1].startswith("2021-06-01,4,")
    ET.fromstring((out / "csie_series.svg").read_text())


def test_csie_ma_and_bubbles(tmp_path, capsys):
    eod, _ = write_world(tmp_path / "w", np.random.default_rng(82), n_days=60)
    out = tmp_path / "out"
    code, _, _ = run(
        ["csie", "--market-dir", str(eod), "--out", str(out),
         "--ma", "30", "--bubble", "count"],
        capsys,
    )
    assert code == 0
    text = (out / "csie_series.svg").read_text()
    root = ET.fromstring(text)
    polys = [el for el in root.iter() if el.tag.endswith("}polyline")]
    assert len(polys) == 2
    assert len(polys[1].get("points").split()) == 31  # 60 days, 30-day trailing mean
    circles = [el for el in root.iter() if el.tag.endswith("}circle")]
    assert len(circles) == 60


def test_csie_abs_variant_title(world, tmp_path, capsys):
    eod, _ = world
    out = tmp_path / "out"
    code, _, _ = run(["csie", "--market-dir", str(eod), "--out", str(out), "--abs"], capsys)
    assert code == 0
    assert "absolute" in (out / "csie_series.svg").read_text()


def test_csie_missing_market_dir(tmp_path, capsys):
    code, _, stderr = run(
        ["csie", "--market-dir", str(tmp_path / "nope"), "--out", str(tmp_path)], capsys
    )
    assert code == 2
    assert "cannot load market data" in stderr


@pytest.mark.parametrize(
    "rows, message",
    [
        # each close*volume is finite, their sum is not
        (["AA,1e299,1e299,1e299,1e299,1000000000",
          "BB,1e299,1e299,1e299,1e299,1000000000"], "sum overflows"),
        # one close*volume is already infinite
        (["AA,1e300,1e300,1e300,1e300,1000000000", "BB,1,1,1,1,5"], "not finite"),
    ],
    ids=["sum-overflows", "product-overflows"],
)
def test_csie_overflowing_traded_value_is_an_error(tmp_path, capsys, rows, message):
    eod = tmp_path / "eod"
    eod.mkdir()
    (eod / "M_20210104.csv").write_text("Symbol,Open,High,Low,Close,Volume\n" + "\n".join(rows))
    out = tmp_path / "out"
    code, stdout, stderr = run(["csie", "--market-dir", str(eod), "--out", str(out)], capsys)
    assert code == 1
    assert stderr.startswith("error:") and message in stderr
    assert not (out / "csie_daily.csv").exists() and "inf" not in stdout


# The middle day of three, each unusable in its own way, and the error line
# that reports it.
UNUSABLE_DAY = {
    "zero-volume": (
        b"AA,10,11,9,10.5,0\nBB,20,21,19,20.5,0\n",
        "skipped 2021-06-02: empty cross-section on 2021-06-02",
    ),
    "no-usable-row": (
        b"AA,10,9,9,10.5,200\n",
        "skipped {eod}/M_20210602.csv: no usable rows for 2021-06-02",
    ),
    "not-utf8": (
        b"AA,10,11,9,10.5,200\n\xff\n",
        "skipped {eod}/M_20210602.csv: 'utf-8' codec can't decode byte 0xff in position 54: "
        "invalid start byte",
    ),
    # C/O of AA overflows to inf, and AA's psi is 1 to double precision
    "price-ratio-overflow": (
        b"AA,1e-300,1e300,1e-300,1e300,1\nBB,10,11,9,10.5,200\nCC,20,21,19,20.5,200\n",
        "skipped 2021-06-02: entropy terms on 2021-06-02 are past the float range",
    ),
}


@pytest.mark.parametrize("case", UNUSABLE_DAY)
@pytest.mark.parametrize("command", ["csie", "compare"])
def test_an_unusable_day_costs_only_itself(tmp_path, capsys, command, case):
    eod = tmp_path / "eod"
    eod.mkdir()
    header = b"Symbol,Open,High,Low,Close,Volume\n"
    middle, message = UNUSABLE_DAY[case]
    for stamp, volume in (("20210601", 100), ("20210603", 300)):
        (eod / f"M_{stamp}.csv").write_bytes(
            header + f"AA,10,11,9,10.5,{volume}\nBB,20,21,19,20.5,{volume}\n".encode()
        )
    (eod / "M_20210602.csv").write_bytes(header + middle)
    index = tmp_path / "index.csv"
    index.write_text(
        "Date,Open,High,Low,Close,Volume\n"
        + "".join(f"2021-06-0{d},10,11,9,10.{d},{d}000\n" for d in (1, 2, 3))
    )
    out = tmp_path / "out"
    code, stdout, stderr = run(
        [command, "--market-dir", str(eod), "--index", str(index), "--out", str(out),
         "--estimators", "pk", "--windows", "1", "--intervals", "all"],
        capsys,
    )
    assert code == 1
    assert stderr.splitlines() == ["error: " + message.format(eod=eod)]
    if command == "csie":
        rows = (out / "csie_daily.csv").read_text().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["2021-06-01", "2021-06-03"]
        assert stdout.count("wrote ") == 2
        for name in ("csie_daily.csv", "csie_series.svg"):
            text = (out / name).read_text()
            assert "nan" not in text and "inf" not in text, name
    else:
        assert stdout.count("wrote ") == 4
        assert (out / "grid_mean.csv").read_text().splitlines()[1].startswith("all,1,")


@pytest.mark.parametrize("command", ["csie", "compare"])
def test_one_market_day_is_alive_at_a_time(world, tmp_path, capsys, monkeypatch, command):
    alive = []
    real = cross_section.csie_day

    def counting(day, alpha):
        alive.append(sum(type(o) is MarketDay for o in gc.get_objects()))
        return real(day, alpha)

    monkeypatch.setattr(cross_section, "csie_day", counting)
    eod, index = world
    code, _, stderr = run(
        [command, "--market-dir", str(eod), "--index", str(index), "--out", str(tmp_path),
         "--windows", "5", "--intervals", "all"],
        capsys,
    )
    assert code == 0, stderr
    assert len(alive) == 90 and max(alive) == 1


# Four days: the second has no traded volume, the third no usable row.
SKIPS = (
    ("20210601", "AA,10,11,9,10.5,100\nBB,20,21,19,20.5,100\n"),
    ("20210602", "AA,10,11,9,10.5,0\nBB,20,21,19,20.5,0\n"),
    ("20210603", "AA,10,9,9,10.5,200\n"),
    ("20210604", "AA,10,11,9,10.5,300\nBB,20,21,19,20.5,300\n"),
)


@pytest.mark.parametrize("command, index_ok", [("csie", False), ("compare", False),
                                               ("compare", True)])
def test_skipped_files_are_reported_before_skipped_days(tmp_path, capsys, command, index_ok):
    eod = tmp_path / "eod"
    eod.mkdir()
    for stamp, rows in SKIPS:
        (eod / f"M_{stamp}.csv").write_text("Symbol,Open,High,Low,Close,Volume\n" + rows)
    index = tmp_path / "index.csv"
    index.write_text("Date,Open,High,Low,Close,Volume\n"
                     + ("".join(f"2021-06-0{d},10,11,9,10.{d},{d}000\n" for d in range(1, 5))
                        if index_ok else "2021-06-01,10,9,9,10.5,1000\n"))
    code, stdout, stderr = run(
        [command, "--market-dir", str(eod), "--index", str(index), "--out", str(tmp_path / "out"),
         "--estimators", "pk", "--windows", "1", "--intervals", "all"],
        capsys,
    )
    file_line = f"error: skipped {eod}/M_20210603.csv: no usable rows for 2021-06-03"
    day_line = "error: skipped 2021-06-02: empty cross-section on 2021-06-02"
    if command == "compare" and not index_ok:
        # the index fails once the first file parses: before the later file's
        # skip line and the day lines
        assert (code, stdout) == (2, "")
        assert stderr.splitlines() == [
            f"error: cannot load index from {index}: no usable rows in index 'index'"
        ]
    else:
        assert code == 1
        assert stderr.splitlines() == [file_line, day_line]
        assert stdout.count("wrote ") == (2 if command == "csie" else 4)


# Five days: the first and the third have no usable row.
BAD_THEN_GOOD = tuple(
    (stamp, "AA,10,9,9,10.5,200\n" if bad else "AA,10,11,9,10.5,100\nBB,20,21,19,20.5,100\n")
    for stamp, bad in zip(("20210601", "20210602", "20210603", "20210604", "20210607"),
                          (True, False, True, False, False))
)


@pytest.mark.parametrize("index_text", [None, "Date,Open,High,Low,Close,Volume\n"],
                         ids=["missing", "no-usable-row"])
@pytest.mark.parametrize("market_ok", [True, False])
def test_compare_with_a_bad_index_stops_at_the_first_usable_file(tmp_path, capsys, monkeypatch,
                                                                  index_text, market_ok):
    """The index error waits for a usable EOD file, so a market error still
    wins; once one file parses, nothing else is parsed."""
    parsed = []
    real = market_data.parse_eod_file
    monkeypatch.setattr(market_data, "parse_eod_file",
                        lambda data, day, **kw: parsed.append(day) or real(data, day, **kw))
    eod = tmp_path / "eod"
    eod.mkdir()
    for stamp, rows in BAD_THEN_GOOD if market_ok else BAD_THEN_GOOD[:1]:
        (eod / f"M_{stamp}.csv").write_text("Symbol,Open,High,Low,Close,Volume\n" + rows)
    index = tmp_path / "index.csv"
    if index_text is not None:
        index.write_text(index_text)
    code, stdout, stderr = run(
        ["compare", "--market-dir", str(eod), "--index", str(index), "--out", str(tmp_path / "out")],
        capsys,
    )
    assert (code, stdout) == (2, "")
    lines = stderr.splitlines()
    assert lines[0] == f"error: skipped {eod}/M_20210601.csv: no usable rows for 2021-06-01"
    if market_ok:
        assert len(parsed) == 2 and len(lines) == 2
        assert lines[1].startswith(f"error: cannot load index from {index}: ")
    else:
        assert len(parsed) == 1
        assert lines[1:] == [f"error: cannot load market data from {eod}: no usable EOD file in {eod}"]


def test_csie_reruns_byte_identical(world, tmp_path, capsys):
    eod, _ = world
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["csie", "--market-dir", str(eod), "--out", str(a)], capsys)[0] == 0
    assert run(["csie", "--market-dir", str(eod), "--out", str(b)], capsys)[0] == 0
    assert (a / "csie_daily.csv").read_bytes() == (b / "csie_daily.csv").read_bytes()
    assert (a / "csie_series.svg").read_bytes() == (b / "csie_series.svg").read_bytes()


def test_csie_thread_count_does_not_change_output(world, tmp_path, capsys, monkeypatch):
    eod, _ = world
    outputs = []
    for threads, sub in (("1", "t1"), ("8", "t8")):
        monkeypatch.setenv("CSIE_THREADS", threads)
        out = tmp_path / sub
        assert run(["csie", "--market-dir", str(eod), "--out", str(out)], capsys)[0] == 0
        outputs.append((out / "csie_daily.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_thread_env_is_ignored(world, tmp_path, capsys, monkeypatch):
    eod, _ = world
    monkeypatch.delenv("CSIE_THREADS", raising=False)
    assert run(["csie", "--market-dir", str(eod), "--out", str(tmp_path / "a")], capsys)[0] == 0
    monkeypatch.setenv("CSIE_THREADS", "zero")
    code, _, stderr = run(["csie", "--market-dir", str(eod), "--out", str(tmp_path / "b")], capsys)
    assert code == 0, stderr
    for name in ("csie_daily.csv", "csie_series.svg"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


# --- indexvol subcommand ---------------------------------------------------------------

def test_indexvol_row_count(tmp_path, capsys):
    _, index = write_world(tmp_path / "w", np.random.default_rng(83), n_days=65)
    out = tmp_path / "out"
    code, stdout, stderr = run(
        ["indexvol", "--index", str(index), "--out", str(out), "--windows", "60"],
        capsys,
    )
    assert code == 0, stderr
    lines = (out / "indexvol.csv").read_text().strip().split("\n")
    assert lines[0] == "date,cc,pk,gk,rs,yz,ie"
    # seed-consuming estimators only reach 65 - 60 = 5 common end dates
    assert len(lines) == 6
    ET.fromstring((out / "indexvol.svg").read_text())
    assert "window 60" in (out / "indexvol.svg").read_text()


def test_indexvol_uses_the_first_window_as_written(tmp_path, capsys):
    _, index = write_world(tmp_path / "w", np.random.default_rng(83), n_days=65)
    out = tmp_path / "out"
    code, _, stderr = run(
        ["indexvol", "--index", str(index), "--out", str(out), "--windows", "60,5"],
        capsys,
    )
    assert code == 0, stderr
    assert "window 60" in (out / "indexvol.svg").read_text()
    assert len((out / "indexvol.csv").read_text().strip().split("\n")) == 6


def test_indexvol_estimator_subset(tmp_path, capsys):
    _, index = write_world(tmp_path / "w", np.random.default_rng(84), n_days=65)
    out = tmp_path / "out"
    code, _, _ = run(
        ["indexvol", "--index", str(index), "--out", str(out),
         "--windows", "60", "--estimators", "pk,gk"],
        capsys,
    )
    assert code == 0
    lines = (out / "indexvol.csv").read_text().strip().split("\n")
    assert lines[0] == "date,pk,gk"
    assert len(lines) == 7  # no seed bar needed: 6 windows fit in 65 bars


def test_indexvol_window_too_large(tmp_path, capsys):
    _, index = write_world(tmp_path / "w", np.random.default_rng(85), n_days=30)
    code, _, stderr = run(
        ["indexvol", "--index", str(index), "--out", str(tmp_path), "--windows", "100"],
        capsys,
    )
    assert code == 2
    assert "'cc'" in stderr and "100" in stderr


def test_indexvol_requires_index(tmp_path, capsys):
    code, _, stderr = run(["indexvol", "--out", str(tmp_path)], capsys)
    assert code == 2
    assert "--index is required" in stderr


# --- compare subcommand ------------------------------------------------------------------

def test_compare_outputs_four_grids(world, tmp_path, capsys):
    eod, index = world
    out = tmp_path / "out"
    code, stdout, stderr = run(
        ["compare", "--market-dir", str(eod), "--index", str(index),
         "--out", str(out), "--windows", "5,10", "--intervals", "20,1300,all"],
        capsys,
    )
    assert code == 0, stderr
    assert stdout.count("wrote ") == 4
    for stat in ("mean", "variance", "pearson", "beta"):
        lines = (out / f"grid_{stat}.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 2 * 3  # two windows x three intervals
        assert all(line.count(",") == lines[0].count(",") for line in lines)
    pearson_text = (out / "grid_pearson.csv").read_text()
    assert ",NA" in pearson_text  # 1300 smoothed points never exist in 90 days
    assert (out / "grid_mean.csv").read_text().splitlines()[0].endswith(",csie")


def test_compare_rolls_each_series_once(world, tmp_path, capsys, monkeypatch):
    calls = []
    real = analytics._rolls

    def counting(series, tag, w):
        calls.append((tag, w))
        return real(series, tag, w)

    monkeypatch.setattr(analytics, "_rolls", counting)
    eod, index = world
    code, _, stderr = run(
        ["compare", "--market-dir", str(eod), "--index", str(index), "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0, stderr
    # six tags x four default windows; the ie roll keeps both blends
    assert len(calls) == 24


@pytest.mark.parametrize(
    "key, value",
    [("windows", "5,5"), ("windows", "10,5,10"), ("intervals", "30,30"),
     ("intervals", "all,20,all"), ("intervals", "30,030")],
)
@pytest.mark.parametrize("source", ["flag", "config"])
def test_compare_repeated_window_or_interval_rejected(world, tmp_path, capsys, key, value, source):
    eod, index = world
    argv = ["compare", "--market-dir", str(eod), "--index", str(index), "--out", str(tmp_path / "o")]
    if source == "flag":
        argv += [f"--{key}", value]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        argv += ["--config", str(cfg)]
    code, _, stderr = run(argv, capsys)
    assert code == 2
    assert stderr.startswith("error: ") and f"duplicate {key}" in stderr
    assert not (tmp_path / "o").exists()


def test_compare_deterministic(world, tmp_path, capsys):
    eod, index = world
    texts = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert run(
            ["compare", "--market-dir", str(eod), "--index", str(index),
             "--out", str(out), "--windows", "5", "--intervals", "10,all"],
            capsys,
        )[0] == 0
        texts.append((out / "grid_beta.csv").read_bytes())
    assert texts[0] == texts[1]


def test_compare_raw_days_flag(world, tmp_path, capsys):
    eod, index = world
    out_s, out_r = tmp_path / "s", tmp_path / "r"
    base = ["compare", "--market-dir", str(eod), "--index", str(index),
            "--windows", "5", "--intervals", "40,all"]
    assert run(base + ["--out", str(out_s)], capsys)[0] == 0
    assert run(base + ["--out", str(out_r), "--interval-semantics", "raw-days"], capsys)[0] == 0
    assert (out_s / "grid_pearson.csv").read_text() != (out_r / "grid_pearson.csv").read_text()


# --- cluster subcommand ---------------------------------------------------------------------

def test_cluster_outputs(world, tmp_path, capsys):
    eod, _ = world
    day = weekdays(date(2021, 6, 1), 90)[10]
    out = tmp_path / "out"
    code, stdout, stderr = run(
        ["cluster", "--market-dir", str(eod), "--date", day.isoformat(), "--out", str(out)],
        capsys,
    )
    assert code == 0, stderr
    assert stdout.count("wrote ") == 3
    iso = day.isoformat()
    newick = (out / f"cluster_{iso}.newick").read_text()
    assert newick.strip().endswith(";") and newick.count("(") == 3
    merges = (out / f"cluster_{iso}_merges.csv").read_text().strip().split("\n")
    assert merges[0] == "step,left,right,height"
    assert len(merges) == 4
    ET.fromstring((out / f"cluster_{iso}.svg").read_text())


def test_cluster_accepts_compact_date(world, tmp_path, capsys):
    eod, _ = world
    code, _, _ = run(
        ["cluster", "--market-dir", str(eod), "--date", "20210601", "--out", str(tmp_path / "o")],
        capsys,
    )
    assert code == 0


def test_cluster_requires_date(world, tmp_path, capsys):
    eod, _ = world
    code, _, stderr = run(["cluster", "--market-dir", str(eod), "--out", str(tmp_path)], capsys)
    assert code == 2
    assert "--date is required" in stderr


def test_cluster_unknown_date(world, tmp_path, capsys):
    eod, _ = world
    code, _, stderr = run(
        ["cluster", "--market-dir", str(eod), "--date", "1999-01-04", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 2
    assert "no EOD file" in stderr


@pytest.mark.parametrize("command", ["csie", "cluster"])
def test_two_files_of_one_date_are_an_input_error(tmp_path, capsys, command):
    eod = tmp_path / "eod"
    eod.mkdir()
    for market in ("NYSE", "NASDAQ"):
        (eod / f"{market}_20210104.csv").write_text("AA,10,11,9,10.5,100\nBB,20,21,19,20.5,100\n")
    out = tmp_path / "out"
    code, stdout, stderr = run(
        [command, "--market-dir", str(eod), "--date", "2021-01-04", "--out", str(out)], capsys
    )
    assert code == 2
    assert stderr == (f"error: cannot load market data from {eod}: duplicate date 2021-01-04: "
                      "NASDAQ_20210104.csv, NYSE_20210104.csv\n")
    assert stdout == "" and not out.exists()


def test_cluster_counts_only_regular_files(world, tmp_path, capsys):
    eod, _ = world
    local = tmp_path / "eod"
    local.mkdir()
    (local / "A_20210601.csv").mkdir()  # sorts before the file of the same date
    (local / "M_20210601.csv").write_bytes((eod / "SYN_20210601.csv").read_bytes())
    out = tmp_path / "out"
    code, stdout, stderr = run(
        ["cluster", "--market-dir", str(local), "--date", "2021-06-01", "--out", str(out)], capsys
    )
    assert code == 0, stderr
    assert stdout.count("wrote ") == 3


def test_cluster_of_prices_whose_squares_underflow(tmp_path, capsys):
    eod = tmp_path / "eod"
    eod.mkdir()
    (eod / "X_20210104.csv").write_text(
        "A,1e-110,2e-110,0.5e-110,1.5e-110,10\n"
        "B,2e-110,3e-110,1.5e-110,2.5e-110,10\n"
        "C,3e-110,4.1e-110,2.5e-110,3.6e-110,10\n"
    )
    out = tmp_path / "out"
    code, stdout, stderr = run(
        ["cluster", "--market-dir", str(eod), "--date", "2021-01-04", "--out", str(out)], capsys
    )
    assert code == 0, stderr
    assert "Traceback" not in stderr and stdout.count("wrote ") == 3


# --- configuration ------------------------------------------------------------------------------

def test_config_file_round_trip(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nwindows = 7\nabs = true\n\nout = somewhere\n")
    assert load_config_file(cfg) == {"windows": "7", "abs": "true", "out": "somewhere"}


@pytest.mark.parametrize(
    "content, message",
    [
        (b"colour = blue\n", "unknown key"),
        (b"windows = 7\n\xff\n", "cannot read config file"),
    ],
)
def test_unusable_config_file_is_a_config_error(tmp_path, capsys, content, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(content)
    code, _, stderr = run(["csie", "--config", str(cfg)], capsys)
    assert code == 2
    assert stderr.startswith("error: ") and message in stderr


def test_config_file_may_start_with_a_byte_order_mark(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes("\ufeffwindows = 7\n".encode())
    assert load_config_file(cfg) == {"windows": "7"}


# Each exit-2 message of the configuration: the command, its flags, the text of
# its config file (None for no file) and the message, in which ``{cfg}``
# stands for the config file's path.  Each is raised before any input is read.
CONFIG_ERRORS = {
    "windows-bad": ("csie", ["--windows", "5,x"], None, "bad windows list '5,x'"),
    "windows-zero": ("csie", ["--windows", "5,0"], None, "windows must be positive integers"),
    "windows-empty": ("csie", ["--windows", ","], None, "windows must be positive integers"),
    "windows-repeated": ("csie", ["--windows", "5,5"], None, "duplicate windows"),
    "interval-bad": ("csie", ["--intervals", "30,x"], None, "bad interval 'x'"),
    "interval-zero": ("csie", ["--intervals", "0,all"], None, "intervals must be positive"),
    "intervals-empty": ("csie", ["--intervals", " , "], None, "empty intervals list"),
    "interval-repeated": ("csie", ["--intervals", "30,30"], None, "duplicate intervals"),
    "all-repeated": ("csie", ["--intervals", "all,30,all"], None, "duplicate intervals"),
    "estimators-empty": ("csie", ["--estimators", ","], None, "empty estimator list"),
    "estimator-unknown": ("csie", ["--estimators", "cc,zz"], None, "unknown estimator 'zz'"),
    "estimator-repeated": ("csie", ["--estimators", "cc,pk,cc"], None,
                           "duplicate estimator tags"),
    "date-bad": ("cluster", ["--date", "2021-13-01"], None,
                 "bad date '2021-13-01' (want YYYY-MM-DD or YYYYMMDD)"),
    "date-seven-digits": ("cluster", ["--date", "2016022"], None,
                          "bad date '2016022' (want YYYY-MM-DD or YYYYMMDD)"),
    "date-six-digits": ("cluster", ["--date", "202111"], None,
                        "bad date '202111' (want YYYY-MM-DD or YYYYMMDD)"),
    "abs-not-boolean": ("csie", [], "abs = maybe\n", "abs must be a boolean, got 'maybe'"),
    "log-prices-not-boolean": ("cluster", [], "log-prices = 2\n",
                               "log_prices must be a boolean, got '2'"),
    "alpha-bad": ("csie", ["--alpha", "x"], None, "bad alpha 'x'"),
    "alpha-low": ("csie", ["--alpha", "0.5"], None, "alpha must exceed 1 and be finite, got 0.5"),
    "ma-bad": ("csie", ["--ma", "2.5"], None, "bad ma '2.5'"),
    "ma-zero": ("csie", ["--ma", "0"], None, "ma must be at least 1"),
    "bubble-bad": ("csie", [], "bubble = size\n", "bubble must be 'count' or 'value'"),
    "semantics-bad": ("compare", [], "interval_semantics = days\n",
                      "interval-semantics must be one of ('smoothed-points', 'raw-days')"),
    "csie-market-dir": ("csie", [], None, "--market-dir is required for this command"),
    "compare-market-dir": ("compare", ["--index", "i.csv"], None,
                           "--market-dir is required for this command"),
    "cluster-market-dir": ("cluster", ["--date", "2021-01-04"], None,
                           "--market-dir is required for this command"),
    "indexvol-index": ("indexvol", [], None, "--index is required for this command"),
    "cluster-date": ("cluster", ["--market-dir", "m"], None, "--date is required for cluster"),
    "no-equals-sign": ("csie", [], "# runs\nwindows 7\n", "{cfg}:2: expected key = value"),
    "unknown-key": ("csie", [], "windows = 7\ncolour = blue\n", "{cfg}:2: unknown key 'colour'"),
}


@pytest.mark.parametrize("case", CONFIG_ERRORS)
def test_each_configuration_error_exits_2_with_its_message(tmp_path, capsys, case):
    command, flags, text, message = CONFIG_ERRORS[case]
    argv = [command, *flags]
    cfg = tmp_path / "run.cfg"
    if text is not None:
        cfg.write_text(text)
        argv += ["--config", str(cfg)]
    assert run(argv, capsys) == (2, "", f"error: {message.format(cfg=cfg)}\n")


# A config file with a bad value for every key that is checked, in the order
# the checks run; each message is the one given once the keys before it are
# mended.
CHECK_ORDER = [
    ("alpha = 0.5", "alpha must exceed 1 and be finite, got 0.5"),
    ("interval_semantics = days",
     "interval-semantics must be one of ('smoothed-points', 'raw-days')"),
    ("bubble = size", "bubble must be 'count' or 'value'"),
    ("ma = x", "bad ma 'x'"),
    ("estimators = zz", "unknown estimator 'zz'"),
    ("windows = 0", "windows must be positive integers"),
    ("intervals = x", "bad interval 'x'"),
    ("abs = maybe", "abs must be a boolean, got 'maybe'"),
    ("date = x", "bad date 'x' (want YYYY-MM-DD or YYYYMMDD)"),
    ("log_prices = maybe", "log_prices must be a boolean, got 'maybe'"),
]


@pytest.mark.parametrize("first", range(len(CHECK_ORDER)))
def test_the_first_bad_value_in_check_order_is_reported(tmp_path, capsys, first):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(line + "\n" for line, _ in reversed(CHECK_ORDER[first:])))
    assert run(["csie", "--config", str(cfg)], capsys) == (
        2, "", f"error: {CHECK_ORDER[first][1]}\n")


# One value of each option that is not its default, as a flag and as a
# config line.
SAME_VALUE = {
    "market_dir": (["--market-dir", "eod"], "market_dir = eod"),
    "index": (["--index", "spx.csv"], "index = spx.csv"),
    "estimators": (["--estimators", "yz,cc"], "estimators = yz, cc"),
    "windows": (["--windows", "30,7"], "windows = 30,7"),
    "intervals": (["--intervals", "all,60"], "intervals = all,60"),
    "alpha": (["--alpha", "1.5"], "alpha = 1.5"),
    "abs": (["--abs"], "abs = true"),
    "ma": (["--ma", "3"], "ma = 3"),
    "bubble": (["--bubble", "value"], "bubble = value"),
    "out": (["--out", "reports"], "out = reports"),
    "interval_semantics": (["--interval-semantics", "raw-days"],
                           "interval-semantics = raw-days"),
    "date": (["--date", "20210104"], "date = 2021-01-04"),
    "log_prices": (["--log-prices"], "log_prices = yes"),
}


def test_every_option_is_given_a_value():
    names = set(vars(build_parser().parse_args(["csie"]))) - {"command", "config"}
    assert set(SAME_VALUE) == names


@pytest.mark.parametrize("name", SAME_VALUE)
def test_a_flag_and_a_config_line_resolve_alike(tmp_path, name):
    flags, line = SAME_VALUE[name]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    parser = build_parser()
    by_flag = _resolve(parser.parse_args(["csie", *flags]))
    by_file = _resolve(parser.parse_args(["csie", "--config", str(cfg)]))
    assert by_flag == by_file
    assert by_flag != _resolve(parser.parse_args(["csie"]))


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _probe(code: str, *argv: str,
           env: dict[str, str] | None = None) -> subprocess.CompletedProcess:
    """Runs ``python -c code argv`` on the source tree, with no BLAS thread
    variable set but those in ``env``."""
    src = Path(__file__).resolve().parent.parent / "src"
    child = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    child.update(env or {}, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env=child, timeout=60)


# The code of the installed ``csie`` script.
ENTRY_PROBE = "import sys; from csie.cli import main; sys.exit(main())"


def test_entry_point_output_directory_that_is_a_file(world, tmp_path):
    eod, _ = world
    afile = tmp_path / "afile"
    afile.write_text("x")
    for out in (afile, afile / "sub"):
        done = _probe(ENTRY_PROBE, "csie", "--market-dir", str(eod), "--out", str(out))
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith(f"error: cannot create output directory {out}: ")
        assert "Traceback" not in done.stderr


def test_entry_point_output_file_that_is_a_directory(world, tmp_path):
    eod, _ = world
    (tmp_path / "csie_daily.csv").mkdir()
    done = _probe(ENTRY_PROBE, "csie", "--market-dir", str(eod), "--out", str(tmp_path))
    assert done.returncode == 1, done.stderr
    assert done.stderr.startswith(f"failed {tmp_path / 'csie_daily.csv'}: ")
    assert "Traceback" not in done.stderr
    assert done.stdout.splitlines() == [f"wrote {tmp_path / 'csie_series.svg'}"]
    assert (tmp_path / "csie_series.svg").is_file()


@pytest.mark.skipif(os.geteuid() == 0, reason="root may write into a read-only directory")
def test_entry_point_read_only_output_directory(world, tmp_path):
    eod, _ = world
    out = tmp_path / "out"
    out.mkdir()
    out.chmod(0o555)
    try:
        done = _probe(ENTRY_PROBE, "csie", "--market-dir", str(eod), "--out", str(out))
    finally:
        out.chmod(0o755)
    assert done.returncode == 1, done.stderr
    assert "Traceback" not in done.stderr
    assert [line.split(": ", 1)[0] for line in done.stderr.splitlines()] == [
        f"failed {out / name}" for name in ("csie_daily.csv", "csie_series.svg")
    ]
    assert done.stdout == ""
    assert not any(out.iterdir())


def test_importing_the_cli_loads_no_url_or_xml_modules():
    done = _probe(
        "import sys; before = set(sys.modules); import csie.cli; "
        "print(sorted(m for m in set(sys.modules) - before "
        "if m.split('.')[0] in ('urllib', 'xml')))"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


# Runs the CLI and prints its exit code and whether numpy was imported.
CLI_PROBE = (
    "import sys\n"
    "from csie.cli import main\n"
    "try:\n    rc = main(sys.argv[1:])\nexcept SystemExit as exc:\n    rc = exc.code\n"
    "print(rc, 'numpy' in sys.modules)\n"
)


@pytest.mark.parametrize(
    "argv, rc",
    [
        (["--help"], 0),
        (["compare", "--help"], 0),
        ([], 2),
        (["indexvol", "--index", "x.csv", "--alpha", "0.5"], 2),
    ],
)
def test_help_usage_and_config_errors_do_not_import_numpy(argv, rc):
    done = _probe(CLI_PROBE, *argv)
    assert done.stdout.split()[-2:] == [str(rc), "False"], done.stderr


# Runs the CLI and prints its exit code and which of the watched modules it loaded.
LOADED_PROBE = (
    "import sys\n"
    "from csie.cli import main\n"
    "rc = main(sys.argv[1:])\n"
    "print(rc, *(m for m in ('csie.analytics', 'csie.estimators', 'csie.intrinsic',\n"
    "                        'csie.cross_section', 'csie.clustering', 'concurrent.futures')\n"
    "            if m in sys.modules))\n"
)


@pytest.mark.parametrize(
    "argv",
    [
        ["csie"],
        ["indexvol", "--windows", "5"],
        ["compare", "--windows", "5", "--intervals", "all"],
        ["cluster", "--date", "2021-06-01"],
    ],
    ids=lambda argv: argv[0],
)
def test_a_command_loads_only_the_modules_it_uses(world, tmp_path, argv):
    eod, index = world
    done = _probe(LOADED_PROBE, *argv, "--market-dir", str(eod), "--index", str(index),
                  "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    rc, *loaded = done.stdout.splitlines()[-1].split()
    assert rc == "0"
    assert "concurrent.futures" not in loaded  # files are parsed without a thread pool
    if argv[0] == "cluster":  # clustering needs no estimator or cross-section module
        assert loaded == ["csie.clustering"]
    else:
        assert "csie.clustering" not in loaded
    if argv[0] == "indexvol":  # the index estimators need no market cross-section
        assert "csie.cross_section" not in loaded


# Runs the CLI and prints its exit code, its OS thread count ("-" where
# /proc/self/task does not exist) and each BLAS thread variable as it left it.
THREAD_PROBE = (
    "import os, sys\n"
    "from csie.cli import main\n"
    "rc = main(sys.argv[1:])\n"
    "task = '/proc/self/task'\n"
    "print(rc, len(os.listdir(task)) if os.path.isdir(task) else '-',\n"
    f"      *(os.environ.get(v, '-') for v in {BLAS_THREAD_VARS!r}))\n"
)


def _after_indexvol(world, tmp_path, env=None) -> list[str]:
    """THREAD_PROBE's line after one indexvol run, which loads numpy."""
    _, index = world
    done = _probe(THREAD_PROBE, "indexvol", "--index", str(index), "--windows", "5",
                  "--out", str(tmp_path), env=env)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1].split()


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="no /proc/self/task")
def test_a_command_runs_in_one_os_thread(world, tmp_path):
    assert _after_indexvol(world, tmp_path) == ["0", "1", "1", "-", "-"]


@pytest.mark.parametrize("var", BLAS_THREAD_VARS)
def test_a_blas_thread_count_the_user_set_is_kept(world, tmp_path, var):
    rc, _, *values = _after_indexvol(world, tmp_path, {var: "2"})
    assert rc == "0"
    assert values == ["2" if v == var else "-" for v in BLAS_THREAD_VARS]


def test_main_leaves_the_environment_alone_once_numpy_is_loaded(world, tmp_path):
    _, index = world
    done = _probe(
        "import os, sys\n"
        "import numpy\n"
        "from csie.cli import main\n"
        "before = dict(os.environ)\n"
        "rc = main(sys.argv[1:])\n"
        "print(rc, dict(os.environ) == before)\n",
        "indexvol", "--index", str(index), "--windows", "5", "--out", str(tmp_path),
    )
    assert done.stdout.splitlines()[-1] == "0 True", done.stderr


def test_importing_the_package_leaves_the_environment_alone():
    done = _probe(
        "import os; before = dict(os.environ); import csie, csie.cli; "
        "print(dict(os.environ) == before)"
    )
    assert done.stdout.strip() == "True", done.stderr


# Calls that numpy may hand to BLAS: with none in the package, the number of
# BLAS threads cannot change an output bit.
BLAS_CALLS = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum", "corrcoef", "cov",
              "polyfit", "lstsq"}
# The field that holds a node's (dotted) name.
NAME_FIELD = {ast.Attribute: "attr", ast.Name: "id", ast.alias: "name", ast.ImportFrom: "module"}


def _blas_uses(tree: ast.AST) -> list[str]:
    """Each ``@``, call named in BLAS_CALLS and use of ``linalg`` in the tree."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append("@")
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in BLAS_CALLS:
                found.append(f"{name}()")
        field = NAME_FIELD.get(type(node))
        if field and "linalg" in (getattr(node, field) or "").split("."):
            found.append("linalg")
    return found


def test_the_package_makes_no_blas_call():
    src = Path(__file__).resolve().parent.parent / "src" / "csie"
    uses = {}
    for path in sorted(src.glob("*.py")):
        found = _blas_uses(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if found:
            uses[path.name] = found
    assert uses == {}


@pytest.mark.parametrize(
    "code, found",
    [("a @ b", ["@"]), ("a @= b", ["@"]), ("np.dot(a, b)", ["dot()"]), ("cov(a)", ["cov()"]),
     ("np.linalg.norm(a)", ["linalg"]), ("import numpy.linalg", ["linalg"]),
     ("from numpy.linalg import norm", ["linalg"]), ("exact_dot(a, b); a * b", [])],
)
def test_the_blas_guard_sees_each_kind_of_call(code, found):
    assert _blas_uses(ast.parse(code)) == found


def test_compare_output_does_not_depend_on_the_blas_thread_count(world, tmp_path):
    eod, index = world
    outputs = []
    for sub, env in (("unset", None), ("two", {"OPENBLAS_NUM_THREADS": "2"})):
        out = tmp_path / sub
        done = _probe(ENTRY_PROBE, "compare", "--market-dir", str(eod), "--index", str(index),
                      "--out", str(out), env=env)
        assert done.returncode == 0, done.stderr
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert len(outputs[0]) == 4 and outputs[0] == outputs[1]


# A five-bar index whose valid third bar has price ratios past the float range,
# and a market of the same five days.
EXTREME_BARS = (
    "2021-06-01,10,11,9,10.5,1000\n"
    "2021-06-02,10.5,11,10,10.8,1200\n"
    "2021-06-03,1e-300,1e300,1e-300,1e300,100\n"
    "2021-06-04,10.8,11.2,10.1,11,900\n"
    "2021-06-07,11,11.5,10.5,11.2,1100\n"
)
NOT_FINITE_TAGS = ("pk", "gk", "rs", "yz", "ie")  # cc reads no ratio of the third bar


@pytest.mark.parametrize(
    "argv",
    [["indexvol", "--windows", "3"], ["compare", "--windows", "2,3", "--intervals", "2,all"]],
    ids=lambda argv: argv[0],
)
def test_a_price_ratio_past_the_float_range_is_never_written(tmp_path, argv):
    index = tmp_path / "index.csv"
    index.write_text("Date,Open,High,Low,Close,Volume\n" + EXTREME_BARS)
    eod = tmp_path / "eod"
    eod.mkdir()
    for i, day in enumerate(("20210601", "20210602", "20210603", "20210604", "20210607")):
        (eod / f"M_{day}.csv").write_text(
            f"AA,10,11,9,10.{i},{100 + 50 * i}\nBB,20,21,19,20.5,300\nCC,5,5.5,4.8,5.2,700\n"
        )
    out = tmp_path / "out"
    done = _probe(ENTRY_PROBE, *argv, "--market-dir", str(eod), "--index", str(index),
                  "--out", str(out))
    assert "Warning" not in done.stderr and "Traceback" not in done.stderr
    if argv[0] == "indexvol":  # as for an ie window with no volume
        assert done.returncode == 2
        assert done.stderr == "error: estimator 'pk', window 3: price ratio past the float range\n"
        assert not out.exists()
        return
    assert done.returncode == 1
    assert done.stderr.splitlines() == [
        f"error: estimator {tag!r}, window {w}: price ratio past the float range"
        for w in (2, 3) for tag in NOT_FINITE_TAGS
    ]
    assert done.stdout.count("wrote ") == 4
    for path in sorted(out.iterdir()):
        text = path.read_text()
        assert not re.findall(r"\b(?:nan|inf)\b", text, re.I), path.name
    mean = (out / "grid_mean.csv").read_text().splitlines()
    assert mean[0] == "interval,window,cc,pk,gk,rs,yz,ie,csie"
    for row in mean[1:]:
        cells = row.split(",")
        assert cells[3:8] == ["NA"] * 5 and "NA" not in (cells[2], cells[8]), row


def test_package_loads_its_exports_on_first_use():
    done = _probe(
        "import sys, csie\n"
        "print('numpy' in sys.modules)\n"
        "for name in csie.__all__:\n"
        "    exec(f'from csie import {name}')\n"
        "print(dir(csie) == sorted(csie.__all__), 'numpy' in sys.modules)\n"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "True", "True"]


def test_readme_library_list_is_the_export_table():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    listed = {}
    for bullet in re.findall(r"^\* `.*?(?=^\S|\Z)", library, re.M | re.S):
        module, names = bullet.split(":", 1)
        listed[re.search(r"`(\w+)`", module)[1]] = tuple(re.findall(r"`(\w+)`", names))
    assert listed == csie._EXPORTS


def test_readme_option_table_is_the_option_table():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `(--[\w-]+)` \| `(\w+)` \| (.+?) \|$", section, re.M)
    assert listed == [
        ("--" + key.replace("_", "-"), key, "none" if default is None else f"`{default}`")
        for key, (default, _) in cli._OPTIONS.items()
    ]


def test_config_precedence_cli_over_file(tmp_path, capsys):
    _, index = write_world(tmp_path / "w", np.random.default_rng(86), n_days=40)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"windows = 7\nindex = {index}\n")
    out_file = tmp_path / "of"
    assert run(["indexvol", "--config", str(cfg), "--out", str(out_file)], capsys)[0] == 0
    assert "window 7" in (out_file / "indexvol.svg").read_text()
    out_cli = tmp_path / "oc"
    assert run(
        ["indexvol", "--config", str(cfg), "--out", str(out_cli), "--windows", "9"],
        capsys,
    )[0] == 0
    assert "window 9" in (out_cli / "indexvol.svg").read_text()


def test_config_file_can_set_abs(world, tmp_path, capsys):
    eod, _ = world
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"abs = true\nmarket_dir = {eod}\n")
    out = tmp_path / "out"
    assert run(["csie", "--config", str(cfg), "--out", str(out)], capsys)[0] == 0
    assert "absolute" in (out / "csie_series.svg").read_text()


def test_bad_alpha_rejected(world, tmp_path, capsys):
    eod, _ = world
    code, _, stderr = run(
        ["csie", "--market-dir", str(eod), "--out", str(tmp_path), "--alpha", "0.5"],
        capsys,
    )
    assert code == 2
    assert "alpha" in stderr


@pytest.mark.parametrize("alpha", ["inf", "nan", "-inf"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_nonfinite_alpha_is_a_config_error(world, tmp_path, capsys, alpha, source):
    eod, _ = world
    out = tmp_path / "out"
    argv = ["csie", "--market-dir", str(eod), "--out", str(out)]
    if source == "flag":
        argv.append(f"--alpha={alpha}")
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"alpha = {alpha}\n")
        argv += ["--config", str(cfg)]
    code, stdout, stderr = run(argv, capsys)
    assert code == 2
    assert "alpha must exceed 1 and be finite" in stderr
    assert stdout == ""
    assert not out.exists()


def test_bad_estimator_rejected(world, tmp_path, capsys):
    eod, _ = world
    code, _, stderr = run(
        ["csie", "--market-dir", str(eod), "--out", str(tmp_path), "--estimators", "cc,zz"],
        capsys,
    )
    assert code == 2
    assert "unknown estimator" in stderr
