from __future__ import annotations

import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from datetime import date
from pathlib import Path

import numpy as np
import pytest

from csie import analytics
from csie.cli import load_config_file, main

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
    else:
        assert stdout.count("wrote ") == 4
        assert (out / "grid_mean.csv").read_text().splitlines()[1].startswith("all,1,")


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


def _probe(code: str, *argv: str) -> subprocess.CompletedProcess:
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env=env, timeout=60)


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
    "                        'csie.cross_section', 'concurrent.futures') if m in sys.modules))\n"
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
        assert loaded == []


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
