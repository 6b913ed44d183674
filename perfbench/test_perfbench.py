"""Tests of the benchmark itself: seeded inputs, declared metric names."""

from __future__ import annotations

import json
import re
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from layers import LAYER_UNITS  # noqa: E402
from run import E2E_UNITS, run_one  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

# Test-sized input sets: the generator's code path does not depend on size.
SPECS = [replace(workloads.SCAN, days=4), replace(workloads.LONG, days=40, symbols=20)]


def _files(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("spec", SPECS, ids=["scan", "long"])
def test_same_seed_writes_identical_files(tmp_path, spec):
    workloads.write_inputs(spec, 5, tmp_path / "a")
    workloads.write_inputs(spec, 5, tmp_path / "b")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")


@pytest.mark.parametrize("spec", SPECS, ids=["scan", "long"])
def test_other_seed_writes_other_files(tmp_path, spec):
    workloads.write_inputs(spec, 5, tmp_path / "a")
    workloads.write_inputs(spec, 6, tmp_path / "b")
    a, b = _files(tmp_path / "a"), _files(tmp_path / "b")
    assert a.keys() == b.keys()
    assert all(a[k] != b[k] for k in a)


def test_inputs_cover_every_reject_reason_and_no_empty_day(tmp_path):
    from csie.market_data import read_eod_dir, read_index_csv

    eod, index, last_day = workloads.write_inputs(SPECS[1], 3, tmp_path)
    reasons: Counter = Counter()
    days = read_eod_dir(eod, on_reject=lambda r: reasons.update([r.reason]))
    assert set(reasons) == set(workloads.REJECT_REASONS)
    assert all(d.n_tradable >= 1 for d in days)
    assert len(read_index_csv(index)) == len(days) == SPECS[1].days
    assert days[-1].day == last_day


def test_declared_names_match_the_code_and_the_name_rules():
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == E2E_UNITS
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == LAYER_UNITS
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"] + BENCH["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(UNIT.fullmatch(m["unit"]) for m in BENCH["end_to_end"] + BENCH["per_layer"])


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
def test_a_run_prints_exactly_the_declared_metrics(tmp_path, trace):
    wl = replace(workloads.WORKLOADS["long-compare"], inputs=SPECS[1])
    result = run_one(wl, 0, 0.0, trace, tmp_path)
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in declared]
    assert all(v["unit"] == m["unit"] for v, m in zip(result["metrics"].values(), declared))
