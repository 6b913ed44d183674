"""The demos as a regression gate: each reproduces its committed outputs byte for byte."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_reproduces_committed_outputs(script, tmp_path):
    shutil.copy(script, tmp_path)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(
        [sys.executable, tmp_path / script.name], cwd=tmp_path, env=env, check=True,
        capture_output=True, timeout=120,
    )
    written = sorted((tmp_path / "out").iterdir())
    assert written
    for path in written:
        assert path.read_bytes() == (ROOT / "demos" / "out" / path.name).read_bytes(), path.name
