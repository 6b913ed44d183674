"""What the end-to-end run and the traced pass share: paths, seeded inputs with
their reference output hashes, and ``csie`` processes."""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass
from datetime import date
from pathlib import Path

from workloads import Workload, write_inputs

ROOT = Path(__file__).resolve().parent.parent  # the source checkout
THREADS = "2"  # CSIE_THREADS for every CLI run; the reference machine has 2 CPUs
ENTRY = "import sys; from csie.cli import main; sys.exit(main())"  # the `csie` script


@dataclass(frozen=True)
class Inputs:
    eod: Path
    index: Path
    last_day: date


@dataclass(frozen=True)
class Proc:
    rc: int
    wall: float
    cpu: float
    rss_mb: float


def cli_argv(cmd: tuple[str, ...], inp: Inputs, out: Path) -> list[str]:
    fill = {"eod": str(inp.eod), "index": str(inp.index),
            "last_day": inp.last_day.isoformat(), "out": str(out)}
    return [a.format(**fill) for a in cmd]


def spawn(argv: list[str], log: Path) -> Proc:
    """Run ``csie <argv>`` as its own process and wait for it."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "CSIE_THREADS": THREADS}
    with open(log, "ab") as sink:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", ENTRY, *argv], stdout=sink,
                                stderr=sink, env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


def hash_dir(d: Path) -> dict[str, str]:
    if not d.is_dir():
        return {}
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(d.iterdir()) if p.is_file()}


def fresh_dir(d: Path) -> Path:
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    return d


@contextlib.contextmanager
def quiet():
    """Swallow what an in-process CLI run prints; yields its stderr text."""
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("ignore")
        yield err


def prepare(wl: Workload, seed: int, work: Path) -> tuple[Inputs, list[dict[str, str]]]:
    """Write the seeded inputs; return them with the reference sha256 of
    each command's outputs, made by the frozen seed code in ``csie_seed``."""
    from csie_seed.cli import main as seed_main

    inp = Inputs(*write_inputs(wl.inputs, seed, work / "inputs"))
    refs = []
    for k, cmd in enumerate(wl.commands):
        out = fresh_dir(work / "ref" / str(k))
        with quiet() as err:
            rc = seed_main(cli_argv(cmd, inp, out))
        if rc != 0:
            raise RuntimeError(f"reference run of {cmd[0]} failed: {err.getvalue()}")
        refs.append(hash_dir(out))
    return inp, refs
