"""Benchmark of the csie command-line pipeline.

Run from the root of a source checkout:

    python3 perfbench/run.py                          # every workload, end-to-end
    python3 perfbench/run.py --trace 1                # every workload, per layer
    python3 perfbench/run.py --workload market-scan --seed 3 --seconds 20 --trace 0

One run writes seeded inputs under ``.perfbench_work/``, makes the reference
output bytes with the frozen copy of the package in ``perfbench/csie_seed``,
then measures.  With ``--trace 0`` it runs the workload's commands as
separate ``csie`` processes, one at a time (closed loop, one client), again
and again for ``--seconds``, and reports medians over those repetitions of
the processes' CPU time and peak RSS, plus the CPU time of ``csie --help``
as set-up time.  With ``--trace 1`` it calls each module's public functions
in-process and reads per-layer times from spans (see ``layers.py``).  Every
output file is checked against its reference sha256; a non-zero exit or a
mismatch counts as a failed operation.  The last line of stdout is one JSON
object.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from harness import (  # noqa: E402
    ROOT, THREADS, Inputs, Proc, cli_argv, fresh_dir, hash_dir, spawn,
)
from workloads import WORKLOADS, Workload  # noqa: E402

SETUP_RUNS = 7
PREPARE = ("import pickle, sys; sys.path.insert(0, sys.argv[1]); from harness import prepare; "
           "pickle.dump(prepare(*pickle.load(sys.stdin.buffer)), sys.stdout.buffer)")

# End-to-end metrics, measured with tracing off: name -> unit.  Times are CPU
# seconds (user + system) of the CLI processes.  Wall time is printed but not
# bounded: on the shared machine the bounds were set on, hypervisor steal
# spread the wall time of ten runs by a third of its median where their CPU
# time spread by a tenth (see environment.json).
E2E_UNITS = {
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def measure(wl: Workload, inp: Inputs, refs: list[dict[str, str]], seconds: float,
            work: Path) -> tuple[dict[str, float], int, int, list[str]]:
    """Closed-loop end-to-end run of the workload's commands, tracing off."""
    log = work / "cli.log"
    spawn(["--help"], log)  # warm-up: byte-compile, page in the interpreter
    setup = [spawn(["--help"], log) for _ in range(SETUP_RUNS)]
    failed = sum(p.rc != 0 for p in setup)
    attempted = len(setup)
    iters: list[list[Proc]] = []
    t_end = time.perf_counter() + seconds
    while not iters or time.perf_counter() < t_end:
        procs = []
        for k, cmd in enumerate(wl.commands):
            out = fresh_dir(work / "out" / str(k))
            p = spawn(cli_argv(cmd, inp, out), log)
            attempted += 1
            failed += p.rc != 0 or hash_dir(out) != refs[k]
            procs.append(p)
        iters.append(procs)
    walls = [sum(p.wall for p in ps) for ps in iters]
    main_cpu = statistics.median(ps[0].cpu for ps in iters)
    metrics = {
        "cpu_s": statistics.median(sum(p.cpu for p in ps) for ps in iters),
        "peak_rss_mb": statistics.median(max(p.rss_mb for p in ps) for ps in iters),
        "setup_s": statistics.median(p.cpu for p in setup),
    }
    notes = [f"{len(iters)} repetitions of {len(wl.commands)} command(s); "
             f"`csie {wl.commands[0][0]}` {main_cpu:.3f} s of cpu_s",
             f"wall_s {statistics.median(walls):.3f} s median, min {min(walls):.3f} "
             f"max {max(walls):.3f} (not bounded)",
             f"setup_s: CPU time of {len(setup)} `csie --help` processes, median; wall "
             f"{statistics.median(p.wall for p in setup):.3f} s"]
    return metrics, attempted, failed, notes


def environment() -> dict[str, object]:
    import numpy

    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "CSIE_THREADS": THREADS}


def run_one(wl: Workload, seed: int, seconds: float, trace: bool,
            work_root: Path) -> dict[str, object]:
    """One benchmark run; returns the result object the last line prints."""
    work = fresh_dir(work_root / f"{wl.name}-{seed}-{os.getpid()}")
    try:
        t0 = time.perf_counter()
        # In a process of its own: the reference run is big, and a child
        # spawned later would count this process's peak RSS as its own.
        job = subprocess.run(
            [sys.executable, "-c", PREPARE, str(HERE)], check=True, stdout=subprocess.PIPE,
            input=pickle.dumps((wl, seed, work)))
        inp, refs = pickle.loads(job.stdout)
        print(f"# {wl.name} seed={seed}: inputs and references in "
              f"{time.perf_counter() - t0:.1f} s; {json.dumps(environment())}")
        if trace:
            from layers import LAYER_UNITS, traced

            spans = work_root / f"{wl.name}-{seed}.spans.json"
            metrics, bases, attempted, failed = traced(wl, inp, refs, seconds, work, spans)
            print(f"# spans of the last traced pass: {spans}")
            units = LAYER_UNITS
            for name, value in metrics.items():
                print(f"{name:32s} {value:14.6g} {units[name]:6s} {bases.get(name, '')}")
        else:
            metrics, attempted, failed, notes = measure(wl, inp, refs, seconds, work)
            units = E2E_UNITS
            for name, value in metrics.items():
                print(f"{name:32s} {value:14.6g} {units[name]}")
            for note in notes:
                print(f"# {note}")
        print(f"# failed_ops {failed} of {attempted}")
        return {"correct": failed == 0, "attempted": attempted, "failed": failed,
                "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload and print its JSON result last (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long one run measures (BENCHMARK.json: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "csie" / "cli.py").is_file():
        print(f"error: no csie package under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = [run_one(WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
                       ROOT / ".perfbench_work") for name in names]
    if args.workload:
        print(json.dumps(results[0]))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
