"""Traced pass: per-layer metrics of the csie modules, read from spans.

The layers are the modules under ``src/csie``: market_data, cross_section,
estimators and intrinsic (reached through ``analytics.rolling_estimate``),
analytics, clustering, svg and cli.  A pass has two parts.

* Direct calls: the benchmark calls each layer's public functions serially
  on the workload's inputs and times each call in a span.
* The CLI in-process: ``csie.cli.main`` runs each subcommand once untraced
  and once with the public functions it reaches wrapped in spans, so that
  each layer's self time (its spans minus their children) can be read off.
  The workload's own commands are run as the workload runs them; the other
  subcommands as ``workloads.COMMANDS`` has them.

End-to-end metrics never come from here; the pass reports its own overhead
as traced CLI wall over untraced CLI wall.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import statistics
import sys
import time
from pathlib import Path

from harness import ROOT, THREADS, Inputs, cli_argv, fresh_dir, hash_dir, quiet, spawn
from spans import Tracer
from workloads import COMMANDS, Workload

LAYERS = ("market_data", "cross_section", "estimators", "intrinsic", "analytics",
          "clustering", "svg", "cli")
TAGS = ("cc", "pk", "gk", "rs", "yz")
WINDOW = 30
HELP_RUNS = 5
STATS = ("mean", "variance", "pearson", "beta")

# Per-layer metrics: name -> unit.
LAYER_UNITS = {
    "parse_eod_file.s": "s",
    "parse_eod_file.p50_ms": "ms",
    "parse_eod_file.p90_ms": "ms",
    "rows_per_s": "1/s",
    "rows_in": "count",
    "rows_rejected": "count",
    "read_eod_dir.s": "s",
    "read_index_csv.s": "s",
    "MarketDay.s": "s",
    "pool_speedup": "ratio",
    "csie_series.s": "s",
    "csie_day.p50_us": "us",
    "csie_csv.s": "s",
    **{f"rolling.{t}.s": "s" for t in TAGS},
    "intrinsic.rolling.ie.s": "s",
    "windows_per_s": "1/s",
    "moving_average.s": "s",
    "align.s": "s",
    **{f"comparison_grid.{s}.s": "s" for s in STATS},
    "grid_na_ratio": "ratio",
    "clustering.cluster_day.s": "s",
    "svg.line_chart.s": "s",
    "svg.small_multiples.s": "s",
    "svg.dendrogram_svg.s": "s",
    **{f"cli.{c}.s": "s" for c in COMMANDS},
    "cli.process_overhead_s": "s",
    **{f"self.{layer}.s": "s" for layer in LAYERS},
    "trace_overhead": "ratio",
}


def _arg(args: tuple, kwargs: dict, pos: int, key: str):
    return kwargs[key] if key in kwargs else args[pos] if len(args) > pos else None


def _tag_layer(*args, **kwargs) -> str:
    return "intrinsic" if _arg(args, kwargs, 1, "tag") == "ie" else "estimators"


# (module, function, layer) wrapped during the traced CLI runs.  A module is
# patched where the caller looks the name up, so ``csie.cli`` and the module
# that calls a function internally each get their own wrapper.
# rolling_estimate's time goes to the estimator kernels it calls per window.
PATCHES = (
    ("csie.cli", "read_eod_dir", "market_data"),
    ("csie.cli", "read_eod_file", "market_data"),
    ("csie.cli", "read_index_csv", "market_data"),
    ("csie.market_data", "read_eod_file", "market_data"),
    ("csie.market_data", "parse_eod_file", "market_data"),
    ("csie.cli", "csie_series", "cross_section"),
    ("csie.cli", "csie_csv", "cross_section"),
    ("csie.cross_section", "csie_day", "cross_section"),
    ("csie.cli", "rolling_estimate", _tag_layer),
    ("csie.analytics", "rolling_estimate", _tag_layer),
    ("csie.cli", "comparison_grid", "analytics"),
    ("csie.cli", "csie_dated_series", "analytics"),
    ("csie.analytics", "csie_dated_series", "analytics"),
    ("csie.cli", "moving_average", "analytics"),
    ("csie.analytics", "moving_average", "analytics"),
    ("csie.analytics", "align", "analytics"),
    ("csie.cli", "cluster_day", "clustering"),
    ("csie.cli", "line_chart", "svg"),
    ("csie.cli", "small_multiples", "svg"),
    ("csie.cli", "dendrogram_svg", "svg"),
)


def _grid_span_name(*args, **kwargs) -> str:
    return f"comparison_grid.{_arg(args, kwargs, 5, 'statistic')}"


def _patch(tracer: Tracer) -> list[tuple[object, str, object]]:
    saved = []
    for mod_name, attr, layer in PATCHES:
        mod = importlib.import_module(mod_name)
        fn = getattr(mod, attr, None)
        if fn is None:  # a later refactor may drop a name; its span just goes missing
            continue
        name = _grid_span_name if attr == "comparison_grid" else f"{mod_name[5:]}.{attr}"
        saved.append((mod, attr, fn))
        setattr(mod, attr, tracer.wrap(fn, name, layer))
    return saved


def _timed(tracer: Tracer, name: str, layer: str, fn, *args, **kwargs):
    with tracer.span(name, layer):
        return fn(*args, **kwargs)


def _quantile_ms(values: list[float], q: int) -> float:
    return 1e3 * (statistics.quantiles(values, n=10)[q - 1] if len(values) > 1 else values[0])


def _na_cells(out: Path) -> tuple[int, int]:
    na = total = 0
    for grid in sorted(out.glob("grid_*.csv")):
        for line in grid.read_text().splitlines()[1:]:
            cells = line.split(",")[2:]
            total += len(cells)
            na += cells.count("NA")
    return na, total


def _direct(tr: Tracer, inp: Inputs, n_pass: int, m: dict, base: dict) -> bool:
    """Serial calls into each layer; returns the thread-count equality check."""
    from csie import analytics as an
    from csie import clustering as cl
    from csie import cross_section as cs
    from csie import market_data as md
    from csie import svg

    rows_in = 0
    rejected: list = []
    files = sorted(inp.eod.glob("*.csv"))
    for f in files:
        data = f.read_bytes()
        rows_in += sum(1 for line in data.splitlines()[1:] if line.strip())
        day = md.eod_filename_date(f.name)[1]
        _timed(tr, "parse_eod_file", "market_data", md.parse_eod_file, data, day,
               on_reject=rejected.append)
    parse = tr.durations("parse_eod_file")
    m["parse_eod_file.s"] = sum(parse)
    m["parse_eod_file.p50_ms"] = _quantile_ms(parse, 5)
    m["parse_eod_file.p90_ms"] = _quantile_ms(parse, 9)
    m["rows_per_s"] = rows_in / sum(parse)
    base["rows_per_s"] = "rows_in / parse_eod_file.s"
    m["rows_in"] = rows_in
    m["rows_rejected"] = len(rejected)
    for k in ("parse_eod_file.s", "parse_eod_file.p50_ms", "parse_eod_file.p90_ms"):
        base[k] = f"over {len(files)} files"
    base["rows_in"] = "data lines, header excluded"
    base["rows_rejected"] = f"of rows_in {rows_in}, reported through on_reject"

    days = {}
    for th in (1, 2) if n_pass % 2 == 0 else (2, 1):  # alternate which goes first
        days[th] = _timed(tr, f"read_eod_dir.t{th}", "market_data", md.read_eod_dir,
                          inp.eod, threads=th)
    same = days[1] == days[2]
    t1, t2 = tr.total("read_eod_dir.t1"), tr.total("read_eod_dir.t2")
    m["read_eod_dir.s"] = t2
    base["read_eod_dir.s"] = f"threads=2, {len(days[2])} days"
    m["pool_speedup"] = t1 / t2
    base["pool_speedup"] = (f"read_eod_dir threads=1 {t1:.3f} s / threads=2 {t2:.3f} s; "
                            f"equal results: {same}")
    index = _timed(tr, "read_index_csv", "market_data", md.read_index_csv, inp.index)
    base["read_index_csv.s"] = f"{len(index)} bars"
    for d in days[2]:
        _timed(tr, "MarketDay", "market_data", md.MarketDay, d.day, d.symbols, d.open,
               d.high, d.low, d.close, d.volume)
    base["MarketDay.s"] = f"rebuilding {len(days[2])} days from their columns"

    rows = _timed(tr, "csie_series", "cross_section", cs.csie_series, days[2])
    for d in days[2]:
        _timed(tr, "csie_day", "cross_section", cs.csie_day, d)
    m["csie_day.p50_us"] = 1e3 * _quantile_ms(tr.durations("csie_day"), 5)
    base["csie_day.p50_us"] = f"over {len(days[2])} days"
    _timed(tr, "csie_csv", "cross_section", cs.csie_csv, rows)

    series = {}
    for tag in (*TAGS, "ie"):
        name = "intrinsic.rolling.ie" if tag == "ie" else f"rolling.{tag}"
        series[tag] = _timed(tr, name, _tag_layer(None, tag), an.rolling_estimate, index, tag,
                             WINDOW)
        base[f"{name}.s"] = f"w={WINDOW}, {len(series[tag])} windows"
    n_windows = sum(len(s) for s in series.values())
    t_roll = tr.total("intrinsic.rolling.ie") + sum(tr.total(f"rolling.{t}") for t in TAGS)
    m["windows_per_s"] = n_windows / t_roll
    base["windows_per_s"] = f"{n_windows} windows over 6 estimators"
    daily = an.csie_dated_series(rows)
    ma = _timed(tr, "moving_average", "analytics", an.moving_average, daily, WINDOW)
    base["moving_average.s"] = f"w={WINDOW} over {len(daily)} days"
    _timed(tr, "align", "analytics", an.align, series["cc"], ma)

    dendro = _timed(tr, "clustering.cluster_day", "clustering", cl.cluster_day, days[2][-1])
    _timed(tr, "svg.line_chart", "svg", svg.line_chart, daily, title="csie", ma=ma)
    _timed(tr, "svg.small_multiples", "svg", svg.small_multiples,
           [(tag, s) for tag, s in series.items()], title="estimators")
    _timed(tr, "svg.dendrogram_svg", "svg", svg.dendrogram_svg, dendro)
    for name in ("read_index_csv", "MarketDay", "csie_series", "csie_csv",
                 *(f"rolling.{t}" for t in TAGS), "intrinsic.rolling.ie", "moving_average",
                 "align", "clustering.cluster_day", "svg.line_chart", "svg.small_multiples",
                 "svg.dendrogram_svg"):
        m[f"{name}.s"] = tr.total(name)
    return same


def _cli(tr: Tracer, wl: Workload, inp: Inputs, refs: list[dict[str, str]], work: Path,
         m: dict, base: dict) -> tuple[int, int]:
    """The four subcommands in-process, untraced then traced; returns (attempted, failed)."""
    import csie.cli as cli

    own = {cmd[0]: k for k, cmd in enumerate(wl.commands)}
    attempted = failed = 0
    walls = {}
    untraced = {}
    prev = os.environ.get("CSIE_THREADS")
    os.environ["CSIE_THREADS"] = THREADS
    try:
        for traced in (False, True):
            saved = _patch(tr) if traced else []
            try:
                for name in COMMANDS:
                    cmd = wl.commands[own[name]] if name in own else COMMANDS[name]
                    out = fresh_dir(work / "inproc" / name)
                    t0 = time.perf_counter()
                    with quiet() as err, tr.span(f"cli.{name}", "cli") if traced \
                            else contextlib.nullcontext():
                        try:
                            rc = cli.main(cli_argv(cmd, inp, out))
                        except Exception as exc:  # a crash is a failed operation
                            rc = repr(exc)
                    wall = time.perf_counter() - t0
                    (walls if traced else untraced)[name] = wall
                    attempted += 1
                    bad = rc != 0 or (name in own and hash_dir(out) != refs[own[name]])
                    if bad:
                        print(f"# cli {name} rc={rc}: {err.getvalue().strip()[:300]}")
                    failed += bad
                    if name == "compare" and not traced:
                        na, cells = _na_cells(out)
                        m["grid_na_ratio"] = na / cells
                        base["grid_na_ratio"] = f"NA {na} of {cells} cells in 4 grids"
            finally:
                for mod, attr, fn in saved:
                    setattr(mod, attr, fn)
    finally:
        if prev is None:
            del os.environ["CSIE_THREADS"]
        else:
            os.environ["CSIE_THREADS"] = prev

    for name, wall in untraced.items():
        m[f"cli.{name}.s"] = wall
        base[f"cli.{name}.s"] = "in-process csie.cli.main, untraced" + (
            "" if name in own else " (not a command of this workload)")
    m["trace_overhead"] = sum(walls.values()) / sum(untraced.values())
    base["trace_overhead"] = (f"traced {sum(walls.values()):.3f} s / untraced "
                              f"{sum(untraced.values()):.3f} s, 4 subcommands")
    for stat in STATS:
        m[f"comparison_grid.{stat}.s"] = tr.total(f"comparison_grid.{stat}")
        base[f"comparison_grid.{stat}.s"] = "inside cli.compare, traced"

    roots = {i for i, s in enumerate(tr.spans) if s.name in {f"cli.{n}" for n in own}}
    self_t = tr.self_times(roots)
    total = sum(self_t.values())
    for layer in LAYERS:
        m[f"self.{layer}.s"] = self_t.get(layer, 0.0)
        base[f"self.{layer}.s"] = (f"{100 * self_t.get(layer, 0.0) / total:5.1f}% of "
                                   f"{total:.3f} s traced {'+'.join(own)} (last pass)")

    log = work / "help.log"
    sub = statistics.median(spawn(["--help"], log).wall for _ in range(HELP_RUNS))
    inproc = []
    for _ in range(HELP_RUNS):
        t0 = time.perf_counter()
        with quiet(), contextlib.suppress(SystemExit):
            cli.main(["--help"])
        inproc.append(time.perf_counter() - t0)
    m["cli.process_overhead_s"] = sub - statistics.median(inproc)
    base["cli.process_overhead_s"] = (f"`csie --help` process {sub:.3f} s minus in-process "
                                      f"{statistics.median(inproc):.4f} s")
    return attempted, failed


def _one_pass(wl: Workload, inp: Inputs, refs: list[dict[str, str]], work: Path,
              n_pass: int) -> tuple[dict, dict, int, int, Tracer]:
    tr = Tracer()
    m: dict[str, float] = {}
    base: dict[str, str] = {}
    same = _direct(tr, inp, n_pass, m, base)
    attempted, failed = _cli(tr, wl, inp, refs, work, m, base)
    return m, base, attempted + 1, failed + (not same), tr


def traced(wl: Workload, inp: Inputs, refs: list[dict[str, str]], seconds: float, work: Path,
           spans_out: Path) -> tuple[dict[str, float], dict[str, str], int, int]:
    """Traced passes for ``seconds`` (at least one); medians over passes.

    The last pass's spans are written to ``spans_out`` as JSON, one
    [name, layer, start, end, parent] list per span.
    """
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    passes = []
    t_end = time.perf_counter() + seconds
    while not passes or time.perf_counter() < t_end:
        passes.append(_one_pass(wl, inp, refs, work, len(passes)))
    metrics = {n: statistics.median(p[0][n] for p in passes) for n in LAYER_UNITS}
    bases = passes[-1][1]
    bases["trace_overhead"] += f"; {len(passes)} pass(es)"
    spans_out.write_text(json.dumps([[s.name, s.layer, s.start, s.end, s.parent]
                                     for s in passes[-1][4].spans]))
    return metrics, bases, sum(p[2] for p in passes), sum(p[3] for p in passes)
