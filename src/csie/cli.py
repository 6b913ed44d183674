"""Command-line interface: ingest EOD/index CSV files, emit tables and charts.

Subcommands:

* ``csie``     - per-day market entropy CSV plus a series SVG
* ``indexvol`` - rolling estimator columns for one index plus stacked SVG
* ``compare``  - mean/variance/pearson/beta grids of index estimators vs CSIE,
                 all four from one roll of each (estimator, window) series
* ``cluster``  - OHLC dendrogram (Newick, merge table, SVG) for one day

Options resolve as CLI flag > config file > built-in default.  The config
file is flat ``key = value`` text with the same names as the long flags
(underscores for dashes).  Each option is declared once, in ``_OPTIONS``,
which gives its flag, its config key, its built-in default, the rule that
reads its value and its help text; values are checked in ``--help`` order,
so the first bad one is the error.  The same table is the run
configuration's field list: ``RunConfig`` is a named tuple with one field
per key.  ``csie`` and ``compare`` read, judge and drop one EOD file at a
time: a command keeps one market day in memory, and only that day's
``CsieDay`` once it is computed.  A file whose bytes hash to what
``cross_section``'s cache holds for its date is not parsed, whatever its
size; ``cluster`` always parses.

Parsing and checking the options loads no compute module: the option
vocabulary comes from ``_vocab``, and each command imports what it calls when
it starts.  So ``--help``, a usage error and a configuration error, a
missing required option included, exit without loading numpy or
``dataclasses``; numpy loads once the arguments and the configuration are
valid and a command starts
reading data.  Each command is declared once, in ``_COMMANDS``, with its
help text and the options it requires, which ``main`` checks before the
command starts.  The CLI runs numpy's BLAS with one thread unless the user
set ``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS``:
csie makes no BLAS call, and each thread of the pool that OpenBLAS starts
when it loads costs CPU time.  At exit, the CLI
freezes the garbage collector (``gc.freeze`` as an ``atexit`` hook,
registered once however often ``main`` runs), so the interpreter does not
collect the module objects still alive and the operating system frees that
memory; every output is written and closed before ``main`` returns.

Each command runs through one ``_Run``, which prints every ``error:`` line
of a partial run and every ``wrote``/``failed`` line, and decides the exit
status.  Exit codes: 0 all outputs written, 1 partial or processing failure
(per-output status on stderr), 2 unusable input (unreadable directory,
unparseable index, bad configuration, a market directory without a usable
day).  An EOD file that does not parse (no usable row, bytes that are not
UTF-8, or a read error), or whose day's cross-section cannot be computed,
is skipped with one ``error: skipped <file>: <reason>`` line on stderr, in
date order; the outputs cover the other days and the exit code is 1.
Likewise, an ``indexvol`` estimator whose windows fail costs only their
cells, which are NA, with one ``error:`` line and exit code 1.
"""

from __future__ import annotations

import argparse
import atexit
import collections
import gc
import math
import os
import sys
from datetime import date
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Sequence

from ._vocab import ALL_INTERVAL, ALPHA_DEFAULT, ESTIMATOR_TAGS, INTERVAL_SEMANTICS, check_alpha

if TYPE_CHECKING:
    from .analytics import DatedSeries
    from .cross_section import CsieDay
    from .market_data import IndexSeries

_FIG_STACK_ORDER = ESTIMATOR_TAGS[::-1]
_LONG_NAMES = {
    "cc": "close-to-close (raw)",
    "pk": "Parkinson",
    "gk": "Garman-Klass",
    "rs": "Rogers-Satchell",
    "yz": "Yang-Zhang",
    "ie": "intrinsic entropy",
}

# Any one of these set by the user decides how many threads numpy's BLAS starts.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


class ConfigError(ValueError):
    """The run cannot start: missing or malformed configuration, or input
    files that are unreadable or unusable (exit 2)."""


def load_config_file(path: str | Path) -> dict[str, str]:
    """Flat ``key = value`` lines of UTF-8 text; blank lines and # comments ignored."""
    out: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for i, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{i}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _OPTIONS:
            raise ConfigError(f"{path}:{i}: unknown key {key!r}")
        out[key] = value.strip()
    return out


def _parse_bool(s: str, name: str) -> bool:
    low = s.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"{name} must be a boolean, got {s!r}")


def _parse_windows(s: str) -> tuple[int, ...]:
    try:
        values = tuple(int(p) for p in s.split(",") if p.strip())
    except ValueError as exc:
        raise ConfigError(f"bad windows list {s!r}") from exc
    if not values or any(w < 1 for w in values):
        raise ConfigError("windows must be positive integers")
    if len(set(values)) != len(values):
        raise ConfigError("duplicate windows")
    return values


def _parse_intervals(s: str) -> tuple[int | str, ...]:
    parts = [p.strip() for p in s.split(",") if p.strip()]
    numeric: list[int] = []
    for p in (p for p in parts if p != ALL_INTERVAL):
        try:
            t = int(p)
        except ValueError as exc:
            raise ConfigError(f"bad interval {p!r}") from exc
        if t < 1:
            raise ConfigError("intervals must be positive")
        numeric.append(t)
    if not parts:
        raise ConfigError("empty intervals list")
    has_all = ALL_INTERVAL in parts
    if len(set(numeric)) + has_all != len(parts):
        raise ConfigError("duplicate intervals")
    out: tuple[int | str, ...] = tuple(sorted(numeric))
    return out + ((ALL_INTERVAL,) if has_all else ())


def _parse_estimators(s: str) -> tuple[str, ...]:
    tags = tuple(p.strip() for p in s.split(",") if p.strip())
    if not tags:
        raise ConfigError("empty estimator list")
    for t in tags:
        if t not in ESTIMATOR_TAGS:
            raise ConfigError(f"unknown estimator {t!r}")
    if len(set(tags)) != len(tags):
        raise ConfigError("duplicate estimator tags")
    return tags


def _parse_date_opt(s: str) -> date:
    """A date written YYYY-MM-DD, or YYYYMMDD as exactly eight ASCII digits."""
    digits = s[:4] + s[5:7] + s[8:] if len(s) == 10 and s[4] == s[7] == "-" else s
    if len(digits) == 8 and digits.isascii() and digits.isdigit():
        try:
            return date(int(digits[:4]), int(digits[4:6]), int(digits[6:]))
        except ValueError:
            pass
    raise ConfigError(f"bad date {s!r} (want YYYY-MM-DD or YYYYMMDD)")


def _parse_alpha(s: str) -> float:
    try:
        alpha = float(s)
    except ValueError as exc:
        raise ConfigError(f"bad alpha {s!r}") from exc
    try:
        check_alpha(alpha)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return alpha


def _parse_ma(s: str) -> int:
    try:
        ma = int(s)
    except ValueError as exc:
        raise ConfigError(f"bad ma {s!r}") from exc
    if ma < 1:
        raise ConfigError("ma must be at least 1")
    return ma


def _choice(choices: tuple[str, ...], message: str) -> Callable[[str], str]:
    def parse(s: str) -> str:
        if s not in choices:
            raise ConfigError(message)
        return s
    return parse


def _optional(parse: Callable[[str], Any]) -> Callable[[str], Any]:
    return lambda s: parse(s) if s else None


# Each --bubble kind: the ``CsieDay`` field that sizes a day's bubble, and its label.
_BUBBLES = {"count": ("m", "symbols traded"), "value": ("total_value", "traded value")}


# Every option, in --help order, which is the order its value is checked in:
# its config key, which is also its ``RunConfig`` field (the flag is ``--``
# plus the key with dashes for underscores), its built-in default, the rule
# that reads its text into that field, and its argparse settings.  The
# argparse default stays None, so ``_resolve`` can tell a flag the user gave
# from one left out.
_OPTIONS: dict[str, tuple[str | None, Callable[[str], Any], dict[str, Any]]] = {
    "market_dir": (None, _optional(Path), {"help": "directory of <MARKET>_<YYYYMMDD>.csv files"}),
    "index": (None, _optional(Path), {"help": "index OHLCV CSV path"}),
    "estimators": (",".join(ESTIMATOR_TAGS), _parse_estimators,
                   {"help": "comma list from cc,pk,gk,rs,yz,ie"}),
    "windows": ("5,10,20,30", _parse_windows,
                {"help": "comma list of rolling windows (indexvol uses the first)"}),
    "intervals": ("30,60,120,260,520,780,1300,all", _parse_intervals,
                  {"help": "comma list of trailing intervals, 'all' allowed"}),
    "alpha": (str(ALPHA_DEFAULT), _parse_alpha, {"help": "entropy blend alpha (> 1)"}),
    "abs": ("false", lambda s: _parse_bool(s, "abs"),
            {"action": "store_const", "const": True, "help": "use absolute entropy variants"}),
    "ma": (None, _parse_ma, {"help": "moving-average overlay window for charts"}),
    "bubble": (None,
               _choice(tuple(_BUBBLES), f"bubble must be {' or '.join(map(repr, _BUBBLES))}"),
               {"choices": tuple(_BUBBLES), "help": "bubble sizing for the csie chart"}),
    "out": (".", Path, {"help": "output directory"}),
    "interval_semantics": (
        "smoothed-points",
        _choice(INTERVAL_SEMANTICS, f"interval-semantics must be one of {INTERVAL_SEMANTICS}"),
        {"choices": INTERVAL_SEMANTICS,
         "help": "interval counts smoothed points (default) or raw days"},
    ),
    "date": (None, _optional(_parse_date_opt), {"help": "day to cluster, YYYY-MM-DD or YYYYMMDD"}),
    "log_prices": ("false", lambda s: _parse_bool(s, "log_prices"),
                   {"action": "store_const", "const": True,
                    "help": "correlate log prices when clustering"}),
}

# The resolved options: one field per key of ``_OPTIONS``, in its order.
RunConfig = collections.namedtuple("RunConfig", _OPTIONS)


def _resolve(args: argparse.Namespace) -> RunConfig:
    file_cfg = load_config_file(args.config) if args.config else {}
    values: dict[str, Any] = {}
    for key, (default, parse, _) in _OPTIONS.items():
        flag = getattr(args, key)
        text = file_cfg.get(key, default) if flag is None else str(flag)
        values[key] = None if text is None else parse(text)
    return RunConfig(**values)


def _csie_days(cfg: RunConfig, run: _Run) -> list[CsieDay]:
    """Each usable market day's CSIE, through the result cache.

    EOD files are read one at a time, and a day is dropped once its CSIE is
    computed.  A skipped file's error line, a day csie_day refuses included,
    is printed as the file is read; no usable day is unusable input.
    """
    from .cross_section import _cached_csie_days

    try:
        return list(_cached_csie_days(cfg.market_dir, cfg.alpha, run.error))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot load market data from {cfg.market_dir}: {exc}") from exc


def _load_index(cfg: RunConfig) -> IndexSeries:
    from .market_data import read_index_csv

    try:
        return read_index_csv(cfg.index)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot load index from {cfg.index}: {exc}") from exc


class _Run:
    """One command's run: its ``error:`` lines, its outputs and its exit
    status, which is 1 once an error line or a failed output is printed."""

    def __init__(self) -> None:
        self.status = 0
        self.out_dir = Path()

    def error(self, message: str) -> None:
        print(f"error: {message}", file=sys.stderr)
        self.status = 1

    def open(self, out_dir: Path) -> None:
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {out_dir}: {exc}") from exc
        self.out_dir = out_dir

    def emit(self, name: str, build: Callable[[], str]) -> None:
        path = self.out_dir / name
        try:
            path.write_text(build(), encoding="utf-8")
        except (OSError, ValueError) as exc:
            print(f"failed {path}: {exc}", file=sys.stderr)
            self.status = 1
            return
        print(f"wrote {path}")


def cmd_csie(cfg: RunConfig) -> int:
    import numpy as np

    from .analytics import csie_dated_series, moving_average
    from .cross_section import csie_csv
    from .svg import line_chart

    run = _Run()
    rows = _csie_days(cfg, run)
    run.open(cfg.out)
    run.emit("csie_daily.csv", lambda: csie_csv(rows))

    def build_chart() -> str:
        series = csie_dated_series(rows, use_abs=cfg.abs)
        overlay = moving_average(series, cfg.ma) if cfg.ma else None
        sizes, label = None, ""
        if cfg.bubble is not None:
            field, label = _BUBBLES[cfg.bubble]
            sizes = np.array([getattr(r, field) for r in rows], dtype=float)
        kind = "absolute" if cfg.abs else "signed"
        return line_chart(
            series,
            title=f"Cross-sectional intrinsic entropy ({kind})",
            ma=overlay,
            ma_label=f"{cfg.ma}-day moving average" if cfg.ma else "",
            bubble_sizes=sizes,
            bubble_label=label,
        )

    run.emit("csie_series.svg", build_chart)
    return run.status


def cmd_indexvol(cfg: RunConfig) -> int:
    from .analytics import RollingError, rolling_estimate
    from .svg import small_multiples

    run = _Run()
    index = _load_index(cfg)
    w = cfg.windows[0]
    series_by_tag: dict[str, DatedSeries] = {}
    failed: list[str] = []  # printed once no estimator is a configuration error
    for tag in cfg.estimators:
        try:
            series_by_tag[tag] = rolling_estimate(index, tag, w, use_abs=cfg.abs)
        except RollingError as exc:  # NaN at each failed window
            series_by_tag[tag] = exc.series
            failed.append(f"estimator {tag!r}, window {w}: {exc}")
        except ValueError as exc:
            raise ConfigError(f"estimator {tag!r}, window {w}: {exc}") from exc
    for message in failed:
        run.error(message)
    # every series ends on the index's last bar, so the common dates are the
    # last entries of the shortest one
    n = min(len(s) for s in series_by_tag.values())
    run.open(cfg.out)

    def build_csv() -> str:
        dates = series_by_tag[cfg.estimators[0]].dates[-n:].tolist()
        columns = [series_by_tag[tag].values[-n:].tolist() for tag in cfg.estimators]
        lines = ["date," + ",".join(cfg.estimators)]
        for d, row in zip(dates, zip(*columns)):
            cells = (repr(v) if math.isfinite(v) else "NA" for v in row)  # NA: a failed window
            lines.append(d.isoformat() + "," + ",".join(cells))
        return "\n".join(lines) + "\n"

    run.emit("indexvol.csv", build_csv)
    panels = [
        (f"{_LONG_NAMES[tag]} ({w}d)", series_by_tag[tag])
        for tag in _FIG_STACK_ORDER
        if tag in series_by_tag
    ]
    run.emit(
        "indexvol.svg",
        lambda: small_multiples(panels, title=f"{index.name}: rolling volatility, window {w}"),
    )
    return run.status


def cmd_compare(cfg: RunConfig) -> int:
    from .analytics import comparison_grids

    run = _Run()
    index = _load_index(cfg)  # read before any EOD file
    rows = _csie_days(cfg, run)
    run.open(cfg.out)
    grids = comparison_grids(index, rows, cfg.estimators, cfg.intervals,
                             tuple(sorted(cfg.windows)), semantics=cfg.interval_semantics,
                             on_error=run.error)
    for stat, grid in grids.items():
        run.emit(f"grid_{stat}.csv", grid.to_csv)
    return run.status


def cmd_cluster(cfg: RunConfig) -> int:
    from .clustering import cluster_day
    from .market_data import _dated_eod_files, parse_eod_file
    from .svg import dendrogram_svg

    run = _Run()
    iso = cfg.date.isoformat()  # strftime("%Y") does not zero-pad a year before 1000
    suffix = f"_{iso.replace('-', '')}.csv"
    try:
        matches = _dated_eod_files(p for p in cfg.market_dir.iterdir() if p.name.endswith(suffix))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot load market data from {cfg.market_dir}: {exc}") from exc
    if not matches:
        raise ConfigError(f"no EOD file for {iso} in {cfg.market_dir}")
    path = matches[0][1]
    try:
        day = parse_eod_file(path.read_bytes(), cfg.date)
        dendro = cluster_day(day, log_prices=cfg.log_prices)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    run.open(cfg.out)
    run.emit(f"cluster_{iso}.newick", lambda: dendro.newick() + "\n")
    run.emit(f"cluster_{iso}_merges.csv", dendro.merge_csv)
    run.emit(f"cluster_{iso}.svg", lambda: dendrogram_svg(dendro))
    return run.status


# Every command: the function that runs it, its help text and the options it
# requires, in --help order, which ``main`` checks before the command imports
# anything.
_COMMANDS: dict[str, tuple[Callable[[RunConfig], int], str, tuple[str, ...]]] = {
    "csie": (cmd_csie, "daily market entropy CSV and chart from an EOD directory",
             ("market_dir",)),
    "indexvol": (cmd_indexvol, "rolling volatility estimators for one index CSV", ("index",)),
    "compare": (cmd_compare, "mean/variance/pearson/beta grids of index vs market entropy",
                ("market_dir", "index")),
    "cluster": (cmd_cluster, "OHLC price-column dendrogram for one day", ("market_dir", "date")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csie",
        description="Cross-sectional intrinsic entropy and OHLC volatility toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="flat key = value config file")
        for key, (_, _, settings) in _OPTIONS.items():
            p.add_argument("--" + key.replace("_", "-"), **settings)
    return parser


def _one_blas_thread() -> None:
    """Have numpy's BLAS start one thread when numpy loads, unless the user
    chose a thread count or numpy is loaded already (the setting would not
    act, and the caller's environment stays as it was)."""
    if "numpy" not in sys.modules and not any(v in os.environ for v in _BLAS_THREAD_VARS):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"


def main(argv: Sequence[str] | None = None) -> int:
    # one exit hook however often main runs; see the module docstring
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve(args)
        command, _, required = _COMMANDS[args.command]
        for key in required:
            if getattr(cfg, key) is None:
                raise ConfigError(f"--{key.replace('_', '-')} is required for this command")
        _one_blas_thread()
        return command(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
