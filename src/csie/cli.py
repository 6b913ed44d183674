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
which gives its flag, its config key, its built-in default and its help
text.  ``csie`` and ``compare`` read, judge and drop one EOD file at a time:
a command keeps one market day in memory, and only that day's ``CsieDay``
once it is computed.

Parsing and checking the options loads no compute module: the option
vocabulary comes from ``_vocab``, and each command imports what it calls when
it starts.  So ``--help``, a usage error and a configuration error exit
without loading numpy, which loads once the arguments and the configuration
are valid and a command starts reading data.  The CLI runs numpy's BLAS with
one thread unless the user set ``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS``
or ``OMP_NUM_THREADS``: csie makes no BLAS call, and each thread of the pool
that OpenBLAS starts when it loads costs CPU time.

Exit codes: 0 all outputs written, 1 partial or processing failure
(per-output status on stderr), 2 unusable input (unreadable directory,
unparseable index, bad configuration).  An EOD file that does not parse (no
usable row, or bytes that are not UTF-8) and a market day whose
cross-section cannot be computed are each skipped with an ``error:`` line on
stderr; the outputs cover the other days and the exit code is 1.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
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

# Every option, in --help order: its config key (the flag is ``--`` plus the
# key with dashes for underscores), its built-in default and its argparse
# settings.  The argparse default stays None, so ``pick`` can tell a flag the
# user gave from one left out.
_OPTIONS: dict[str, tuple[str | None, dict[str, Any]]] = {
    "market_dir": (None, {"help": "directory of <MARKET>_<YYYYMMDD>.csv files"}),
    "index": (None, {"help": "index OHLCV CSV path"}),
    "estimators": (",".join(ESTIMATOR_TAGS), {"help": "comma list from cc,pk,gk,rs,yz,ie"}),
    "windows": ("5,10,20,30", {"help": "comma list of rolling windows (indexvol uses the first)"}),
    "intervals": ("30,60,120,260,520,780,1300,all",
                  {"help": "comma list of trailing intervals, 'all' allowed"}),
    "alpha": (str(ALPHA_DEFAULT), {"help": "entropy blend alpha (> 1)"}),
    "abs": ("false", {"action": "store_const", "const": True,
                      "help": "use absolute entropy variants"}),
    "ma": (None, {"help": "moving-average overlay window for charts"}),
    "bubble": (None, {"choices": ("count", "value"), "help": "bubble sizing for the csie chart"}),
    "out": (".", {"help": "output directory"}),
    "interval_semantics": ("smoothed-points", {
        "choices": INTERVAL_SEMANTICS,
        "help": "interval counts smoothed points (default) or raw days",
    }),
    "date": (None, {"help": "day to cluster, YYYY-MM-DD or YYYYMMDD"}),
    "log_prices": ("false", {"action": "store_const", "const": True,
                             "help": "correlate log prices when clustering"}),
}

# Any one of these set by the user decides how many threads numpy's BLAS starts.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


class ConfigError(ValueError):
    """The run cannot start: missing or malformed configuration, or input
    files that are unreadable or unusable (exit 2)."""


@dataclass
class RunConfig:
    market_dir: Path | None
    index: Path | None
    estimators: tuple[str, ...]
    windows: tuple[int, ...]
    intervals: tuple[int | str, ...]
    alpha: float
    use_abs: bool
    ma: int | None
    bubble: str | None
    out: Path
    interval_semantics: str
    cluster_date: date | None
    log_prices: bool


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


def _resolve(args: argparse.Namespace) -> RunConfig:
    file_cfg = load_config_file(args.config) if args.config else {}

    def pick(key: str) -> str | None:
        cli = getattr(args, key, None)
        if cli is not None:
            return str(cli)
        if key in file_cfg:
            return file_cfg[key]
        return _OPTIONS[key][0]

    alpha_s = pick("alpha")
    try:
        alpha = float(alpha_s)  # type: ignore[arg-type]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad alpha {alpha_s!r}") from exc
    try:
        check_alpha(alpha)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    semantics = pick("interval_semantics")
    if semantics not in INTERVAL_SEMANTICS:
        raise ConfigError(f"interval-semantics must be one of {INTERVAL_SEMANTICS}")

    bubble = pick("bubble")
    if bubble is not None and bubble not in ("count", "value"):
        raise ConfigError("bubble must be 'count' or 'value'")

    ma_s = pick("ma")
    ma = None
    if ma_s is not None:
        try:
            ma = int(ma_s)
        except ValueError as exc:
            raise ConfigError(f"bad ma {ma_s!r}") from exc
        if ma < 1:
            raise ConfigError("ma must be at least 1")

    market_dir = pick("market_dir")
    index = pick("index")
    cluster_date = pick("date")
    return RunConfig(
        market_dir=Path(market_dir) if market_dir else None,
        index=Path(index) if index else None,
        estimators=_parse_estimators(pick("estimators")),  # type: ignore[arg-type]
        windows=_parse_windows(pick("windows")),  # type: ignore[arg-type]
        intervals=_parse_intervals(pick("intervals")),  # type: ignore[arg-type]
        alpha=alpha,
        use_abs=_parse_bool(pick("abs"), "abs"),  # type: ignore[arg-type]
        ma=ma,
        bubble=bubble,
        out=Path(pick("out")),  # type: ignore[arg-type]
        interval_semantics=semantics,  # type: ignore[arg-type]
        cluster_date=_parse_date_opt(cluster_date) if cluster_date else None,
        log_prices=_parse_bool(pick("log_prices"), "log_prices"),  # type: ignore[arg-type]
    )


def _csie_days(
    cfg: RunConfig, index_error: ConfigError | None = None
) -> tuple[list[CsieDay], list[str], bool]:
    """Each market day's CSIE, the error line of each day csie_day rejects,
    and whether a file was skipped.

    EOD files are read one at a time, and a day is dropped once its CSIE is
    computed.  The skipped files' error lines are printed once the files are
    read, in date order; the caller prints the day lines with
    ``_report_days`` once it has loaded whatever else it needs.  A market
    error (an unreadable directory, no EOD file, two files of one date, no
    file that parses) wins over ``index_error``, which is raised once the
    first file parses, after the error lines of the files skipped before it.
    """
    from .cross_section import csie_day
    from .market_data import _eod_files

    if cfg.market_dir is None:
        raise ConfigError("--market-dir is required for this command")
    rows: list[CsieDay] = []
    skipped_files: list[str] = []
    skipped_days: list[str] = []
    try:
        for day in _eod_files(cfg.market_dir, on_skip=skipped_files.append):
            if index_error is not None:
                break
            try:
                rows.append(csie_day(day, cfg.alpha))
            except ValueError as exc:
                skipped_days.append(f"skipped {day.day.isoformat()}: {exc}")
    except (OSError, ValueError) as exc:
        if isinstance(exc, ValueError):  # an unreadable file or directory is reported alone
            _print_errors(skipped_files)
        raise ConfigError(f"cannot load market data from {cfg.market_dir}: {exc}") from exc
    _print_errors(skipped_files)
    if index_error is not None:
        raise index_error
    return rows, skipped_days, bool(skipped_files)


def _report_days(rows: list[CsieDay], skipped_days: list[str]) -> None:
    """Print the skipped days' error lines; no day left is an error."""
    _print_errors(skipped_days)
    if not rows:
        raise ValueError("no market day has a usable cross-section")


def _print_errors(messages: list[str]) -> None:
    for message in messages:
        print(f"error: {message}", file=sys.stderr)


def _load_index(cfg: RunConfig) -> IndexSeries:
    from .market_data import read_index_csv

    if cfg.index is None:
        raise ConfigError("--index is required for this command")
    try:
        return read_index_csv(cfg.index)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot load index from {cfg.index}: {exc}") from exc


class _Emitter:
    """Writes outputs one by one and keeps the per-output status report."""

    def __init__(self, out_dir: Path) -> None:
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {out_dir}: {exc}") from exc
        self.out_dir = out_dir
        self.failures = 0

    def emit(self, name: str, build: Callable[[], str]) -> None:
        path = self.out_dir / name
        try:
            path.write_text(build())
        except (OSError, ValueError) as exc:
            self.failures += 1
            print(f"failed {path}: {exc}", file=sys.stderr)
            return
        print(f"wrote {path}")

    def status(self) -> int:
        return 1 if self.failures else 0


def cmd_csie(cfg: RunConfig) -> int:
    import numpy as np

    from .analytics import csie_dated_series, moving_average
    from .cross_section import csie_csv
    from .svg import line_chart

    rows, skipped_days, files_skipped = _csie_days(cfg)
    _report_days(rows, skipped_days)
    emitter = _Emitter(cfg.out)
    emitter.emit("csie_daily.csv", lambda: csie_csv(rows))

    def build_chart() -> str:
        series = csie_dated_series(rows, use_abs=cfg.use_abs)
        overlay = moving_average(series, cfg.ma) if cfg.ma else None
        sizes = None
        label = ""
        if cfg.bubble == "count":
            sizes = np.array([r.m for r in rows], dtype=float)
            label = "symbols traded"
        elif cfg.bubble == "value":
            sizes = np.array([r.total_value for r in rows], dtype=float)
            label = "traded value"
        kind = "absolute" if cfg.use_abs else "signed"
        return line_chart(
            series,
            title=f"Cross-sectional intrinsic entropy ({kind})",
            ma=overlay,
            ma_label=f"{cfg.ma}-day moving average" if cfg.ma else "",
            bubble_sizes=sizes,
            bubble_label=label,
        )

    emitter.emit("csie_series.svg", build_chart)
    return 1 if files_skipped or skipped_days else emitter.status()


def cmd_indexvol(cfg: RunConfig) -> int:
    from .analytics import rolling_estimate
    from .svg import small_multiples

    index = _load_index(cfg)
    w = cfg.windows[0]
    series_by_tag: dict[str, DatedSeries] = {}
    for tag in cfg.estimators:
        try:
            series_by_tag[tag] = rolling_estimate(index, tag, w, use_abs=cfg.use_abs)
        except ValueError as exc:
            raise ConfigError(f"estimator {tag!r}, window {w}: {exc}") from exc
    # every series ends on the index's last bar, so the common dates are the
    # last entries of the shortest one
    n = min(len(s) for s in series_by_tag.values())
    emitter = _Emitter(cfg.out)

    def build_csv() -> str:
        dates = series_by_tag[cfg.estimators[0]].dates[-n:].tolist()
        columns = [series_by_tag[tag].values[-n:].tolist() for tag in cfg.estimators]
        lines = ["date," + ",".join(cfg.estimators)]
        for d, row in zip(dates, zip(*columns)):
            lines.append(d.isoformat() + "," + ",".join(map(repr, row)))
        return "\n".join(lines) + "\n"

    emitter.emit("indexvol.csv", build_csv)
    panels = [
        (f"{_LONG_NAMES[tag]} ({w}d)", series_by_tag[tag])
        for tag in _FIG_STACK_ORDER
        if tag in series_by_tag
    ]
    emitter.emit(
        "indexvol.svg",
        lambda: small_multiples(panels, title=f"{index.name}: rolling volatility, window {w}"),
    )
    return emitter.status()


def cmd_compare(cfg: RunConfig) -> int:
    from .analytics import comparison_grids

    try:
        index = _load_index(cfg)
    except ConfigError as exc:  # raised once an EOD file parses, unless the market fails
        _csie_days(cfg, exc)
        raise
    rows, skipped_days, files_skipped = _csie_days(cfg)
    _report_days(rows, skipped_days)
    emitter = _Emitter(cfg.out)
    errors: list[str] = []
    grids = comparison_grids(index, rows, cfg.estimators, cfg.intervals,
                             tuple(sorted(cfg.windows)), semantics=cfg.interval_semantics,
                             on_error=errors.append)
    _print_errors(errors)
    for stat, grid in grids.items():
        emitter.emit(f"grid_{stat}.csv", grid.to_csv)
    return 1 if files_skipped or skipped_days or errors else emitter.status()


def cmd_cluster(cfg: RunConfig) -> int:
    from .clustering import cluster_day
    from .market_data import _dated_eod_files, read_eod_file
    from .svg import dendrogram_svg

    if cfg.market_dir is None:
        raise ConfigError("--market-dir is required for this command")
    if cfg.cluster_date is None:
        raise ConfigError("--date is required for cluster")
    stamp = cfg.cluster_date.strftime("%Y%m%d")
    try:
        matches = _dated_eod_files(cfg.market_dir.glob(f"*_{stamp}.csv"))
    except ValueError as exc:
        raise ConfigError(f"cannot load market data from {cfg.market_dir}: {exc}") from exc
    if not matches:
        raise ConfigError(
            f"no EOD file for {cfg.cluster_date.isoformat()} in {cfg.market_dir}"
        )
    path = matches[0][1]
    try:
        day = read_eod_file(path)
        dendro = cluster_day(day, log_prices=cfg.log_prices)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    iso = cfg.cluster_date.isoformat()
    emitter = _Emitter(cfg.out)
    emitter.emit(f"cluster_{iso}.newick", lambda: dendro.newick() + "\n")
    emitter.emit(f"cluster_{iso}_merges.csv", dendro.merge_csv)
    emitter.emit(f"cluster_{iso}.svg", lambda: dendrogram_svg(dendro))
    return emitter.status()


_COMMANDS = {
    "csie": cmd_csie,
    "indexvol": cmd_indexvol,
    "compare": cmd_compare,
    "cluster": cmd_cluster,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csie",
        description="Cross-sectional intrinsic entropy and OHLC volatility toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "csie": "daily market entropy CSV and chart from an EOD directory",
        "indexvol": "rolling volatility estimators for one index CSV",
        "compare": "mean/variance/pearson/beta grids of index vs market entropy",
        "cluster": "OHLC price-column dendrogram for one day",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="flat key = value config file")
        for key, (_, settings) in _OPTIONS.items():
            p.add_argument("--" + key.replace("_", "-"), **settings)
    return parser


def _one_blas_thread() -> None:
    """Have numpy's BLAS start one thread when numpy loads, unless the user
    chose a thread count or numpy is loaded already (the setting would not
    act, and the caller's environment stays as it was)."""
    if "numpy" not in sys.modules and not any(v in os.environ for v in _BLAS_THREAD_VARS):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve(args)
        _one_blas_thread()
        return _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
