"""Series alignment, smoothing, descriptive statistics, and comparison grids.

The comparison workflow mirrors how the daily market entropy is judged
against classic index estimators: smooth the daily cross-sectional series
with a w-day moving average, roll each estimator over the index with the
same w, align the two series on dates, keep the trailing time interval, and
compute a statistic (mean, variance, Pearson correlation, or volatility
beta).  ``STATISTICS`` is the one table of those four: for each, whether it
pairs a column with the market's absolute moving average, and the function
that computes its value.  ``comparison_grids`` builds the grids of all four
statistics in one pass, rolling each (estimator, window) series once.  Grids
hold one cell per (interval, window, column) and mark cells that cannot be
computed with an "NA" sentinel instead of dropping them.  Moving averages and
rolling estimates compute every window at once, one row per window, and
reduce each row with ``_util.exact_rowsums``, so each value has the bits of
the single-window computation.

Mean, variance, covariance all use the population divisor n throughout.
The estimator modules load when a series is first rolled, so ``csie csie``
does not load them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

import numpy as np

from ._util import exact_dot, exact_mean, pearson, window_means
from ._vocab import ALL_INTERVAL, ESTIMATOR_TAGS, INTERVAL_SEMANTICS

if TYPE_CHECKING:
    from .cross_section import CsieDay
    from .market_data import IndexSeries

_NEEDS_SEED = {"cc": True, "pk": False, "gk": False, "rs": False, "yz": True, "ie": True}
_MIN_WINDOW = {"yz": 2, "ie": 2}


@dataclass(frozen=True)
class DatedSeries:
    """Real values on strictly increasing dates."""

    dates: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        dates = np.asarray(self.dates, dtype="datetime64[D]")
        values = np.asarray(self.values, dtype=float)
        if dates.shape != values.shape:
            raise ValueError("dates and values differ in length")
        if len(dates) > 1 and not (dates[1:] > dates[:-1]).all():
            raise ValueError("dates must be strictly increasing")
        object.__setattr__(self, "dates", dates)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.dates)


def csie_dated_series(rows: Sequence[CsieDay], *, use_abs: bool = False) -> DatedSeries:
    """Daily market entropy as a dated series (signed by default)."""
    ordered = sorted(rows, key=lambda r: r.day)
    return DatedSeries(
        np.array([r.day for r in ordered], dtype="datetime64[D]"),
        np.array(
            [r.csie_abs if use_abs else r.csie_signed for r in ordered], dtype=float
        ),
    )


def moving_average(s: DatedSeries, w: int) -> DatedSeries:
    """Trailing w-point uniform mean; the output starts at the w-th date."""
    if w < 1:
        raise ValueError("window must be at least 1")
    if len(s) < w:
        raise ValueError(f"insufficient data: {len(s)} points for window {w}")
    return DatedSeries(s.dates[w - 1 :], window_means(s.values, w))


class RollingError(ValueError):
    """The first failed window's cause; ``series`` has NaN at every failed
    window."""

    def __init__(self, message: str, series: DatedSeries) -> None:
        super().__init__(message)
        self.series = series


def _rolls(
    series: IndexSeries, tag: str, w: int
) -> tuple[list[DatedSeries], np.ndarray, np.ndarray]:
    """Every trailing w-bar window's estimate, all windows at once.

    Returns one series per blend (``ie``: signed, then absolute; the other
    tags have one), the positions of the failed windows, which are NaN, and
    which windows failed with NOT_FINITE: an estimate that is not a finite
    number.  The other failed windows are ``ie`` windows with NO_VOLUME; a
    window with no volume fails with that cause alone.
    """
    from .estimators import KERNELS, bar_terms
    from .intrinsic import _ie_rows, _shares

    if tag not in ESTIMATOR_TAGS:
        raise ValueError(f"unknown estimator {tag!r}")
    if w < _MIN_WINDOW.get(tag, 1):
        raise ValueError(f"estimator {tag!r} needs a window of at least 2")
    required = w + 1 if _NEEDS_SEED[tag] else w
    if len(series) < required:
        raise ValueError(
            f"estimator {tag!r} with window {w} needs {required} bars, "
            f"series has {len(series)}"
        )
    first = required - w  # the first window's first bar; a seed bar sits before it
    terms = bar_terms(
        series.open[first:], series.high[first:], series.low[first:], series.close[first:],
        series.close[:-1] if first else None,
    )
    dates = series.dates[required - 1 :]
    no_volume = np.zeros(len(dates), dtype=bool)
    if tag == "ie":
        p, seed_p, total = _shares(series.volume, w)
        *_, signed, magnitude = _ie_rows(terms, p, seed_p, w)
        blends, no_volume = [signed, magnitude], total <= 0.0
    else:
        blends = [KERNELS[tag](terms, w)]
    not_finite = ~no_volume & ~np.logical_and.reduce([np.isfinite(v) for v in blends])
    failed = np.flatnonzero(no_volume | not_finite)
    for values in blends:
        values[failed] = math.nan
    return [DatedSeries(dates, values) for values in blends], failed, not_finite


def rolling_estimate(
    series: IndexSeries, tag: str, w: int, *, use_abs: bool = False
) -> DatedSeries:
    """Apply the tagged estimator to every trailing w-bar window.

    Estimators that look back at the previous close start one date later
    than range-only ones because the first bar must seed the window.
    ``use_abs`` selects the absolute blend for the intrinsic-entropy
    estimator; the others are nonnegative by construction.  Windows where
    the estimator fails (``ie`` with no traded volume, or an estimate that a
    price ratio past the float range leaves without a value) give a
    RollingError naming the first failed window's cause, whose ``series``
    holds every window with NaN at the failed ones.  All windows are
    computed at once by the estimator's kernel, each value bit-identical to
    the single-window function on that window.
    """
    from .estimators import NOT_FINITE
    from .intrinsic import NO_VOLUME

    blends, failed, not_finite = _rolls(series, tag, w)
    out = blends[-1] if use_abs else blends[0]
    if len(failed):
        raise RollingError(NOT_FINITE if not_finite[failed[0]] else NO_VOLUME, out)
    return out


def mean_var(values: Sequence[float] | np.ndarray) -> tuple[float, float]:
    """Population mean and variance (divisor n, never n-1)."""
    values = np.asarray(values, dtype=float)
    if len(values) == 0:
        raise ValueError("mean_var of empty sequence")
    mu = exact_mean(values)
    d = values - mu
    return mu, exact_mean(d * d)


def align(a: DatedSeries, b: DatedSeries) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inner join on dates: (common dates, a values, b values)."""
    common, ia, ib = np.intersect1d(a.dates, b.dates, return_indices=True)
    if len(common) == 0:
        raise ValueError("no common dates")
    return common, a.values[ia], b.values[ib]


def vol_beta(
    index_vol: Sequence[float] | np.ndarray, market_csie: Sequence[float] | np.ndarray
) -> float:
    """Cov(index volatility, market entropy) / Var(market entropy)."""
    v = np.asarray(index_vol, dtype=float)
    m = np.asarray(market_csie, dtype=float)
    if v.shape != m.shape:
        raise ValueError("length mismatch")
    if len(v) < 2:
        raise ValueError("beta needs at least 2 points")
    dv = v - exact_mean(v)
    dm = m - exact_mean(m)
    var_m = exact_dot(dm, dm) / len(m)
    if var_m == 0.0:
        raise ValueError("zero market variance")
    cov = exact_dot(dv, dm) / len(m)
    return cov / var_m


# Every grid statistic, in grid order: whether it pairs each column with the
# market's absolute moving average (an unpaired one reads the signed blend
# and has a trailing "csie" column), and its value from the selected
# (column, market) entries, which raises ValueError where it is undefined.
STATISTICS: dict[str, tuple[bool, Callable[[np.ndarray, np.ndarray], float]]] = {
    "mean": (False, lambda est, _: mean_var(est)[0]),
    "variance": (False, lambda est, _: mean_var(est)[1]),
    "pearson": (True, pearson),
    "beta": (True, vol_beta),
}

Interval = int | str
CellKey = tuple[Interval, int, str]


@dataclass(frozen=True)
class ComparisonGrid:
    """One statistic over every (interval, window, column) combination.

    ``cells`` maps (interval, window, column) to a float, or to None for
    combinations the data cannot support.  The grid of a statistic that
    STATISTICS does not pair with the market (mean, variance) carries a
    trailing "csie" column holding the statistic of the smoothed market
    series itself.
    """

    statistic: str
    intervals: tuple[Interval, ...]
    windows: tuple[int, ...]
    columns: tuple[str, ...]
    cells: Mapping[CellKey, float | None]

    def cell(self, interval: Interval, window: int, column: str) -> float | None:
        return self.cells[(interval, window, column)]

    def to_csv(self) -> str:
        """Rows grouped by window, intervals in order; 8-decimal fixed point."""
        lines = ["interval,window," + ",".join(self.columns)]
        for w in self.windows:
            for t in self.intervals:
                cells = []
                for col in self.columns:
                    v = self.cells[(t, w, col)]
                    cells.append("NA" if v is None else f"{v:.8f}")
                lines.append(f"{t},{w}," + ",".join(cells))
        return "\n".join(lines) + "\n"


def _keep(
    need: np.ndarray, capacity: int, reach: float, t: Interval
) -> np.ndarray | slice | None:
    """Which entries interval t keeps (those with ``need <= t``: ``need[i]``
    is how many trailing points entry i reaches back over), or None when t
    exceeds ``capacity`` (too few points) or ``reach`` (the largest interval
    with no failed estimator window; "all" reaches every window)."""
    if t == ALL_INTERVAL:
        return slice(None) if reach == math.inf else None
    assert isinstance(t, int)
    if t > min(capacity, reach):
        return None
    return need <= t


def comparison_grids(
    index: IndexSeries,
    market: Sequence[CsieDay],
    estimators: Sequence[str],
    intervals: Sequence[Interval],
    windows_: Sequence[int],
    *,
    semantics: str = "smoothed-points",
    on_error: Callable[[str], None] | None = None,
) -> dict[str, ComparisonGrid]:
    """Evaluate every statistic over the interval x window grid, in one pass.

    Returns one grid per entry of STATISTICS, in that order, each computed
    and shaped as its table row says.  For each window w, the w-day moving
    averages of the daily market entropy (absolute for the statistics
    STATISTICS pairs with the market, signed for the others) and each
    estimator rolled over the whole index are computed once and aligned on
    dates, and serve all four statistics; the one roll of ``ie`` keeps both
    blends.  An interval t only selects entries.
    ``semantics="smoothed-points"`` (default) keeps the last t aligned
    points.  "raw-days" keeps only the estimator windows (seed bar included)
    within the last t index bars and the moving-average windows within the
    last t market days, and is NA when either has fewer than t, or when those
    bars hold a failed estimator window (``ie`` with no traded volume, or an
    estimate that is not finite; smoothed-points: any failed window).  "all"
    keeps everything.
    Unsupported cells become None ("NA" in CSV); the grid shape never varies
    with the data.  ``on_error`` is called with a message for each
    (estimator, window) roll that has a window whose estimate is not finite.
    """
    from .estimators import NOT_FINITE

    if semantics not in INTERVAL_SEMANTICS:
        raise ValueError(f"unknown interval semantics {semantics!r}")
    for tag in estimators:
        if tag not in ESTIMATOR_TAGS:
            raise ValueError(f"unknown estimator {tag!r}")
    market_rows = sorted(market, key=lambda r: r.day)
    for r1, r2 in zip(market_rows, market_rows[1:]):
        if r1.day == r2.day:
            raise ValueError(f"duplicate market day {r1.day.isoformat()}")
    daily = [csie_dated_series(market_rows, use_abs=use_abs) for use_abs in (False, True)]
    raw_days = semantics == "raw-days"
    n_bars, n_days = len(index), len(market_rows)

    columns = {
        stat: tuple(estimators) + (() if paired else ("csie",))
        for stat, (paired, _) in STATISTICS.items()
    }
    cells: dict[str, dict[CellKey, float | None]] = {stat: {} for stat in STATISTICS}
    for w in windows_:
        # column -> (selection per interval, (column, market) values per blend)
        series: dict[str, tuple[list, list[tuple[np.ndarray, np.ndarray]]]] = {}
        try:
            ma = [moving_average(s, w) for s in daily]  # indexed by use_abs
        except ValueError:
            ma = []
        for tag in estimators if ma else ():
            try:
                vols, failed, not_finite = _rolls(index, tag, w)  # ie keeps both blends
            except ValueError:
                continue
            if on_error is not None and not_finite.any():
                on_error(f"estimator {tag!r}, window {w}: {NOT_FINITE}")
            reach = math.inf
            if len(failed):  # window i spans the last n_bars - i bars
                reach = n_bars - int(failed[-1]) - 1 if raw_days else 0
            _, iv, im = np.intersect1d(vols[0].dates, ma[0].dates, return_indices=True)
            if raw_days:
                need, capacity = np.maximum(n_bars - iv, n_days - im), min(n_bars, n_days)
            else:
                need, capacity = len(iv) - np.arange(len(iv)), len(iv)
            series[tag] = (
                [_keep(need, capacity, reach, t) for t in intervals],
                [(v.values[iv], m.values[im]) for v, m in zip((vols[0], vols[-1]), ma)],
            )
        if ma:
            source = n_days if raw_days else len(ma[0])
            need = source - np.arange(len(ma[0]))
            keeps = [_keep(need, source, math.inf, t) for t in intervals]
            series["csie"] = (keeps, [(ma[0].values, ma[0].values)])
        for stat, (paired, compute) in STATISTICS.items():
            for col in columns[stat]:
                keeps, blends = series.get(col, ([None] * len(intervals), []))
                for t, keep in zip(intervals, keeps):
                    value = None
                    if keep is not None:
                        try:
                            value = compute(*(v[keep] for v in blends[paired]))
                        except ValueError:
                            pass
                    cells[stat][(t, w, col)] = value

    return {
        stat: ComparisonGrid(stat, tuple(intervals), tuple(windows_), columns[stat], cells[stat])
        for stat in STATISTICS
    }
