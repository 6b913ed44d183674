from __future__ import annotations

import functools
import math
import warnings
from datetime import date

import numpy as np
import pytest

from csie import analytics
from csie.analytics import (
    ALL_INTERVAL,
    STATISTICS,
    DatedSeries,
    align,
    comparison_grids,
    csie_dated_series,
    mean_var,
    moving_average,
    pearson,
    rolling_estimate,
    vol_beta,
)
from csie.cross_section import CsieDay, csie_series
from csie.market_data import IndexSeries
from csie.estimators import (
    OhlcWindow,
    vol_close_to_close,
    vol_garman_klass,
    vol_parkinson,
    vol_rogers_satchell,
    vol_yang_zhang,
)
from csie.intrinsic import ie_estimate

from helpers import make_index_series, make_market_day, weekdays
from oracles import naive_beta, naive_ma, naive_mean, naive_pearson, naive_var


def ds(values, start=date(2022, 3, 1)):
    days = weekdays(start, len(values))
    return DatedSeries(np.array(days, dtype="datetime64[D]"), np.array(values, float))


def csie_row(day, signed, absval=None):
    a = abs(signed) if absval is None else absval
    return CsieDay(day, 5, 1e6, 0.1, signed, signed, signed, a, False)


def csie_rows(values, start=date(2022, 3, 1)):
    return [csie_row(d, v) for d, v in zip(weekdays(start, len(values)), values)]


# --- moving average ---------------------------------------------------------------

def test_ma_constant_series():
    out = moving_average(ds([7.0] * 6), 3)
    assert list(out.values) == [7.0] * 4


def test_ma_window_one_is_identity():
    s = ds([1.0, 4.0, 2.0])
    out = moving_average(s, 1)
    assert list(out.values) == [1.0, 4.0, 2.0]
    assert list(out.dates) == list(s.dates)


def test_ma_two_point_example():
    s = ds([1.0, 2.0, 3.0, 4.0])
    out = moving_average(s, 2)
    assert list(out.values) == [1.5, 2.5, 3.5]
    assert list(out.dates) == list(s.dates[1:])


def test_ma_insufficient_data():
    with pytest.raises(ValueError, match="insufficient"):
        moving_average(ds([1.0, 2.0]), 3)


def test_ma_matches_naive():
    rng = np.random.default_rng(31)
    vals = rng.normal(0, 1, 40)
    out = moving_average(ds(vals), 7)
    want = naive_ma([float(v) for v in vals], 7)
    assert np.allclose(out.values, want, rtol=1e-13)


# --- rolling estimates -------------------------------------------------------------

def test_rolling_flat_index_is_zero():
    s = make_index_series(np.random.default_rng(32), 1)
    flat_bars = type(s)(
        name=s.name,
        dates=np.array([np.datetime64(d) for d in weekdays(date(2022, 1, 3), 10)]),
        open=np.full(10, 5.0), high=np.full(10, 5.0),
        low=np.full(10, 5.0), close=np.full(10, 5.0),
        volume=np.full(10, 100),
    )
    for tag in ("cc", "pk", "gk", "rs", "yz", "ie"):
        out = rolling_estimate(flat_bars, tag, 4)
        assert np.all(out.values == 0.0), tag


def test_rolling_point_counts_and_dates():
    s = make_index_series(np.random.default_rng(33), 12)
    no_seed = rolling_estimate(s, "pk", 5)
    seeded = rolling_estimate(s, "cc", 5)
    assert len(no_seed) == 8 and list(no_seed.dates) == list(s.dates[4:])
    assert len(seeded) == 7 and list(seeded.dates) == list(s.dates[5:])
    assert no_seed.tag == "pk" and no_seed.window == 5


SINGLE_WINDOW = {
    "cc": vol_close_to_close,
    "pk": vol_parkinson,
    "gk": vol_garman_klass,
    "rs": vol_rogers_satchell,
    "yz": vol_yang_zhang,
}


def hand_window(s, start, w, seeded):
    """The w bars of ``s`` from ``start``, built by hand from array slices."""
    sl = slice(start, start + w)
    return OhlcWindow(
        end=s.dates[start + w - 1],
        open=s.open[sl], high=s.high[sl], low=s.low[sl], close=s.close[sl],
        volume=s.volume[sl],
        seed_close=float(s.close[start - 1]) if seeded else None,
        seed_volume=int(s.volume[start - 1]) if seeded else None,
    )


def single_window_value(tag, win, use_abs):
    """The single-window function's value, or None where it raises."""
    try:
        if tag == "ie":
            est = ie_estimate(win)
            return est.value_abs if use_abs else est.value_signed
        return SINGLE_WINDOW[tag](win)
    except ValueError:
        return None


def test_rolling_matches_direct_windows():
    s = make_index_series(np.random.default_rng(34), 80)
    volume = s.volume.copy()
    volume[40:46] = 0  # ie windows inside this stretch fail at w = 2 and 5
    s = IndexSeries(s.name, s.dates, s.open, s.high, s.low, s.close, volume)
    for tag in ("cc", "pk", "gk", "rs", "yz", "ie"):
        seeded = tag in ("cc", "yz", "ie")
        for w in (2, 5, 30):
            for use_abs in (False, True):
                try:
                    out = rolling_estimate(s, tag, w, use_abs=use_abs)
                except analytics.RollingError as exc:
                    out = exc.series
                starts = range(1 if seeded else 0, len(s) - w + 1)
                assert list(out.dates) == [s.dates[i + w - 1] for i in starts]
                want = [
                    single_window_value(tag, hand_window(s, i, w, seeded), use_abs)
                    for i in starts
                ]
                failed = [i for i, v in enumerate(want) if v is None]
                assert np.flatnonzero(np.isnan(out.values)).tolist() == failed
                if tag == "ie" and w < 30:
                    assert len(failed) == 7 - w
                for got, v in zip(out.values, want):
                    assert v is None or got == v, (tag, w, use_abs)


def test_rolling_builds_no_window_objects(monkeypatch):
    def refuse(self):
        raise AssertionError("rolling_estimate built an OhlcWindow")

    monkeypatch.setattr(OhlcWindow, "__post_init__", refuse)
    s = make_index_series(np.random.default_rng(36), 40)
    for tag in ("cc", "pk", "gk", "rs", "yz", "ie"):
        out = rolling_estimate(s, tag, 10)
        assert len(out) == (30 if tag in ("cc", "yz", "ie") else 31)
        assert np.isfinite(out.values).all()


def test_rolling_errors():
    s = make_index_series(np.random.default_rng(35), 6)
    with pytest.raises(ValueError, match="unknown estimator"):
        rolling_estimate(s, "xx", 3)
    with pytest.raises(ValueError, match="'cc' with window 6 needs 7 bars"):
        rolling_estimate(s, "cc", 6)
    with pytest.raises(ValueError, match="at least 2"):
        rolling_estimate(s, "yz", 1)


# --- summary statistics -----------------------------------------------------------

def test_mean_var_basics():
    assert mean_var([5.0]) == (5.0, 0.0)
    mu, var = mean_var([1.0, 3.0])
    assert mu == 2.0 and var == 1.0  # divisor n, not n-1
    assert mean_var([4.0, 4.0, 4.0])[1] == 0.0
    with pytest.raises(ValueError):
        mean_var([])


def test_mean_var_matches_naive():
    rng = np.random.default_rng(36)
    vals = [float(v) for v in rng.normal(3, 2, 25)]
    mu, var = mean_var(vals)
    assert math.isclose(mu, naive_mean(vals), rel_tol=1e-15)
    assert math.isclose(var, naive_var(vals), rel_tol=1e-13)


# --- alignment ----------------------------------------------------------------------

def test_align_identical_dates():
    a, b = ds([1.0, 2.0, 3.0]), ds([9.0, 8.0, 7.0])
    common, av, bv = align(a, b)
    assert list(common) == list(a.dates)
    assert list(av) == [1.0, 2.0, 3.0] and list(bv) == [9.0, 8.0, 7.0]


def test_align_partial_overlap():
    a = ds([1.0, 2.0, 3.0, 4.0], start=date(2022, 3, 1))
    b = ds([10.0, 20.0, 30.0], start=date(2022, 3, 3))
    common, av, bv = align(a, b)
    assert len(common) == 2
    assert list(av) == [3.0, 4.0] and list(bv) == [10.0, 20.0]


def test_align_disjoint_errors():
    a = ds([1.0, 2.0], start=date(2022, 3, 1))
    b = ds([1.0, 2.0], start=date(2022, 6, 1))
    with pytest.raises(ValueError, match="no common dates"):
        align(a, b)


# --- correlation and beta -------------------------------------------------------------

def test_pearson_basics():
    assert pearson([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0
    assert pearson([1.0, 2.0, 3.0], [-1.0, -2.0, -3.0]) == -1.0
    assert pearson([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]) == 1.0


def test_pearson_affine_invariance():
    rng = np.random.default_rng(37)
    a = rng.normal(0, 1, 30)
    b = rng.normal(0, 1, 30)
    r = pearson(a, b)
    assert math.isclose(pearson(3.0 * a + 5.0, b), r, rel_tol=1e-12)
    assert math.isclose(pearson(a, -2.0 * b + 1.0), -r, rel_tol=1e-12)


def test_pearson_zero_variance_errors():
    with pytest.raises(ValueError, match="zero variance"):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="zero variance"):
        pearson([1.0, 2.0], [5.0, 5.0])


def test_pearson_stays_in_unit_interval():
    rng = np.random.default_rng(38)
    for _ in range(50):
        n = int(rng.integers(2, 10))
        a, b = rng.normal(0, 1, n), rng.normal(0, 1, n)
        assert -1.0 <= pearson(a, b) <= 1.0


def test_pearson_matches_naive():
    rng = np.random.default_rng(39)
    a = [float(v) for v in rng.normal(0, 1, 20)]
    b = [float(v) for v in rng.normal(0, 1, 20)]
    assert math.isclose(pearson(a, b), naive_pearson(a, b), rel_tol=1e-12)


def test_beta_scaling_laws():
    rng = np.random.default_rng(40)
    v = rng.normal(1.0, 0.2, 25)
    assert math.isclose(vol_beta(v, v), 1.0, rel_tol=1e-12)
    assert math.isclose(vol_beta(0.5 * v, v), 0.5, rel_tol=1e-12)
    assert math.isclose(vol_beta(3.0 * v, v), 3.0, rel_tol=1e-12)
    assert vol_beta(np.full(25, 2.0), v) == 0.0


def test_beta_zero_market_variance_errors():
    with pytest.raises(ValueError, match="zero market variance"):
        vol_beta([1.0, 2.0], [3.0, 3.0])


def test_beta_matches_naive():
    rng = np.random.default_rng(41)
    v = [float(x) for x in rng.normal(1, 0.3, 30)]
    m = [float(x) for x in rng.normal(1, 0.2, 30)]
    assert math.isclose(vol_beta(v, m), naive_beta(v, m), rel_tol=1e-12)


# --- csie series handoff ------------------------------------------------------------

def test_csie_dated_series_variants():
    rows = [csie_row(date(2022, 3, 2), -0.4), csie_row(date(2022, 3, 1), 0.2)]
    signed = csie_dated_series(rows)
    assert list(signed.values) == [0.2, -0.4]  # sorted by date
    absd = csie_dated_series(rows, use_abs=True)
    assert list(absd.values) == [0.2, 0.4]


# --- comparison grid -----------------------------------------------------------------

def grid_world(n_days=60, seed=42):
    rng = np.random.default_rng(seed)
    days = weekdays(date(2022, 1, 3), n_days)
    market = [make_market_day(rng, d, 4) for d in days]
    rows = csie_series(market)
    index = make_index_series(rng, n_days, start=days[0])
    return index, rows


def test_grid_shape_never_varies():
    index, rows = grid_world()
    g = comparison_grids(index, rows, ["cc", "pk"], [10, 5000, ALL_INTERVAL], [5, 10])["pearson"]
    assert g.columns == ("cc", "pk")
    assert g.intervals == (10, 5000, ALL_INTERVAL)
    assert g.windows == (5, 10)
    for t in g.intervals:
        for w in g.windows:
            for col in g.columns:
                assert (t, w, col) in g.cells
    # 5000 smoothed points cannot exist in a 60-day world
    assert g.cell(5000, 5, "cc") is None
    assert g.cell(10, 5, "cc") is not None


def test_grid_mean_variance_carry_csie_column():
    index, rows = grid_world()
    grids = comparison_grids(index, rows, ["cc"], [20, ALL_INTERVAL], [5])
    for stat in ("mean", "variance"):
        assert grids[stat].columns == ("cc", "csie")
        assert grids[stat].cell(20, 5, "csie") is not None
    for stat in ("pearson", "beta"):
        assert grids[stat].columns == ("cc",)


def test_grid_cells_match_hand_computation():
    index, rows = grid_world()
    w, t = 5, 12
    g = comparison_grids(index, rows, ["pk"], [t, ALL_INTERVAL], [w])["pearson"]
    ma = moving_average(csie_dated_series(rows, use_abs=True), w)
    vol = rolling_estimate(index, "pk", w, use_abs=True)
    _, est, mkt = align(vol, ma)
    want_t = pearson(est[-t:], mkt[-t:])
    want_all = pearson(est, mkt)
    assert math.isclose(g.cell(t, w, "pk"), want_t, rel_tol=1e-13)
    assert math.isclose(g.cell(ALL_INTERVAL, w, "pk"), want_all, rel_tol=1e-13)


def test_grid_mean_uses_signed_series():
    index, rows = grid_world()
    w = 5
    g = comparison_grids(index, rows, [], [ALL_INTERVAL], [w])["mean"]
    ma = moving_average(csie_dated_series(rows, use_abs=False), w)
    assert math.isclose(g.cell(ALL_INTERVAL, w, "csie"), mean_var(ma.values)[0], rel_tol=1e-13)


def test_grid_beta_of_self_is_one():
    # feed the market's own abs-MA back as a fake index estimator by checking
    # beta(v, v) through the public statistic instead
    index, rows = grid_world()
    g = comparison_grids(index, rows, ["yz"], [ALL_INTERVAL], [5])["beta"]
    ma = moving_average(csie_dated_series(rows, use_abs=True), 5)
    vol = rolling_estimate(index, "yz", 5, use_abs=True)
    _, est, mkt = align(vol, ma)
    assert math.isclose(g.cell(ALL_INTERVAL, 5, "yz"), vol_beta(est, mkt), rel_tol=1e-13)


def test_grid_csv_layout():
    index, rows = grid_world(n_days=40)
    g = comparison_grids(index, rows, ["cc", "pk"], [10, ALL_INTERVAL], [5, 10])["variance"]
    text = g.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "interval,window,cc,pk,csie"
    # window-major: all intervals for w=5, then all for w=10
    starts = [l.split(",")[:2] for l in lines[1:]]
    assert starts == [["10", "5"], ["all", "5"], ["10", "10"], ["all", "10"]]
    for line in lines[1:]:
        for cell in line.split(",")[2:]:
            assert cell == "NA" or len(cell.split(".")[1]) == 8


def test_grid_na_for_undefined_statistic():
    # constant market series: zero variance means pearson is undefined
    days = weekdays(date(2022, 1, 3), 30)
    rows = [csie_row(d, 0.25) for d in days]
    rng = np.random.default_rng(43)
    index = make_index_series(rng, 30, start=days[0])
    grids = comparison_grids(index, rows, ["pk"], [ALL_INTERVAL], [3])
    assert grids["pearson"].cell(ALL_INTERVAL, 3, "pk") is None
    assert grids["beta"].cell(ALL_INTERVAL, 3, "pk") is None
    # but the mean grid is fine
    assert math.isclose(grids["mean"].cell(ALL_INTERVAL, 3, "csie"), 0.25, rel_tol=1e-15)


def reslice_reference(index, rows, column, t, w, statistic, semantics="raw-days"):
    """One cell computed the direct way.  raw-days: slice the last t index bars
    and market days, then smooth, roll, align and apply the statistic.
    smoothed-points: smooth, roll and align the whole series, then apply the
    statistic to the last t aligned points."""
    use_abs = statistic in ("pearson", "beta")
    rows = sorted(rows, key=lambda r: r.day)
    raw_days = semantics == "raw-days"
    if raw_days and t != ALL_INTERVAL:
        if len(index) < t or len(rows) < t:
            return None
        cols = (index.dates, index.open, index.high, index.low, index.close, index.volume)
        index, rows = IndexSeries(index.name, *(c[-t:] for c in cols)), rows[-t:]
    try:
        ma = moving_average(csie_dated_series(rows, use_abs=use_abs), w)
        if column == "csie":
            est = mkt = ma.values
        else:
            vol = rolling_estimate(index, column, w, use_abs=use_abs)
            _, est, mkt = align(vol, ma)
        if not raw_days and t != ALL_INTERVAL:
            if len(est) < t:
                return None
            est, mkt = est[-t:], mkt[-t:]
        if statistic == "pearson":
            return pearson(est, mkt)
        if statistic == "beta":
            return vol_beta(est, mkt)
        return mean_var(est)[0 if statistic == "mean" else 1]
    except ValueError:
        return None


def test_grid_raw_days_semantics_differ():
    index, rows = grid_world()
    t, w = 20, 5
    smoothed = comparison_grids(index, rows, ["pk"], [t], [w])["pearson"]
    raw = comparison_grids(
        index, rows, ["pk"], [t], [w], semantics="raw-days")["pearson"]
    # raw-days slices 20 trailing days then windows inside them
    assert raw.cell(t, w, "pk") == reslice_reference(index, rows, "pk", t, w, "pearson")
    assert raw.cell(t, w, "pk") != smoothed.cell(t, w, "pk")


def long_index_world():
    """40 market days inside a 60-bar index that starts 15 weekdays earlier."""
    rng = np.random.default_rng(45)
    days = weekdays(date(2022, 1, 3), 60)
    rows = csie_series([make_market_day(rng, d, 4) for d in days[15:55]])
    return make_index_series(rng, 60, start=days[0]), rows


@pytest.mark.parametrize(
    "world, statistic, column, t, w, is_na",
    [
        ("same", "pearson", "pk", 3, 5, True),  # t < w
        ("same", "beta", "yz", 60, 5, False),  # t == len(index)
        ("same", "pearson", "ie", 61, 5, True),  # t > len(index)
        ("same", "mean", "csie", 20, 5, False),
        ("same", "mean", "yz", 12, 10, False),
        ("long", "pearson", "yz", 41, 5, True),  # t > market days < len(index)
        ("long", "variance", "ie", 30, 10, False),
        ("long", "mean", "csie", 35, 5, False),
        ("long", "beta", "pk", ALL_INTERVAL, 5, False),
        ("long", "pearson", "cc", 40, 20, False),
    ],
)
def test_grid_raw_days_matches_reslicing(world, statistic, column, t, w, is_na):
    index, rows = grid_world() if world == "same" else long_index_world()
    estimators = [] if column == "csie" else [column]
    g = comparison_grids(index, rows, estimators, [t], [w], semantics="raw-days")[statistic]
    want = reslice_reference(index, rows, column, t, w, statistic)
    assert (want is None) == is_na
    assert g.cell(t, w, column) == want


def test_grid_rolls_each_series_once(monkeypatch):
    calls = []
    real = analytics._rolls

    def counting(series, tag, w):
        calls.append((tag, w))
        return real(series, tag, w)

    monkeypatch.setattr(analytics, "_rolls", counting)
    index, rows = grid_world()
    for semantics in ("smoothed-points", "raw-days"):
        calls.clear()
        comparison_grids(
            index, rows, ["pk", "yz", "ie"], [10, 20, 40, ALL_INTERVAL], [5, 10],
            semantics=semantics,
        )
        # one roll per (tag, w) serves all four statistics; ie keeps both blends
        assert sorted(calls) == sorted((tag, w) for tag in ("pk", "yz", "ie") for w in (5, 10))


def zero_volume_world():
    """grid_world with no index volume on bars 5-11: ie windows 4-6 fail."""
    index, rows = grid_world()
    volume = index.volume.copy()
    volume[5:12] = 0
    index = IndexSeries(
        index.name, index.dates, index.open, index.high, index.low, index.close, volume
    )
    return index, rows


def test_rolling_failed_windows_raise_after_the_roll():
    index, _ = zero_volume_world()
    with pytest.raises(analytics.RollingError, match="no volume in window") as info:
        rolling_estimate(index, "ie", 5)
    vol = info.value.series
    assert len(vol) == len(index) - 5 and info.value.last_failed == 6
    assert np.flatnonzero(np.isnan(vol.values)).tolist() == [4, 5, 6]


@pytest.mark.parametrize(
    "t, is_na",
    [(10, False), (53, False), (54, True), (60, True), (ALL_INTERVAL, True)],
)
def test_grid_raw_days_failed_window_fails_only_the_intervals_reaching_it(t, is_na):
    # the newest failed ie window (position 6) spans the last 54 bars
    index, rows = zero_volume_world()
    g = comparison_grids(
        index, rows, ["ie", "pk"], [t], [5], semantics="raw-days")["pearson"]
    want = reslice_reference(index, rows, "ie", t, 5, "pearson")
    assert (want is None) == is_na
    assert g.cell(t, 5, "ie") == want
    assert g.cell(t, 5, "pk") == reslice_reference(index, rows, "pk", t, 5, "pearson")


def test_grid_smoothed_points_failed_window_fails_the_column():
    index, rows = zero_volume_world()
    g = comparison_grids(index, rows, ["ie", "pk"], [10, ALL_INTERVAL], [5])["pearson"]
    assert g.cell(10, 5, "ie") is None and g.cell(ALL_INTERVAL, 5, "ie") is None
    assert g.cell(10, 5, "pk") is not None


def extreme_world(*bars):
    """grid_world with bars 20, 21, ... replaced by ``bars``: valid bars whose
    price ratios reach past the float range."""
    index, rows = grid_world()
    o, h, l, c = (a.copy() for a in (index.open, index.high, index.low, index.close))
    for i, bar in enumerate(bars, start=20):
        o[i], h[i], l[i], c[i] = bar
    return IndexSeries(index.name, index.dates, o, h, l, c, index.volume), rows


UP = (1e-300, 1e300, 1e-300, 1e300)  # ln(H/L) and ln(C/O) are inf
DOWN = (1e300, 1e300, 1e-300, 1e-300)  # ln(C/O) is -inf, so UP, DOWN is fsum's -inf + inf


@pytest.mark.parametrize("tag", ["pk", "gk", "rs", "yz", "ie"])
def test_rolling_window_past_the_float_range_fails(tag):
    index, _ = extreme_world(UP, DOWN)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(analytics.RollingError, match="^price ratio past the float range$") as info:
            rolling_estimate(index, tag, 5)
    vol = info.value.series
    failed = np.flatnonzero(np.isnan(vol.values))
    assert vol.dates[failed].tolist() == index.dates[20:26].tolist()  # windows over bar 20 or 21
    assert info.value.last_failed == failed[-1]


@pytest.mark.parametrize(
    "zero, message",
    [(slice(5, 12), "no volume"), (slice(40, 47), "price ratio")],
    ids=["no-volume-first", "price-ratio-first"],
)
def test_rolling_first_failed_window_names_the_error(zero, message):
    index, _ = extreme_world(UP)
    volume = index.volume.copy()
    volume[zero] = 0
    index = IndexSeries(index.name, index.dates, index.open, index.high, index.low, index.close,
                        volume)
    with pytest.raises(analytics.RollingError, match=message) as info:
        rolling_estimate(index, "ie", 5)
    assert np.isnan(info.value.series.values).sum() == 5 + 3  # over bar 20, and with no volume


def test_grid_reports_each_roll_past_the_float_range():
    index, rows = extreme_world(UP)  # the closes around bar 20 stay in range: cc is finite
    errors = []
    grids = comparison_grids(index, rows, ["cc", "pk", "ie"], [10, ALL_INTERVAL], [5, 10],
                             on_error=errors.append)
    assert errors == [f"estimator {tag!r}, window {w}: price ratio past the float range"
                      for w in (5, 10) for tag in ("pk", "ie")]
    for g in grids.values():
        for t in (10, ALL_INTERVAL):
            for w in (5, 10):
                assert g.cell(t, w, "pk") is None and g.cell(t, w, "ie") is None
                assert math.isfinite(g.cell(t, w, "cc"))


def test_grid_raw_days_interval_too_large_is_na():
    index, rows = grid_world(n_days=30)
    g = comparison_grids(
        index, rows, ["pk"], [100], [5], semantics="raw-days")["pearson"]
    assert g.cell(100, 5, "pk") is None


def test_grid_duplicate_market_day_rejected():
    index, rows = grid_world(n_days=20)
    dup = list(rows) + [rows[3]]
    with pytest.raises(ValueError, match="duplicate market day"):
        comparison_grids(index, dup, ["pk"], [ALL_INTERVAL], [5])


def test_grid_input_validation():
    index, rows = grid_world(n_days=20)
    grids = comparison_grids(index, rows, ["pk"], [5], [5])
    assert tuple(grids) == STATISTICS
    assert all(grids[stat].statistic == stat for stat in STATISTICS)
    with pytest.raises(ValueError, match="unknown estimator"):
        comparison_grids(index, rows, ["zz"], [5], [5])
    with pytest.raises(ValueError, match="unknown interval semantics"):
        comparison_grids(index, rows, ["pk"], [5], [5], semantics="daily")


def test_grid_market_row_order_does_not_matter():
    index, rows = grid_world(n_days=40)
    shuffled = list(rows)
    np.random.default_rng(44).shuffle(shuffled)
    a = comparison_grids(index, rows, ["cc", "yz"], [10, ALL_INTERVAL], [5])
    b = comparison_grids(index, shuffled, ["cc", "yz"], [10, ALL_INTERVAL], [5])
    for stat in STATISTICS:
        assert a[stat].to_csv() == b[stat].to_csv()


def test_grid_deterministic_rebuild():
    index, rows = grid_world()
    a = comparison_grids(index, rows, ["cc", "pk", "yz", "ie"], [15, ALL_INTERVAL], [5, 10])
    b = comparison_grids(index, rows, ["cc", "pk", "yz", "ie"], [15, ALL_INTERVAL], [5, 10])
    for stat in STATISTICS:
        assert a[stat].to_csv() == b[stat].to_csv()


WORLDS = {"grid": grid_world, "long_index": long_index_world, "zero_volume": zero_volume_world}
# ie first, so a failed-window reach that leaks into the next column shows
TAGS = ("ie", "cc", "pk", "gk", "rs", "yz")
REF_INTERVALS = (1, 3, 10, 30, 39, 40, 41, 53, 54, 57, 60, 61, ALL_INTERVAL)
REF_WINDOWS = (2, 5, 10)


@functools.cache
def _shared_pass(world, semantics):
    index, rows = WORLDS[world]()
    grids = comparison_grids(index, rows, TAGS, REF_INTERVALS, REF_WINDOWS, semantics=semantics)
    return index, rows, grids


@pytest.mark.parametrize("world", sorted(WORLDS))
@pytest.mark.parametrize("column", TAGS + ("csie",))
@pytest.mark.parametrize("statistic", STATISTICS)
@pytest.mark.parametrize("semantics", ("smoothed-points", "raw-days"))
def test_every_grid_cell_matches_the_direct_computation(semantics, statistic, column, world):
    # one pass over all tags must give each statistic its own blend and each
    # column its own failed-window reach
    index, rows, grids = _shared_pass(world, semantics)
    grid = grids[statistic]
    if column not in grid.columns:
        assert column == "csie" and statistic in ("pearson", "beta")
        return
    for t in REF_INTERVALS:
        for w in REF_WINDOWS:
            want = reslice_reference(index, rows, column, t, w, statistic, semantics)
            assert grid.cell(t, w, column) == want, (t, w)
