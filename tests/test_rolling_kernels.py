"""The whole-series rolls against the per-window reference, bit for bit."""

from __future__ import annotations

import warnings
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import window_reducers
from csie import _util
from csie.analytics import DatedSeries, RollingError, moving_average, rolling_estimate
from csie.estimators import NegativeRadicandWarning, OhlcWindow, vol_garman_klass
from csie.market_data import IndexSeries

from helpers import make_index_series, random_bars, weekdays

TAGS = ("cc", "pk", "gk", "rs", "yz", "ie")
WINDOWS = (1, 2, 3, 5, 30)


def unchecked_series(dates, o, h, l, c, volume) -> IndexSeries:
    """An IndexSeries that skips the constructor's OHLC rules, so that bars
    can be malformed and radicands negative."""
    s = object.__new__(IndexSeries)
    s.name, s.dates, s.volume = "U", np.asarray(dates, dtype="datetime64[D]"), np.asarray(volume)
    s.open, s.high, s.low, s.close = (np.asarray(a, dtype=float) for a in (o, h, l, c))
    return s


# Valid bars whose price ratios reach past the float range.
EXTREME_BARS = [
    (1e-300, 1e300, 1e-300, 1e300),
    (1e300, 1e300, 1e-300, 1e-300),
    (5e-324, 1.7e308, 5e-324, 1.0),
    (1.0, 1.7e308, 5e-324, 1.7e308),
]


@st.composite
def index_series(draw) -> IndexSeries:
    """Random bars with zero-volume stretches; sometimes a few bars whose
    price ratios reach past the float range, and sometimes some bars have a
    high and low that do not bracket open and close."""
    n = draw(st.integers(2, 70))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    o, h, l, c = random_bars(rng, n)
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, n - 1))
        o[i], h[i], l[i], c[i] = draw(st.sampled_from(EXTREME_BARS))
    volume = rng.integers(0, 5_000_000, n) * (rng.random(n) > 0.1)
    for _ in range(draw(st.integers(0, 2))):
        start = draw(st.integers(0, n - 1))
        volume[start : start + draw(st.integers(1, 8))] = 0
    dates = weekdays(date(2021, 1, 4), n)
    if draw(st.booleans()):
        bad = rng.random(n) < 0.3
        h = np.where(bad, o * np.exp(rng.normal(0.0, 0.01, n)), h)
        l = np.where(bad, c * np.exp(rng.normal(0.0, 0.01, n)), l)
        return unchecked_series(dates, o, h, l, c, volume)
    return IndexSeries("X", dates, o, h, l, c, volume)


def outcome(roll, series, tag, w, use_abs):
    """What a roll gives: the series' bytes, the error and warning texts."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out, error = roll(series, tag, w, use_abs=use_abs), None
        except RollingError as exc:
            out, error = exc.series, str(exc)
        except ValueError as exc:
            return f"ValueError: {exc}"
    texts = [str(r.message) for r in caught if r.category is NegativeRadicandWarning]
    return (out.dates.tobytes(), out.values.tobytes(), np.isnan(out.values).tolist(), error,
            texts)


@settings(max_examples=60, deadline=None)
@given(index_series())
def test_rolls_match_the_per_window_reference(series):
    for tag in TAGS:
        for w in WINDOWS:
            for use_abs in (False, True):
                want = outcome(window_reducers.rolling_estimate, series, tag, w, use_abs)
                assert outcome(rolling_estimate, series, tag, w, use_abs) == want, (tag, w, use_abs)


@pytest.mark.parametrize("tag, w, least", [*((tag, 0, 1) for tag in TAGS[:4]),
                                            ("yz", 0, 2), ("ie", 0, 2), ("yz", 1, 2), ("ie", 1, 2)])
@pytest.mark.parametrize("roll", [rolling_estimate, window_reducers.rolling_estimate],
                         ids=["package", "reference"])
def test_a_too_small_window_names_the_tags_own_minimum(roll, tag, w, least):
    series = make_index_series(np.random.default_rng(5), 6)
    want = f"ValueError: estimator {tag!r} needs a window of at least {least}"
    assert outcome(roll, series, tag, w, False) == want


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 70), st.sampled_from(WINDOWS))
def test_moving_average_matches_the_per_window_reference(seed, n, w):
    rng = np.random.default_rng(seed)
    values = rng.normal(0.0, 1.0, n) * 10.0 ** rng.integers(-12, 12, n)
    s = DatedSeries(np.array(weekdays(date(2021, 1, 4), n), dtype="datetime64[D]"), values)
    try:
        want = window_reducers.moving_average(s, w)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            moving_average(s, w)
        return
    got = moving_average(s, w)
    assert got.dates.tobytes() == want.dates.tobytes()
    assert got.values.tobytes() == want.values.tobytes()


def test_rolls_rarely_fall_back_to_fsum(monkeypatch):
    """The cascade certifies nearly every window sum; only the rest take
    ``exact_sum``."""
    calls = []
    fsum = _util.exact_sum
    monkeypatch.setattr(_util, "exact_sum", lambda v: calls.append(1) or fsum(v))
    index = make_index_series(np.random.default_rng(70), 400)
    windows = sum(len(rolling_estimate(index, tag, 30)) for tag in TAGS)
    assert windows == 3 * 371 + 3 * 370  # pk, gk, rs need no seed bar
    assert len(calls) < 0.05 * windows


def test_radicand_warnings_name_the_callers_line():
    w = OhlcWindow(end="w", open=[1.0], high=[1.0], low=[1.0], close=[2.0])
    with pytest.warns(NegativeRadicandWarning) as single:
        vol_garman_klass(w)
    series = unchecked_series(weekdays(date(2021, 1, 4), 3), [1.0] * 3, [1.0] * 3, [1.0] * 3,
                              [2.0, 1.0, 2.0], [1, 1, 1])
    with pytest.warns(NegativeRadicandWarning) as rolled:
        rolling_estimate(series, "gk", 1)
    assert [r.filename for r in single] == [__file__]
    assert [r.filename for r in rolled] == [__file__] * 2
