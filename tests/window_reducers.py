"""Per-window reference rolls: the rolling path before it went whole-series.

``rolling_estimate`` and ``moving_average`` here reduce one window at a time
with ``math.fsum``, with each estimator's reducer written out inline, as the
package did before its kernels reduced every window at once.
A window fails when an ``ie`` window has no volume or when its estimate is
not a finite number.  ``test_rolling_kernels`` requires the package's rolls to
give the same value bytes, the same failed windows and ``RollingError``, and
the same ``NegativeRadicandWarning`` texts as these.  Only the result types and the
warning class are the package's own.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from csie.analytics import DatedSeries, RollingError
from csie.estimators import NegativeRadicandWarning
from csie.market_data import IndexSeries

LN2 = math.log(2.0)
GK_CLOSE_COEF = 2.0 * LN2 - 1.0
NEEDS_SEED = {"cc": True, "pk": False, "gk": False, "rs": False, "yz": True, "ie": True}


def _mean(a: np.ndarray) -> float:
    if len(a) == 0:
        raise ValueError("mean of empty sequence")
    return math.fsum(a.tolist()) / len(a)


def _var(a: np.ndarray) -> float:
    d = a - _mean(a)
    return _mean(d * d)


def _clamped(radicand: float, name: str) -> float:
    if radicand < 0.0:
        warnings.warn(f"{name} radicand {radicand!r} clamped to 0", NegativeRadicandWarning)
    return max(radicand, 0.0)


def _xlogx(p: np.ndarray) -> np.ndarray:
    safe = np.where(p > 0.0, p, 1.0)
    return np.where(p > 0.0, p * np.log(safe), 0.0)


def _k(n: int) -> float:
    return 0.34 / (1.34 + (n + 1.0) / (n - 1.0))


def _window_value(tag: str, t: dict, volume: np.ndarray, seed_volume, use_abs: bool) -> float:
    """One window's estimate from its slice of the bar terms."""
    n = len(t["co"])
    if tag == "cc":
        return math.sqrt(_mean(t["cc2"]))
    if tag == "pk":
        return math.sqrt(math.fsum(t["hl2"].tolist()) / (4.0 * n * LN2))
    if tag == "gk":
        return math.sqrt(_clamped(_mean(t["gk"]), "Garman-Klass"))
    if tag == "rs":
        return math.sqrt(_clamped(_mean(t["rs"]), "Rogers-Satchell"))
    if tag == "yz":
        k = _k(n)
        radicand = _var(t["gap"]) + k * _var(t["co"])
        return math.sqrt(_clamped(radicand + (1.0 - k) * _mean(t["rs"]), "Yang-Zhang"))
    total = math.fsum(volume.astype(float).tolist())
    if total <= 0.0:
        raise ValueError("no volume in window")
    probs = volume / total
    seed = seed_volume / total
    seed_ent = seed * math.log(seed) if seed > 0.0 else 0.0
    lagged = np.concatenate(([seed_ent], _xlogx(probs[:-1])))
    h_co = -math.fsum((t["gap"] * lagged).tolist())
    h_oc = -math.fsum((t["co"] * _xlogx(probs)).tolist())
    h_ohlc = -math.fsum((t["rs"] * _xlogx(probs)).tolist())
    k = _k(n)
    if use_abs:
        return abs(h_co) + k * abs(h_oc) + (1.0 - k) * abs(h_ohlc)
    return h_co + k * h_oc + (1.0 - k) * h_ohlc


def rolling_estimate(
    series: IndexSeries, tag: str, w: int, *, use_abs: bool = False
) -> DatedSeries:
    if tag not in NEEDS_SEED:
        raise ValueError(f"unknown estimator {tag!r}")
    least = 2 if tag in ("yz", "ie") else 1
    if w < least:
        raise ValueError(f"estimator {tag!r} needs a window of at least {least}")
    required = w + 1 if NEEDS_SEED[tag] else w
    if len(series) < required:
        raise ValueError(
            f"estimator {tag!r} with window {w} needs {required} bars, "
            f"series has {len(series)}"
        )
    o, h, l, c = series.open, series.high, series.low, series.close
    prev = np.concatenate(([np.nan], c[:-1]))
    with np.errstate(all="ignore"):
        hl, co = np.log(h / l), np.log(c / o)
        r = np.log(c / prev)
        terms = {
            "hl2": hl * hl,
            "gk": 0.5 * hl * hl - GK_CLOSE_COEF * co * co,
            "co": co,
            "rs": np.log(h / o) * np.log(h / c) + np.log(l / o) * np.log(l / c),
            "cc2": r * r,
            "gap": np.log(o / prev),
        }
    # an infinite term is NaN, so that it makes every window reading it NaN
    terms = {name: np.where(np.isfinite(a), a, np.nan) for name, a in terms.items()}
    values = np.full(len(series) - required + 1, math.nan)
    failed: list[tuple[int, ValueError]] = []
    for i in range(len(values)):
        start = i + required - w
        window = {name: a[start : start + w] for name, a in terms.items()}
        try:
            value = _window_value(
                tag, window, series.volume[start : start + w], series.volume[start - 1], use_abs
            )
        except ValueError as exc:
            failed.append((i, exc))
            continue
        if math.isfinite(value):
            values[i] = value
        else:
            failed.append((i, ValueError("price ratio past the float range")))
    out = DatedSeries(series.dates[required - 1 :], values)
    if failed:
        raise RollingError(str(failed[0][1]), out)
    return out


def moving_average(s: DatedSeries, w: int) -> DatedSeries:
    if w < 1:
        raise ValueError("window must be at least 1")
    if len(s) < w:
        raise ValueError(f"insufficient data: {len(s)} points for window {w}")
    vals = [_mean(s.values[i - w + 1 : i + 1]) for i in range(w - 1, len(s))]
    return DatedSeries(s.dates[w - 1 :], np.array(vals, dtype=float))
