"""Intrinsic-entropy (IE) volatility estimator for an index OHLCV window.

The estimator is that of Vințe, Ausloos & Furtună (2021), "A volatility
estimator of stock market indices based on the intrinsic entropy model",
Entropy 23(4), 484.

Where the classic estimators average squared log returns, IE weights each
day's price terms by p_i * ln(p_i), with p_i the day's share of the window's
traded volume (p_i = q_i / Q, Q summed over the n window days).  The overnight
component looks back one day, so it uses p_{i-1}; for the first bar that is
the seed day's weight p_0 = q_0 / Q, computed over the same Q but sitting
outside the simplex (the window days' shares alone sum to one).

The signed estimate (components added as-is) keeps direction: negative means
a preponderantly sell movement.  The absolute variant adds component
magnitudes and is the form used for cross-estimator comparisons.  Like the
kernels in ``estimators``, ``_shares`` and ``_ie_rows`` work on every w-day
window of a run of bars at once, one row per window; ``ie_estimate`` is their
one-row case, and ``analytics.rolling_estimate`` rolls them over a whole
series, keeping both blends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._util import exact_rowsums, xlogx
from .estimators import BarTerms, OhlcWindow, _finite, _window_terms, yz_k

NO_VOLUME = "no volume in window"


@dataclass(frozen=True, slots=True, eq=False)
class VolumeProbs:
    """Volume shares for a window: p_1..p_n plus the seed day's p_0;
    compared and hashed by identity, as its array has no single truth
    value."""

    probs: np.ndarray
    seed_prob: float
    total_volume: float


@dataclass(frozen=True, slots=True)
class IeEstimate:
    """The three IE components and their signed/absolute blends."""

    h_co: float
    h_oc: float
    h_ohlc: float
    k: float
    value_signed: float
    value_abs: float
    as_of: object


def _shares(volume: np.ndarray, w: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each w-day window's shares p_1..p_n, its seed day's p_0 and its total
    volume Q, where ``volume[i]`` is window i's seed day and the w days after
    it are the window.  A window with Q <= 0 has no shares; it gets them over
    Q = 1 only so that its row stays finite."""
    volume = volume.astype(float)
    days = sliding_window_view(volume[1:], w)
    total = exact_rowsums(days)
    q = np.where(total > 0.0, total, 1.0)
    return days / q[:, None], volume[: len(q)] / q, total


def _seed_xlogx(seed_p: np.ndarray) -> np.ndarray:
    # math.log per share: np.log on an array need not match libm to the last bit
    return np.array([p * math.log(p) if p > 0.0 else 0.0 for p in seed_p.tolist()])


def _ie_rows(
    t: BarTerms, p: np.ndarray, seed_p: np.ndarray, w: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, np.ndarray, np.ndarray]:
    """h_co, h_oc, h_ohlc, k, and the signed and absolute blends of each
    w-bar window of ``t``, from its shares (one row per window) and its seed
    day's share.

    The overnight term -sum ln(O_i/C_{i-1}) p_{i-1} ln p_{i-1} weights bar i
    by the day before it, the seed day for the first bar; the intraday term
    is -sum ln(C_i/O_i) p_i ln p_i and the range term
    -sum [ln(H/O)ln(H/C) + ln(L/O)ln(L/C)] p_i ln p_i.
    """
    ent = xlogx(p)
    lagged = np.concatenate((_seed_xlogx(seed_p)[:, None], ent[:, :-1]), axis=1)
    h_co = -exact_rowsums(sliding_window_view(t.gap, w) * lagged)
    h_oc = -exact_rowsums(sliding_window_view(t.co, w) * ent)
    h_ohlc = -exact_rowsums(sliding_window_view(t.rs, w) * ent)
    k = yz_k(w)
    signed = h_co + k * h_oc + (1.0 - k) * h_ohlc
    magnitude = np.abs(h_co) + k * np.abs(h_oc) + (1.0 - k) * np.abs(h_ohlc)
    return h_co, h_oc, h_ohlc, k, signed, magnitude


def volume_probs(w: OhlcWindow) -> VolumeProbs:
    """Volume shares over the window days; requires the seed bar's volume."""
    if w.seed_volume is None:
        raise ValueError("window has no seed bar")
    p, seed_p, total = _shares(np.concatenate(([w.seed_volume], w.volume)), len(w.close))
    if total[0] <= 0.0:
        raise ValueError(NO_VOLUME)
    return VolumeProbs(p[0], float(seed_p[0]), float(total[0]))


def ie_estimate(w: OhlcWindow) -> IeEstimate:
    """Blend the three components with k = yz_k(n) (signed and absolute).

    ValueError(NO_VOLUME) for a window without volume, else
    ValueError(NOT_FINITE) if a blend is not finite.
    """
    t = _window_terms(w, lagged=True)
    p = volume_probs(w)
    h_co, h_oc, h_ohlc, k, signed, magnitude = _ie_rows(
        t, p.probs[None, :], np.array([p.seed_prob]), len(w.close)
    )
    return IeEstimate(
        float(h_co[0]), float(h_oc[0]), float(h_ohlc[0]), k,
        _finite(float(signed[0])), _finite(float(magnitude[0])), w.end,
    )
