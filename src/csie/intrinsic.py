"""Intrinsic-entropy (IE) volatility estimator for an index OHLCV window.

Where the classic estimators average squared log returns, IE weights each
day's price terms by p_i * ln(p_i), with p_i the day's share of the window's
traded volume (p_i = q_i / Q, Q summed over the n window days).  The overnight
component looks back one day, so it uses p_{i-1}; for the first bar that is
the seed day's weight p_0 = q_0 / Q, computed over the same Q but sitting
outside the simplex (the window days' shares alone sum to one).

The signed estimate (components added as-is) keeps direction: negative means
a preponderantly sell movement.  The absolute variant adds component
magnitudes and is the form used for cross-estimator comparisons.  ``_ie``
reduces a window's slice of ``estimators.bar_terms`` and its volume shares
(``_probs``) for ``ie_estimate`` and ``rolling_estimate`` alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import exact_sum, xlogx
from .estimators import BarTerms, OhlcWindow, _window_terms, yz_k


@dataclass(frozen=True, slots=True)
class VolumeProbs:
    """Volume shares for a window: p_1..p_n plus the seed day's p_0."""

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


def _probs(volume: np.ndarray, seed_volume: int | None) -> VolumeProbs:
    if seed_volume is None:
        raise ValueError("window has no seed bar")
    total = exact_sum(volume.astype(float))
    if total <= 0.0:
        raise ValueError("no volume in window")
    return VolumeProbs(volume / total, seed_volume / total, total)


def volume_probs(w: OhlcWindow) -> VolumeProbs:
    """Volume shares over the window days; requires the seed bar's volume."""
    return _probs(w.volume, w.seed_volume)


def _xlogx_scalar(p: float) -> float:
    return p * math.log(p) if p > 0.0 else 0.0


def _h_co(t: BarTerms, p: VolumeProbs) -> float:
    lagged = np.concatenate(([_xlogx_scalar(p.seed_prob)], xlogx(p.probs[:-1])))
    return -exact_sum(t.gap * lagged)


def _h_oc(t: BarTerms, p: VolumeProbs) -> float:
    return -exact_sum(t.co * xlogx(p.probs))


def _h_ohlc(t: BarTerms, p: VolumeProbs) -> float:
    return -exact_sum(t.rs * xlogx(p.probs))


def _ie(t: BarTerms, p: VolumeProbs, as_of: object = None) -> IeEstimate:
    k = yz_k(len(t.co))
    h_co, h_oc, h_ohlc = _h_co(t, p), _h_oc(t, p), _h_ohlc(t, p)
    signed = h_co + k * h_oc + (1.0 - k) * h_ohlc
    magnitude = abs(h_co) + k * abs(h_oc) + (1.0 - k) * abs(h_ohlc)
    return IeEstimate(h_co, h_oc, h_ohlc, k, signed, magnitude, as_of)


def ie_h_co(w: OhlcWindow, p: VolumeProbs) -> float:
    """Overnight component: -sum ln(O_i/C_{i-1}) p_{i-1} ln p_{i-1}."""
    return _h_co(_window_terms(w, lagged=True), p)


def ie_h_oc(w: OhlcWindow, p: VolumeProbs) -> float:
    """Intraday component: -sum ln(C_i/O_i) p_i ln p_i."""
    return _h_oc(_window_terms(w), p)


def ie_h_ohlc(w: OhlcWindow, p: VolumeProbs) -> float:
    """Range component: -sum [ln(H/O)ln(H/C) + ln(L/O)ln(L/C)] p_i ln p_i."""
    return _h_ohlc(_window_terms(w), p)


def ie_estimate(w: OhlcWindow) -> IeEstimate:
    """Blend the three components with k = yz_k(n) (signed and absolute)."""
    return _ie(_window_terms(w, lagged=True), volume_probs(w), w.end)
