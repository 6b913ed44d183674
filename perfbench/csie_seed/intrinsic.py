"""Intrinsic-entropy (IE) volatility estimator for an index OHLCV window.

Where the classic estimators average squared log returns, IE weights each
day's price terms by p_i * ln(p_i), with p_i the day's share of the window's
traded volume (p_i = q_i / Q, Q summed over the n window days).  The overnight
component looks back one day, so it uses p_{i-1}; for the first bar that is
the seed day's weight p_0 = q_0 / Q, computed over the same Q but sitting
outside the simplex (the window days' shares alone sum to one).

The signed estimate (components added as-is) keeps direction: negative means
a preponderantly sell movement.  The absolute variant adds component
magnitudes and is the form used for cross-estimator comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import exact_sum, xlogx
from .estimators import OhlcWindow, _rs_terms, yz_k


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


def volume_probs(w: OhlcWindow) -> VolumeProbs:
    """Volume shares over the window days; requires the seed bar's volume."""
    if w.seed_volume is None:
        raise ValueError("window has no seed bar")
    total = exact_sum(w.volume.astype(float))
    if total <= 0.0:
        raise ValueError("no volume in window")
    return VolumeProbs(w.volume / total, w.seed_volume / total, total)


def _xlogx_scalar(p: float) -> float:
    return p * math.log(p) if p > 0.0 else 0.0


def ie_h_co(w: OhlcWindow, p: VolumeProbs) -> float:
    """Overnight component: -sum ln(O_i/C_{i-1}) p_{i-1} ln p_{i-1}."""
    gaps = np.log(w.open / w.prev_closes)
    lagged = np.concatenate(([_xlogx_scalar(p.seed_prob)], xlogx(p.probs[:-1])))
    return -exact_sum(gaps * lagged)


def ie_h_oc(w: OhlcWindow, p: VolumeProbs) -> float:
    """Intraday component: -sum ln(C_i/O_i) p_i ln p_i."""
    r = np.log(w.close / w.open)
    return -exact_sum(r * xlogx(p.probs))


def ie_h_ohlc(w: OhlcWindow, p: VolumeProbs) -> float:
    """Range component: -sum [ln(H/O)ln(H/C) + ln(L/O)ln(L/C)] p_i ln p_i."""
    return -exact_sum(_rs_terms(w) * xlogx(p.probs))


def ie_estimate(w: OhlcWindow) -> IeEstimate:
    """Blend the three components with k = yz_k(n) (signed and absolute)."""
    k = yz_k(w.n)
    p = volume_probs(w)
    h_co = ie_h_co(w, p)
    h_oc = ie_h_oc(w, p)
    h_ohlc = ie_h_ohlc(w, p)
    signed = h_co + k * h_oc + (1.0 - k) * h_ohlc
    magnitude = abs(h_co) + k * abs(h_oc) + (1.0 - k) * abs(h_ohlc)
    return IeEstimate(h_co, h_oc, h_ohlc, k, signed, magnitude, w.end)
