"""Historical volatility estimators over a window of index OHLC bars.

All five classics are here: close-to-close (raw, non-de-meaned squared log
returns), Parkinson, Garman-Klass, Rogers-Satchell, and Yang-Zhang.  Every
formula consumes log price ratios, so each estimator is invariant under a
common rescaling of all prices in the window.

``bar_terms`` takes every price log, once per bar.  Each formula is one
kernel (``KERNELS``, ``intrinsic._ie_rows``) that estimates every w-bar
window of a run of bar terms at once: it views each term array as an
(n_windows, w) array of windows, applies the formula's elementwise steps
and reduces each row with ``_util.exact_rowsums``.  ``analytics`` rolls a
kernel over a whole series; each single-window function is the kernel's
one-row case, so both give the same bits, and both fail a window whose
estimate is not finite with NOT_FINITE.

Estimators that look back at the previous close (close-to-close, the
Yang-Zhang overnight term) need a seed bar one day before the window; the
window carries its close and volume when available.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._util import exact_rowsums, int64_volumes, window_means

_LN2 = math.log(2.0)
_GK_CLOSE_COEF = 2.0 * _LN2 - 1.0

# Why an estimate has no value: a price ratio of the window overflows or
# underflows a float, and with it a bar term.
NOT_FINITE = "price ratio past the float range"


class NegativeRadicandWarning(UserWarning):
    """A variance radicand came out negative and was clamped to zero."""


class BarTerms(NamedTuple):
    """Per-bar log terms of a run of bars, one array entry per bar."""

    hl2: np.ndarray  # ln^2(H/L)
    gk: np.ndarray  # 0.5 ln^2(H/L) - (2 ln 2 - 1) ln^2(C/O)
    co: np.ndarray  # ln(C/O)
    rs: np.ndarray  # ln(H/O) ln(H/C) + ln(L/O) ln(L/C)
    cc2: np.ndarray | None  # ln^2(C/C_prev); None without previous closes
    gap: np.ndarray | None  # ln(O/C_prev); None without previous closes


def bar_terms(o: np.ndarray, h: np.ndarray, l: np.ndarray, c: np.ndarray,
              prev_close: np.ndarray | None) -> BarTerms:
    """Each bar's log terms; ``prev_close`` is NaN for a bar without one.

    A term that a price ratio past the float range makes infinite or NaN is
    NaN, so every estimate that reads it is NaN: infinite terms of both signs
    would make an exact sum raise, and a negative one would be clamped.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        hl = np.log(h / l)
        co = np.log(c / o)
        rs = np.log(h / o) * np.log(h / c) + np.log(l / o) * np.log(l / c)
        cc2 = gap = None
        if prev_close is not None:
            r = np.log(c / prev_close)
            cc2, gap = r * r, np.log(o / prev_close)
        terms = (hl * hl, 0.5 * hl * hl - _GK_CLOSE_COEF * co * co, co, rs, cc2, gap)
    for a in terms:
        if a is not None:
            a[~np.isfinite(a)] = math.nan
    return BarTerms(*terms)


@dataclass(frozen=True, eq=False)
class OhlcWindow:
    """n consecutive bars, optionally preceded by a seed bar's close/volume.

    Prices must be positive, and volumes, the seed's too, whole numbers
    from 0 to int64's largest (``int64_volumes``, the data layer's rule);
    the high/low ordering of bars is the data layer's responsibility, so
    windows built by hand can describe malformed bars (which is how the
    Garman-Klass clamp can trigger).
    """

    end: object
    open: np.ndarray
    high: np.ndarray
    low: np.ndarray
    close: np.ndarray
    volume: np.ndarray = field(default=None)  # type: ignore[assignment]
    seed_close: float | None = None
    seed_volume: int | None = None

    def __post_init__(self) -> None:
        for name in ("open", "high", "low", "close"):
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
        if self.volume is None:
            object.__setattr__(self, "volume", np.zeros(len(self.close), dtype=np.int64))
        else:
            object.__setattr__(self, "volume", int64_volumes(self.volume))
        if self.seed_volume is not None:
            object.__setattr__(self, "seed_volume", int(int64_volumes([self.seed_volume])[0]))
        n = len(self.close)
        if n < 1:
            raise ValueError("empty window")
        for name in ("open", "high", "low", "volume"):
            if len(getattr(self, name)) != n:
                raise ValueError("column lengths differ")
        if (self.volume < 0).any() or (self.seed_volume or 0) < 0:
            raise ValueError("negative or non-whole volume in window")
        for name in ("open", "high", "low", "close"):
            arr = getattr(self, name)
            if not np.isfinite(arr).all() or (arr <= 0.0).any():
                raise ValueError(f"nonpositive {name} price in window")
        if self.seed_close is not None and not self.seed_close > 0.0:
            raise ValueError("nonpositive seed close")

    @property
    def prev_closes(self) -> np.ndarray:
        """C_{i-1} for each bar; requires the seed bar."""
        if self.seed_close is None:
            raise ValueError("window has no seed bar")
        return np.concatenate(([self.seed_close], self.close[:-1]))


def _window_terms(w: OhlcWindow, lagged: bool = False) -> BarTerms:
    """The window's bar terms; ``lagged`` adds cc2/gap and needs the seed bar."""
    return bar_terms(w.open, w.high, w.low, w.close, w.prev_closes if lagged else None)


def _row_vars(a: np.ndarray, w: int) -> np.ndarray:
    """Population variance of each window: the mean squared deviation."""
    d = sliding_window_view(a, w) - window_means(a, w)[:, None]
    return exact_rowsums(d * d) / w


def _clamped(radicand: np.ndarray, name: str) -> np.ndarray:
    """Each negative radicand becomes 0 with a warning, in window order.

    The warning names the line that called the public function: the stack
    below it is this function, the kernel, its driver (``_one`` or
    ``analytics._rolls``) and the public function.
    """
    negative = radicand < 0.0
    for r in radicand[negative].tolist():
        warnings.warn(f"{name} radicand {r!r} clamped to 0", NegativeRadicandWarning, stacklevel=5)
    return np.where(negative, 0.0, radicand)


def _cc(t: BarTerms, w: int) -> np.ndarray:
    return np.sqrt(window_means(t.cc2, w))


def _pk(t: BarTerms, w: int) -> np.ndarray:
    return np.sqrt(exact_rowsums(sliding_window_view(t.hl2, w)) / (4.0 * w * _LN2))


def _gk(t: BarTerms, w: int) -> np.ndarray:
    return np.sqrt(_clamped(window_means(t.gk, w), "Garman-Klass"))


def _rs(t: BarTerms, w: int) -> np.ndarray:
    mean = window_means(t.rs, w)
    return np.sqrt(np.where(mean < 0.0, 0.0, mean))


def _yz(t: BarTerms, w: int) -> np.ndarray:
    k = yz_k(w)
    radicand = _row_vars(t.gap, w) + k * _row_vars(t.co, w)
    return np.sqrt(_clamped(radicand + (1.0 - k) * window_means(t.rs, w), "Yang-Zhang"))


# tag -> kernel: the estimate of every w-bar window of a run of bar terms
KERNELS = {"cc": _cc, "pk": _pk, "gk": _gk, "rs": _rs, "yz": _yz}


def _finite(value: float) -> float:
    """``value``; ValueError(NOT_FINITE) if it is not a finite number."""
    if not math.isfinite(value):
        raise ValueError(NOT_FINITE)
    return value


def _one(kernel, w: OhlcWindow, lagged: bool = False) -> float:
    """The kernel on the window as its only row; ValueError if the estimate
    is not finite, as for the same window in ``analytics.rolling_estimate``."""
    return _finite(float(kernel(_window_terms(w, lagged), len(w.close))[0]))


def vol_close_to_close(w: OhlcWindow) -> float:
    """Root mean square of close-to-close log returns (raw, no de-meaning)."""
    return _one(_cc, w, lagged=True)


def vol_parkinson(w: OhlcWindow) -> float:
    """Range estimator: sqrt( sum(ln^2(H/L)) / (4 n ln 2) )."""
    return _one(_pk, w)


def vol_garman_klass(w: OhlcWindow) -> float:
    """sqrt( mean(0.5 ln^2(H/L) - (2 ln 2 - 1) ln^2(C/O)) ), clamped at 0.

    The radicand is provably nonnegative for bars whose high/low bracket open
    and close; on malformed bars it can dip below zero, in which case it is
    clamped and a NegativeRadicandWarning is issued so the series stays total.
    """
    return _one(_gk, w)


def vol_rogers_satchell(w: OhlcWindow) -> float:
    """Drift-independent range estimator; each bar term is >= 0 for valid bars."""
    return _one(_rs, w)


def yz_k(n: int) -> float:
    """Yang-Zhang blend constant, 0.34 / (1.34 + (n+1)/(n-1)).

    The constant that minimises the variance of the blended estimator, from
    Yang & Zhang (2000), "Drift-independent volatility estimation based on
    high, low, open, and close prices", Journal of Business 73(3).  Strictly
    increasing in n, approaching 0.34/2.34 from below.
    """
    if n < 2:
        raise ValueError("Yang-Zhang k needs a window of at least 2 bars")
    return 0.34 / (1.34 + (n + 1.0) / (n - 1.0))


def vol_overnight(w: OhlcWindow) -> float:
    """De-meaned variance of overnight gaps ln(O_i/C_{i-1}); not a square root."""
    return float(_row_vars(_window_terms(w, lagged=True).gap, len(w.close))[0])


def vol_open_to_close(w: OhlcWindow) -> float:
    """De-meaned variance of intraday log returns ln(C_i/O_i); not a square root."""
    return float(_row_vars(_window_terms(w).co, len(w.close))[0])


def vol_yang_zhang(w: OhlcWindow) -> float:
    """sqrt( V_co^2 + k V_oc^2 + (1-k) V_rs^2 ) with k = yz_k(n)."""
    return _one(_yz, w, lagged=True)
