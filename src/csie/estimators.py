"""Historical volatility estimators over a window of index OHLC bars.

All five classics are here: close-to-close (raw, non-de-meaned squared log
returns), Parkinson, Garman-Klass, Rogers-Satchell, and Yang-Zhang.  Every
formula consumes log price ratios, so each estimator is invariant under a
common rescaling of all prices in the window.

Estimators that look back at the previous close (close-to-close, the
Yang-Zhang overnight term) need a seed bar one day before the window; the
window carries its close and volume when available.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from ._util import exact_mean, exact_mean_var, exact_sum
from .market_data import IndexSeries

_LN2 = math.log(2.0)
_GK_CLOSE_COEF = 2.0 * _LN2 - 1.0


class NegativeRadicandWarning(UserWarning):
    """A variance radicand came out negative and was clamped to zero."""


@dataclass(frozen=True, eq=False)
class OhlcWindow:
    """n consecutive bars, optionally preceded by a seed bar's close/volume.

    Prices must be positive; the high/low ordering of bars is the data
    layer's responsibility, so windows built by hand can describe malformed
    bars (which is how the Garman-Klass clamp can trigger).
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
            object.__setattr__(
                self, "volume", np.asarray(self.volume, dtype=np.int64)
            )
        n = len(self.close)
        if n < 1:
            raise ValueError("empty window")
        for name in ("open", "high", "low", "volume"):
            if len(getattr(self, name)) != n:
                raise ValueError("column lengths differ")
        for name in ("open", "high", "low", "close"):
            arr = getattr(self, name)
            if not np.isfinite(arr).all() or (arr <= 0.0).any():
                raise ValueError(f"nonpositive {name} price in window")
        if self.seed_close is not None and not self.seed_close > 0.0:
            raise ValueError("nonpositive seed close")

    @property
    def n(self) -> int:
        return len(self.close)

    @property
    def prev_closes(self) -> np.ndarray:
        """C_{i-1} for each bar; requires the seed bar."""
        if self.seed_close is None:
            raise ValueError("window has no seed bar")
        return np.concatenate(([self.seed_close], self.close[:-1]))


def window_at(series: IndexSeries, end: int, n: int, with_seed: bool) -> OhlcWindow:
    """The n-bar window of ``series`` ending at index ``end`` (inclusive)."""
    if n < 1:
        raise ValueError("window length must be at least 1")
    start = end - n + 1
    if start < 0 or end >= len(series):
        raise ValueError("window does not fit the series")
    if with_seed and start == 0:
        raise ValueError("no bar available to seed the window")
    sl = slice(start, end + 1)
    return OhlcWindow(
        end=series.dates[end],
        open=series.open[sl],
        high=series.high[sl],
        low=series.low[sl],
        close=series.close[sl],
        volume=series.volume[sl],
        seed_close=float(series.close[start - 1]) if with_seed else None,
        seed_volume=int(series.volume[start - 1]) if with_seed else None,
    )


def windows(series: IndexSeries, n: int, with_seed: bool) -> Iterator[OhlcWindow]:
    """All trailing n-bar windows, oldest first."""
    first_end = n if with_seed else n - 1
    for end in range(first_end, len(series)):
        yield window_at(series, end, n, with_seed)


def vol_close_to_close(w: OhlcWindow) -> float:
    """Root mean square of close-to-close log returns (raw, no de-meaning)."""
    r = np.log(w.close / w.prev_closes)
    return math.sqrt(exact_mean(r * r))


def vol_parkinson(w: OhlcWindow) -> float:
    """Range estimator: sqrt( sum(ln^2(H/L)) / (4 n ln 2) )."""
    hl = np.log(w.high / w.low)
    return math.sqrt(exact_sum(hl * hl) / (4.0 * w.n * _LN2))


def vol_garman_klass(w: OhlcWindow) -> float:
    """sqrt( mean(0.5 ln^2(H/L) - (2 ln 2 - 1) ln^2(C/O)) ), clamped at 0.

    The radicand is provably nonnegative for bars whose high/low bracket open
    and close; on malformed bars it can dip below zero, in which case it is
    clamped and a NegativeRadicandWarning is issued so the series stays total.
    """
    hl = np.log(w.high / w.low)
    co = np.log(w.close / w.open)
    radicand = exact_mean(0.5 * hl * hl - _GK_CLOSE_COEF * co * co)
    if radicand < 0.0:
        warnings.warn(
            f"Garman-Klass radicand {radicand!r} clamped to 0",
            NegativeRadicandWarning,
            stacklevel=2,
        )
        radicand = 0.0
    return math.sqrt(radicand)


def _rs_terms(w: OhlcWindow) -> np.ndarray:
    ho = np.log(w.high / w.open)
    hc = np.log(w.high / w.close)
    lo = np.log(w.low / w.open)
    lc = np.log(w.low / w.close)
    return ho * hc + lo * lc


def vol_rogers_satchell(w: OhlcWindow) -> float:
    """Drift-independent range estimator; each bar term is >= 0 for valid bars."""
    return math.sqrt(max(exact_mean(_rs_terms(w)), 0.0))


def yz_k(n: int) -> float:
    """Yang-Zhang blend constant, 0.34 / (1.34 + (n+1)/(n-1)).

    Strictly increasing in n, approaching 0.34/2.34 from below.
    """
    if n < 2:
        raise ValueError("Yang-Zhang k needs a window of at least 2 bars")
    return 0.34 / (1.34 + (n + 1.0) / (n - 1.0))


def vol_overnight(w: OhlcWindow) -> float:
    """De-meaned variance of overnight gaps ln(O_i/C_{i-1}); not a square root."""
    return exact_mean_var(np.log(w.open / w.prev_closes))[1]


def vol_open_to_close(w: OhlcWindow) -> float:
    """De-meaned variance of intraday log returns ln(C_i/O_i); not a square root."""
    return exact_mean_var(np.log(w.close / w.open))[1]


def vol_yang_zhang(w: OhlcWindow) -> float:
    """sqrt( V_co^2 + k V_oc^2 + (1-k) V_rs^2 ) with k = yz_k(n)."""
    k = yz_k(w.n)
    rs_var = exact_mean(_rs_terms(w))
    radicand = vol_overnight(w) + k * vol_open_to_close(w) + (1.0 - k) * rs_var
    if radicand < 0.0:
        warnings.warn(
            f"Yang-Zhang radicand {radicand!r} clamped to 0",
            NegativeRadicandWarning,
            stacklevel=2,
        )
        radicand = 0.0
    return math.sqrt(radicand)
