"""Cross-sectional intrinsic entropy (CSIE) of one market day.

Each traded symbol contributes its share of the day's total traded value,
psi_i = C_i * V_i / S.  Those shares weight two price-movement terms:

* an open-to-close term, sum of -(C_i/O_i - 1) * psi_i * ln(psi_i)
* a range term built from (H_i/O_i - 1)(H_i/C_i - 1) + (L_i/O_i - 1)(L_i/C_i - 1)

and the day's estimate blends them as (1 - f) * H_oc + f * H_olhc, where f
depends only on the cross-section width m.  The signed blend keeps direction
(negative means predominantly selling); the absolute blend is the magnitude
variant used when comparing against classic volatility estimators.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from typing import Iterable, Sequence

import numpy as np

from ._util import exact_sum, xlogx
from ._vocab import ALPHA_DEFAULT, check_alpha
from .market_data import MarketDay

CSIE_CSV_HEADER = (
    "date,m,total_value,f,h_oc,h_olhc,csie_signed,csie_abs,degenerate_flag"
)


@dataclass(frozen=True, slots=True)
class SymbolWeight:
    """A symbol's share of the day's traded value."""

    symbol: str
    psi: float


@dataclass(frozen=True, slots=True)
class CsieDay:
    """One day's cross-sectional entropy estimate and its components."""

    day: date
    m: int
    total_value: float
    f: float
    h_oc: float
    h_olhc: float
    csie_signed: float
    csie_abs: float
    degenerate: bool


def _traded_values(close: np.ndarray, volume: np.ndarray, day: date) -> tuple[np.ndarray, float]:
    """close * volume of each traded bar of ``day`` and their exact total;
    ValueError if no bar traded or the total is past the float range."""
    if len(close) == 0:
        raise ValueError(f"empty cross-section on {day.isoformat()}")
    with np.errstate(over="ignore"):  # an infinite product fails the check below
        values = close * volume
    total = exact_sum(values)
    if not np.isfinite(total):
        raise ValueError(f"traded value on {day.isoformat()} is not finite")
    return values, total


def symbol_weights(day: MarketDay) -> list[SymbolWeight]:
    """Traded-value shares psi_i in ascending symbol order; they sum to ~1."""
    mask = day.tradable
    values, total = _traded_values(day.close[mask], day.volume[mask], day.day)
    psi = values / total
    return [SymbolWeight(str(s), float(p)) for s, p in zip(day.symbols[mask], psi)]


def csie_weight_f(m: int, alpha: float = ALPHA_DEFAULT) -> float:
    """Blend weight on the range component for a cross-section of m symbols.

    Increases with m and stays below (alpha - 1)/(alpha + 1); needs m >= 2
    and 1 < alpha < inf.
    """
    if m < 2:
        raise ValueError("degenerate cross-section: f needs at least two traded symbols")
    check_alpha(alpha)
    return (alpha - 1.0) / (alpha + (m + 1.0) / (m - 1.0))


def csie_day(day: MarketDay, alpha: float = ALPHA_DEFAULT) -> CsieDay:
    """Compute one day's CSIE from its traded bars.

    A single traded symbol is a degenerate cross-section: its weight is 1, so
    every entropy term vanishes and the day is reported as exactly zero with
    the flag set.  No traded symbol, an overflowing total value or a price
    ratio that takes an entropy term past the float range is an error.
    """
    mask = day.tradable
    o, h, l, c, v = (col[mask] for col in (day.open, day.high, day.low, day.close, day.volume))
    values, total = _traded_values(c, v, day.day)
    m = len(o)
    ent = xlogx(values / total)
    # a price ratio past the float range makes an inf term, or inf * 0 = nan
    # where psi = 1; the check below turns either into an error
    with np.errstate(over="ignore", invalid="ignore"):
        oc = (c / o - 1.0) * ent
        spread = (h / o - 1.0) * (h / c - 1.0) + (l / o - 1.0) * (l / c - 1.0)
        olhc = spread * ent
    if not (np.isfinite(oc).all() and np.isfinite(olhc).all()):
        raise ValueError(f"entropy terms on {day.day.isoformat()} are past the float range")
    h_oc, h_olhc = -exact_sum(oc), -exact_sum(olhc)
    if m == 1:
        return CsieDay(day.day, 1, total, 0.0, h_oc, h_olhc, 0.0, 0.0, True)
    f = csie_weight_f(m, alpha)
    signed = (1.0 - f) * h_oc + f * h_olhc
    magnitude = (1.0 - f) * abs(h_oc) + f * abs(h_olhc)
    return CsieDay(day.day, m, total, f, h_oc, h_olhc, signed, magnitude, False)


def csie_series(days: Iterable[MarketDay], alpha: float = ALPHA_DEFAULT) -> list[CsieDay]:
    """CSIE for a run of market days, which must be in strictly increasing order."""
    out: list[CsieDay] = []
    for day in days:
        if out and day.day <= out[-1].day:
            raise ValueError(
                f"market days out of order: {day.day.isoformat()} after "
                f"{out[-1].day.isoformat()}"
            )
        out.append(csie_day(day, alpha))
    return out


def csie_csv(rows: Sequence[CsieDay]) -> str:
    """Serialize CSIE days with full-precision floats, one row per day."""
    lines = [CSIE_CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.day.isoformat()},{r.m},{float(r.total_value)!r},{float(r.f)!r},"
            f"{float(r.h_oc)!r},{float(r.h_olhc)!r},{float(r.csie_signed)!r},"
            f"{float(r.csie_abs)!r},{int(r.degenerate)}"
        )
    return "\n".join(lines) + "\n"
