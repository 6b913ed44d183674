#!/usr/bin/env python3
"""How index estimators track whole-market entropy.

Builds a 300-day, 25-symbol market plus its capitalization-weighted index,
then evaluates the mean, variance, correlation and volatility-beta grids in
one pass: each cell smooths the market entropy with a w-day moving average,
rolls an index estimator with the same window, aligns the two series, and
keeps the trailing interval.  Each series is rolled once and shared by the
four grids.  Cells a short series cannot support print as NA.
"""

from datetime import date, timedelta
from pathlib import Path

import numpy as np

from csie import IndexSeries, MarketDay, comparison_grids, csie_series

rng = np.random.default_rng(23)

n_days, m = 300, 25
symbols = [f"SYM{i:02d}" for i in range(m)]
closes = rng.uniform(15.0, 400.0, m)
sigmas = rng.uniform(0.008, 0.05, m)
shares = rng.uniform(1e6, 4e7, m)

dates = []
d = date(2021, 1, 4)
while len(dates) < n_days:
    if d.weekday() < 5:
        dates.append(d)
    d += timedelta(days=1)

market, index_bars = [], []
for day in dates:
    rets = rng.normal(0, 0.012) + rng.normal(0, sigmas)
    opens = closes * np.exp(rng.normal(0, 0.003, m))
    closes = closes * np.exp(rets)
    high = np.maximum(opens, closes) * np.exp(np.abs(rng.normal(0, 0.005, m)))
    low = np.minimum(opens, closes) * np.exp(-np.abs(rng.normal(0, 0.005, m)))
    volume = rng.integers(40_000, 2_500_000, m)
    market.append(MarketDay(day, symbols, opens, high, low, closes, volume))
    wts = closes * shares / float(np.sum(closes * shares))
    index_bars.append(
        (day, float(opens @ wts), float(high @ wts), float(low @ wts),
         float(closes @ wts), int(volume.sum()))
    )

index = IndexSeries(
    "CAPW",
    [b[0] for b in index_bars],
    np.array([b[1] for b in index_bars]),
    np.array([b[2] for b in index_bars]),
    np.array([b[3] for b in index_bars]),
    np.array([b[4] for b in index_bars]),
    np.array([b[5] for b in index_bars]),
)
rows = csie_series(market)

estimators = ("cc", "pk", "gk", "rs", "yz", "ie")
windows = (5, 10, 20)
intervals = (30, 120, 500, "all")

grids = comparison_grids(index, rows, estimators, intervals, windows)
for statistic in ("pearson", "beta"):
    print(f"=== {statistic} ===")
    print(grids[statistic].to_csv())

out_dir = Path(__file__).parent / "out"
out_dir.mkdir(exist_ok=True)
for statistic, grid in grids.items():
    (out_dir / f"grid_{statistic}.csv").write_text(grid.to_csv())
print(f"grids written to {out_dir}")
