"""Cross-sectional intrinsic entropy (CSIE) market volatility toolkit.

Computes a whole-market daily volatility estimate from every symbol's OHLCV
bar, rolls the classic index estimators (close-to-close, Parkinson,
Garman-Klass, Rogers-Satchell, Yang-Zhang) and the volume-weighted
intrinsic-entropy estimator over index series, compares the two sides on
interval x window grids, and clusters a day's OHLC price columns.

Each public name is imported from its submodule on first access (PEP 562),
so ``import csie`` loads no compute module and no numpy.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# Submodule -> the public names it provides.
_EXPORTS = {
    "_vocab": ("ALPHA_DEFAULT", "ESTIMATOR_TAGS"),
    "analytics": (
        "ComparisonGrid", "DatedSeries", "align", "comparison_grids",
        "csie_dated_series", "mean_var", "moving_average", "pearson", "rolling_estimate",
        "vol_beta",
    ),
    "clustering": (
        "Dendrogram", "MergeStep", "PriceMatrix", "agglomerate", "cluster_day",
        "corr_distance",
    ),
    "cross_section": (
        "CsieDay", "SymbolWeight", "csie_csv", "csie_day", "csie_series", "csie_weight_f",
        "symbol_weights",
    ),
    "estimators": (
        "NegativeRadicandWarning", "OhlcWindow", "vol_close_to_close", "vol_garman_klass",
        "vol_open_to_close", "vol_overnight", "vol_parkinson", "vol_rogers_satchell",
        "vol_yang_zhang", "yz_k",
    ),
    "intrinsic": ("IeEstimate", "ie_estimate", "volume_probs"),
    "market_data": (
        "DailyBar", "IndexSeries", "MarketDay", "RejectedRow", "eod_filename_date",
        "parse_eod_file", "parse_index_csv", "read_eod_dir", "read_index_csv",
    ),
    "svg": ("dendrogram_svg", "line_chart", "small_multiples"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return list(__all__)
