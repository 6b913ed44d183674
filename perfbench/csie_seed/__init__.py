# Frozen copy of src/csie as it stood when the benchmark was defined.  The
# benchmark runs it in-process to make the reference output bytes for every
# workload and seed, so a faster program that writes different bytes fails.
# Do not edit: a deliberate output change replaces this copy in a benchmark
# change of its own.
"""Cross-sectional intrinsic entropy (CSIE) market volatility toolkit.

Computes a whole-market daily volatility estimate from every symbol's OHLCV
bar, rolls the classic index estimators (close-to-close, Parkinson,
Garman-Klass, Rogers-Satchell, Yang-Zhang) and the volume-weighted
intrinsic-entropy estimator over index series, compares the two sides on
interval x window grids, and clusters a day's OHLC price columns.
"""

from .analytics import (
    ComparisonGrid,
    DatedSeries,
    ESTIMATOR_TAGS,
    VolSeries,
    align,
    comparison_grid,
    csie_dated_series,
    mean_var,
    moving_average,
    pearson,
    rolling_estimate,
    vol_beta,
)
from .clustering import (
    Dendrogram,
    MergeStep,
    PriceMatrix,
    agglomerate,
    cluster_day,
    corr_distance,
)
from .cross_section import (
    ALPHA_DEFAULT,
    CsieDay,
    SymbolWeight,
    csie_csv,
    csie_day,
    csie_h_oc,
    csie_h_olhc,
    csie_series,
    csie_weight_f,
    symbol_weights,
    total_traded_value,
)
from .estimators import (
    NegativeRadicandWarning,
    OhlcWindow,
    vol_close_to_close,
    vol_garman_klass,
    vol_open_to_close,
    vol_overnight,
    vol_parkinson,
    vol_rogers_satchell,
    vol_yang_zhang,
    window_at,
    windows,
    yz_k,
)
from .intrinsic import IeEstimate, VolumeProbs, ie_estimate, ie_h_co, ie_h_oc, ie_h_ohlc, volume_probs
from .svg import dendrogram_svg, line_chart, small_multiples
from .market_data import (
    DailyBar,
    IndexBar,
    IndexSeries,
    MarketDay,
    RejectedRow,
    eod_filename_date,
    parse_eod_file,
    parse_index_csv,
    read_eod_dir,
    read_eod_file,
    read_index_csv,
    to_eod_csv,
    validate_bar,
)

__version__ = "0.1.0"

__all__ = [
    "ALPHA_DEFAULT",
    "ComparisonGrid",
    "CsieDay",
    "DailyBar",
    "DatedSeries",
    "Dendrogram",
    "ESTIMATOR_TAGS",
    "IeEstimate",
    "IndexBar",
    "IndexSeries",
    "MarketDay",
    "MergeStep",
    "NegativeRadicandWarning",
    "OhlcWindow",
    "PriceMatrix",
    "RejectedRow",
    "SymbolWeight",
    "VolSeries",
    "VolumeProbs",
    "agglomerate",
    "align",
    "cluster_day",
    "comparison_grid",
    "corr_distance",
    "csie_csv",
    "csie_dated_series",
    "csie_day",
    "csie_h_oc",
    "csie_h_olhc",
    "csie_series",
    "csie_weight_f",
    "dendrogram_svg",
    "eod_filename_date",
    "ie_estimate",
    "ie_h_co",
    "ie_h_oc",
    "ie_h_ohlc",
    "line_chart",
    "mean_var",
    "moving_average",
    "parse_eod_file",
    "parse_index_csv",
    "pearson",
    "read_eod_dir",
    "read_eod_file",
    "read_index_csv",
    "rolling_estimate",
    "small_multiples",
    "symbol_weights",
    "to_eod_csv",
    "total_traded_value",
    "validate_bar",
    "vol_beta",
    "vol_close_to_close",
    "vol_garman_klass",
    "vol_open_to_close",
    "vol_overnight",
    "vol_parkinson",
    "vol_rogers_satchell",
    "vol_yang_zhang",
    "volume_probs",
    "window_at",
    "windows",
    "yz_k",
]
