"""Agglomerative clustering of one day's OHLC price columns.

Treats the day's open, high, low, and close vectors (one entry per symbol)
as four observations and merges them bottom-up under average linkage
(UPGMA): at each step the pair of clusters with the smallest mean pairwise
correlation distance joins.  Four leaves means exactly three merges.  Ties
are broken by lexicographic cluster label so reruns cannot differ.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from datetime import date
from itertools import combinations
from typing import Sequence

import numpy as np

from ._util import exact_mean
from .analytics import pearson
from .market_data import MarketDay

LEAF_NAMES = ("open", "high", "low", "close")

Label = tuple[str, ...]


class InversionWarning(UserWarning):
    """A merge happened below the height of an earlier merge."""


@dataclass(frozen=True)
class PriceMatrix:
    """One day's four price columns over m symbols (m >= 3, prices > 0)."""

    day: date
    open: np.ndarray
    high: np.ndarray
    low: np.ndarray
    close: np.ndarray

    def __post_init__(self) -> None:
        cols = []
        for name in LEAF_NAMES:
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
            cols.append(arr)
        m = len(cols[0])
        if m < 3:
            raise ValueError("price matrix needs at least 3 symbols")
        for arr in cols:
            if arr.shape != (m,):
                raise ValueError("column lengths differ")
            if not np.isfinite(arr).all() or (arr <= 0.0).any():
                raise ValueError("nonpositive price in matrix")

    @classmethod
    def from_market_day(cls, day: MarketDay) -> "PriceMatrix":
        return cls(day.day, day.open, day.high, day.low, day.close)

    def column(self, name: str) -> np.ndarray:
        if name not in LEAF_NAMES:
            raise ValueError(f"unknown column {name!r}")
        return getattr(self, name)


@dataclass(frozen=True, slots=True)
class MergeStep:
    """One agglomeration: the two cluster labels joined and the join height."""

    left: Label
    right: Label
    height: float


@dataclass(frozen=True)
class Dendrogram:
    """Three merge steps taking the four price columns down to one root."""

    day: date
    steps: tuple[MergeStep, MergeStep, MergeStep]

    def newick(self) -> str:
        """Newick text with branch lengths (leaves sit at height 0)."""
        height_of: dict[Label, float] = {(leaf,): 0.0 for leaf in LEAF_NAMES}
        text_of: dict[Label, str] = {(leaf,): leaf for leaf in LEAF_NAMES}
        node: Label = ()
        for s in self.steps:
            node = tuple(sorted(s.left + s.right))
            left_len = s.height - height_of[s.left]
            right_len = s.height - height_of[s.right]
            text_of[node] = (
                f"({text_of[s.left]}:{left_len!r},{text_of[s.right]}:{right_len!r})"
            )
            height_of[node] = s.height
        return text_of[node] + ";"

    def merge_csv(self) -> str:
        lines = ["step,left,right,height"]
        for i, s in enumerate(self.steps, start=1):
            lines.append(f"{i},{'+'.join(s.left)},{'+'.join(s.right)},{s.height!r}")
        return "\n".join(lines) + "\n"


def corr_distance(a: np.ndarray, b: np.ndarray) -> float:
    """1 - Pearson correlation, in [0, 2]; constant columns are an error."""
    try:
        r = pearson(a, b)
    except ValueError as exc:
        raise ValueError("degenerate column") from exc
    return 1.0 - r


def agglomerate(pm: PriceMatrix, *, log_prices: bool = False) -> Dendrogram:
    """UPGMA over the four price columns under correlation distance.

    ``log_prices`` correlates log prices instead of raw ones (correlation is
    not invariant under log, so the toggle genuinely changes the tree).
    """
    vectors = {}
    for leaf in LEAF_NAMES:
        col = pm.column(leaf)
        vectors[leaf] = np.log(col) if log_prices else col
    base = {
        frozenset(pair): corr_distance(vectors[pair[0]], vectors[pair[1]])
        for pair in combinations(LEAF_NAMES, 2)
    }

    def linkage(a: Label, b: Label) -> float:
        return exact_mean([base[frozenset((x, y))] for x in a for y in b])

    active: list[Label] = sorted((leaf,) for leaf in LEAF_NAMES)
    steps: list[MergeStep] = []
    while len(active) > 1:
        best: tuple[float, Label, Label] | None = None
        for a, b in combinations(active, 2):
            a, b = sorted((a, b))
            cand = (linkage(a, b), a, b)
            if best is None or cand < best:
                best = cand
        assert best is not None
        d, a, b = best
        if steps and d < steps[-1].height:
            warnings.warn(
                f"height inversion at merge {len(steps) + 1}: {d!r} after "
                f"{steps[-1].height!r}",
                InversionWarning,
                stacklevel=2,
            )
        steps.append(MergeStep(a, b, d))
        active.remove(a)
        active.remove(b)
        active.append(tuple(sorted(a + b)))
        active.sort()
    return Dendrogram(pm.day, (steps[0], steps[1], steps[2]))


def cluster_day(day: MarketDay, *, log_prices: bool = False) -> Dendrogram:
    """Dendrogram of a market day's OHLC columns."""
    return agglomerate(PriceMatrix.from_market_day(day), log_prices=log_prices)
