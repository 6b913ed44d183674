from __future__ import annotations

import math
import warnings
from datetime import date
from itertools import combinations

import numpy as np
import pytest

from csie.clustering import (
    LEAF_NAMES,
    Dendrogram,
    InversionWarning,
    MergeStep,
    PriceMatrix,
    agglomerate,
    cluster_day,
    corr_distance,
)
from csie.market_data import MarketDay

from helpers import make_market_day
from oracles import naive_corr_distance, naive_upgma, upgma_merge_is_minimal

DAY = date(2022, 5, 17)


def pm(open_, high, low, close):
    return PriceMatrix(DAY, np.asarray(open_, float), np.asarray(high, float),
                       np.asarray(low, float), np.asarray(close, float))


def random_pm(rng, m=12):
    cols = [rng.uniform(10, 20, m) for _ in range(4)]
    return pm(*cols)


# --- correlation distance --------------------------------------------------------

def test_distance_identical_vectors_zero():
    a = np.array([1.0, 2.0, 4.0])
    assert corr_distance(a, a) == 0.0


def test_distance_anticorrelated_two():
    assert corr_distance(np.array([1.0, 2.0, 3.0]), np.array([3.0, 2.0, 1.0])) == 2.0
    assert corr_distance(np.array([1.0, 2.0, 3.0]), np.array([-1.0, -2.0, -3.0])) == 2.0


def test_distance_bounds():
    rng = np.random.default_rng(51)
    for _ in range(50):
        a, b = rng.normal(0, 1, 8), rng.normal(0, 1, 8)
        assert 0.0 <= corr_distance(a, b) <= 2.0


def test_distance_constant_column_errors():
    with pytest.raises(ValueError, match="degenerate column"):
        corr_distance(np.array([2.0, 2.0, 2.0]), np.array([1.0, 2.0, 3.0]))


def test_distance_matches_naive():
    rng = np.random.default_rng(52)
    a = [float(x) for x in rng.uniform(1, 9, 15)]
    b = [float(x) for x in rng.uniform(1, 9, 15)]
    assert math.isclose(
        corr_distance(np.array(a), np.array(b)), naive_corr_distance(a, b),
        rel_tol=1e-13,
    )


# --- price matrix ------------------------------------------------------------------

def test_matrix_validation():
    with pytest.raises(ValueError, match="at least 3"):
        pm([1, 2], [1, 2], [1, 2], [1, 2])
    with pytest.raises(ValueError, match="lengths"):
        PriceMatrix(DAY, np.ones(3), np.ones(4), np.ones(3), np.ones(3))
    with pytest.raises(ValueError, match="nonpositive"):
        pm([1, 2, 3], [1, 2, 3], [1, 2, -3], [1, 2, 3])
    with pytest.raises(ValueError, match="unknown column"):
        random_pm(np.random.default_rng(0)).column("volume")


def test_matrix_from_market_day():
    day = make_market_day(np.random.default_rng(53), DAY, 8)
    matrix = PriceMatrix.from_market_day(day)
    assert matrix.day == DAY
    assert np.array_equal(matrix.close, day.close)


# --- merge sequence ---------------------------------------------------------------------

def test_duplicate_columns_merge_first_at_zero_height():
    rng = np.random.default_rng(54)
    o = rng.uniform(10, 20, 10)
    l = rng.uniform(1, 5, 10)
    c = rng.uniform(30, 40, 10)
    tree = agglomerate(pm(o, c.copy(), l, c))  # high duplicates close
    first = tree.steps[0]
    assert (first.left, first.right) == (("close",), ("high",))
    assert first.height == 0.0


def test_equidistant_ties_break_lexicographically():
    # e_i + 1 columns: every pair correlates at exactly -1/3, so all six
    # distances tie and only the label order can decide the merges
    cols = {name: [1.0] * 4 for name in LEAF_NAMES}
    for i, name in enumerate(LEAF_NAMES):
        cols[name][i] = 2.0
    tree = agglomerate(pm(cols["open"], cols["high"], cols["low"], cols["close"]))
    d = 1.0 - (-1.0 / 3.0)
    s1, s2, s3 = tree.steps
    assert (s1.left, s1.right) == (("close",), ("high",))
    assert (s2.left, s2.right) == (("close", "high"), ("low",))
    assert (s3.left, s3.right) == (("close", "high", "low"), ("open",))
    for s in tree.steps:
        assert math.isclose(s.height, d, rel_tol=1e-15)


def test_three_merges_ending_at_root():
    tree = agglomerate(random_pm(np.random.default_rng(55)))
    assert len(tree.steps) == 3
    root = tuple(sorted(tree.steps[-1].left + tree.steps[-1].right))
    assert root == tuple(sorted(LEAF_NAMES))
    heights = [s.height for s in tree.steps]
    assert heights == sorted(heights)  # average linkage cannot invert


def test_no_inversion_warning_on_ordinary_data():
    with warnings.catch_warnings():
        warnings.simplefilter("error", InversionWarning)
        for seed in range(10):
            agglomerate(random_pm(np.random.default_rng(seed)))


def test_inversion_warning_is_a_user_warning():
    assert issubclass(InversionWarning, UserWarning)


def test_symbol_permutation_leaves_tree_unchanged():
    rng = np.random.default_rng(56)
    matrix = random_pm(rng, m=9)
    perm = rng.permutation(9)
    permuted = pm(matrix.open[perm], matrix.high[perm],
                  matrix.low[perm], matrix.close[perm])
    assert agglomerate(matrix).newick() == agglomerate(permuted).newick()


def test_single_column_rescale_keeps_topology():
    rng = np.random.default_rng(57)
    matrix = random_pm(rng, m=15)
    scaled = pm(matrix.open * 37.5, matrix.high, matrix.low, matrix.close)
    a, b = agglomerate(matrix), agglomerate(scaled)
    for sa, sb in zip(a.steps, b.steps):
        assert (sa.left, sa.right) == (sb.left, sb.right)
        assert math.isclose(sa.height, sb.height, rel_tol=1e-12)


def test_log_prices_toggle_changes_distances():
    matrix = random_pm(np.random.default_rng(58), m=20)
    raw = agglomerate(matrix)
    logged = agglomerate(matrix, log_prices=True)
    assert raw.merge_csv() != logged.merge_csv()


def test_merges_match_reference_implementation():
    rng = np.random.default_rng(59)
    for _ in range(50):
        m = int(rng.integers(5, 41))
        matrix = random_pm(rng, m=m)
        base = {
            frozenset(pair): naive_corr_distance(
                list(matrix.column(pair[0])), list(matrix.column(pair[1]))
            )
            for pair in combinations(LEAF_NAMES, 2)
        }
        want = naive_upgma(base)
        tree = agglomerate(matrix)
        active = sorted((leaf,) for leaf in LEAF_NAMES)
        for step, (wl, wr, wd) in zip(tree.steps, want):
            assert (step.left, step.right) == (wl, wr)
            assert math.isclose(step.height, wd, rel_tol=1e-12)
            assert upgma_merge_is_minimal(active, (step.left, step.right), base)
            active.remove(step.left)
            active.remove(step.right)
            active.append(tuple(sorted(step.left + step.right)))
            active.sort()


# --- serialization --------------------------------------------------------------------------

def test_newick_shape_and_branch_lengths():
    s1 = MergeStep(("close",), ("high",), 0.1)
    s2 = MergeStep(("low",), ("open",), 0.3)
    s3 = MergeStep(("close", "high"), ("low", "open"), 0.5)
    tree = Dendrogram(DAY, (s1, s2, s3))
    assert tree.newick() == "((close:0.1,high:0.1):0.4,(low:0.3,open:0.3):0.2);"


def test_newick_balanced_parens_on_random_trees():
    for seed in range(5):
        text = agglomerate(random_pm(np.random.default_rng(seed))).newick()
        assert text.endswith(";")
        assert text.count("(") == 3 and text.count(")") == 3
        for leaf in LEAF_NAMES:
            assert text.count(leaf) == 1


def test_merge_csv_layout():
    s1 = MergeStep(("close",), ("high",), 0.1)
    s2 = MergeStep(("close", "high"), ("low",), 0.25)
    s3 = MergeStep(("close", "high", "low"), ("open",), 0.5)
    text = Dendrogram(DAY, (s1, s2, s3)).merge_csv()
    assert text == (
        "step,left,right,height\n"
        "1,close,high,0.1\n"
        "2,close+high,low,0.25\n"
        "3,close+high+low,open,0.5\n"
    )


def test_cluster_day_end_to_end():
    day = make_market_day(np.random.default_rng(60), DAY, 10)
    tree = cluster_day(day)
    assert tree.day == DAY
    assert len(tree.steps) == 3
    direct = agglomerate(PriceMatrix.from_market_day(day))
    assert tree.newick() == direct.newick()
    logged = cluster_day(day, log_prices=True)
    assert logged.merge_csv() != tree.merge_csv()


@pytest.mark.parametrize("k", [-365, 660, -1000, 960])
def test_cluster_day_is_invariant_under_power_of_two_scaling(k):
    # squared deviations of the scaled prices leave the float range (below
    # it at -365 and -1000, above at 660 and 960); the tree keeps its bits
    day = make_market_day(np.random.default_rng(61), DAY, 10)
    scale = 2.0**k
    scaled = MarketDay(DAY, day.symbols, day.open * scale, day.high * scale, day.low * scale,
                       day.close * scale, day.volume)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cluster_day(scaled).merge_csv() == cluster_day(day).merge_csv()
