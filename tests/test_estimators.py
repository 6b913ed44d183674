from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from csie.estimators import (
    NegativeRadicandWarning,
    OhlcWindow,
    vol_close_to_close,
    vol_garman_klass,
    vol_open_to_close,
    vol_overnight,
    vol_parkinson,
    vol_rogers_satchell,
    vol_yang_zhang,
    yz_k,
)

from helpers import random_bars
from oracles import (
    naive_cc,
    naive_gk,
    naive_k,
    naive_pk,
    naive_rs,
    naive_vco,
    naive_voc,
    naive_yz,
)

LN2 = math.log(2.0)
LIMIT = 0.34 / 2.34


def mk(opens, highs, lows, closes, seed_close=None, volume=None, seed_volume=None):
    return OhlcWindow(
        end="w",
        open=np.asarray(opens, float),
        high=np.asarray(highs, float),
        low=np.asarray(lows, float),
        close=np.asarray(closes, float),
        volume=None if volume is None else np.asarray(volume),
        seed_close=seed_close,
        seed_volume=seed_volume,
    )


def flat(n: int, price: float = 10.0, seed: bool = True) -> OhlcWindow:
    p = [price] * n
    return mk(p, p, p, p, seed_close=price if seed else None)


def random_window(rng, n: int, with_seed: bool = True) -> OhlcWindow:
    o, h, l, c = random_bars(rng, n + 1)
    v = rng.integers(1_000, 500_000, n + 1)
    return OhlcWindow(
        end="w",
        open=o[1:], high=h[1:], low=l[1:], close=c[1:], volume=v[1:],
        seed_close=float(c[0]) if with_seed else None,
        seed_volume=int(v[0]) if with_seed else None,
    )


# --- close-to-close -----------------------------------------------------------

def test_cc_constant_closes_zero():
    assert vol_close_to_close(flat(5)) == 0.0


def test_cc_single_bar_e_ratio_is_one():
    e = math.e
    w = mk([e], [e], [e], [e], seed_close=1.0)
    assert math.isclose(vol_close_to_close(w), 1.0, rel_tol=1e-15)


def test_cc_symmetric_returns_give_ln2():
    w = mk([2, 1], [2, 2], [1, 1], [2, 1], seed_close=1.0)
    assert math.isclose(vol_close_to_close(w), LN2, rel_tol=1e-15)


def test_cc_requires_seed():
    with pytest.raises(ValueError, match="seed"):
        vol_close_to_close(flat(3, seed=False))


# --- Parkinson ------------------------------------------------------------------

def test_pk_zero_range_zero():
    assert vol_parkinson(flat(4)) == 0.0


def test_pk_single_bar_double_range():
    w = mk([1.5], [2.0], [1.0], [1.5])
    assert math.isclose(vol_parkinson(w), math.sqrt(LN2 / 4.0), rel_tol=1e-15)


# --- Garman-Klass ----------------------------------------------------------------

def test_gk_flat_zero():
    assert vol_garman_klass(flat(4)) == 0.0


def test_gk_single_bar_no_drift():
    w = mk([1.5], [2.0], [1.0], [1.5])
    assert math.isclose(
        vol_garman_klass(w), math.sqrt(0.5 * LN2 * LN2), rel_tol=1e-15
    )


def test_gk_negative_radicand_clamped_with_warning():
    # zero range but a large close-to-open move is malformed OHLC; the data
    # layer rejects it, but a hand-built window must clamp, not go NaN
    w = mk([1.0], [1.0], [1.0], [2.0])
    with pytest.warns(NegativeRadicandWarning):
        assert vol_garman_klass(w) == 0.0


# --- Rogers-Satchell -------------------------------------------------------------

def test_rs_flat_zero():
    assert vol_rogers_satchell(flat(3)) == 0.0


def test_rs_high_close_low_open_zero():
    w = mk([10, 20], [12, 25], [10, 20], [12, 25])
    assert vol_rogers_satchell(w) == 0.0


def test_rs_single_bar_example():
    w = mk([1.0], [2.0], [0.5], [1.0])
    assert math.isclose(vol_rogers_satchell(w), LN2 * math.sqrt(2.0), rel_tol=1e-15)


def test_rs_terms_nonnegative_for_valid_bars():
    rng = np.random.default_rng(11)
    for _ in range(100):
        o, h, l, c = (float(x[0]) for x in random_bars(rng, 1))
        term = math.log(h / o) * math.log(h / c) + math.log(l / o) * math.log(l / c)
        assert term >= 0.0


# --- Yang-Zhang constant ----------------------------------------------------------

def test_yz_k_examples():
    assert math.isclose(yz_k(2), 0.34 / 4.34, rel_tol=1e-15)
    assert math.isclose(yz_k(30), 0.34 / (1.34 + 31.0 / 29.0), rel_tol=1e-15)


def test_yz_k_monotone_increasing_to_limit():
    ks = [yz_k(n) for n in range(2, 1001)]
    assert all(b > a for a, b in zip(ks, ks[1:]))
    assert all(0.0 < k < LIMIT for k in ks)
    assert abs(yz_k(10**6) - LIMIT) < 1e-5


def test_yz_k_needs_two_bars():
    with pytest.raises(ValueError):
        yz_k(1)


# --- variance components -----------------------------------------------------------

def test_overnight_no_gaps_zero():
    w = mk([1, 2, 3], [1, 2, 3], [1, 2, 3], [2, 3, 4], seed_close=1.0)
    assert vol_overnight(w) == 0.0


def test_overnight_constant_gap_zero():
    # every overnight gap is ln(1.1); de-meaning kills it
    closes = [1.0, 1.0, 1.0]
    opens = [1.1, 1.1, 1.1]
    w = mk(opens, [2] * 3, [0.5] * 3, closes, seed_close=1.0)
    assert vol_overnight(w) < 1e-30


def test_overnight_two_point_variance():
    g = 0.01
    seed = 1.0
    c1 = 1.5
    w = mk(
        [seed, c1 * math.exp(2 * g)],
        [3, 3], [0.5, 0.5],
        [c1, 2.0],
        seed_close=seed,
    )
    assert math.isclose(vol_overnight(w), g * g, rel_tol=1e-9)


def test_open_to_close_mirrors():
    w = mk([1, 2], [3, 3], [0.5, 0.5], [1, 2])
    assert vol_open_to_close(w) == 0.0
    # constant intraday return, de-meaned to zero
    w = mk([1, 2], [3, 3], [0.5, 0.5], [1.1, 2.2])
    assert vol_open_to_close(w) < 1e-30
    # two-point case: returns {0, 2g} -> variance g^2
    g = 0.02
    w = mk([1, 2], [9, 9], [0.4, 0.4], [1.0, 2 * math.exp(2 * g)])
    assert math.isclose(vol_open_to_close(w), g * g, rel_tol=1e-9)


# --- Yang-Zhang --------------------------------------------------------------------

def test_yz_flat_window_zero():
    assert vol_yang_zhang(flat(5)) == 0.0


def test_yz_only_overnight_gaps():
    closes = [1.1, 0.9, 1.05]
    w = mk(closes, closes, closes, closes, seed_close=1.0)
    assert math.isclose(
        vol_yang_zhang(w), math.sqrt(vol_overnight(w)), rel_tol=1e-15
    )


def test_yz_five_bar_composition_oracle():
    rng = np.random.default_rng(12)
    for _ in range(20):
        w = random_window(rng, 5)
        want = naive_yz(
            list(w.open), list(w.high), list(w.low), list(w.close), w.seed_close
        )
        assert math.isclose(vol_yang_zhang(w), want, rel_tol=1e-12)


# --- degenerate-window equivalence ---------------------------------------------------

def test_all_estimators_zero_on_fully_degenerate_window():
    w = flat(6, price=42.0)
    for fn in (
        vol_close_to_close,
        vol_parkinson,
        vol_garman_klass,
        vol_rogers_satchell,
        vol_yang_zhang,
    ):
        assert fn(w) == 0.0


# --- brute-force equivalence ----------------------------------------------------------

def test_small_window_brute_force_all_estimators():
    rng = np.random.default_rng(13)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        w = random_window(rng, n)
        o, h, l, c = list(w.open), list(w.high), list(w.low), list(w.close)
        assert math.isclose(vol_close_to_close(w), naive_cc(c, w.seed_close), rel_tol=1e-12)
        assert math.isclose(vol_parkinson(w), naive_pk(h, l), rel_tol=1e-12)
        assert math.isclose(vol_garman_klass(w), naive_gk(o, h, l, c), rel_tol=1e-12)
        assert math.isclose(vol_rogers_satchell(w), naive_rs(o, h, l, c), rel_tol=1e-12)
        assert math.isclose(vol_overnight(w), naive_vco(o, c, w.seed_close), rel_tol=1e-12, abs_tol=1e-18)
        assert math.isclose(vol_open_to_close(w), naive_voc(o, c), rel_tol=1e-12, abs_tol=1e-18)
        assert math.isclose(vol_yang_zhang(w), naive_yz(o, h, l, c, w.seed_close), rel_tol=1e-12)
        assert math.isclose(yz_k(n), naive_k(n), rel_tol=1e-15)


# --- invariances ------------------------------------------------------------------------

@given(st.integers(0, 2**31 - 1), st.floats(0.01, 100.0))
def test_price_scale_invariance(seed, lam):
    rng = np.random.default_rng(seed)
    w = random_window(rng, 4)
    scaled = OhlcWindow(
        end=w.end,
        open=w.open * lam, high=w.high * lam, low=w.low * lam, close=w.close * lam,
        volume=w.volume,
        seed_close=w.seed_close * lam,
        seed_volume=w.seed_volume,
    )
    for fn in (
        vol_close_to_close,
        vol_parkinson,
        vol_garman_klass,
        vol_rogers_satchell,
        vol_yang_zhang,
    ):
        assert math.isclose(fn(w), fn(scaled), rel_tol=1e-12, abs_tol=1e-15), fn.__name__


def test_estimators_are_pure():
    rng = np.random.default_rng(14)
    w = random_window(rng, 5)
    assert vol_yang_zhang(w) == vol_yang_zhang(w)
    assert vol_parkinson(w) == vol_parkinson(w)


# --- window plumbing -----------------------------------------------------------------------

def test_window_constructor_validation():
    with pytest.raises(ValueError, match="empty"):
        mk([], [], [], [])
    with pytest.raises(ValueError, match="nonpositive"):
        mk([1, -1], [2, 2], [0.5, 0.5], [1, 1])
    with pytest.raises(ValueError, match="seed"):
        mk([1], [2], [0.5], [1], seed_close=0.0)
    with pytest.raises(ValueError, match="lengths"):
        OhlcWindow(end="w", open=np.array([1.0]), high=np.array([2.0, 2.0]),
                   low=np.array([0.5]), close=np.array([1.0]))
