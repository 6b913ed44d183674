from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from csie.estimators import OhlcWindow, yz_k
from csie.intrinsic import ie_estimate, volume_probs

from helpers import random_bars
from oracles import naive_ie, naive_probs

LN2 = math.log(2.0)


def mk(opens, highs, lows, closes, volumes, seed_close, seed_volume):
    return OhlcWindow(
        end="w",
        open=np.asarray(opens, float),
        high=np.asarray(highs, float),
        low=np.asarray(lows, float),
        close=np.asarray(closes, float),
        volume=np.asarray(volumes),
        seed_close=seed_close,
        seed_volume=seed_volume,
    )


def flat(n: int, price: float = 10.0, volume: int = 100) -> OhlcWindow:
    p = [price] * n
    return mk(p, p, p, p, [volume] * n, price, volume)


def random_window(rng, n: int) -> OhlcWindow:
    o, h, l, c = random_bars(rng, n + 1)
    v = rng.integers(1_000, 500_000, n + 1)
    return mk(o[1:], h[1:], l[1:], c[1:], v[1:], float(c[0]), int(v[0]))


# --- volume probabilities -------------------------------------------------------

def test_probs_uniform():
    vp = volume_probs(flat(4))
    assert list(vp.probs) == [0.25] * 4
    assert vp.seed_prob == 0.25
    assert vp.total_volume == 400.0


def test_probs_two_bar_split():
    w = mk([1, 1], [1, 1], [1, 1], [1, 1], [1, 3], 1.0, 2)
    vp = volume_probs(w)
    assert list(vp.probs) == [0.25, 0.75]
    assert vp.seed_prob == 0.5


def test_probs_seed_volume_outside_normalization():
    # seed volume feeds the lagged weight but is not part of the total
    w = mk([1, 1], [1, 1], [1, 1], [1, 1], [2, 2], 1.0, 400)
    vp = volume_probs(w)
    assert math.fsum(vp.probs) == 1.0
    assert vp.seed_prob == 100.0


def test_probs_volume_scale_invariance():
    w = mk([1, 1, 1], [1, 1, 1], [1, 1, 1], [1, 1, 1], [10, 20, 70], 1.0, 50)
    scaled = mk([1, 1, 1], [1, 1, 1], [1, 1, 1], [1, 1, 1],
                [1000, 2000, 7000], 1.0, 5000)
    a, b = volume_probs(w), volume_probs(scaled)
    assert list(a.probs) == list(b.probs)
    assert a.seed_prob == b.seed_prob


def test_probs_zero_total_volume_rejected():
    w = mk([1, 1], [1, 1], [1, 1], [1, 1], [0, 0], 1.0, 5)
    with pytest.raises(ValueError, match="no volume"):
        volume_probs(w)


def test_probs_need_seed_volume():
    w = OhlcWindow(
        end="w",
        open=np.array([1.0]), high=np.array([1.0]),
        low=np.array([1.0]), close=np.array([1.0]),
        volume=np.array([5]),
        seed_close=1.0,
    )
    with pytest.raises(ValueError, match="seed"):
        volume_probs(w)


# --- overnight component ----------------------------------------------------------

def test_h_co_zero_when_opens_match_prior_close():
    w = mk([1.0, 1.2], [1.3, 1.3], [0.9, 0.9], [1.2, 1.1], [3, 7], 1.0, 4)
    assert ie_estimate(w).h_co == 0.0


def test_h_co_unit_prob_terms_vanish():
    # the seed day and the last bar each hold all of Q, so p0 = p2 = 1 with
    # ln(1) = 0 weight, and p1 = 0: every overnight gap drops out
    w = mk([2.0, 3.0], [3.0, 4.0], [1.0, 1.0], [2.5, 2.0], [0, 9], 1.0, 9)
    assert ie_estimate(w).h_co == 0.0


def test_h_co_two_equal_gaps_closed_form():
    g = 0.05
    seed = 1.0
    c1 = 1.3
    w = mk(
        [seed * math.exp(g), c1 * math.exp(g)],
        [3, 3], [0.5, 0.5],
        [c1, 1.7],
        [5, 5], seed, 5,
    )
    # p0 = p1 = 1/2, so H^CO = -(g + g) * (1/2)ln(1/2) = g ln 2
    assert math.isclose(ie_estimate(w).h_co, g * LN2, rel_tol=1e-12)


def test_h_co_zero_volume_bar_drops_term():
    # bar 2 has zero volume, so the gap into bar 2 is weighted by p1 and the
    # gap into bar 3 by p2 = 0
    w = mk(
        [1.0, 2.0, 3.0],
        [9, 9, 9], [0.5, 0.5, 0.5],
        [1.5, 2.5, 3.5],
        [4, 0, 4], 1.0, 4,
    )
    got = ie_estimate(w).h_co
    probs, p0 = naive_probs([4, 0, 4], 4)
    want = -math.fsum([
        math.log(1.0 / 1.0) * p0 * math.log(p0),
        math.log(2.0 / 1.5) * probs[0] * math.log(probs[0]),
        0.0,  # p2 = 0 and x ln x -> 0
    ])
    assert math.isclose(got, want, rel_tol=1e-13)


# --- intraday component --------------------------------------------------------------

def test_h_oc_zero_when_close_equals_open():
    w = mk([1, 2], [3, 3], [0.5, 0.5], [1, 2], [5, 5], 1.0, 5)
    assert ie_estimate(w).h_oc == 0.0


def test_h_oc_uniform_closed_form():
    rng = np.random.default_rng(21)
    w = random_window(rng, 4)
    uniform = mk(w.open, w.high, w.low, w.close, [7] * 4, w.seed_close, 7)
    rsum = math.fsum(math.log(c / o) for o, c in zip(w.open, w.close))
    want = (math.log(4.0) / 4.0) * rsum
    assert math.isclose(ie_estimate(uniform).h_oc, want, rel_tol=1e-12)


def test_h_oc_single_bar_zero():
    # one bar holds all the window's volume (p = 1, ln(1) = 0) and the other
    # none (p = 0), so close != open on both bars still gives zero
    w = mk([1.0, 2.0], [4.0, 4.0], [0.9, 0.9], [3.0, 1.0], [100, 0], 1.0, 50)
    assert ie_estimate(w).h_oc == 0.0


# --- range component -------------------------------------------------------------------

def test_h_ohlc_flat_zero():
    w = flat(4)
    assert ie_estimate(w).h_ohlc == 0.0


def test_h_ohlc_high_close_low_open_zero():
    w = mk([10, 20], [12, 25], [10, 20], [12, 25], [3, 9], 10.0, 2)
    assert ie_estimate(w).h_ohlc == 0.0


def test_h_ohlc_two_bar_oracle():
    w = mk([4.0, 5.0], [4.4, 5.5], [3.8, 4.9], [4.2, 5.1], [10, 30], 4.0, 20)
    probs, _ = naive_probs([10, 30], 20)
    def term(o, h, l, c):
        return math.log(h / o) * math.log(h / c) + math.log(l / o) * math.log(l / c)
    want = -math.fsum(
        term(o, h, l, c) * p * math.log(p)
        for o, h, l, c, p in zip(w.open, w.high, w.low, w.close, probs)
    )
    assert math.isclose(ie_estimate(w).h_ohlc, want, rel_tol=1e-13)


# --- blended estimate --------------------------------------------------------------------

def test_estimate_flat_window_zero():
    est = ie_estimate(flat(5))
    assert est.value_signed == 0.0
    assert est.value_abs == 0.0
    assert est.h_co == est.h_oc == est.h_ohlc == 0.0


def test_estimate_components_and_blend_are_consistent():
    rng = np.random.default_rng(22)
    w = random_window(rng, 6)
    est = ie_estimate(w)
    assert est.k == yz_k(6)
    assert est.value_signed == est.h_co + est.k * est.h_oc + (1 - est.k) * est.h_ohlc
    assert est.value_abs == abs(est.h_co) + est.k * abs(est.h_oc) + (1 - est.k) * abs(est.h_ohlc)
    assert est.value_abs >= 0.0
    assert est.value_abs >= abs(est.value_signed) - 1e-15
    assert est.as_of == w.end


def test_estimate_five_bar_oracle():
    rng = np.random.default_rng(23)
    for _ in range(20):
        w = random_window(rng, 5)
        want = naive_ie(
            list(w.open), list(w.high), list(w.low), list(w.close),
            list(w.volume), w.seed_close, w.seed_volume,
        )
        est = ie_estimate(w)
        assert math.isclose(est.h_co, want["h_co"], rel_tol=1e-12, abs_tol=1e-18)
        assert math.isclose(est.h_oc, want["h_oc"], rel_tol=1e-12, abs_tol=1e-18)
        assert math.isclose(est.h_ohlc, want["h_ohlc"], rel_tol=1e-12, abs_tol=1e-18)
        assert math.isclose(est.value_signed, want["signed"], rel_tol=1e-12, abs_tol=1e-18)
        assert math.isclose(est.value_abs, want["abs"], rel_tol=1e-12, abs_tol=1e-18)


def test_small_window_brute_force():
    rng = np.random.default_rng(24)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        w = random_window(rng, n)
        want = naive_ie(
            list(w.open), list(w.high), list(w.low), list(w.close),
            list(w.volume), w.seed_close, w.seed_volume,
        )
        est = ie_estimate(w)
        assert math.isclose(est.value_signed, want["signed"], rel_tol=1e-12, abs_tol=1e-18)
        assert math.isclose(est.value_abs, want["abs"], rel_tol=1e-12, abs_tol=1e-18)


# --- invariances ------------------------------------------------------------------------

@given(st.integers(0, 2**31 - 1), st.floats(0.01, 100.0), st.integers(1, 1000))
def test_price_and_volume_scale_invariance(seed, lam, vscale):
    rng = np.random.default_rng(seed)
    w = random_window(rng, 4)
    scaled = OhlcWindow(
        end=w.end,
        open=w.open * lam, high=w.high * lam, low=w.low * lam, close=w.close * lam,
        volume=w.volume * vscale,
        seed_close=w.seed_close * lam,
        seed_volume=w.seed_volume * vscale,
    )
    a, b = ie_estimate(w), ie_estimate(scaled)
    assert math.isclose(a.value_signed, b.value_signed, rel_tol=1e-12, abs_tol=1e-15)
    assert math.isclose(a.value_abs, b.value_abs, rel_tol=1e-12, abs_tol=1e-15)
