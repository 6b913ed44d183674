from __future__ import annotations

import math
from datetime import date, timedelta
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from csie.cross_section import (
    CSIE_CSV_HEADER,
    csie_csv,
    csie_day,
    csie_series,
    csie_weight_f,
    symbol_weights,
)
from csie.market_data import MarketDay, parse_eod_file

from helpers import FIXTURE_DAY, make_market_day, table1_csv, table1_tuples
from oracles import naive_csie, naive_f

D = FIXTURE_DAY
LIMIT = 0.34 / 2.34


def flat_day(m: int = 3, price: float = 10.0, volume: int = 100) -> MarketDay:
    return MarketDay(
        D,
        [f"S{i}" for i in range(m)],
        [price] * m, [price] * m, [price] * m, [price] * m, [volume] * m,
    )


def day_from_tuples(rows) -> MarketDay:
    return MarketDay(
        D,
        [f"S{i:02d}" for i in range(len(rows))],
        [r[0] for r in rows],
        [r[1] for r in rows],
        [r[2] for r in rows],
        [r[3] for r in rows],
        [r[4] for r in rows],
    )


# --- total traded value -------------------------------------------------------

def test_total_value_single_bar_matches_decimal_oracle():
    day = MarketDay(D, ["A"], [139.54], [140.49], [137.49], [137.51], [1_878_600])
    expected = float(Decimal("137.51") * 1_878_600)
    assert math.isclose(csie_day(day).total_value, expected, rel_tol=1e-12)


def test_total_value_two_bars_hand_arithmetic():
    day = day_from_tuples([(10, 10, 10, 10, 1), (20, 20, 20, 20, 2)])
    assert csie_day(day).total_value == 50.0


def test_total_value_fixture_matches_sum_oracle():
    day = parse_eod_file(table1_csv(), D)
    expected = math.fsum(c * v for _, _, _, c, v in table1_tuples())
    assert math.isclose(csie_day(day).total_value, expected, rel_tol=1e-15)


def test_total_value_ignores_zero_volume():
    day = day_from_tuples([(10, 10, 10, 10, 5), (99, 99, 99, 99, 0)])
    assert csie_day(day).total_value == 50.0


def test_total_value_empty_cross_section_errors():
    day = flat_day(2, volume=0)
    with pytest.raises(ValueError, match="empty cross-section"):
        csie_day(day).total_value


@pytest.mark.parametrize("fn", [symbol_weights, csie_day],
                         ids=lambda fn: fn.__name__)
@pytest.mark.parametrize(
    "rows, message",
    [
        ([(1e300, 1e300, 1e300, 1e300, 10**9), (1, 1, 1, 1, 5)], "not finite"),
        ([(1e299, 1e299, 1e299, 1e299, 10**9)] * 2, "sum overflows"),
    ],
    ids=["product-overflows", "sum-overflows"],
)
def test_traded_value_past_the_float_range_is_an_error(fn, rows, message):
    with pytest.raises(ValueError, match=message):
        fn(day_from_tuples(rows))


# --- symbol weights -------------------------------------------------------------

def test_weights_single_symbol_is_one():
    day = flat_day(1)
    (w,) = symbol_weights(day)
    assert w.psi == 1.0


def test_weights_equal_values_split_evenly():
    day = day_from_tuples([(10, 10, 10, 10, 6), (20, 20, 20, 20, 3)])
    assert [w.psi for w in symbol_weights(day)] == [0.5, 0.5]


def test_weights_fixture_symbol_a():
    day = parse_eod_file(table1_csv(), D)
    total = math.fsum(c * v for _, _, _, c, v in table1_tuples())
    psi_a = (137.51 * 1_878_600) / total
    by_symbol = {w.symbol: w.psi for w in symbol_weights(day)}
    assert math.isclose(by_symbol["A"], psi_a, rel_tol=1e-12)


def test_weights_sum_to_one():
    day = parse_eod_file(table1_csv(), D)
    assert math.isclose(
        math.fsum(w.psi for w in symbol_weights(day)), 1.0, rel_tol=0, abs_tol=1e-12
    )


# --- entropy components -----------------------------------------------------------

def test_h_oc_zero_when_close_equals_open():
    day = day_from_tuples([(10, 11, 9, 10, 5), (20, 22, 19, 20, 7)])
    assert csie_day(day).h_oc == 0.0


def test_h_oc_single_symbol_zero():
    assert csie_day(flat_day(1)).h_oc == 0.0


def test_h_oc_two_symbol_cases():
    # equal traded values (37.5 each) with returns +25% and -25% cancel
    day_anti = day_from_tuples([(10, 12.5, 10, 12.5, 3), (10, 10, 7.5, 7.5, 5)])
    assert [x.psi for x in symbol_weights(day_anti)] == [0.5, 0.5]
    assert abs(csie_day(day_anti).h_oc) < 1e-15

    # identical returns r with equal weights: -2 * r * 0.5 * ln 0.5 = r ln 2
    r = 0.25
    day_same = day_from_tuples([(10, 12.5, 10, 12.5, 4), (10, 12.5, 10, 12.5, 4)])
    assert [x.psi for x in symbol_weights(day_same)] == [0.5, 0.5]
    assert math.isclose(csie_day(day_same).h_oc, r * math.log(2.0), rel_tol=1e-12)


def test_h_olhc_zero_when_flat():
    assert csie_day(flat_day(3)).h_olhc == 0.0


def test_h_olhc_zero_when_high_is_close_low_is_open():
    day = day_from_tuples([(10, 12, 10, 12, 5), (30, 33, 30, 33, 9)])
    assert csie_day(day).h_olhc == 0.0


def test_h_olhc_two_symbol_oracle():
    rows = [(10.0, 12.0, 9.5, 11.0, 400), (50.0, 51.0, 47.0, 48.0, 90)]
    day = day_from_tuples(rows)
    assert math.isclose(csie_day(day).h_olhc, naive_csie(rows)["h_olhc"], rel_tol=1e-12)


@pytest.mark.parametrize(
    "rows",
    [
        [(1e-300, 1e300, 1e-300, 1e300, 1)],
        [(1e-300, 1e300, 1e-300, 1e300, 1), (10, 11, 9, 10, 5), (20, 22, 19, 21, 7)],
    ],
    ids=["m1", "m3"],
)
def test_entropy_terms_past_the_float_range_are_an_error(rows):
    # C/O overflows to inf; with psi = 1 (m = 1) inf * 0 would give nan
    with pytest.raises(ValueError, match=f"entropy terms on {D} are past the float range"):
        csie_day(day_from_tuples(rows))


# --- blend weight f ------------------------------------------------------------------

def test_f_examples():
    assert math.isclose(csie_weight_f(3), 0.34 / 3.34, rel_tol=1e-15)
    assert math.isclose(
        csie_weight_f(3562), 0.34 / (1.34 + 3563.0 / 3561.0), rel_tol=1e-15
    )
    assert abs(csie_weight_f(10**9) - LIMIT) < 1e-6


def test_f_monotone_increasing_and_bounded():
    values = [csie_weight_f(m) for m in range(2, 1001)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert all(0.0 < v < LIMIT for v in values)


def test_f_degenerate_m_errors():
    with pytest.raises(ValueError, match="degenerate cross-section"):
        csie_weight_f(1)


def test_f_alpha_must_exceed_one():
    with pytest.raises(ValueError, match="alpha"):
        csie_weight_f(5, alpha=1.0)


@pytest.mark.parametrize("alpha", [math.inf, math.nan, -math.inf])
def test_f_alpha_must_be_finite(alpha):
    with pytest.raises(ValueError, match="alpha must exceed 1 and be finite"):
        csie_weight_f(5, alpha=alpha)


# --- csie_day ----------------------------------------------------------------------------

def test_csie_day_flat_market_is_zero():
    d = csie_day(flat_day(4))
    assert d.csie_signed == 0.0 and d.csie_abs == 0.0
    assert d.h_oc == 0.0 and d.h_olhc == 0.0
    assert not d.degenerate


def test_csie_day_single_symbol_degenerate():
    d = csie_day(flat_day(1))
    assert d.m == 1
    assert d.degenerate
    assert d.f == 0.0
    assert d.csie_signed == 0.0 and d.csie_abs == 0.0


def test_csie_day_empty_cross_section_errors():
    with pytest.raises(ValueError, match="empty cross-section"):
        csie_day(flat_day(3, volume=0))


def test_csie_day_three_symbol_oracle():
    rows = [
        (10.0, 10.8, 9.7, 10.5, 1200),
        (25.0, 25.1, 23.9, 24.0, 300),
        (4.0, 4.4, 3.96, 4.2, 9000),
    ]
    d = csie_day(day_from_tuples(rows))
    want = naive_csie(rows)
    assert d.m == 3
    assert math.isclose(d.total_value, want["total_value"], rel_tol=1e-12)
    assert math.isclose(d.f, want["f"], rel_tol=1e-15)
    assert math.isclose(d.h_oc, want["h_oc"], rel_tol=1e-12)
    assert math.isclose(d.h_olhc, want["h_olhc"], rel_tol=1e-12)
    assert math.isclose(d.csie_signed, want["signed"], rel_tol=1e-12)
    assert math.isclose(d.csie_abs, want["abs"], rel_tol=1e-12)


def test_csie_day_stores_exact_blend():
    rng = np.random.default_rng(3)
    d = csie_day(make_market_day(rng, D, 20))
    assert d.csie_signed == (1.0 - d.f) * d.h_oc + d.f * d.h_olhc
    assert d.csie_abs == (1.0 - d.f) * abs(d.h_oc) + d.f * abs(d.h_olhc)
    assert d.csie_abs >= 0.0


def test_csie_day_zero_volume_bars_do_not_count_toward_m():
    rng = np.random.default_rng(4)
    day = make_market_day(rng, D, 10, zero_volume=4)
    assert csie_day(day).m == 6


# --- csie_series -----------------------------------------------------------------------------

def test_series_empty_is_empty():
    assert csie_series([]) == []


def test_series_maps_csie_day():
    rng = np.random.default_rng(5)
    days = [
        make_market_day(rng, D + timedelta(days=i), 5) for i in range(5)
    ]
    series = csie_series(days)
    assert series == [csie_day(d) for d in days]


def test_series_rejects_out_of_order_dates():
    rng = np.random.default_rng(6)
    days = [
        make_market_day(rng, D + timedelta(days=1), 4),
        make_market_day(rng, D, 4),
    ]
    with pytest.raises(ValueError, match="out of order"):
        csie_series(days)


# --- invariants ---------------------------------------------------------------------------------

@given(st.integers(0, 2**31 - 1), st.integers(1, 1000))
def test_volume_scale_invariance(seed, lam):
    rng = np.random.default_rng(seed)
    day = make_market_day(rng, D, 6)
    scaled = MarketDay(
        D, day.symbols, day.open, day.high, day.low, day.close, day.volume * lam
    )
    a, b = csie_day(day), csie_day(scaled)
    assert math.isclose(a.csie_signed, b.csie_signed, rel_tol=1e-12, abs_tol=1e-15)
    assert math.isclose(a.csie_abs, b.csie_abs, rel_tol=1e-12, abs_tol=1e-15)


@given(st.integers(0, 2**31 - 1))
def test_psi_normalization(seed):
    rng = np.random.default_rng(seed)
    day = make_market_day(rng, D, int(rng.integers(1, 12)))
    total = math.fsum(w.psi for w in symbol_weights(day))
    assert abs(total - 1.0) <= 1e-12


def test_brute_force_equivalence_small_days():
    rng = np.random.default_rng(7)
    for _ in range(60):
        m = int(rng.integers(2, 11))
        day = make_market_day(rng, D, m)
        rows = [
            (o, h, l, c, v)
            for o, h, l, c, v in zip(
                day.open, day.high, day.low, day.close, day.volume
            )
        ]
        want = naive_csie(rows)
        got = csie_day(day)
        for name, key in [
            ("total_value", "total_value"), ("f", "f"), ("h_oc", "h_oc"),
            ("h_olhc", "h_olhc"), ("csie_signed", "signed"), ("csie_abs", "abs"),
        ]:
            assert math.isclose(
                getattr(got, name), want[key], rel_tol=1e-12, abs_tol=1e-15
            ), name


def test_determinism_bit_identical():
    rng = np.random.default_rng(8)
    day = make_market_day(rng, D, 50)
    text = table1_csv()
    a = csie_day(parse_eod_file(text, D))
    b = csie_day(parse_eod_file(text, D))
    assert a == b
    assert csie_day(day) == csie_day(day)


# --- CSV emission ----------------------------------------------------------------------------------

def test_csv_round_trips_floats():
    rng = np.random.default_rng(9)
    rows = csie_series(
        [make_market_day(rng, D + timedelta(days=i), 6) for i in range(3)]
    )
    text = csie_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == CSIE_CSV_HEADER
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == D.isoformat()
    assert int(first[1]) == rows[0].m
    assert float(first[2]) == rows[0].total_value
    assert float(first[6]) == rows[0].csie_signed
    assert first[8] == "0"
