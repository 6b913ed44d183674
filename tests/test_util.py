"""``exact_rowsums`` against ``math.fsum``, bit for bit."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from csie._util import exact_rowsums, exact_sum

# Values whose exact sums need many more bits than a float has, so that the
# cascade's sum must be certified (or sent to fsum) and ties fall on halves.
FEW_BITS = st.builds(
    lambda m, e: m * 2.0**e,
    st.integers(-8, 8),
    st.sampled_from([-1074, -1060, -60, -54, -53, -1, 0, 52, 53]),
)
FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e3, 1e3),
    st.floats(-1e-300, 1e-300),
    FEW_BITS,
    st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300, 1e308, -1e308,
         1.0, -1.0, 2.0**-53, -(2.0**-53), 1.0 + 2.0**-52]
    ),
)
NONFINITE = st.sampled_from([math.inf, -math.inf, math.nan])


@st.composite
def matrices(draw) -> np.ndarray:
    """1-4 rows of w values, w in {0, 1, 2, 3, 30}; sometimes a sliding
    window view, as the kernels pass, and sometimes holding inf or nan."""
    w = draw(st.sampled_from([0, 1, 2, 3, 30]))
    n = draw(st.integers(1, 4))
    values = st.one_of(FLOATS, NONFINITE) if draw(st.booleans()) else FLOATS
    if w and draw(st.booleans()):
        flat = draw(st.lists(values, min_size=n + w - 1, max_size=n + w - 1))
        return sliding_window_view(np.array(flat), w)
    grid = draw(st.lists(st.lists(values, min_size=w, max_size=w), min_size=n, max_size=n))
    return np.array(grid, dtype=float).reshape(n, w)


def fsum_rows(x: np.ndarray) -> np.ndarray | type[ValueError]:
    """Each row's fsum, or ValueError where exact_sum raises for some row."""
    try:
        return np.array([exact_sum(r) for r in x], dtype=float).reshape(len(x))
    except ValueError:
        return ValueError


@given(matrices())
def test_rowsums_equal_fsum_bit_for_bit(x):
    want = fsum_rows(x)
    if want is ValueError:
        with pytest.raises(ValueError):
            exact_rowsums(x)
    else:
        assert exact_rowsums(x).tobytes() == want.tobytes()


@given(st.lists(FLOATS, min_size=1, max_size=29), st.sampled_from([1, -1]))
def test_rowsums_of_half_ulp_ties(values, sign):
    # each base value plus exactly half its ulp: the exact sum sits on a tie
    base = np.array(values)
    with np.errstate(over="ignore"):  # the spacing of the largest float is inf
        x = np.stack([base, sign * np.spacing(np.abs(base)) / 2], axis=1)
    ties = np.concatenate([x, np.zeros((len(base), 1)), x[:, ::-1]], axis=1)
    for m in (x, ties):
        want = fsum_rows(m)
        if want is ValueError:
            with pytest.raises(ValueError):
                exact_rowsums(m)
        else:
            assert exact_rowsums(m).tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "row, want",
    [
        ([-0.0], 0.0),
        ([-0.0, -0.0, -0.0], 0.0),
        ([1e300, 1.0, -1e300], 1.0),
        ([1e300, 5e-324, -1e300, 3.0], 3.0),
        ([1.0, 2.0**-53, 2.0**-106], 1.0 + 2.0**-52),
        ([5e-324] * 30, 30 * 5e-324),
        ([], 0.0),
    ],
)
def test_rowsums_examples(row, want):
    got = exact_rowsums(np.array([row], dtype=float).reshape(1, len(row)))
    assert got.tobytes() == np.array([want]).tobytes()


@pytest.mark.parametrize("row", [[1.7e308, 1.7e308], [1e308, 1e308, -1e308], [math.inf, -math.inf]])
def test_rowsums_overflow_raises_value_error(row):
    with pytest.raises(ValueError):
        exact_sum(row)
    with pytest.raises(ValueError):
        exact_rowsums(np.array([[1.0] * len(row), row]))
