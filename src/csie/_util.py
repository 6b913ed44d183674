"""Shared numeric helpers.

Every reduction in the package is correctly rounded, so its result does not
depend on summation order: ``exact_sum`` reduces one sequence with
``math.fsum``, and ``exact_rowsums`` reduces each row of a 2-D array to the
same bits, vectorised across the rows, such as the (n_windows, w)
``sliding_window_view`` of a series that the estimator kernels reduce.
``window_means`` is the one trailing mean: the moving average and the
estimator kernels both take theirs from it.  ``int64_volumes`` is the one
volume rule of days, index series and estimator windows.  ``scaled_mean``
is the one scaling of the statistics, and ``centred`` its deviations: the
mean, the variance, the Pearson correlation and the beta are computed on
their inputs scaled by one power of two, and scaled back with ``ldexp`` (the
mean, which cannot overflow) or ``ldexp_or_error``, so their sums, squares
and products stay inside the float range and a statistic past it raises
ValueError.  ``mean`` is the one mean of the statistics: the grid mean and
``analytics.mean_var`` take theirs from it.  ``paired`` is the one argument
rule of the paired statistics.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

_U = 2.0**-53  # unit roundoff of float64
_TINY = 5e-324  # smallest subnormal
_INT64_MAX = int(np.iinfo(np.int64).max)


def _whole(v: object) -> int:
    """``v`` as an int when it is a whole number from 0 to int64's largest, else -1."""
    try:
        n = int(v)
    except (TypeError, ValueError, OverflowError):
        return -1
    return n if n == v and 0 <= n <= _INT64_MAX else -1


def int64_volumes(volume: Sequence[int] | np.ndarray) -> np.ndarray:
    """Volumes as int64, with -1 for each that is not a whole number int64
    can hold (past int64, with a fraction, NaN or infinite), which every
    holder of volumes then refuses as it refuses a negative one."""
    vol = np.asarray(volume)
    if vol.dtype == np.int64:  # the column every parser builds
        return vol
    # value by value as given: numpy holds some mixes of ints as floats
    items = volume.tolist() if isinstance(volume, np.ndarray) else volume
    return np.array([_whole(v) for v in items], dtype=np.int64)


def exact_sum(values: np.ndarray | list[float]) -> float:
    """Sum floats with full compensation so the result is correctly rounded.

    Because the compensated result equals the true real-valued sum rounded
    once, it does not depend on summation order; every reduction in this
    package funnels through here so that reruns cannot change any output
    bit.  Overflow raises ValueError.
    """
    if isinstance(values, np.ndarray):
        values = values.tolist()
    try:
        return math.fsum(values)
    except OverflowError as exc:
        raise ValueError("sum overflows the float range") from exc


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """fl(a + b) and its exact error (Knuth's TwoSum)."""
    s = a + b
    z = s - a
    return s, (a - (s - z)) + (b - z)


def _cascade(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's r = fl(s + e) and whether r is certified to be its
    correctly rounded sum.

    A TwoSum cascade sums the row into ``s`` and its exact errors into ``e``.
    Adding up the errors plainly rounds them ``rounds`` times, which costs at
    most ``rounds * u * mag``, with ``mag`` the sum of their magnitudes.  With
    ``t`` the exact remainder of ``r``, the sum lies within ``|t| + bound`` of
    ``r``.  r is certified when that is below half the gap from r to its
    nearer neighbour, or when every error is zero (mag == 0): the sum is then
    ``s`` exactly and r its correct rounding.  A non-finite r and r == 0 are
    never certified.
    """
    n, w = x.shape
    s = x[:, 0].copy()
    e, mag = np.zeros(n), np.zeros(n)
    for j in range(1, w):
        s, err = _two_sum(s, x[:, j])
        e += err
        mag += np.abs(err)
    r, t = _two_sum(s, e)
    rounds = w - 2  # adding into a zero is exact
    # the slack covers the rounding of mag and of the product; _TINY its underflow
    bound = mag * (rounds * _U * 1.01) + _TINY if rounds > 0 else 0.0
    a = np.abs(r)
    half_gap = 0.5 * np.minimum(np.spacing(a), a - np.nextafter(a, 0.0))
    # the factor makes the computed distance an upper bound despite its addition
    distance = (np.abs(t) + bound) * (1.0 + 4 * _U)
    certified = (mag == 0.0) | (distance < half_gap)
    return r, certified & (a < math.inf) & (r != 0.0)


def exact_rowsums(x: np.ndarray) -> np.ndarray:
    """The correctly rounded sum of each row of a 2-D array: ``math.fsum``
    of the row, bit for bit, sign of zero included.

    The rows are summed by one TwoSum cascade across the columns, after
    Ogita, Rump & Oishi (2005), "Accurate sum and dot product"
    (``_cascade``).  A row whose cascade sum cannot be certified goes to
    ``exact_sum``, which is ``math.fsum`` itself: one with a non-finite
    value or an overflow (so overflow raises ValueError), one whose sum is
    zero (fsum gives +0.0 where a cascade may give -0.0), an exact tie, and
    the rare rest.
    """
    x = np.asarray(x, dtype=float)
    n, w = x.shape
    if w == 0:
        return np.zeros(n)
    with np.errstate(over="ignore", invalid="ignore"):
        r, ok = _cascade(x)
    for i in np.flatnonzero(~ok).tolist():
        r[i] = exact_sum(x[i])
    return r


def window_means(a: np.ndarray, w: int) -> np.ndarray:
    """The mean of each w-point window of a, in window order."""
    return exact_rowsums(sliding_window_view(a, w)) / w


def exact_mean(values: np.ndarray | list[float]) -> float:
    n = len(values)
    if n == 0:
        raise ValueError("mean of empty sequence")
    return exact_sum(values) / n


def exact_dot(a: np.ndarray, b: np.ndarray) -> float:
    """Compensated sum of the elementwise product."""
    return exact_sum(np.multiply(a, b))


def scaled_mean(x: np.ndarray) -> tuple[np.ndarray, float, int]:
    """(y, mu, e): e is the power of two that puts the largest magnitude of
    y = x * 2**-e in [0.5, 1) (0 when x is all zeros), and mu the exact mean
    of y.

    Scaling is exact unless a value becomes subnormal.  A statistic computed
    from y or mu and scaled back by ``ldexp`` therefore has the bits of one
    computed on x unless it or a scaled value is subnormal at either scale:
    ``ldexp(mu, e)`` is ``exact_mean(x)`` but in those cases, and it cannot
    overflow.  ``centred`` and ``mean`` read it.
    """
    _, e = np.frexp(np.abs(x).max(initial=0.0))
    y = np.ldexp(x, -e)
    return y, exact_mean(y), int(e)


def centred(x: np.ndarray) -> tuple[np.ndarray, int]:
    """(y - mu, e) of ``scaled_mean(x)``: deviations whose sums of squares
    and products can neither overflow nor underflow to zero.  ``variance``
    and ``pearson`` here, and ``vol_beta`` in ``analytics``, read them."""
    y, mu, e = scaled_mean(x)
    return y - mu, e


def paired(
    a: Sequence[float] | np.ndarray, b: Sequence[float] | np.ndarray, statistic: str
) -> tuple[np.ndarray, np.ndarray]:
    """a and b as float arrays of one shape with at least 2 points; else
    ValueError ``length mismatch`` or ``<statistic> needs at least 2 points``."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("length mismatch")
    if len(a) < 2:
        raise ValueError(f"{statistic} needs at least 2 points")
    return a, b


def ldexp_or_error(x: float, e: int) -> float:
    """x times 2**e; a result past the float range raises ValueError."""
    try:
        return math.ldexp(x, e)
    except OverflowError as exc:
        raise ValueError("statistic past the float range") from exc


def mean(values: Sequence[float] | np.ndarray) -> float:
    """Population mean, computed on the values scaled by a power of two
    (``scaled_mean``) and scaled back, so it is a float whenever they are."""
    return math.ldexp(*scaled_mean(values)[1:])


def variance(values: Sequence[float] | np.ndarray) -> float:
    """Population variance (divisor n, never n-1), computed on the deviations
    of the values scaled by a power of two (``centred``) and scaled back; a
    variance past the float range raises ValueError."""
    d, e = centred(values)
    return ldexp_or_error(exact_mean(d * d), 2 * e)


def pearson(a: Sequence[float] | np.ndarray, b: Sequence[float] | np.ndarray) -> float:
    """Pearson correlation; errors when either side has zero variance.

    Each side is scaled by a power of two and centred first (``centred``),
    so values near either end of the float range correlate like any others.
    """
    (da, _), (db, _) = map(centred, paired(a, b, "correlation"))
    va, vb = exact_dot(da, da), exact_dot(db, db)
    if va == 0.0 or vb == 0.0:
        raise ValueError("undefined correlation: zero variance")
    r = exact_dot(da, db) / math.sqrt(va * vb)
    return min(1.0, max(-1.0, r))


def xlogx(p: np.ndarray) -> np.ndarray:
    """Elementwise p*ln(p) with the 0*ln(0) = 0 limit made explicit."""
    p = np.asarray(p, dtype=float)
    safe = np.where(p > 0.0, p, 1.0)
    return np.where(p > 0.0, p * np.log(safe), 0.0)
