"""Shared numeric helpers.

Every reduction in the package is correctly rounded, so its result does not
depend on summation order: ``exact_sum`` reduces one sequence with
``math.fsum``, and ``exact_rowsums`` reduces each row of a 2-D array to the
same bits, vectorised across the rows, such as the (n_windows, w)
``sliding_window_view`` of a series that the estimator kernels reduce.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

_U = 2.0**-53  # unit roundoff of float64
_TINY = 5e-324  # smallest subnormal


def exact_sum(values: np.ndarray | list[float]) -> float:
    """Sum floats with full compensation so the result is correctly rounded.

    Because the compensated result equals the true real-valued sum rounded
    once, it does not depend on summation order; every reduction in this
    package funnels through here so that reruns and thread counts cannot
    change any output bit.  Overflow raises ValueError.
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


def _cascade(x: np.ndarray, second: bool) -> tuple[np.ndarray, np.ndarray]:
    """Each row's r = fl(s + e) and whether r is certified to be its
    correctly rounded sum.

    A TwoSum cascade sums the row into ``s`` and its exact errors into ``e``.
    The errors that are added up plainly (into ``e``, or with ``second``,
    where ``e`` is a TwoSum cascade too, the errors of ``e`` into ``f``) are
    rounded ``rounds`` times, which costs at most ``rounds * u * mag``, with
    ``mag`` the sum of their magnitudes.  With ``t`` the exact remainder of
    ``r``, the sum lies within ``|t| + |f| + bound`` of ``r``.  r is
    certified when that is below half the gap from r to its nearer
    neighbour, or when every such error is zero (mag == 0): the sum is then
    ``s + e`` exactly and r its correct rounding, a tie included.  A
    non-finite r and r == 0 are never certified.
    """
    n, w = x.shape
    s = x[:, 0].copy()
    e, f, mag = np.zeros(n), np.zeros(n), np.zeros(n)
    for j in range(1, w):
        s, err = _two_sum(s, x[:, j])
        if second:
            e, err = _two_sum(e, err)
            f += err
        else:
            e += err
        mag += np.abs(err)
    r, t = _two_sum(s, e)
    rounds = w - 2 - second  # adding into a zero is exact
    # the slack covers the rounding of mag and of the product; _TINY its underflow
    bound = mag * (rounds * _U * 1.01) + _TINY if rounds > 0 else 0.0
    a = np.abs(r)
    half_gap = 0.5 * np.minimum(np.spacing(a), a - np.nextafter(a, 0.0))
    # the factor makes the computed distance an upper bound despite its two additions
    distance = (np.abs(t) + np.abs(f) + bound) * (1.0 + 4 * _U)
    certified = (mag == 0.0) | (distance < half_gap)
    return r, certified & (a < math.inf) & (r != 0.0)


def exact_rowsums(x: np.ndarray) -> np.ndarray:
    """The correctly rounded sum of each row of a 2-D array: ``math.fsum``
    of the row, bit for bit, sign of zero included.

    The rows are summed by TwoSum cascades across the columns, after Ogita,
    Rump & Oishi (2005), "Accurate sum and dot product" (``_cascade``).  A
    row whose one-cascade sum cannot be certified (most often an exact tie)
    is summed again with the errors cascaded too, and a row that still is
    not certified goes to ``exact_sum``: one with a non-finite value or an
    overflow (so overflow raises ValueError), one whose sum is zero (fsum
    gives +0.0 where a cascade may give -0.0), and the rare rest.
    """
    x = np.asarray(x, dtype=float)
    n, w = x.shape
    if w == 0:
        return np.zeros(n)
    with np.errstate(over="ignore", invalid="ignore"):
        r, ok = _cascade(x, second=False)
        redo = np.flatnonzero(~ok)
        if redo.size:
            r[redo], ok[redo] = _cascade(x[redo], second=True)
    for i in np.flatnonzero(~ok).tolist():
        r[i] = exact_sum(x[i])
    return r


def exact_mean(values: np.ndarray | list[float]) -> float:
    n = len(values)
    if n == 0:
        raise ValueError("mean of empty sequence")
    return exact_sum(values) / n


def exact_dot(a: np.ndarray, b: np.ndarray) -> float:
    """Compensated sum of the elementwise product."""
    return exact_sum(np.multiply(a, b))


def pearson(a: Sequence[float] | np.ndarray, b: Sequence[float] | np.ndarray) -> float:
    """Pearson correlation; errors when either side has zero variance."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("length mismatch")
    n = len(a)
    if n < 2:
        raise ValueError("correlation needs at least 2 points")
    da = a - exact_mean(a)
    db = b - exact_mean(b)
    va = exact_dot(da, da)
    vb = exact_dot(db, db)
    if va == 0.0 or vb == 0.0:
        raise ValueError("undefined correlation: zero variance")
    r = exact_dot(da, db) / math.sqrt(va * vb)
    return min(1.0, max(-1.0, r))


def exact_mean_var(values: np.ndarray) -> tuple[float, float]:
    """Population mean and variance: (mean, fsum((x - mean)^2) / n)."""
    mu = exact_mean(values)
    d = values - mu
    return mu, exact_mean(d * d)


def xlogx(p: np.ndarray) -> np.ndarray:
    """Elementwise p*ln(p) with the 0*ln(0) = 0 limit made explicit."""
    p = np.asarray(p, dtype=float)
    safe = np.where(p > 0.0, p, 1.0)
    return np.where(p > 0.0, p * np.log(safe), 0.0)
