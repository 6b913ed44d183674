"""Shared numeric helpers."""

from __future__ import annotations

import math

import numpy as np


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


def exact_mean(values: np.ndarray | list[float]) -> float:
    n = len(values)
    if n == 0:
        raise ValueError("mean of empty sequence")
    return exact_sum(values) / n


def exact_dot(a: np.ndarray, b: np.ndarray) -> float:
    """Compensated sum of the elementwise product."""
    return exact_sum(np.multiply(a, b))


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
