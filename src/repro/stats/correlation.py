"""Correlation coefficients used throughout the evaluation.

The paper reports three flavours:

* plain Pearson correlation (Table I, variance validation),
* log-log Pearson correlation (Fig. 6, local weight correlation),
* Spearman rank correlation (Fig. 8, stability).

Significance is assessed with the usual t-statistic, whose two-sided
p-value comes from the regularized incomplete beta function.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from ..util.validation import as_float_array, check_same_length
from .ranking import rankdata_average


@dataclass(frozen=True)
class CorrelationResult:
    """A correlation estimate with its two-sided p-value."""

    coefficient: float
    p_value: float
    n_obs: int


def pearson(x, y) -> float:
    """Pearson product-moment correlation of two equal-length vectors.

    Returns ``nan`` when either vector is constant or shorter than 2.
    """
    x = as_float_array(x, "x")
    y = as_float_array(y, "y")
    check_same_length("x", x, "y", y)
    if len(x) < 2:
        return float("nan")
    xc = x - x.mean()
    yc = y - y.mean()
    denominator = np.sqrt((xc ** 2).sum() * (yc ** 2).sum())
    if denominator == 0.0:
        return float("nan")
    return float(np.clip((xc * yc).sum() / denominator, -1.0, 1.0))


def pearson_test(x, y) -> CorrelationResult:
    """Pearson correlation with a two-sided t-test p-value."""
    x = as_float_array(x, "x")
    y = as_float_array(y, "y")
    check_same_length("x", x, "y", y)
    r = pearson(x, y)
    n = len(x)
    return CorrelationResult(r, _correlation_p_value(r, n), n)


def spearman(x, y) -> float:
    """Spearman rank correlation (average ranks, paper Section V-F)."""
    x = as_float_array(x, "x")
    y = as_float_array(y, "y")
    check_same_length("x", x, "y", y)
    if len(x) < 2:
        return float("nan")
    return pearson(rankdata_average(x), rankdata_average(y))


def spearman_test(x, y) -> CorrelationResult:
    """Spearman correlation with a two-sided t-test p-value."""
    x = as_float_array(x, "x")
    y = as_float_array(y, "y")
    check_same_length("x", x, "y", y)
    rho = spearman(x, y)
    return CorrelationResult(rho, _correlation_p_value(rho, len(x)), len(x))


def log_log_pearson(x, y) -> float:
    """Pearson correlation of ``log10`` values (paper Fig. 6).

    Pairs where either value is non-positive are dropped, matching how
    log-log scatter plots discard them.
    """
    x = as_float_array(x, "x")
    y = as_float_array(y, "y")
    check_same_length("x", x, "y", y)
    keep = (x > 0) & (y > 0)
    if keep.sum() < 2:
        return float("nan")
    return pearson(np.log10(x[keep]), np.log10(y[keep]))


def _correlation_p_value(r: float, n: int) -> float:
    """Two-sided p-value of a correlation via the exact beta identity."""
    if n < 3 or not np.isfinite(r):
        return float("nan")
    r = float(np.clip(r, -1.0, 1.0))
    if abs(r) == 1.0:
        return 0.0
    df = n - 2
    # |t| = |r| sqrt(df / (1 - r^2)); P(|T| > t) = I_{df/(df+t^2)}(df/2, 1/2)
    t_squared = r * r * df / (1.0 - r * r)
    return float(special.betainc(df / 2.0, 0.5, df / (df + t_squared)))
