"""Ordinary least squares, from scratch on numpy.

The paper's Quality criterion (Section V-E) fits
``log(N_ij + 1) = beta * X_ij + eps`` on the full edge set and on the
backbone-restricted edge set, and compares the two R². This module
provides the estimator, fit statistics and a small design-matrix builder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import special

from ..util.validation import as_float_array, require


@dataclass(frozen=True)
class OLSResult:
    """Fitted OLS model."""

    coefficients: np.ndarray
    names: Tuple[str, ...]
    r_squared: float
    adj_r_squared: float
    n_obs: int
    stderr: np.ndarray = field(repr=False)
    residuals: np.ndarray = field(repr=False)
    fitted: np.ndarray = field(repr=False)

    def coefficient(self, name: str) -> float:
        """Return the estimate for the named regressor."""
        return float(self.coefficients[self.names.index(name)])

    def t_values(self) -> np.ndarray:
        """t-statistics of the coefficients."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.coefficients / self.stderr

    def p_values(self) -> np.ndarray:
        """Two-sided p-values of the coefficients."""
        df = self.n_obs - len(self.coefficients)
        if df <= 0:
            return np.full(len(self.coefficients), np.nan)
        t = self.t_values()
        out = special.betainc(df / 2.0, 0.5, df / (df + t * t))
        return np.where(np.isfinite(t), out, np.nan)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict responses for a new design matrix (without intercept
        column when the model was fit with ``add_intercept=True``; the
        intercept is re-added automatically)."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[:, None]
        if "intercept" in self.names and X.shape[1] == len(self.names) - 1:
            X = np.column_stack([np.ones(len(X)), X])
        require(X.shape[1] == len(self.names),
                f"X has {X.shape[1]} columns, model expects "
                f"{len(self.names)}")
        return X @ self.coefficients


def ols(y, X, add_intercept: bool = True,
        names: Optional[Sequence[str]] = None) -> OLSResult:
    """Fit ``y = X beta + eps`` by least squares.

    Parameters
    ----------
    y:
        Response vector of length ``n``.
    X:
        Regressor matrix ``(n, k)`` (a single vector is promoted to one
        column).
    add_intercept:
        Prepend a constant column (default). R² is then computed around
        the mean of ``y``; without an intercept, around zero.
    names:
        Optional regressor names for reporting.
    """
    y = as_float_array(y, "y")
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    require(X.ndim == 2, "X must be a matrix")
    require(X.shape[0] == len(y),
            f"X has {X.shape[0]} rows but y has {len(y)}")
    if not np.all(np.isfinite(X)):
        raise ValueError("X contains non-finite values")
    k_original = X.shape[1]
    if names is None:
        names = tuple(f"x{i}" for i in range(k_original))
    else:
        names = tuple(names)
        require(len(names) == k_original,
                "names must have one entry per regressor column")
    if add_intercept:
        X = np.column_stack([np.ones(len(y)), X])
        names = ("intercept",) + names
    n, k = X.shape
    require(n >= k, f"need at least {k} observations, got {n}")

    coefficients, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
    fitted = X @ coefficients
    residuals = y - fitted
    ss_res = float((residuals ** 2).sum())
    baseline = y - y.mean() if add_intercept else y
    ss_tot = float((baseline ** 2).sum())
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    df = n - k
    if df > 0 and ss_tot > 0:
        adj = 1.0 - (1.0 - r_squared) * (n - 1) / df
    else:
        adj = float("nan")
    if df > 0 and rank == k:
        sigma_squared = ss_res / df
        xtx_inv = np.linalg.pinv(X.T @ X)
        stderr = np.sqrt(np.clip(np.diag(xtx_inv) * sigma_squared, 0, None))
    else:
        stderr = np.full(k, np.nan)
    return OLSResult(coefficients=coefficients, names=names,
                     r_squared=r_squared, adj_r_squared=adj, n_obs=n,
                     stderr=stderr, residuals=residuals, fitted=fitted)


def design_matrix(columns: Dict[str, np.ndarray]
                  ) -> Tuple[np.ndarray, List[str]]:
    """Stack named vectors into a design matrix.

    Returns ``(X, names)`` with columns in insertion order; all vectors
    must share one length.
    """
    names = list(columns)
    require(bool(names), "design_matrix needs at least one column")
    arrays = [as_float_array(columns[name], name) for name in names]
    length = len(arrays[0])
    for name, arr in zip(names, arrays):
        require(len(arr) == length,
                f"column {name!r} has length {len(arr)}, expected {length}")
    return np.column_stack(arrays), names
