"""Probability distributions used by the Noise-Corrected null model.

The NC backbone needs three pieces of distribution theory (paper Section
IV):

* the **binomial** edge-weight model ``N_ij ~ Binomial(N.., P_ij)``,
* the **beta** conjugate prior/posterior for ``P_ij`` with a
  method-of-moments parameterization (paper Eqs. 5–8),
* the **hypergeometric**-motivated prior moments of ``P_ij``.

Only moments, densities and tail areas actually used by the library are
implemented; the incomplete beta and error functions come from
:mod:`scipy.special`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from ..util.validation import check_positive, check_probability


# ---------------------------------------------------------------------------
# Normal helpers
# ---------------------------------------------------------------------------

_SQRT2 = np.sqrt(2.0)


def normal_cdf(x):
    """Standard normal cumulative distribution function."""
    return 0.5 * (1.0 + special.erf(np.asarray(x, dtype=np.float64) / _SQRT2))


def normal_sf(x):
    """Standard normal survival function ``P(Z > x)``."""
    return 0.5 * special.erfc(np.asarray(x, dtype=np.float64) / _SQRT2)


def normal_quantile(p):
    """Inverse standard normal CDF."""
    p = np.asarray(p, dtype=np.float64)
    if np.any((p <= 0) | (p >= 1)):
        raise ValueError("quantile probabilities must lie strictly in (0, 1)")
    return _SQRT2 * special.erfinv(2.0 * p - 1.0)


# ---------------------------------------------------------------------------
# Beta distribution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Beta:
    """A ``BETA[alpha, beta]`` distribution on the unit interval."""

    alpha: float
    beta: float

    def __post_init__(self):
        check_positive(self.alpha, "alpha")
        check_positive(self.beta, "beta")

    @property
    def mean(self) -> float:
        """Paper Eq. 5: ``alpha / (alpha + beta)``."""
        return self.alpha / (self.alpha + self.beta)

    @property
    def variance(self) -> float:
        """Paper Eq. 6."""
        total = self.alpha + self.beta
        return (self.alpha * self.beta) / (total ** 2 * (total + 1.0))

    def pdf(self, x):
        """Probability density at ``x``."""
        x = np.asarray(x, dtype=np.float64)
        log_norm = (special.gammaln(self.alpha + self.beta)
                    - special.gammaln(self.alpha)
                    - special.gammaln(self.beta))
        with np.errstate(divide="ignore", invalid="ignore"):
            log_pdf = (log_norm + (self.alpha - 1.0) * np.log(x)
                       + (self.beta - 1.0) * np.log1p(-x))
        return np.where((x < 0) | (x > 1), 0.0, np.exp(log_pdf))

    def cdf(self, x):
        """Cumulative distribution (regularized incomplete beta)."""
        x = np.clip(np.asarray(x, dtype=np.float64), 0.0, 1.0)
        return special.betainc(self.alpha, self.beta, x)

    def posterior(self, successes: float, failures: float) -> "Beta":
        """Conjugate update after binomial evidence (paper Eq. 4)."""
        if successes < 0 or failures < 0:
            raise ValueError("evidence counts must be non-negative")
        return Beta(self.alpha + successes, self.beta + failures)


def beta_from_moments(mean, variance) -> np.ndarray:
    """Method-of-moments ``(alpha, beta)`` (paper Eqs. 7 and 8).

    Works element-wise on arrays; returns a stacked array of shape
    ``(2, ...)``. Raises when the requested variance is unattainable for a
    beta distribution (``variance >= mean * (1 - mean)``), which would
    yield non-positive shape parameters.
    """
    mean = np.asarray(mean, dtype=np.float64)
    variance = np.asarray(variance, dtype=np.float64)
    if np.any((mean <= 0) | (mean >= 1)):
        raise ValueError("mean must lie strictly inside (0, 1)")
    if np.any(variance <= 0):
        raise ValueError("variance must be positive")
    if np.any(variance >= mean * (1.0 - mean)):
        raise ValueError("variance too large for a beta distribution")
    alpha = (mean ** 2 / variance) * (1.0 - mean) - mean
    beta = mean * ((1.0 - mean) ** 2 / variance + 1.0) - 1.0
    return np.stack([alpha, beta])


# ---------------------------------------------------------------------------
# Binomial distribution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Binomial:
    """A binomial distribution with (possibly non-integer) trial count.

    The NC model uses ``n = N..``, the grand total of edge weights, which
    for real-world count data is a float; the regularized incomplete beta
    extends tail areas continuously in ``n``.
    """

    n: float
    p: float

    def __post_init__(self):
        check_positive(self.n, "n")
        check_probability(self.p, "p")

    @property
    def mean(self) -> float:
        return self.n * self.p

    @property
    def variance(self) -> float:
        """Paper Eq. 2: ``n * p * (1 - p)``."""
        return self.n * self.p * (1.0 - self.p)

    def sf(self, k):
        """Upper tail ``P(X >= k)`` via the incomplete beta identity.

        For integer ``n`` and ``k`` this matches the exact binomial sum
        ``P(X >= k) = I_p(k, n - k + 1)``.
        """
        k = np.asarray(k, dtype=np.float64)
        out = np.ones_like(k)
        inside = (k > 0) & (k <= self.n)
        if self.p == 0.0:
            return np.where(k <= 0, 1.0, 0.0)
        if self.p == 1.0:
            return np.where(k <= self.n, 1.0, 0.0)
        out = np.where(k > self.n, 0.0, out)
        k_in = np.where(inside, k, 1.0)
        tail = special.betainc(k_in, self.n - k_in + 1.0, self.p)
        return np.where(inside, tail, out)

    def cdf(self, k):
        """Lower tail ``P(X <= k)`` (continuous extension)."""
        k = np.asarray(k, dtype=np.float64)
        return 1.0 - self.sf(k + 1.0)


def binomial_variance(n, p):
    """Vectorized Eq. 2, ``V[N_ij] = N.. * P_ij * (1 - P_ij)``."""
    n = np.asarray(n, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    return n * p * (1.0 - p)


# ---------------------------------------------------------------------------
# Hypergeometric prior moments
# ---------------------------------------------------------------------------

def hypergeometric_prior_moments(out_strength, in_strength, grand_total):
    """Prior mean and variance of ``P_ij`` (paper Section IV).

    Edge generation is imagined as node ``i`` drawing destination ``j`` at
    random each time it gains a unit of weight, which yields

    * ``E[P_ij] = N_i. * N_.j / N..^2``
    * ``V[P_ij] = N_i. N_.j (N.. - N_i.)(N.. - N_.j) / (N..^4 (N.. - 1))``

    Works element-wise; returns ``(mean, variance)`` arrays.
    """
    ni = np.asarray(out_strength, dtype=np.float64)
    nj = np.asarray(in_strength, dtype=np.float64)
    n = float(grand_total)
    check_positive(n, "grand_total")
    if n <= 1.0:
        raise ValueError("grand_total must exceed 1 for a finite variance")
    mean = (ni * nj) / n ** 2
    variance = (ni * nj * (n - ni) * (n - nj)) / (n ** 4 * (n - 1.0))
    return mean, variance
