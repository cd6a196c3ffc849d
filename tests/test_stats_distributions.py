"""Tests for :mod:`repro.stats.distributions`."""

import numpy as np
import pytest
import scipy.stats as sps
from hypothesis import given, settings
from hypothesis import strategies as st
from repro.stats import (Beta, Binomial, beta_from_moments,
                         binomial_variance, hypergeometric_prior_moments,
                         normal_cdf, normal_quantile, normal_sf)


class TestNormal:
    def test_cdf_symmetry(self):
        assert normal_cdf(0.0) == pytest.approx(0.5)
        assert normal_cdf(1.0) + normal_cdf(-1.0) == pytest.approx(1.0)

    def test_sf_complements_cdf(self):
        x = np.linspace(-3, 3, 13)
        assert np.allclose(normal_sf(x), 1.0 - normal_cdf(x))

    def test_quantile_inverts_cdf(self):
        p = np.array([0.01, 0.1, 0.5, 0.9, 0.99])
        assert np.allclose(normal_cdf(normal_quantile(p)), p)

    def test_quantile_rejects_boundaries(self):
        with pytest.raises(ValueError):
            normal_quantile(0.0)
        with pytest.raises(ValueError):
            normal_quantile(1.0)

    def test_matches_scipy(self):
        x = np.linspace(-4, 4, 17)
        assert np.allclose(normal_cdf(x), sps.norm.cdf(x))


class TestBeta:
    def test_moments_match_scipy(self):
        dist = Beta(2.5, 7.0)
        assert dist.mean == pytest.approx(sps.beta.mean(2.5, 7.0))
        assert dist.variance == pytest.approx(sps.beta.var(2.5, 7.0))

    def test_pdf_matches_scipy(self):
        dist = Beta(3.0, 4.0)
        x = np.linspace(0.01, 0.99, 25)
        assert np.allclose(dist.pdf(x), sps.beta.pdf(x, 3.0, 4.0))

    def test_pdf_outside_support_is_zero(self):
        dist = Beta(2.0, 2.0)
        assert dist.pdf(-0.5) == 0.0
        assert dist.pdf(1.5) == 0.0

    def test_cdf_matches_scipy(self):
        dist = Beta(0.5, 2.0)
        x = np.linspace(0.0, 1.0, 11)
        assert np.allclose(dist.cdf(x), sps.beta.cdf(x, 0.5, 2.0))

    def test_posterior_update_is_conjugate(self):
        prior = Beta(1.5, 3.5)
        post = prior.posterior(successes=4.0, failures=6.0)
        assert post.alpha == pytest.approx(5.5)
        assert post.beta == pytest.approx(9.5)

    def test_posterior_rejects_negative_evidence(self):
        with pytest.raises(ValueError):
            Beta(1.0, 1.0).posterior(-1.0, 0.0)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            Beta(0.0, 1.0)
        with pytest.raises(ValueError):
            Beta(1.0, -2.0)

    @given(st.floats(0.05, 0.95), st.floats(1e-5, 0.2))
    @settings(max_examples=60)
    def test_from_moments_round_trip(self, mean, variance):
        # Only feasible (mean, variance) pairs are valid betas.
        if variance >= mean * (1 - mean) * 0.99:
            return
        alpha, beta = beta_from_moments(mean, variance)
        dist = Beta(float(alpha), float(beta))
        assert dist.mean == pytest.approx(mean, rel=1e-9)
        assert dist.variance == pytest.approx(variance, rel=1e-9)

    def test_from_moments_matches_paper_equations(self):
        mu, sigma2 = 0.3, 0.01
        alpha, beta = beta_from_moments(mu, sigma2)
        assert alpha == pytest.approx((mu ** 2 / sigma2) * (1 - mu) - mu)
        assert beta == pytest.approx(mu * ((1 - mu) ** 2 / sigma2 + 1) - 1)

    def test_from_moments_rejects_infeasible_variance(self):
        with pytest.raises(ValueError):
            beta_from_moments(0.5, 0.3)  # > mu(1-mu) = 0.25

    def test_from_moments_rejects_degenerate_mean(self):
        with pytest.raises(ValueError):
            beta_from_moments(0.0, 0.01)
        with pytest.raises(ValueError):
            beta_from_moments(1.0, 0.01)


class TestBinomial:
    def test_moments(self):
        dist = Binomial(100.0, 0.25)
        assert dist.mean == pytest.approx(25.0)
        assert dist.variance == pytest.approx(100 * 0.25 * 0.75)

    def test_sf_matches_scipy_integer_case(self):
        dist = Binomial(50, 0.3)
        for k in [0, 1, 5, 15, 30, 50]:
            expected = sps.binom.sf(k - 1, 50, 0.3)  # P(X >= k)
            assert dist.sf(k) == pytest.approx(expected, abs=1e-12)

    def test_sf_boundaries(self):
        dist = Binomial(10, 0.5)
        assert dist.sf(0) == 1.0
        assert dist.sf(11) == 0.0

    def test_sf_degenerate_p(self):
        assert Binomial(10, 0.0).sf(1) == 0.0
        assert Binomial(10, 0.0).sf(0) == 1.0
        assert Binomial(10, 1.0).sf(10) == 1.0

    def test_cdf_complements_sf(self):
        dist = Binomial(20, 0.4)
        k = np.arange(0, 21)
        assert np.allclose(dist.cdf(k), 1.0 - dist.sf(k + 1))

    def test_non_integer_trials_supported(self):
        dist = Binomial(1234.5, 0.01)
        value = dist.sf(20.0)
        assert 0.0 < value < 1.0

    def test_binomial_variance_vectorized(self):
        out = binomial_variance(np.array([10.0, 20.0]),
                                np.array([0.5, 0.1]))
        assert out.tolist() == [2.5, 1.8]


class TestHypergeometricPrior:
    def test_moments_match_hypergeometric_shape(self):
        # For a 2x2-style draw the classical hypergeometric variance of
        # N_ij (draws=nj, successes=ni, population=n) divided by n^2.
        ni, nj, n = 30.0, 20.0, 100.0
        mean, variance = hypergeometric_prior_moments(ni, nj, n)
        assert mean == pytest.approx(ni * nj / n ** 2)
        hyper_var = (nj * (ni / n) * (1 - ni / n) * (n - nj) / (n - 1))
        assert variance == pytest.approx(hyper_var / n ** 2)

    def test_vectorized(self):
        mean, variance = hypergeometric_prior_moments(
            np.array([10.0, 20.0]), np.array([5.0, 5.0]), 50.0)
        assert mean.shape == (2,)
        assert np.all(variance > 0)

    def test_variance_vanishes_when_node_owns_all_weight(self):
        mean, variance = hypergeometric_prior_moments(100.0, 20.0, 100.0)
        assert variance == pytest.approx(0.0)
        assert mean == pytest.approx(0.2)

    def test_rejects_tiny_totals(self):
        with pytest.raises(ValueError):
            hypergeometric_prior_moments(1.0, 1.0, 1.0)

    @given(st.floats(1.0, 40.0), st.floats(1.0, 40.0))
    @settings(max_examples=40)
    def test_prior_feasible_for_beta_fit(self, ni, nj):
        # Whenever both marginals are interior, the prior moments must be
        # a feasible beta target (variance < mean * (1 - mean)).
        n = 100.0
        mean, variance = hypergeometric_prior_moments(ni, nj, n)
        assert 0 < mean < 1
        assert variance < mean * (1 - mean)
