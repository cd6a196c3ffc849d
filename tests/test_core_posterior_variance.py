"""Tests for the beta-binomial posterior and the delta-method variance."""

import numpy as np
import pytest

from repro.core import (edge_weight_variance, plug_in_probability,
                        posterior_probability, transformed_lift_sdev,
                        transformed_lift_variance)
from repro.graph import EdgeTable
from repro.stats import Beta


def dense_random_table(n=8, seed=0, directed=True):
    rng = np.random.default_rng(seed)
    src, dst = np.nonzero(~np.eye(n, dtype=bool))
    if not directed:
        keep = src < dst
        src, dst = src[keep], dst[keep]
    weight = rng.integers(1, 30, len(src)).astype(float)
    return EdgeTable(src, dst, weight, n_nodes=n, directed=directed)


class TestPosterior:
    def test_posterior_mean_strictly_positive(self):
        table = dense_random_table()
        posterior = posterior_probability(table)
        assert np.all(posterior.mean > 0)

    def test_zero_weight_edges_keep_positive_variance(self):
        # The paper's central motivation: N_ij = 0 must NOT imply zero
        # measurement error.
        table = EdgeTable([0, 0, 1, 2], [1, 2, 2, 3], [5.0, 3.0, 0.0, 4.0],
                          n_nodes=4)
        posterior = posterior_probability(table)
        zero_row = 2
        assert table.weight[zero_row] == 0.0
        assert posterior.mean[zero_row] > 0
        variance = edge_weight_variance(table, posterior=posterior)
        assert variance[zero_row] > 0

    def test_plug_in_gives_zero_variance_for_zero_weight(self):
        # ... whereas the plug-in estimator does degenerate (ablation).
        table = EdgeTable([0, 0, 1, 2], [1, 2, 2, 3], [5.0, 3.0, 0.0, 4.0],
                          n_nodes=4)
        variance = edge_weight_variance(table, use_posterior=False)
        assert variance[2] == 0.0

    def test_posterior_between_prior_and_data(self):
        table = dense_random_table(seed=4)
        posterior = posterior_probability(table)
        plug_in = plug_in_probability(table)
        prior = posterior.prior_mean
        low = np.minimum(prior, plug_in) - 1e-12
        high = np.maximum(prior, plug_in) + 1e-12
        assert np.all(posterior.mean >= low)
        assert np.all(posterior.mean <= high)

    def test_posterior_matches_beta_mean(self):
        table = dense_random_table(seed=1)
        posterior = posterior_probability(table)
        index = 5
        dist = Beta(float(posterior.alpha[index]),
                    float(posterior.beta[index]))
        assert posterior.mean[index] == pytest.approx(dist.mean)

    def test_posterior_variance_positive(self):
        table = dense_random_table(seed=2)
        posterior = posterior_probability(table)
        assert np.all(posterior.variance() > 0)

    def test_no_fallback_on_healthy_networks(self):
        table = dense_random_table(seed=3)
        posterior = posterior_probability(table)
        assert posterior.fallback.sum() == 0

    def test_fallback_on_degenerate_marginals(self):
        # A single edge: node 0 owns all outgoing weight -> prior mean 1.
        table = EdgeTable([0], [1], [7.0])
        posterior = posterior_probability(table)
        assert posterior.fallback.all()
        assert 0 < posterior.mean[0] < 1

    @pytest.mark.parametrize("weights", [[1.0], [0.5], [0.25, 0.25]])
    def test_unit_grand_total_falls_back_instead_of_raising(self, weights):
        # N.. <= 1 leaves the hypergeometric prior variance undefined;
        # the posterior must fall back per edge, not fail the whole score.
        table = EdgeTable(list(range(len(weights))),
                          list(range(1, len(weights) + 1)), weights,
                          n_nodes=len(weights) + 2, directed=True)
        posterior = posterior_probability(table)
        assert posterior.fallback.all()
        assert np.all((posterior.mean > 0) & (posterior.mean < 1))
        sdev = transformed_lift_sdev(table, posterior=posterior)
        assert np.all(np.isfinite(sdev)) and np.all(sdev >= 0)

    def test_posterior_mean_scale_invariant(self):
        # In the paper's model the prior is informed by the *same*
        # marginals, so prior strength grows with the data: the posterior
        # mean is (asymptotically) invariant under uniform count scaling,
        # it does NOT converge to the plug-in frequency.
        table = dense_random_table(seed=5)
        small = posterior_probability(table).mean
        big = posterior_probability(
            table.with_weights(table.weight * 1000.0)).mean
        assert np.allclose(small, big, rtol=1e-2)

    def test_undirected_equals_doubled_directed(self):
        undirected = dense_random_table(n=7, seed=6, directed=False)
        doubled = undirected.as_directed_doubled()
        post_u = posterior_probability(undirected)
        post_d = posterior_probability(doubled)
        # Each undirected edge appears twice in the doubled table with
        # identical posterior mean; compare via lookups.
        lookup = {}
        for row, (u, v, _) in enumerate(doubled.iter_edges()):
            lookup[(u, v)] = post_d.mean[row]
        for row, (u, v, _) in enumerate(undirected.iter_edges()):
            assert post_u.mean[row] == pytest.approx(lookup[(u, v)])
            assert post_u.mean[row] == pytest.approx(lookup[(v, u)])


class TestVariance:
    def test_variance_non_negative(self):
        table = dense_random_table(seed=7)
        assert np.all(transformed_lift_variance(table) >= 0)

    def test_sdev_is_sqrt_of_variance(self):
        table = dense_random_table(seed=8)
        assert np.allclose(transformed_lift_sdev(table) ** 2,
                           transformed_lift_variance(table))

    def test_matches_paper_reference_formula(self):
        # Transcribe the reference implementation's formula verbatim and
        # compare against our composed version.
        table = dense_random_table(seed=9)
        ni = table.out_strength()[table.src]
        nj = table.in_strength()[table.dst]
        n = table.grand_total
        nij = table.weight

        mean_prior = ((ni * nj) / n) * (1.0 / n)
        var_prior = (1.0 / (n ** 2)) * (ni * nj * (n - ni) * (n - nj)) \
            / ((n ** 2) * (n - 1))
        alpha_prior = ((mean_prior ** 2) / var_prior) * (1 - mean_prior) \
            - mean_prior
        beta_prior = (mean_prior / var_prior) * (1 - mean_prior) ** 2 \
            + mean_prior - 1
        alpha_post = alpha_prior + nij
        beta_post = n - nij + beta_prior
        expected_pij = alpha_post / (alpha_post + beta_post)
        variance_nij = expected_pij * (1 - expected_pij) * n
        kappa_ref = n / (ni * nj)
        d = (1.0 / (ni * nj)) - (n * ((ni + nj) / ((ni * nj) ** 2)))
        variance_cij = variance_nij * \
            (((2 * (kappa_ref + (nij * d))) / (((kappa_ref * nij) + 1) ** 2))
             ** 2)

        assert np.allclose(transformed_lift_variance(table), variance_cij)

    def test_variance_via_monte_carlo_delta_method(self):
        # The delta method predicts the variance of the transform under
        # resampled N_ij ~ Binomial(N.., p_post), with marginals
        # co-varying. The expansion is taken around the sampling mean
        # N.. * p_post: build a table whose focal edge sits exactly
        # there, and its predicted variance must match the Monte Carlo
        # spread (to first order; counts are scaled up so the expansion
        # is accurate).
        table = dense_random_table(n=6, seed=10)
        table = table.with_weights(table.weight * 20.0)
        index = 4
        posterior = posterior_probability(table)
        p = posterior.mean[index]
        n_total = table.grand_total

        # Re-centre the focal edge at the sampling mean.
        weights = table.weight.copy()
        weights[index] = n_total * p
        centred = table.with_weights(weights)
        predicted = transformed_lift_variance(centred)[index]

        rng = np.random.default_rng(0)
        draws = rng.binomial(int(n_total), p, size=40_000).astype(float)
        base_ni = table.out_strength()[table.src[index]] \
            - table.weight[index]
        base_nj = table.in_strength()[table.dst[index]] \
            - table.weight[index]
        base_total = n_total - table.weight[index]
        ni = base_ni + draws
        nj = base_nj + draws
        total = base_total + draws
        kappa_draws = total / (ni * nj)
        scores = (kappa_draws * draws - 1.0) / (kappa_draws * draws + 1.0)

        assert scores.var() == pytest.approx(predicted, rel=0.1)

    def test_stronger_data_shrinks_relative_sdev(self):
        # Scaling all counts up by 100x multiplies N.. by 100; relative
        # uncertainty of the score must fall.
        table = dense_random_table(seed=11)
        small = transformed_lift_sdev(table)
        large = transformed_lift_sdev(table.with_weights(table.weight * 100))
        assert np.all(large < small)
