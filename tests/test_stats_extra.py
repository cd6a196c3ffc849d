"""Additional depth tests for the statistics substrate."""

import numpy as np
import pytest
import scipy.stats as sps
from repro.stats import Beta, Binomial, design_matrix, ols
from repro.stats.significance import PAPER_DELTAS


class TestBetaEdges:
    def test_cdf_at_bounds(self):
        dist = Beta(2.0, 3.0)
        assert dist.cdf(0.0) == 0.0
        assert dist.cdf(1.0) == 1.0

    def test_cdf_clamps_outside_support(self):
        dist = Beta(2.0, 3.0)
        assert dist.cdf(-1.0) == 0.0
        assert dist.cdf(2.0) == 1.0

    def test_skewed_shapes(self):
        # alpha < 1 densities blow up at 0; moments must still be exact.
        dist = Beta(0.3, 5.0)
        assert dist.mean == pytest.approx(sps.beta.mean(0.3, 5.0))
        assert dist.variance == pytest.approx(sps.beta.var(0.3, 5.0))


class TestBinomialEdges:
    def test_cdf_matches_scipy(self):
        dist = Binomial(30, 0.2)
        k = np.arange(0, 31)
        assert np.allclose(dist.cdf(k), sps.binom.cdf(k, 30, 0.2),
                           atol=1e-12)

    def test_sf_monotone_decreasing(self):
        dist = Binomial(100, 0.37)
        values = dist.sf(np.arange(0, 101))
        assert np.all(np.diff(values) <= 1e-12)

    def test_mean_variance_relationship(self):
        dist = Binomial(1000, 0.5)
        assert dist.variance <= dist.mean

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            Binomial(0, 0.5)
        with pytest.raises(ValueError):
            Binomial(10, 1.5)


class TestOlsEdges:
    def test_collinear_design_flagged_by_nan_stderr(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=50)
        X = np.column_stack([x, 2.0 * x])  # perfectly collinear
        fit = ols(x + rng.normal(size=50), X)
        assert np.isnan(fit.stderr).all()

    def test_exact_df_zero(self):
        # n == k: fit is exact, adjusted R² undefined.
        fit = ols([1.0, 2.0], np.array([[1.0], [2.0]]))
        assert fit.r_squared == pytest.approx(1.0)
        assert np.isnan(fit.adj_r_squared)

    def test_predict_single_vector(self):
        fit = ols(np.arange(10.0), np.arange(10.0))
        new = fit.predict(np.array([20.0, 30.0]))
        assert new.tolist() == pytest.approx([20.0, 30.0])

    def test_predict_wrong_width_rejected(self):
        fit = ols(np.arange(10.0), np.arange(10.0))
        with pytest.raises(ValueError):
            fit.predict(np.ones((3, 5)))

    def test_weights_against_statsmodels_formula(self):
        # Cross-check the full (coef, stderr, t, p) pipeline against
        # scipy's linregress on a simple regression.
        rng = np.random.default_rng(1)
        x = rng.normal(size=120)
        y = 1.0 + 0.5 * x + rng.normal(size=120)
        fit = ols(y, x)
        reference = sps.linregress(x, y)
        assert fit.coefficient("x0") == pytest.approx(reference.slope)
        assert fit.coefficient("intercept") \
            == pytest.approx(reference.intercept)
        index = fit.names.index("x0")
        assert fit.stderr[index] == pytest.approx(reference.stderr,
                                                  rel=1e-6)
        assert fit.p_values()[index] == pytest.approx(reference.pvalue,
                                                      rel=1e-6)


class TestDesignMatrixEdges:
    def test_single_column(self):
        X, names = design_matrix({"only": [1.0, 2.0, 3.0]})
        assert X.shape == (3, 1)
        assert names == ["only"]

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            design_matrix({"bad": [1.0, float("inf")]})


class TestPaperDeltaTable:
    def test_paper_rounding_is_coarse_but_close(self):
        # The paper's 2.32 for p=0.01 is a rounding of 2.3263...
        from repro.stats import delta_for_p_value
        assert PAPER_DELTAS[0.01] == 2.32
        assert delta_for_p_value(0.01) == pytest.approx(2.3263, abs=2e-4)
