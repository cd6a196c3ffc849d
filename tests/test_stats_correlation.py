"""Tests for correlations, ranks and significance mappings."""

import numpy as np
import pytest
import scipy.stats as sps
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats import (PAPER_DELTAS, delta_for_p_value, delta_table,
                         log_log_pearson, p_value_for_delta, pearson,
                         pearson_test, rankdata_average, spearman,
                         spearman_test)

finite_floats = st.floats(-1e6, 1e6, allow_nan=False)


class TestRanks:
    def test_simple_ranks(self):
        assert rankdata_average([10.0, 30.0, 20.0]).tolist() == [1.0, 3.0, 2.0]

    def test_ties_get_average_rank(self):
        assert rankdata_average([5.0, 1.0, 5.0]).tolist() == [2.5, 1.0, 2.5]

    def test_empty(self):
        assert len(rankdata_average([])) == 0

    @given(st.lists(finite_floats, min_size=1, max_size=60))
    @settings(max_examples=60)
    def test_matches_scipy_rankdata(self, values):
        ours = rankdata_average(values)
        theirs = sps.rankdata(values, method="average")
        assert np.allclose(ours, theirs)


class TestPearson:
    def test_perfect_positive(self):
        x = np.arange(10.0)
        assert pearson(x, 2 * x + 1) == pytest.approx(1.0)

    def test_perfect_negative(self):
        x = np.arange(10.0)
        assert pearson(x, -x) == pytest.approx(-1.0)

    def test_constant_input_is_nan(self):
        assert np.isnan(pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]))

    def test_too_short_is_nan(self):
        assert np.isnan(pearson([1.0], [2.0]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pearson([1.0, 2.0], [1.0])

    def test_matches_scipy(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=200)
        y = 0.4 * x + rng.normal(size=200)
        ours = pearson_test(x, y)
        theirs = sps.pearsonr(x, y)
        assert ours.coefficient == pytest.approx(theirs.statistic)
        assert ours.p_value == pytest.approx(theirs.pvalue, rel=1e-6)

    def test_p_value_zero_for_exact_fit(self):
        x = np.arange(20.0)
        assert pearson_test(x, 3 * x).p_value == 0.0


class TestSpearman:
    def test_monotone_nonlinear_is_one(self):
        x = np.arange(1.0, 20.0)
        assert spearman(x, x ** 3) == pytest.approx(1.0)

    def test_matches_scipy_with_ties(self):
        rng = np.random.default_rng(1)
        x = rng.integers(0, 8, 100).astype(float)
        y = rng.integers(0, 8, 100).astype(float)
        assert spearman(x, y) == pytest.approx(
            sps.spearmanr(x, y).statistic)

    def test_spearman_test_p_value(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=150)
        y = x + rng.normal(size=150)
        result = spearman_test(x, y)
        assert result.p_value < 1e-9
        assert result.n_obs == 150


class TestLogLogPearson:
    def test_power_law_is_linear_in_logs(self):
        x = np.logspace(0, 4, 40)
        y = 3.0 * x ** 1.7
        assert log_log_pearson(x, y) == pytest.approx(1.0)

    def test_non_positive_pairs_dropped(self):
        x = np.array([0.0, 1.0, 10.0, 100.0])
        y = np.array([5.0, 1.0, 10.0, 100.0])
        assert log_log_pearson(x, y) == pytest.approx(1.0)

    def test_all_dropped_is_nan(self):
        assert np.isnan(log_log_pearson([0.0, -1.0], [1.0, 2.0]))


class TestDeltaSignificance:
    def test_paper_deltas_are_close_to_exact(self):
        for p, rounded in PAPER_DELTAS.items():
            assert delta_for_p_value(p) == pytest.approx(rounded, abs=0.02)

    def test_round_trip(self):
        for p in [0.1, 0.05, 0.01, 0.001]:
            assert p_value_for_delta(delta_for_p_value(p)) == pytest.approx(p)

    def test_delta_table_shape(self):
        table = delta_table()
        assert table.shape == (3, 3)
        assert np.all(np.diff(table[:, 0]) > 0)

    def test_invalid_p_rejected(self):
        with pytest.raises(ValueError):
            delta_for_p_value(0.0)
        with pytest.raises(ValueError):
            delta_for_p_value(1.5)
