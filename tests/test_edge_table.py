"""Unit tests for :mod:`repro.graph.edge_table`."""

import numpy as np
import pytest

from repro.graph import EdgeTable


def simple_directed():
    return EdgeTable([0, 1, 2, 0], [1, 2, 0, 2], [1.0, 2.0, 3.0, 4.0],
                     directed=True)


def simple_undirected():
    return EdgeTable([0, 1, 2], [1, 2, 0], [1.0, 2.0, 3.0], directed=False)


class TestConstruction:
    def test_basic_lengths(self):
        table = simple_directed()
        assert table.m == 4
        assert table.n_nodes == 3
        assert table.directed

    def test_empty_table(self):
        table = EdgeTable((), (), ())
        assert table.m == 0
        assert table.n_nodes == 0
        assert table.total_weight == 0.0
        assert list(table.iter_edges()) == []

    def test_explicit_n_nodes_padding(self):
        table = EdgeTable([0], [1], [1.0], n_nodes=10)
        assert table.n_nodes == 10
        assert len(table.isolates()) == 8

    def test_n_nodes_too_small_rejected(self):
        with pytest.raises(ValueError):
            EdgeTable([0, 5], [1, 2], [1.0, 1.0], n_nodes=3)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            EdgeTable([0], [1], [-1.0])

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            EdgeTable([-1], [1], [1.0])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            EdgeTable([0, 1], [1], [1.0])

    def test_non_finite_weight_rejected(self):
        with pytest.raises(ValueError):
            EdgeTable([0], [1], [np.nan])

    def test_duplicate_rows_coalesce_by_sum(self):
        table = EdgeTable([0, 0, 1], [1, 1, 2], [1.0, 2.5, 4.0])
        assert table.m == 2
        assert table.weight_lookup()[(0, 1)] == pytest.approx(3.5)

    def test_undirected_canonicalization(self):
        a = EdgeTable([1, 2], [0, 1], [1.0, 2.0], directed=False)
        b = EdgeTable([0, 1], [1, 2], [1.0, 2.0], directed=False)
        assert a == b

    def test_undirected_reverse_duplicates_merge(self):
        table = EdgeTable([0, 1], [1, 0], [1.0, 2.0], directed=False)
        assert table.m == 1
        assert table.weight_lookup()[(0, 1)] == pytest.approx(3.0)

    def test_from_pairs_round_trip(self):
        table = EdgeTable.from_pairs([(0, 1, 1.0), (1, 2, 2.0)])
        assert table.weight_lookup() == {(0, 1): 1.0, (1, 2): 2.0}

    def test_from_dict(self):
        table = EdgeTable.from_dict({(0, 1): 2.0, (2, 0): 1.5})
        assert table.weight_lookup() == {(0, 1): 2.0, (2, 0): 1.5}

    def test_from_dense_directed(self):
        matrix = np.array([[0.0, 1.0], [2.0, 0.0]])
        table = EdgeTable.from_dense(matrix, directed=True)
        assert table.weight_lookup() == {(0, 1): 1.0, (1, 0): 2.0}

    def test_from_dense_undirected_reads_upper_triangle(self):
        matrix = np.array([[0.0, 3.0], [3.0, 0.0]])
        table = EdgeTable.from_dense(matrix, directed=False)
        assert table.weight_lookup() == {(0, 1): 3.0}

    def test_dense_round_trip_directed(self):
        table = simple_directed()
        again = EdgeTable.from_dense(table.to_dense(), directed=True)
        assert again == table

    def test_dense_round_trip_undirected(self):
        table = simple_undirected()
        again = EdgeTable.from_dense(table.to_dense(), directed=False)
        assert again == table

    def test_labels_length_checked(self):
        with pytest.raises(ValueError):
            EdgeTable([0], [1], [1.0], labels=["only-one"])

    def test_label_of(self):
        table = EdgeTable([0], [1], [1.0], labels=["alpha", "beta"])
        assert table.label_of(0) == "alpha"
        assert table.label_of(1) == "beta"

    def test_unlabeled_label_of_returns_index_text(self):
        assert simple_directed().label_of(2) == "2"


class TestMarginals:
    def test_directed_strengths(self):
        table = simple_directed()
        assert table.out_strength().tolist() == [5.0, 2.0, 3.0]
        assert table.in_strength().tolist() == [3.0, 1.0, 6.0]
        assert table.grand_total == pytest.approx(10.0)

    def test_directed_grand_total_equals_sum_of_marginals(self):
        table = simple_directed()
        assert table.out_strength().sum() == pytest.approx(table.grand_total)
        assert table.in_strength().sum() == pytest.approx(table.grand_total)

    def test_undirected_strength_counts_both_endpoints(self):
        table = simple_undirected()
        assert table.strength().tolist() == [4.0, 3.0, 5.0]
        assert table.grand_total == pytest.approx(12.0)

    def test_undirected_marginal_consistency(self):
        table = simple_undirected()
        assert table.out_strength().sum() == pytest.approx(table.grand_total)
        assert np.array_equal(table.out_strength(), table.in_strength())

    def test_degrees_directed(self):
        table = simple_directed()
        assert table.out_degree().tolist() == [2, 1, 1]
        assert table.in_degree().tolist() == [1, 1, 2]
        assert table.degree().tolist() == [3, 2, 3]

    def test_degrees_undirected(self):
        table = simple_undirected()
        assert table.degree().tolist() == [2, 2, 2]

    def test_isolates(self):
        table = EdgeTable([0], [1], [1.0], n_nodes=4)
        assert table.isolates().tolist() == [2, 3]
        assert table.non_isolated_count() == 2


class TestTransformations:
    def test_subset_with_boolean_mask(self):
        table = simple_directed()
        kept = table.subset(table.weight > 2.0)
        assert kept.m == 2
        assert set(kept.weight.tolist()) == {3.0, 4.0}

    def test_subset_keeps_n_nodes(self):
        table = simple_directed()
        kept = table.subset(np.array([0]))
        assert kept.n_nodes == table.n_nodes

    def test_with_weights(self):
        table = simple_undirected()
        scaled = table.with_weights(table.weight * 2)
        assert scaled.total_weight == pytest.approx(2 * table.total_weight)
        assert scaled.edge_key_set() == table.edge_key_set()

    def test_with_weights_length_checked(self):
        with pytest.raises(ValueError):
            simple_undirected().with_weights([1.0])

    def test_without_self_loops(self):
        table = EdgeTable([0, 1, 1], [0, 1, 2], [1.0, 2.0, 3.0])
        cleaned = table.without_self_loops()
        assert cleaned.m == 1
        assert cleaned.weight_lookup() == {(1, 2): 3.0}

    def test_top_k_by_keeps_largest(self):
        table = simple_directed()
        top = table.top_k_by(table.weight, 2)
        assert sorted(top.weight.tolist()) == [3.0, 4.0]

    def test_top_k_by_zero_and_full(self):
        table = simple_directed()
        assert table.top_k_by(table.weight, 0).m == 0
        assert table.top_k_by(table.weight, table.m) == table

    def test_top_k_by_is_deterministic_under_ties(self):
        table = EdgeTable([0, 1, 2, 3], [1, 2, 3, 0], [1.0] * 4)
        scores = np.ones(4)
        first = table.top_k_by(scores, 2)
        second = table.top_k_by(scores, 2)
        assert first == second

    def test_symmetrized_sum(self):
        table = EdgeTable([0, 1], [1, 0], [1.0, 2.0], directed=True)
        merged = table.symmetrized("sum")
        assert not merged.directed
        assert merged.weight_lookup() == {(0, 1): 3.0}

    def test_symmetrized_max_avg_min(self):
        table = EdgeTable([0, 1], [1, 0], [1.0, 3.0], directed=True)
        assert table.symmetrized("max").weight_lookup() == {(0, 1): 3.0}
        assert table.symmetrized("min").weight_lookup() == {(0, 1): 1.0}
        assert table.symmetrized("avg").weight_lookup() == {(0, 1): 2.0}

    def test_symmetrized_unknown_mode(self):
        with pytest.raises(ValueError):
            EdgeTable([0], [1], [1.0]).symmetrized("median")

    def test_as_directed_doubled(self):
        table = simple_undirected()
        doubled = table.as_directed_doubled()
        assert doubled.directed
        assert doubled.m == 6
        assert doubled.grand_total == pytest.approx(table.grand_total)

    def test_doubled_self_loop_appears_once(self):
        table = EdgeTable([0, 0], [0, 1], [5.0, 1.0], directed=False)
        doubled = table.as_directed_doubled()
        assert doubled.weight_lookup()[(0, 0)] == 5.0
        assert doubled.m == 3

    def test_union_sums_shared_edges(self):
        a = EdgeTable([0], [1], [1.0])
        b = EdgeTable([0, 1], [1, 2], [2.0, 5.0])
        merged = a.union(b)
        assert merged.weight_lookup() == {(0, 1): 3.0, (1, 2): 5.0}

    def test_union_direction_mismatch_rejected(self):
        a = EdgeTable([0], [1], [1.0], directed=True)
        b = EdgeTable([0], [1], [1.0], directed=False)
        with pytest.raises(ValueError):
            a.union(b)

    def test_copy_is_independent(self):
        table = simple_directed()
        clone = table.copy()
        clone.weight[0] = 99.0
        assert table.weight[0] != 99.0


class TestExports:
    def test_edge_key_set(self):
        table = EdgeTable([0, 1], [1, 2], [1.0, 2.0])
        assert table.edge_key_set() == {(0, 1), (1, 2)}

    def test_to_csr_matches_dense(self):
        table = simple_undirected()
        assert np.allclose(table.to_csr().toarray(), table.to_dense())

    def test_sorted_by_endpoints(self):
        table = EdgeTable([2, 0, 1], [0, 1, 2], [1.0, 2.0, 3.0],
                          coalesce=False)
        ordered = table.sorted_by_endpoints()
        assert ordered.src.tolist() == [0, 1, 2]

    def test_equality_ignores_row_order(self):
        a = EdgeTable([0, 1], [1, 2], [1.0, 2.0])
        b = EdgeTable([1, 0], [2, 1], [2.0, 1.0])
        assert a == b

    def test_inequality_on_weights(self):
        a = EdgeTable([0], [1], [1.0])
        b = EdgeTable([0], [1], [2.0])
        assert a != b

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(simple_directed())
