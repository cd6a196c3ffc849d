"""Additional depth tests for the graph substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import EdgeTable, Graph, read_edge_csv, write_edge_csv


@st.composite
def directed_tables(draw):
    n = draw(st.integers(3, 10))
    m = draw(st.integers(1, 25))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    weight = draw(st.lists(st.floats(0.0, 1e5), min_size=m, max_size=m))
    return EdgeTable(src, dst, weight, n_nodes=n, directed=True)


class TestDoublingProperties:
    @given(directed_tables())
    @settings(max_examples=50, deadline=None)
    def test_symmetrize_sum_preserves_total(self, table):
        merged = table.symmetrized("sum")
        assert merged.total_weight == pytest.approx(table.total_weight)

    @given(directed_tables())
    @settings(max_examples=50, deadline=None)
    def test_doubling_round_trip_grand_total(self, table):
        undirected = table.symmetrized("sum")
        doubled = undirected.as_directed_doubled()
        assert doubled.grand_total == pytest.approx(
            undirected.grand_total)

    @given(directed_tables())
    @settings(max_examples=50, deadline=None)
    def test_dense_round_trip(self, table):
        again = EdgeTable.from_dense(table.to_dense(), directed=True)
        # Coalesced view must match (from_dense drops explicit zeros).
        nonzero = table.subset(table.weight > 0)
        recoalesced = EdgeTable(nonzero.src, nonzero.dst, nonzero.weight,
                                n_nodes=table.n_nodes, directed=True)
        assert again == recoalesced

    @given(directed_tables())
    @settings(max_examples=30, deadline=None)
    def test_csr_matches_dense(self, table):
        assert np.allclose(table.to_csr().toarray(), table.to_dense())


class TestLabelsPropagation:
    def labeled(self):
        return EdgeTable([0, 1, 2], [1, 2, 0], [1.0, 2.0, 3.0],
                         labels=["x", "y", "z"])

    def test_subset_keeps_labels(self):
        sub = self.labeled().subset(np.array([0, 2]))
        assert sub.labels == ("x", "y", "z")

    def test_with_weights_keeps_labels(self):
        assert self.labeled().with_weights([4.0, 5.0, 6.0]).labels \
            == ("x", "y", "z")

    def test_symmetrized_keeps_labels(self):
        assert self.labeled().symmetrized("sum").labels == ("x", "y", "z")

    def test_doubled_keeps_labels(self):
        undirected = self.labeled().symmetrized("sum")
        assert undirected.as_directed_doubled().labels == ("x", "y", "z")

    def test_union_prefers_left_labels(self):
        other = EdgeTable([0], [1], [1.0], n_nodes=3)
        assert self.labeled().union(other).labels == ("x", "y", "z")


class TestGraphViewEdgeCases:
    def test_isolated_node_has_empty_neighborhood(self):
        table = EdgeTable([0], [1], [1.0], n_nodes=3)
        graph = Graph(table)
        neighbors, weights = graph.neighbors_of(2)
        assert len(neighbors) == 0
        assert len(weights) == 0

    def test_multi_edge_coalesced_before_adjacency(self):
        table = EdgeTable([0, 0], [1, 1], [1.0, 2.0])
        graph = Graph(table)
        neighbors, weights = graph.neighbors_of(0)
        assert neighbors.tolist() == [1]
        assert weights.tolist() == [3.0]

    def test_self_loop_in_adjacency_once_undirected(self):
        table = EdgeTable([0, 0], [0, 1], [5.0, 1.0], directed=False)
        graph = Graph(table)
        neighbors, _ = graph.neighbors_of(0)
        assert sorted(neighbors.tolist()) == [0, 1]


class TestIoVariants:
    def test_tab_delimited_round_trip(self, tmp_path):
        table = EdgeTable([0, 1], [1, 2], [1.5, 2.5])
        path = tmp_path / "edges.tsv"
        write_edge_csv(table, path, delimiter="\t")
        again = read_edge_csv(path, delimiter="\t")
        assert again == table

    def test_undirected_read(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("src,dst,weight\n1,0,2.0\n")
        table = read_edge_csv(path, directed=False)
        assert table.weight_lookup() == {(0, 1): 2.0}

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("src,dst,weight\n0,1,1.0\n\n1,2,2.0\n")
        assert read_edge_csv(path).m == 2

    def test_mixed_label_kinds_fall_back_to_strings(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("src,dst,weight\n7,alpha,1.0\n")
        table = read_edge_csv(path)
        assert table.labels == ("7", "alpha")


class TestTopKDeterminism:
    @given(directed_tables(), st.integers(0, 10))
    @settings(max_examples=50, deadline=None)
    def test_top_k_idempotent(self, table, k):
        k = min(k, table.m)
        values = table.weight
        first = table.top_k_by(values, k)
        second = table.top_k_by(values, k)
        assert first == second
        assert first.m == k
