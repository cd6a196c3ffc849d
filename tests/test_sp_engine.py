"""Property tests: the batched SP engine vs the binary-heap reference.

The engine's contract is *bit-identical* output — distances, predecessor
tie-breaks, tree edges and HSS salience scores — on both of its paths
(scipy's distance pass, and the per-root heap it takes when any arc has
zero length), on random ER/BA-style graphs, directed and undirected,
with zero-weight arcs and disconnected components.
"""

import numpy as np
import pytest

from repro.backbones.high_salience import (HighSalienceSkeleton,
                                           reference_salience_scores)
from repro.generators.barabasi_albert import barabasi_albert
from repro.generators.erdos_renyi import erdos_renyi_gnm
from repro.graph import (EdgeTable, Graph, ShortestPathEngine,
                         dijkstra, dijkstra_reference, shortest_path_tree)
from repro.graph.sp_engine import effective_lengths
from repro.util.parallel import chunked, parallel_map, resolve_workers

#: The engine's two paths, chosen from its input: default lengths run
#: scipy's Dijkstra, and zero-length arcs send every root to the heap.
PATHS = ("scipy", "reference")


def random_table(seed, directed=False, zero_weights=0.1):
    """Messy random graph: multi-edges collapse, some zero weights,
    isolated nodes, possibly disconnected."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 40))
    m = int(rng.integers(n, 4 * n))
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    weight = rng.uniform(0.0, 3.0, m)
    weight[rng.random(m) < zero_weights] = 0.0
    table = EdgeTable(src, dst, weight, n_nodes=n + 2, directed=directed)
    return table.without_self_loops()


def path_lengths(graph, path):
    """Arc lengths that steer the engine onto ``path``."""
    if path == "scipy":
        return None
    lengths = effective_lengths(graph.weights)
    lengths[::3] = 0.0
    return lengths


def assert_matches_reference(graph, path, sources):
    lengths = path_lengths(graph, path)
    engine = ShortestPathEngine(graph, lengths=lengths)
    assert engine.backend == path
    forest = engine.forest()
    for source in sources:
        dist, pred = dijkstra_reference(graph, source, lengths=lengths)
        assert np.array_equal(forest.dist[source], dist)
        assert np.array_equal(forest.pred[source], pred)


class TestEngineMatchesReference:
    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("directed", [False, True])
    def test_random_graphs_bit_identical(self, path, directed):
        for seed in range(8):
            table = random_table(seed, directed=directed)
            if table.m == 0:
                continue
            graph = Graph(table)
            assert_matches_reference(graph, path, range(graph.n_nodes))

    @pytest.mark.parametrize("path", PATHS)
    def test_barabasi_albert_graphs(self, path):
        for seed in range(3):
            table = barabasi_albert(40, m=2, seed=seed)
            graph = Graph(table if not table.directed
                          else table.symmetrized("sum"))
            assert_matches_reference(graph, path,
                                     range(0, graph.n_nodes, 5))

    def test_tree_edges_match_shortest_path_tree(self):
        table = random_table(3)
        graph = Graph(table)
        forest = ShortestPathEngine(graph).forest()
        for source in range(graph.n_nodes):
            assert forest.tree_edges(source) == \
                shortest_path_tree(graph, source)

    def test_pred_arc_points_at_pred(self):
        table = random_table(5)
        graph = Graph(table)
        forest = ShortestPathEngine(graph).forest()
        for row in range(graph.n_nodes):
            for node in range(graph.n_nodes):
                arc = forest.pred_arc[row, node]
                if forest.pred[row, node] < 0:
                    assert arc == -1
                else:
                    assert graph.arc_src[arc] == forest.pred[row, node]
                    assert graph.neighbors[arc] == node

    def test_custom_lengths_including_zero(self):
        table = random_table(7, zero_weights=0.0)
        graph = Graph(table)
        rng = np.random.default_rng(11)
        lengths = rng.uniform(0.0, 1.0, graph.m)
        lengths[rng.random(graph.m) < 0.3] = 0.0
        engine = ShortestPathEngine(graph, lengths=lengths)
        assert engine.backend == "reference"
        forest = engine.forest()
        for source in range(graph.n_nodes):
            dist, pred = dijkstra_reference(graph, source, lengths=lengths)
            assert np.array_equal(forest.dist[source], dist)
            assert np.array_equal(forest.pred[source], pred)

    def test_dijkstra_front_door_uses_engine_contract(self):
        table = random_table(9)
        graph = Graph(table)
        for source in range(graph.n_nodes):
            assert all(np.array_equal(a, b) for a, b in
                       zip(dijkstra(graph, source),
                           dijkstra_reference(graph, source)))


class TestEngineApi:
    def graph(self):
        return Graph(EdgeTable([0, 1], [1, 2], [1.0, 2.0], directed=False))

    def test_negative_lengths_rejected(self):
        graph = self.graph()
        with pytest.raises(ValueError):
            ShortestPathEngine(graph, lengths=-np.ones(graph.m))

    def test_wrong_length_count_rejected(self):
        with pytest.raises(ValueError):
            ShortestPathEngine(self.graph(), lengths=np.ones(3))

    def test_root_out_of_range_rejected(self):
        engine = ShortestPathEngine(self.graph())
        with pytest.raises(ValueError):
            engine.distances([7])

    def test_no_roots_gives_empty_results(self):
        engine = ShortestPathEngine(self.graph())
        assert engine.distances([]).shape == (0, 3)
        assert engine.forest([]).pred.shape == (0, 3)
        assert engine.tree_arc_counts([]).tolist() == [0] * 4

    def test_effective_lengths_zero_weight_is_inf(self):
        lengths = effective_lengths(np.array([2.0, 0.0]))
        assert lengths[0] == pytest.approx(0.5)
        assert np.isinf(lengths[1])

    def test_chunking_does_not_change_results(self):
        table = random_table(13)
        graph = Graph(table)
        engine = ShortestPathEngine(graph)
        whole = engine.distances()
        sliced = engine.distances(chunk_size=3)
        assert np.array_equal(whole, sliced)


class TestHighSalienceEngine:
    def test_exact_scores_identical_to_reference(self):
        for seed in range(4):
            table = erdos_renyi_gnm(35, 80, seed=seed)
            scored = HighSalienceSkeleton().score(table)
            expected = reference_salience_scores(table)
            assert np.array_equal(scored.score, expected.score)

    def test_exact_scores_identical_on_directed_input(self):
        table = random_table(21, directed=True)
        scored = HighSalienceSkeleton().score(table)
        expected = reference_salience_scores(table)
        assert np.array_equal(scored.score, expected.score)

    def test_exact_mode_info(self):
        table = erdos_renyi_gnm(20, 40, seed=0)
        info = HighSalienceSkeleton().score(table).info
        assert info["exact"] is True
        assert info["n_roots"] == 20
        assert info["root_fraction"] == pytest.approx(1.0)

    def test_sampled_roots_deterministic_under_seed(self):
        table = erdos_renyi_gnm(40, 90, seed=2)
        a = HighSalienceSkeleton(roots=10, seed=5).score(table)
        b = HighSalienceSkeleton(roots=10, seed=5).score(table)
        c = HighSalienceSkeleton(roots=10, seed=6).score(table)
        assert np.array_equal(a.score, b.score)
        assert not np.array_equal(a.score, c.score)

    def test_sampled_mode_records_fraction(self):
        table = erdos_renyi_gnm(40, 90, seed=2)
        info = HighSalienceSkeleton(roots=10, seed=5).score(table).info
        assert info == {"n_roots": 10, "root_fraction": pytest.approx(0.25),
                        "exact": False, "seed": 5}

    def test_sampled_scores_bounded_and_plausible(self):
        table = erdos_renyi_gnm(40, 90, seed=3)
        scored = HighSalienceSkeleton(roots=15, seed=0).score(table)
        assert np.all(scored.score >= 0.0)
        assert np.all(scored.score <= 1.0)

    def test_roots_capped_at_node_count(self):
        table = erdos_renyi_gnm(15, 30, seed=1)
        scored = HighSalienceSkeleton(roots=10_000).score(table)
        expected = reference_salience_scores(table)
        assert np.array_equal(np.sort(scored.score),
                              np.sort(expected.score))

    def test_invalid_roots_rejected(self):
        with pytest.raises(ValueError):
            HighSalienceSkeleton(roots=0)

    def test_workers_do_not_change_scores(self):
        table = erdos_renyi_gnm(30, 70, seed=4)
        serial = HighSalienceSkeleton().score(table)
        forked = HighSalienceSkeleton(workers=2).score(table)
        assert np.array_equal(serial.score, forked.score)


class TestParallelHelpers:
    def test_resolve_workers(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(0) == 1
        assert resolve_workers(1) == 1
        assert resolve_workers(3) == 3
        assert resolve_workers(-1) >= 1

    def test_chunked(self):
        assert [list(c) for c in chunked(list(range(5)), 2)] \
            == [[0, 1], [2, 3], [4]]
        assert chunked([], 3) == []

    def test_parallel_map_serial_matches(self):
        items = list(range(6))
        assert parallel_map(_square, items) == [x * x for x in items]

    def test_parallel_map_with_workers(self):
        items = list(range(6))
        assert parallel_map(_square, items, workers=2) \
            == [x * x for x in items]


def _square(x):
    return x * x
