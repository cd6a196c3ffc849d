"""The process-wide parsed-table cache in :mod:`repro.flow.compile`.

Warm batches hash their sources but never re-parse them: the parsed
table is kept under the source fingerprint (file bytes plus parse
options), bounded in bytes, shared read-only across batches, and
counted in the process-wide metrics registry.
"""

import shutil
import sys
import threading

import numpy as np
import pytest

from repro.flow import FileSource, compile_plans, flow, serve
from repro.flow import compile as flow_compile
from repro.graph.edge_table import EdgeTable
from repro.graph.ingest import read_edges, write_edges
from repro.obs import TRACER, get_registry, parse_prometheus, trace
from repro.serve import BackboneDaemon, ServeClient
from repro.serve.client import collect_results


def random_table(seed=0, n_nodes=30, n_edges=160, directed=False):
    rng = np.random.default_rng(seed)
    return EdgeTable(rng.integers(0, n_nodes, n_edges),
                     rng.integers(0, n_nodes, n_edges),
                     rng.integers(1, 60, n_edges).astype(float),
                     n_nodes=n_nodes, directed=directed)


def write(path, seed=0, **kwargs):
    write_edges(random_table(seed, **kwargs), path)
    return str(path)


def nc_plan(source, **kwargs):
    return flow(source, **kwargs).method("NC", delta=1.64) \
        .budget(share=0.2)


def traced(fn):
    """``(fn(), number of ingest.parse spans it recorded)``."""
    with trace("test") as root:
        out = fn()
    spans = TRACER.pop(root.trace_id)
    return out, sum(s.name == "ingest.parse" for s in spans)


def counters():
    """(hits, misses, evictions) of the process-wide series."""
    registry = get_registry()
    return tuple(registry.get(f"repro_table_cache_{name}_total").value()
                 for name in ("hits", "misses", "evictions"))


def resident_bytes():
    return get_registry().get("repro_table_cache_bytes").value()


def same_backbone(a, b):
    return (np.array_equal(a.src, b.src) and np.array_equal(a.dst, b.dst)
            and np.array_equal(a.weight, b.weight)
            and a.n_nodes == b.n_nodes)


@pytest.fixture(autouse=True)
def empty_cache():
    flow_compile.clear_table_cache()
    yield
    flow_compile.clear_table_cache()


class TestWarmResolution:
    def test_second_serve_parses_nothing(self, tmp_path):
        path = write(tmp_path / "edges.csv")
        before = counters()
        (first,), cold = traced(lambda: serve([nc_plan(path)]))
        (second,), warm = traced(lambda: serve([nc_plan(path)]))
        assert (cold, warm) == (1, 0)
        assert same_backbone(first.backbone, second.backbone)
        assert first.cache_key == second.cache_key
        assert second.table is first.table  # the cached table itself
        hits, misses, evictions = counters()
        assert (hits - before[0], misses - before[1]) == (1, 1)
        assert evictions == before[2]

    def test_same_bytes_at_another_path_hit(self, tmp_path):
        path = write(tmp_path / "edges.csv")
        copy = tmp_path / "elsewhere" / "copy.csv"
        copy.parent.mkdir()
        shutil.copyfile(path, copy)
        (first,) = serve([nc_plan(path)])
        hits = counters()[0]
        (second,), parses = traced(lambda: serve([nc_plan(str(copy))]))
        assert parses == 0 and counters()[0] == hits + 1
        assert same_backbone(first.backbone, second.backbone)

    def test_rewritten_file_misses_and_serves_the_new_table(
            self, tmp_path):
        path = write(tmp_path / "edges.csv", seed=1)
        serve([nc_plan(path)])
        write(path, seed=2)
        (result,), parses = traced(lambda: serve([nc_plan(path)]))
        assert parses == 1
        (expected,) = serve([nc_plan(read_edges(path))])
        assert same_backbone(result.backbone, expected.backbone)

    def test_changed_directedness_misses(self, tmp_path):
        path = write(tmp_path / "edges.csv", seed=3, directed=True)
        (directed,) = serve([nc_plan(path, directed=True)])
        (undirected,), parses = traced(
            lambda: serve([nc_plan(path, directed=False)]))
        assert parses == 1
        assert directed.table.directed and not undirected.table.directed
        reference = read_edges(path, directed=False)
        (expected,) = serve([nc_plan(reference)])
        assert same_backbone(undirected.backbone, expected.backbone)
        assert undirected.cache_key == expected.cache_key

    def test_changed_delimiter_misses(self, tmp_path):
        path = tmp_path / "edges.tsv"
        write_edges(random_table(4), path, delimiter="\t")
        misses = counters()[1]
        with pytest.raises(ValueError, match="expected 3 fields"):
            nc_plan(str(path), directed=False).run()
        (result,), parses = traced(lambda: serve(
            [nc_plan(str(path), directed=False, delimiter="\t")]))
        assert result.ok and parses == 1
        assert counters()[1] == misses + 2
        (expected,) = serve([nc_plan(
            read_edges(path, directed=False, delimiter="\t"))])
        assert same_backbone(result.backbone, expected.backbone)

    def test_parse_error_caches_nothing(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("src,dst,weight\n0,1,not-a-number\n")
        plan = nc_plan(str(path))
        with pytest.raises(ValueError):
            plan.run()
        assert resident_bytes() == 0 and not flow_compile._TABLE_CACHE
        with pytest.raises(ValueError):
            plan.run()  # parsed (and failed) again, not served stale

    def test_table_and_streamed_sources_bypass_the_cache(self, tmp_path):
        before = counters()
        serve([nc_plan(random_table(5))])
        path = write(tmp_path / "edges.csv", seed=5)
        (streamed,) = serve([flow(path, streaming=True)
                             .method("NC", delta=1.64)
                             .budget(share=0.2)])
        assert streamed.ok and streamed.table is None
        assert counters() == before and not flow_compile._TABLE_CACHE


class TestByteCap:
    def test_lru_eviction_under_a_shrunken_cap(self, tmp_path,
                                               monkeypatch):
        paths = [write(tmp_path / f"e{seed}.csv", seed=seed)
                 for seed in range(3)]
        sizes = [flow_compile._table_nbytes(read_edges(p))
                 for p in paths]
        # Room for the two most recent tables, never all three.
        monkeypatch.setattr(flow_compile, "TABLE_CACHE_BYTES",
                            sum(sizes) - min(sizes) // 2)
        evictions = counters()[2]
        serve([nc_plan(paths[0])])
        serve([nc_plan(paths[1])])
        serve([nc_plan(paths[0])])  # hit: freshens paths[0]
        serve([nc_plan(paths[2])])  # evicts paths[1], the LRU entry
        assert counters()[2] == evictions + 1
        assert len(flow_compile._TABLE_CACHE) == 2
        assert resident_bytes() == sizes[0] + sizes[2]
        _, parses = traced(lambda: serve([nc_plan(paths[0])]))
        assert parses == 0
        _, parses = traced(lambda: serve([nc_plan(paths[1])]))
        assert parses == 1

    def test_table_larger_than_the_cap_is_not_kept(self, tmp_path,
                                                   monkeypatch):
        path = write(tmp_path / "edges.csv")
        size = flow_compile._table_nbytes(read_edges(path))
        monkeypatch.setattr(flow_compile, "TABLE_CACHE_BYTES", size - 1)
        (result,) = serve([nc_plan(path)])
        assert result.ok
        assert not flow_compile._TABLE_CACHE and resident_bytes() == 0
        _, parses = traced(lambda: serve([nc_plan(path)]))
        assert parses == 1

    def test_labels_count_towards_the_bytes(self, tmp_path):
        table = random_table(6)
        labels = tuple(f"node-{i}" for i in range(table.n_nodes))
        labelled = EdgeTable(table.src, table.dst, table.weight,
                             n_nodes=table.n_nodes, directed=False,
                             labels=labels)
        path = tmp_path / "labelled.npz"
        write_edges(labelled, path)
        serve([nc_plan(str(path))])
        columns = 3 * 8 * labelled.m
        assert resident_bytes() > columns
        assert resident_bytes() == flow_compile._table_nbytes(labelled)


class TestSharedTablesAreReadOnly:
    def test_writes_to_a_cached_table_raise(self, tmp_path):
        path = write(tmp_path / "edges.csv")
        (result,) = serve([nc_plan(path)])
        for column in (result.table.src, result.table.dst,
                       result.table.weight):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0
        (again,) = serve([nc_plan(path)])
        assert same_backbone(result.backbone, again.backbone)

    def test_caller_owned_tables_stay_writable(self, tmp_path):
        # Only file tables resolved by the compile step are frozen.
        path = write(tmp_path / "edges.csv")
        serve([nc_plan(path)])
        table = FileSource(path).resolve()
        table.weight[0] = 1.0
        (result,) = serve([nc_plan(table)])
        assert result.ok and result.table.weight.flags.writeable


class TestObservability:
    def test_series_render_in_the_global_registry(self, tmp_path):
        path = write(tmp_path / "edges.csv")
        serve([nc_plan(path)])
        serve([nc_plan(path)])
        series = parse_prometheus(get_registry().render())
        for name in ("repro_table_cache_hits_total",
                     "repro_table_cache_misses_total",
                     "repro_table_cache_evictions_total"):
            assert name in series
        (value,) = series["repro_table_cache_bytes"].values()
        assert value == flow_compile._table_nbytes(read_edges(path)) > 0


class TestDaemon:
    def test_warm_request_over_csv_is_identical_without_parsing(
            self, tmp_path):
        path = write(tmp_path / "edges.csv", seed=7)
        plans = [nc_plan(path).to_json(),
                 flow(path).method("DF").budget(share=0.1).to_json()]
        with BackboneDaemon(port=0, batch_window=0.01) as daemon:
            client = ServeClient(port=daemon.port)
            cold = collect_results(client.run(plans, return_edges=True))
            hits = counters()[0]
            reply = client.run(plans, trace=True, return_edges=True)
            scrape = parse_prometheus(client.metrics())
        warm = collect_results(reply)
        parses = [s for s in reply["trace"]["spans"]
                  if s["name"] == "ingest.parse"]
        assert parses == []
        assert counters()[0] > hits
        assert sum(scrape["repro_table_cache_hits_total"].values()) \
            == counters()[0]
        assert all(slot["ok"] for slot in cold + warm)
        for before, after in zip(cold, warm):
            for field in ("cache_key", "backbone", "edges"):
                assert after[field] == before[field]


class TestConcurrency:
    def test_threads_keep_the_byte_accounting_exact(self, tmp_path,
                                                    monkeypatch):
        paths = [write(tmp_path / f"e{seed}.csv", seed=seed)
                 for seed in range(4)]
        expected = [read_edges(p) for p in paths]
        sizes = [flow_compile._table_nbytes(t) for t in expected]
        # Room for about two tables, so threads race on eviction too.
        monkeypatch.setattr(flow_compile, "TABLE_CACHE_BYTES",
                            sum(sorted(sizes)[-2:]))
        before = counters()
        rounds, workers = 12, 6
        errors = []

        def resolve(worker):
            try:
                for step in range(rounds):
                    index = (worker + step) % len(paths)
                    (item,) = compile_plans([nc_plan(paths[index])],
                                            None)
                    assert item.table == expected[index]
            except Exception as error:  # surfaced by the main thread
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=resolve, args=(w,))
                       for w in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        held = sum(size for _, size in flow_compile._TABLE_CACHE.values())
        assert flow_compile._TABLE_CACHE_TOTAL == held
        assert resident_bytes() == held
        assert held <= flow_compile.TABLE_CACHE_BYTES
        hits, misses, _ = counters()
        assert (hits - before[0]) + (misses - before[1]) \
            == rounds * workers
