"""The source-scheme registry and remote flow sources.

Covers the pluggable resolver registry (registration semantics, the
enumerating unsupported-scheme error), ``http(s)://`` fetching over
both the ranged-``206`` path and the whole-body ``200`` fallback,
``kv://host:port/key`` object sources, and the load-bearing parity
property: a remote URL fingerprints identically to a local copy of
the same bytes, so warm caches carry across transports.
"""

import http.server
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.flow import Plan, RemoteSource, flow
from repro.flow.sources import (SourceFetchError, _http_fetch,
                                clear_fetch_cache, is_source_spec,
                                register_scheme, registered_schemes,
                                resolve_url, unregister_scheme,
                                url_filename)
from repro.flow.spec import FileSource, as_source, source_from_json
from repro.graph.edge_table import EdgeTable
from repro.graph.ingest import write_edges
from repro.net import SocketKVServer, put_object
from repro.pipeline import ScoreStore


def random_table(seed=0, n_nodes=25, n_edges=110):
    rng = np.random.default_rng(seed)
    return EdgeTable(rng.integers(0, n_nodes, n_edges),
                     rng.integers(0, n_nodes, n_edges),
                     rng.integers(1, 50, n_edges).astype(float),
                     n_nodes=n_nodes, directed=False)


# ----------------------------------------------------------------------
# A tiny HTTP server: one honouring Range, one ignoring it
# ----------------------------------------------------------------------

class _RangeHandler(http.server.BaseHTTPRequestHandler):
    """Serves ``files[path]`` with real ``206 Partial Content``."""

    files = {}
    range_requests = []
    honour_range = True
    truncate_after = None  # serve at most this many bytes, ever

    def do_GET(self):
        data = self.files.get(self.path)
        if data is None:
            self.send_error(404)
            return
        header = self.headers.get("Range", "")
        if self.honour_range and header.startswith("bytes="):
            type(self).range_requests.append(header)
            start_text, _, end_text = header[6:].partition("-")
            start = int(start_text)
            end = min(int(end_text), len(data) - 1)
            chunk = data[start:end + 1]
            if self.truncate_after is not None:
                chunk = chunk[:max(0, self.truncate_after - start)]
            self.send_response(206)
            self.send_header(
                "Content-Range",
                f"bytes {start}-{start + len(chunk) - 1}/{len(data)}")
            self.send_header("Content-Length", str(len(chunk)))
            self.end_headers()
            self.wfile.write(chunk)
            return
        self.send_response(200)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):  # keep pytest output clean
        pass


@pytest.fixture()
def http_files():
    """``(base_url, handler_class)`` of a fresh threaded HTTP server."""
    handler = type("Handler", (_RangeHandler,),
                   {"files": {}, "range_requests": []})
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    clear_fetch_cache()
    yield f"http://127.0.0.1:{server.server_address[1]}", handler
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    clear_fetch_cache()


# ----------------------------------------------------------------------
# Registry semantics
# ----------------------------------------------------------------------

class TestRegistry:
    def test_builtins_are_registered(self):
        schemes = registered_schemes()
        for scheme in ("file", "http", "https", "kv"):
            assert scheme in schemes
        assert schemes == tuple(sorted(schemes))

    def test_unsupported_scheme_error_enumerates_schemes(self):
        with pytest.raises(ValueError) as info:
            flow("s3://bucket/edges.csv")
        message = str(info.value)
        assert "unsupported source scheme 's3'" in message
        for scheme in registered_schemes():
            assert f"{scheme}://" in message
        assert "register_scheme" in message

    def test_third_party_scheme_flows_end_to_end(self, tmp_path):
        path = tmp_path / "edges.npz"
        write_edges(random_table(1), path)

        def resolver(url, *, directed, delimiter, format):
            return FileSource(path=str(path), directed=directed,
                              delimiter=delimiter, format=format)

        register_scheme("mem", resolver)
        try:
            result = flow("mem://anything").method("nc",
                                                   delta=1.0).run()
            local = flow(path).method("nc", delta=1.0).run()
            assert np.array_equal(result.backbone.weight,
                                  local.backbone.weight)
        finally:
            unregister_scheme("mem")
        with pytest.raises(ValueError, match="unsupported"):
            flow("mem://anything")

    def test_duplicate_registration_needs_replace(self):
        register_scheme("dupe", lambda url, **kw: None)
        try:
            with pytest.raises(ValueError, match="already registered"):
                register_scheme("dupe", lambda url, **kw: None)
            register_scheme("dupe", lambda url, **kw: "second",
                            replace=True)
            assert resolve_url("dupe://x") == "second"
        finally:
            unregister_scheme("dupe")

    def test_bad_scheme_names_rejected(self):
        for name in ("", "9http", "HTTP", "with space", None):
            with pytest.raises(ValueError):
                register_scheme(name, lambda url, **kw: None)
        with pytest.raises(ValueError, match="callable"):
            register_scheme("okname", "not-callable")

    def test_unregister_is_idempotent(self):
        unregister_scheme("never-there")  # no raise

    def test_is_source_spec_duck_typing(self):
        assert is_source_spec(RemoteSource("http://x/y.csv"))
        assert is_source_spec(FileSource(path="x.csv"))
        assert not is_source_spec("http://x/y.csv")
        assert not is_source_spec(object())


# ----------------------------------------------------------------------
# Path objects and custom specs accepted everywhere
# ----------------------------------------------------------------------

class TestAsSource:
    def test_pathlib_path_accepted(self, tmp_path):
        path = tmp_path / "edges.npz"
        write_edges(random_table(2), path)
        via_path = flow(path).method("nc", delta=1.0).run()
        via_str = flow(str(path)).method("nc", delta=1.0).run()
        assert via_path.cache_key == via_str.cache_key

    def test_file_source_coerces_pathlike(self, tmp_path):
        source = FileSource(path=Path("edges.csv"))
        assert source.path == "edges.csv"
        assert isinstance(source.path, str)

    def test_custom_spec_object_passes_through(self, tmp_path):
        path = tmp_path / "edges.npz"
        write_edges(random_table(3), path)

        class MySpec:
            def fingerprint(self):
                return FileSource(path=str(path)).fingerprint()

            def resolve(self):
                return FileSource(path=str(path)).resolve()

            def describe(self):
                return "custom"

        spec = MySpec()
        assert as_source(spec) is spec
        result = flow(spec).method("nc", delta=1.0).run()
        assert result.backbone.m > 0


# ----------------------------------------------------------------------
# HTTP fetching
# ----------------------------------------------------------------------

class TestHttpFetch:
    def test_ranged_download_uses_multiple_chunks(self, tmp_path,
                                                  http_files):
        base, handler = http_files
        payload = bytes(range(256)) * 40
        handler.files["/blob.bin"] = payload
        dest = tmp_path / "blob.bin"
        _http_fetch(f"{base}/blob.bin", dest, chunk_bytes=1000)
        assert dest.read_bytes() == payload
        assert len(handler.range_requests) == 11  # 10240 B / 1000
        assert handler.range_requests[0] == "bytes=0-999"

    def test_200_fallback_when_range_ignored(self, tmp_path,
                                             http_files):
        base, handler = http_files
        handler.honour_range = False
        handler.files["/blob.bin"] = b"x" * 5000
        dest = tmp_path / "blob.bin"
        _http_fetch(f"{base}/blob.bin", dest, chunk_bytes=1000)
        assert dest.read_bytes() == b"x" * 5000
        assert handler.range_requests == []

    def test_short_download_is_an_error_not_silent(self, tmp_path,
                                                   http_files):
        base, handler = http_files
        handler.files["/blob.bin"] = b"y" * 5000
        handler.truncate_after = 1500  # server dies mid-file
        with pytest.raises(SourceFetchError, match="short ranged"):
            _http_fetch(f"{base}/blob.bin", tmp_path / "blob.bin",
                        chunk_bytes=1000)
        assert not (tmp_path / "blob.bin").exists()
        assert not (tmp_path / "blob.bin.part").exists()

    def test_missing_file_raises_fetch_error(self, http_files,
                                             tmp_path):
        base, _ = http_files
        with pytest.raises(SourceFetchError, match="failed to fetch"):
            _http_fetch(f"{base}/nope.csv", tmp_path / "nope.csv")

    def test_unreachable_host_raises_fetch_error(self):
        source = RemoteSource("http://127.0.0.1:9/edges.csv")
        with pytest.raises(SourceFetchError, match="failed to fetch"):
            source.fingerprint()

    def test_fetch_is_spooled_once_until_cache_cleared(self,
                                                       http_files):
        base, handler = http_files
        handler.files["/edges.bin"] = b"first"
        source = RemoteSource(f"{base}/edges.bin")
        first = source.local_path()
        assert first.read_bytes() == b"first"
        handler.files["/edges.bin"] = b"second"
        assert source.local_path() == first  # still the spooled copy
        assert first.read_bytes() == b"first"
        clear_fetch_cache()
        assert source.local_path().read_bytes() == b"second"


# ----------------------------------------------------------------------
# Remote sources end to end: parity with local files
# ----------------------------------------------------------------------

class TestRemoteSources:
    def test_http_source_fingerprints_like_local_file(self, tmp_path,
                                                      http_files):
        base, handler = http_files
        path = tmp_path / "edges.npz"
        write_edges(random_table(4), path)
        handler.files["/edges.npz"] = path.read_bytes()
        remote = RemoteSource(f"{base}/edges.npz", directed=False)
        local = FileSource(path=str(path), directed=False)
        assert remote.fingerprint() == local.fingerprint()
        assert np.array_equal(remote.resolve().weight,
                              local.resolve().weight)

    def test_cache_warmed_locally_serves_remote_url(self, tmp_path,
                                                    http_files):
        base, handler = http_files
        path = tmp_path / "edges.npz"
        write_edges(random_table(5), path)
        handler.files["/edges.npz"] = path.read_bytes()

        store = ScoreStore(str(tmp_path / "cache"))
        local = flow(path).method("nc", delta=1.0).run(store=store)
        assert store.stats.misses >= 1

        warm = ScoreStore(str(tmp_path / "cache"))
        remote = flow(f"{base}/edges.npz").method("nc", delta=1.0) \
            .run(store=warm)
        assert warm.stats.misses == 0
        assert warm.stats.disk_hits >= 1
        assert remote.cache_key == local.cache_key
        assert np.array_equal(remote.backbone.weight,
                              local.backbone.weight)

    def test_kv_object_source(self, tmp_path):
        path = tmp_path / "edges.npz"
        write_edges(random_table(6), path)
        local = flow(path).method("nc", delta=1.0).run()
        clear_fetch_cache()
        with SocketKVServer() as server:
            spec = f"kv://127.0.0.1:{server.port}"
            url = put_object(spec, "edges.npz", path)
            remote = flow(url).method("nc", delta=1.0).run()
            with pytest.raises(SourceFetchError, match="edges.gone"):
                RemoteSource(f"{spec}/edges.gone").fingerprint()
        assert remote.cache_key == local.cache_key

    def test_bad_kv_urls_rejected(self):
        for url in ("kv://hostonly/key", "kv://host:1234",
                    "kv://host:1234/"):
            with pytest.raises(SourceFetchError, match="bad kv"):
                RemoteSource(url).local_path()

    def test_remote_source_needs_a_url(self):
        with pytest.raises(ValueError, match="scheme"):
            RemoteSource("not-a-url")

    def test_remote_plan_json_round_trips(self, http_files):
        base, _ = http_files
        plan = flow(f"{base}/edges.csv", directed=False,
                    delimiter=";").method("nc", delta=2.0)
        clone = Plan.from_json(plan.to_json())
        assert clone.source == plan.source
        assert clone.method_spec == plan.method_spec
        assert clone.to_json() == plan.to_json()
        assert isinstance(clone.source, RemoteSource)
        assert clone.source.delimiter == ";"
        assert not clone.source.directed

    def test_source_json_kinds(self):
        remote = source_from_json({"kind": "remote",
                                   "url": "http://x/e.csv"})
        assert isinstance(remote, RemoteSource)
        assert remote.directed is True  # defaults re-applied
        local = source_from_json({"kind": "file", "path": "e.csv"})
        assert isinstance(local, FileSource)
        with pytest.raises(ValueError):
            source_from_json({"kind": "martian"})

    def test_url_filename(self):
        assert url_filename("http://h/a/b/edges.csv?x=1") \
            == "edges.csv"
        assert url_filename("kv://h:1/edges.npz") == "edges.npz"
        assert url_filename("http://h/") == ""

    def test_describe_mentions_transport(self, tmp_path):
        source = RemoteSource("http://h/edges.csv", directed=False)
        text = source.describe()
        assert "remote" in text
        assert "http://h/edges.csv" in text
        assert "undirected" in text


class TestFetchSpoolLRU:
    """The fetch spool is byte-capped: LRU files are evicted."""

    @pytest.fixture(autouse=True)
    def capped_spool(self, monkeypatch):
        from repro.flow import sources

        def fake_fetch(url, dest, **kwargs):
            size = int(url.rsplit("/", 1)[1])
            dest.write_bytes(b"x" * size)

        monkeypatch.setattr(sources, "_http_fetch", fake_fetch)
        clear_fetch_cache()
        sources.set_fetch_cache_limit(100)
        yield sources
        sources.set_fetch_cache_limit(None)
        clear_fetch_cache()

    def test_lru_eviction_under_byte_cap(self, capped_spool):
        sources = capped_spool
        first = sources._fetch("http://h/60")
        second = sources._fetch("http://h/50")
        assert not first.exists()  # 60+50 > 100: LRU evicted
        assert second.exists()
        assert sources._SPOOL_TOTAL == 50

    def test_hits_freshen_lru_order(self, capped_spool):
        sources = capped_spool
        sources._fetch("http://h/60")
        sources._fetch("http://h/60")  # hit: moves to MRU
        kept = sources._fetch("http://h/30")
        assert "http://h/60" in sources._SPOOLED
        assert kept.exists()
        sources._fetch("http://h/20")  # 60+30+20 > 100: evict 60
        assert "http://h/60" not in sources._SPOOLED
        assert sources._SPOOL_TOTAL == 50

    def test_oversized_fetch_survives_until_next_insert(
            self, capped_spool):
        sources = capped_spool
        big = sources._fetch("http://h/500")
        assert big.exists()  # never evict the file just fetched
        sources._fetch("http://h/10")
        assert not big.exists()
        assert sources._SPOOL_TOTAL == 10

    def test_clear_deletes_spool_files(self, capped_spool):
        sources = capped_spool
        spooled = [sources._fetch("http://h/30"),
                   sources._fetch("http://h/40")]
        clear_fetch_cache()
        # Files of URLs never fetched again must not linger uncounted
        # beyond the byte cap.
        assert not any(path.exists() for path in spooled)
        assert sources._SPOOL_TOTAL == 0 and not sources._SPOOLED

    def test_eviction_refetches_transparently(self, capped_spool):
        sources = capped_spool
        first = sources._fetch("http://h/80")
        sources._fetch("http://h/90")  # evicts the 80
        again = sources._fetch("http://h/80")
        assert again.read_bytes() == b"x" * 80
        assert again == first  # same spool path, refetched bytes

    def test_eviction_counter_increments(self, capped_spool):
        sources = capped_spool
        before = sources._SPOOL_EVICTIONS.value()
        sources._fetch("http://h/70")
        sources._fetch("http://h/80")
        assert sources._SPOOL_EVICTIONS.value() == before + 1

    def test_limit_env_and_setter_precedence(self, capped_spool,
                                             monkeypatch):
        sources = capped_spool
        assert sources.fetch_cache_limit() == 100  # setter in force
        sources.set_fetch_cache_limit(None)
        monkeypatch.setenv("REPRO_FETCH_CACHE_BYTES", "77")
        assert sources.fetch_cache_limit() == 77
        monkeypatch.setenv("REPRO_FETCH_CACHE_BYTES", "junk")
        assert sources.fetch_cache_limit() == \
            sources.DEFAULT_FETCH_CACHE_BYTES
        with pytest.raises(ValueError, match="non-negative"):
            sources.set_fetch_cache_limit(-5)
