"""The backbone daemon: protocol, coalescing, deadlines, lifecycle.

Spins up real :class:`~repro.serve.BackboneDaemon` instances on
ephemeral ports and talks to them over HTTP with
:class:`~repro.serve.ServeClient` — the exact wire path production
clients use. The headline acceptance test: N concurrent clients
requesting N deltas over one source produce exactly one scoring pass,
verified against the shared store's traffic counters.
"""

import functools
import json
import socket
import threading
import time
from http.server import SimpleHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from repro.cli import main
from repro.flow import flow, serve
from repro.graph.edge_table import EdgeTable
from repro.graph.ingest import write_edges
from repro.pipeline.store import ScoreStore
from repro.serve import (BackboneDaemon, DeadlineExceeded, ServeClient,
                         ServeError)
from repro.serve.client import collect_results
from repro.serve.faults import ChaosMethod, Sleep


def random_table(seed=0, n_nodes=24, n_edges=90):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n_nodes, n_edges)
    dst = rng.integers(0, n_nodes, n_edges)
    weight = rng.integers(1, 60, n_edges).astype(float)
    return EdgeTable(src, dst, weight, n_nodes=n_nodes, directed=False)


@pytest.fixture()
def edges_csv(tmp_path):
    path = tmp_path / "edges.csv"
    write_edges(random_table(), path)
    return path


@pytest.fixture()
def daemon():
    with BackboneDaemon(port=0, batch_window=0.02) as running:
        yield running


@pytest.fixture()
def client(daemon):
    return ServeClient(port=daemon.port)


def http_request(method, path, body=b"", length=None):
    """Raw HTTP/1.1 request bytes that ask the server to close after."""
    length = len(body) if length is None else length
    head = (f"{method} {path} HTTP/1.1\r\nHost: localhost\r\n"
            f"Connection: close\r\nContent-Length: {length}\r\n\r\n")
    return head.encode() + body


def read_reply(sock):
    """Read until the server closes; (status, headers text, body)."""
    chunks = []
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            break
        chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    return int(head.split()[1]), head.decode("latin-1").lower(), body


def raw_exchange(port, request):
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=10.0) as sock:
        sock.sendall(request)
        return read_reply(sock)


def wait_for(predicate, timeout=5.0):
    give_up = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > give_up:
            return False
        time.sleep(0.005)
    return True


@pytest.fixture()
def foreign_server(tmp_path):
    """A stdlib file server: speaks HTTP, but not the daemon's JSON."""
    (tmp_path / "healthz").write_text("ok")

    class Quiet(SimpleHTTPRequestHandler):
        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(
        ("127.0.0.1", 0),
        functools.partial(Quiet, directory=str(tmp_path)))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server.server_address[1]
    server.shutdown()
    server.server_close()


class TestProtocol:
    def test_round_trip_matches_local_run(self, edges_csv, client):
        plan = flow(str(edges_csv)).method("NC", delta=1.5)
        reply = client.run([plan.to_json()])
        assert reply["protocol"] == 1
        (result,) = collect_results(reply)
        local = plan.run()
        assert result["ok"]
        assert result["backbone"]["m"] == local.backbone.m
        assert result["kept_share"] == pytest.approx(local.kept_share)
        assert result["cache_key"] == local.cache_key

    def test_edges_round_trip_bit_identical(self, edges_csv, client):
        plan = flow(str(edges_csv)).method("DF").budget(share=0.2)
        reply = client.run([plan.to_json()], return_edges=True)
        (result,) = reply["results"]
        local = plan.run().backbone
        served = {(u, v): w for u, v, w in result["edges"]}
        expected = {(local.label_of(u), local.label_of(v)): w
                    for u, v, w in local.iter_edges()}
        assert served == expected

    def test_accepts_decoded_artifact_dicts(self, edges_csv, client):
        plan = flow(str(edges_csv)).method("NT").budget(share=0.3)
        reply = client.run([json.loads(plan.to_json())])
        assert reply["results"][0]["ok"]

    def test_malformed_plan_fails_its_slot_only(self, edges_csv, client):
        good = flow(str(edges_csv)).method("NC", delta=1.0)
        reply = client.run([{"garbage": True}, good.to_json()])
        bad_slot, good_slot = reply["results"]
        assert not bad_slot["ok"]
        assert bad_slot["error"]["type"]
        assert good_slot["ok"]

    def test_unreadable_source_fails_its_plans_only(self, edges_csv,
                                                    client):
        missing = flow("/nonexistent/edges.csv").method("NC")
        good = flow(str(edges_csv)).method("NC")
        reply = client.run([missing.to_json(), good.to_json()])
        assert not reply["results"][0]["ok"]
        assert reply["results"][1]["ok"]

    def test_bad_requests_are_400(self, edges_csv, client):
        plan = json.loads(
            flow(str(edges_csv)).method("NT").budget(share=0.3).to_json())
        # Event.wait overflows on an infinite or huge timeout: unbounded
        # deadlines are refused up front, and a huge finite one is
        # clamped, so neither drops the connection mid-request.
        bad_deadlines = [{"plans": [plan], "deadline": x}
                         for x in (float("inf"), float("nan"), -1)]
        for body in (None, [], {"plans": []}, {"plans": "nope"},
                     *bad_deadlines):
            with pytest.raises(ServeError) as info:
                client._call("POST", "/v1/run", body)
            assert info.value.status == 400
        reply = client._call("POST", "/v1/run",
                             {"plans": [plan], "deadline": 1e300})
        assert reply["results"][0]["ok"]
        assert client.healthy()

    def test_unknown_path_is_404(self, client):
        with pytest.raises(ServeError) as info:
            client._call("GET", "/v1/nope")
        assert info.value.status == 404

    def test_healthz(self, client):
        assert client.healthy()

    def test_status_counts_requests(self, edges_csv, client):
        plan = flow(str(edges_csv)).method("NT").budget(share=0.3)
        client.run([plan.to_json()])
        status = client.status()
        assert status["daemon"]["requests"] == 1
        assert status["daemon"]["plans"] == 1
        assert status["daemon"]["batches"] >= 1
        assert not status["degraded"]
        assert status["config"]["batch_window_s"] == pytest.approx(0.02)


class TestCoalescing:
    def test_concurrent_clients_share_one_scoring_pass(self, edges_csv):
        store = ScoreStore()
        deltas = [0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.2]
        with BackboneDaemon(port=0, store=store,
                            batch_window=0.25) as daemon:
            client = ServeClient(port=daemon.port)
            replies = [None] * len(deltas)

            def one(index, delta):
                plan = flow(str(edges_csv)).method("NC", delta=delta)
                replies[index] = client.run([plan.to_json()])

            threads = [threading.Thread(target=one, args=(i, d))
                       for i, d in enumerate(deltas)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert all(r["results"][0]["ok"] for r in replies)
        # NC's delta is extraction-only: every client shares one cache
        # key, so the warm store saw exactly one scoring pass.
        assert store.stats.puts == 1, store.stats.summary()
        assert store.stats.misses == 1
        coalesced = {json.dumps(r["batch"], sort_keys=True)
                     for r in replies}
        assert any(json.loads(b)["clients"] >= 2 for b in coalesced), \
            "at least some requests must have shared a batch"
        # Distinct deltas must still yield their own extractions.
        kept = {r["results"][0]["backbone"]["m"] for r in replies}
        assert len(kept) > 1

    def test_store_stays_warm_across_requests(self, edges_csv, daemon):
        client = ServeClient(port=daemon.port)
        plan = flow(str(edges_csv)).method("NC", delta=1.5)
        client.run([plan.to_json()])
        client.run([plan.to_json()])
        status = client.status()
        assert status["store"]["hits"] >= 1
        assert status["store"]["puts"] == 1


class TestAdmissionWindow:
    def test_lone_request_is_not_held_for_the_window(self, edges_csv):
        plan = flow(str(edges_csv)).method("NT").budget(share=0.3)
        with BackboneDaemon(port=0, batch_window=1.0) as daemon:
            reply = ServeClient(port=daemon.port).run([plan.to_json()],
                                                      trace=True)
        assert reply["results"][0]["ok"]
        assert reply["trace"]["stages"]["admission.wait"] < 0.5

    def test_arriving_connection_holds_window_until_it_closes(
            self, edges_csv):
        window = 0.5
        plan = flow(str(edges_csv)).method("NT").budget(share=0.3)
        with BackboneDaemon(port=0, batch_window=window) as daemon:
            held = socket.create_connection(("127.0.0.1", daemon.port),
                                            timeout=10.0)
            try:
                # Headers sent, body held back: still arriving.
                held.sendall(http_request("POST", "/v1/run", length=64))
                assert wait_for(lambda: daemon._arriving == 1)
                assert "repro_daemon_arriving_requests 1" \
                    in daemon.metrics_text()
                start = time.perf_counter()
                assert daemon.submit([plan])[0].ok
                held_for = time.perf_counter() - start
                # Waited out the window for it, and no longer.
                assert window * 0.9 <= held_for < window + 0.5
            finally:
                held.close()
            assert wait_for(lambda: daemon._arriving == 0)
            start = time.perf_counter()
            assert daemon.submit([plan])[0].ok
            assert time.perf_counter() - start < window / 2
            assert "repro_daemon_arriving_requests 0" \
                in daemon.metrics_text()

    def test_every_first_request_ending_releases_its_arrival(
            self, edges_csv):
        plan = json.loads(
            flow(str(edges_csv)).method("NT").budget(share=0.3).to_json())
        run = json.dumps({"plans": [plan]}).encode()
        bad_deadline = json.dumps({"plans": [plan],
                                   "deadline": -1}).encode()
        cases = [
            (http_request("POST", "/v1/run", run), 200),
            (http_request("POST", "/v1/run", b"{not json"), 400),
            (http_request("POST", "/v1/run", bad_deadline), 400),
            (http_request("GET", "/v1/nope"), 404),
            (http_request("GET", "/healthz"), 200),
            (http_request("PUT", "/v1/run", run), 501),
        ]
        with BackboneDaemon(port=0, batch_window=0.5) as daemon:
            for request, expected in cases:
                # The server closes the connection only after the
                # handler has released its arrival.
                status, _, _ = raw_exchange(daemon.port, request)
                assert status == expected, request
                assert daemon._arriving == 0, request
            # A client that disconnects mid-body.
            with socket.create_connection(("127.0.0.1", daemon.port),
                                          timeout=10.0) as sock:
                sock.sendall(http_request("POST", "/v1/run",
                                          run[:10], length=len(run)))
                assert wait_for(lambda: daemon._arriving == 1)
            assert wait_for(lambda: daemon._arriving == 0)
            # A request whose body lands after shutdown began: 503.
            with socket.create_connection(("127.0.0.1", daemon.port),
                                          timeout=10.0) as sock:
                sock.sendall(http_request("POST", "/v1/run",
                                          length=len(run)))
                assert wait_for(lambda: daemon._arriving == 1)
                stopper = threading.Thread(target=daemon.stop)
                stopper.start()
                assert wait_for(lambda: daemon._stopping)
                sock.sendall(run)
                status, _, body = read_reply(sock)
            stopper.join(timeout=10.0)
            assert status == 503
            assert json.loads(body)["error"]["type"] == "Unavailable"
            assert daemon._arriving == 0


class TestErrorReplies:
    def test_stdlib_errors_use_the_json_error_shape(self, client):
        with pytest.raises(ServeError) as info:
            client._call("PUT", "/v1/run", {"plans": []})
        assert info.value.status == 501
        assert info.value.kind == "NotImplemented"
        # A malformed request line: four words.
        status, head, body = raw_exchange(
            client.port, b"GET /v1/status extra HTTP/1.1\r\n\r\n")
        assert status == 400
        assert "content-type: application/json" in head
        error = json.loads(body)["error"]
        assert error["type"] == "BadRequest"
        assert "Bad request syntax" in error["message"]
        assert client.healthy()

    def test_client_maps_non_json_replies_to_serve_error(
            self, edges_csv, foreign_server):
        foreign = ServeClient(port=foreign_server)
        assert not foreign.healthy()  # 200, but plain text
        plan = flow(str(edges_csv)).method("NT").budget(share=0.3)
        with pytest.raises(ServeError) as info:
            foreign.run([plan.to_json()])  # HTML 501 page
        assert info.value.kind == "Protocol"
        assert info.value.status == 501
        with pytest.raises(ServeError) as info:
            foreign.status()  # HTML 404 page
        assert (info.value.kind, info.value.status) == ("Protocol", 404)
        assert not foreign.shutdown()


class TestDeadlines:
    def test_deadline_expiry_is_504_and_daemon_survives(self, edges_csv):
        table = random_table(3)
        inner = flow(table).method("NT").method_spec.build()
        slow = ChaosMethod(inner, hooks=[Sleep(1.2)])
        with BackboneDaemon(port=0, batch_window=0.01,
                            default_deadline=0.15) as daemon:
            with pytest.raises(DeadlineExceeded):
                daemon.submit([flow(table).method(slow).budget(share=0.5)])
            # The daemon is still healthy and serving.
            client = ServeClient(port=daemon.port)
            assert client.healthy()
            fast = flow(str(edges_csv)).method("NT").budget(share=0.3)
            # deadline=5: the slow batch is still draining, so the
            # default 0.15s would be head-of-line blocked away.
            reply = client.run([fast.to_json()], deadline=5.0)
            assert reply["results"][0]["ok"]
            assert client.status()["daemon"]["deadline_misses"] == 1

    def test_expired_batch_still_warms_the_store(self):
        table = random_table(4)
        store = ScoreStore()
        inner = flow(table).method("NT").method_spec.build()
        slow = ChaosMethod(inner, hooks=[Sleep(0.6)])
        with BackboneDaemon(port=0, store=store, batch_window=0.01,
                            default_deadline=0.1) as daemon:
            plan = flow(table).method(slow).budget(share=0.5)
            with pytest.raises(DeadlineExceeded):
                daemon.submit([plan])
            # The batch keeps running after the client gave up ...
            deadline = threading.Event()
            for _ in range(100):
                if store.stats.puts:
                    break
                deadline.wait(0.05)
            assert store.stats.puts == 1
            # ... so the retry is served from cache, instantly.
            retry = daemon.submit([plan], deadline=5.0)
            assert retry[0].ok
        assert store.stats.hits >= 1

    def test_submit_rejects_unbounded_deadline(self, edges_csv):
        plan = flow(str(edges_csv)).method("NT").budget(share=0.3)
        with BackboneDaemon(port=0, store=ScoreStore()) as daemon:
            for deadline in (float("inf"), float("nan"), -1.0):
                with pytest.raises(ValueError):
                    daemon.submit([plan], deadline=deadline)
            assert daemon.stats.snapshot()["requests"] == 0
            # A huge finite deadline is clamped, not refused.
            assert daemon.submit([plan], deadline=1e300)[0].ok

    def test_queued_ticket_cancelled_after_deadline(self, edges_csv):
        table = random_table(5)
        inner = flow(table).method("NT").method_spec.build()
        slow = flow(table).method(
            ChaosMethod(inner, hooks=[Sleep(0.6)])).budget(share=0.5)
        with BackboneDaemon(port=0, batch_window=0.3,
                            default_deadline=0.01) as daemon:
            # A lone request is not held in the window, so queue the
            # short-deadline ticket behind a slow batch instead.
            background = threading.Thread(
                target=daemon.submit, args=([slow],),
                kwargs={"deadline": 5.0})
            background.start()
            for _ in range(100):
                with daemon._cond:
                    if daemon.stats.requests and not daemon._pending:
                        break
                threading.Event().wait(0.01)
            plan = flow(str(edges_csv)).method("NT") \
                .budget(share=0.3)
            with pytest.raises(DeadlineExceeded):
                daemon.submit([plan])
            background.join()
            for _ in range(100):
                stats = daemon.stats
                if stats.cancelled or stats.batches > 1:
                    break
                threading.Event().wait(0.02)
            assert daemon.stats.cancelled == 1, \
                "an expired queued ticket must be dropped, not served"


class TestLifecycle:
    def test_shutdown_via_http(self, edges_csv):
        daemon = BackboneDaemon(port=0, batch_window=0.01).start()
        client = ServeClient(port=daemon.port)
        assert client.shutdown()
        daemon._stopped.wait(timeout=5.0)
        assert not client.healthy()

    def test_submit_after_stop_is_rejected(self, edges_csv):
        daemon = BackboneDaemon(port=0).start()
        daemon.stop()
        with pytest.raises(RuntimeError, match="shutting down"):
            daemon.submit([flow(str(edges_csv)).method("NT")
                           .budget(share=0.3)])

    def test_context_manager_releases_port(self):
        with BackboneDaemon(port=0) as first:
            port = first.port
        # Reusing the exact port must work once released.
        with BackboneDaemon(port=port) as second:
            assert ServeClient(port=second.port).healthy()

    def test_store_and_cache_dir_are_exclusive(self):
        with pytest.raises(ValueError):
            BackboneDaemon(store=ScoreStore(), cache_dir="/tmp/x")


class TestServeIsolatedEngine:
    """``repro.flow.serve`` isolates every slot; the daemon runs it."""

    def test_non_plan_objects_fail_their_slot(self, edges_csv):
        good = flow(str(edges_csv)).method("NT").budget(share=0.3)
        results = serve(["not a plan", good])
        assert not results[0].ok
        assert isinstance(results[0].error, TypeError)
        assert results[1].ok

    def test_plan_without_method_fails_its_slot(self, edges_csv):
        results = serve([
            flow(str(edges_csv)),
            flow(str(edges_csv)).method("NT").budget(share=0.3)])
        assert not results[0].ok
        assert results[1].ok

    def test_unknown_method_code_fails_per_plan(self, edges_csv):
        from dataclasses import replace

        from repro.flow import MethodSpec
        from repro.flow.plan import Plan
        good = flow(str(edges_csv)).method("NT").budget(share=0.3)
        artifact = json.loads(good.to_json())
        artifact["method"]["code"] = "NOPE"
        with pytest.raises(Exception):
            Plan.from_json(json.dumps(artifact))
        # A spec that slipped past parsing fails its own slot only,
        # as does a parameter the method does not accept.
        unknown = replace(good, method_spec=MethodSpec(code="NOPE"))
        bad_param = flow(str(edges_csv)).method("NT", bogus=1)
        results = serve([unknown, good, bad_param])
        assert [r.ok for r in results] == [False, True, False]

    def test_source_sharing_survives_isolation(self, edges_csv):
        store = ScoreStore()
        plans = [flow(str(edges_csv)).method("NC", delta=d)
                 for d in (1.0, 1.5, 2.0)]
        results = serve(plans + ["junk"], store=store)
        assert [r.ok for r in results] == [True, True, True, False]
        assert store.stats.puts == 1

    def test_bad_slots_fail_alone_in_input_order(self, edges_csv,
                                                 tmp_path):
        missing = flow(str(tmp_path / "missing.csv")).method("NT") \
            .budget(share=0.3)
        good = flow(str(edges_csv)).method("NT").budget(share=0.3)
        inputs = ["not a plan", flow(str(edges_csv)), missing, good]
        results = serve(inputs)
        assert all(r.plan is plan for r, plan in zip(results, inputs))
        assert [r.ok for r in results] == [False, False, False, True]
        assert isinstance(results[2].error, OSError)
        assert results[3].backbone == good.run().backbone

    def test_daemon_and_library_share_one_serve(self, edges_csv,
                                                tmp_path):
        import importlib

        from repro.serve import daemon as daemon_mod
        flow_serve = importlib.import_module("repro.flow.serve")
        assert daemon_mod.serve is flow_serve.serve
        missing = flow(str(tmp_path / "missing.csv")).method("NT") \
            .budget(share=0.3)
        good = flow(str(edges_csv)).method("NT").budget(share=0.3)
        with BackboneDaemon(port=0, batch_window=0.0) as daemon:
            results = daemon.submit([missing, good])
        assert isinstance(results[0].error, OSError)
        assert results[1].ok

    def test_repro_serve_attribute_stays_callable(self, edges_csv):
        # Importing the repro.serve subpackage rebinds the `serve`
        # attribute on the repro package from the flow batch function
        # to the module; both spellings must keep executing batches
        # regardless of which import ran first.
        import repro

        plans = [flow(str(edges_csv)).method("NC", delta=d)
                 for d in (1.0, 2.0)]
        via_attr = repro.serve(plans)
        local = [plan.run() for plan in plans]
        assert [r.backbone.m for r in via_attr] \
            == [r.backbone.m for r in local]


class TestServeCLI:
    def test_parser_accepts_serve_commands(self, capsys):
        from repro.cli import build_parser
        parser = build_parser()
        args = parser.parse_args(["serve", "start", "--port", "0",
                                  "--batch-window", "0.01",
                                  "--deadline", "5"])
        assert args.serve_command == "start"
        assert args.batch_window == pytest.approx(0.01)
        args = parser.parse_args(["serve", "status", "--port", "9"])
        assert args.serve_command == "status"

    def test_status_against_dead_port_fails_cleanly(self, capsys):
        assert main(["serve", "status", "--port", "1"]) == 1
        assert "no daemon" in capsys.readouterr().err

    def test_status_against_foreign_server_fails_cleanly(
            self, capsys, foreign_server):
        assert main(["serve", "status", "--port",
                     str(foreign_server)]) == 1
        assert "no daemon" in capsys.readouterr().err

    def test_shutdown_against_dead_port_fails_cleanly(self, capsys):
        assert main(["serve", "shutdown", "--port", "1"]) == 1
