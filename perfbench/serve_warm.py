"""``serve_warm``: a warmed ``repro serve`` daemon under two closed-loop
clients.

Every plan is scored during set-up, so timed requests do no scoring:
they pay for re-parsing, compiling, ranking, the admission window and
HTTP. Each client sends one single-plan request at a time, taking the
next entry of a fixed schedule over two sources.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from typing import Dict, List, Optional

import harness
import inputs
from phase import Phase
from probes import SCORED_CODES

#: Source sizes: A is Fig. 4's complete noisy graph over BA(N_A, 3),
#: B a sparse directed heavy-tailed graph.
N_A = 1000
B_NODES, B_ROWS = 5000, 250_000

CLIENTS = 2
SHARES = (0.01, 0.05, 0.1, 0.2)
DELTAS = (1.0, 1.64, 2.32)
DEADLINE_S = 60.0


def schedule(sources) -> list:
    """NC and DF at each share, then NC at each delta, per source."""
    from repro.flow import flow

    plans = []
    for source in sources:
        base = flow(source.path, directed=source.directed)
        for code in ("NC", "DF"):
            plans.extend(base.method(code).budget(share=share)
                         for share in SHARES)
        plans.extend(base.method("NC", delta=delta) for delta in DELTAS)
    return plans


class ServeWarm:
    name = "serve_warm"

    def __init__(self, ctx: harness.Context):
        self.ctx = ctx
        self.daemon: Optional[harness.Server] = None

    # -- set-up --------------------------------------------------------

    def setup(self) -> None:
        from repro.flow import flow, serve
        from repro.graph.ingest import read_edges
        from repro.serve import ServeClient

        ctx = self.ctx
        a = inputs.source_a(ctx.workdir, ctx.seed, N_A)
        b = inputs.source_directed("B", ctx.workdir, ctx.seed + 1,
                                   B_NODES, B_ROWS)
        self.sources = [a, b]
        plans = schedule(self.sources)
        self.artifacts = [plan.to_json(indent=None) for plan in plans]
        self.rows = [source.rows for source in self.sources
                     for _ in range(len(plans) // 2)]
        truth_plan = flow(a.path, directed=False).method("NC").budget(
            n_edges=a.truth_edges)
        *results, truth = serve(plans + [truth_plan])
        self.expected = [(r.backbone.m, r.cache_key) for r in results]
        self.precision = inputs.precision(truth.backbone,
                                          read_edges(a.truth_path))

        self.daemon = harness.start_daemon(ctx)
        self.client = ServeClient(port=self.daemon.port,
                                  timeout=DEADLINE_S)
        # One plan per source and method scores every cache key the
        # schedule uses (NC's delta and all budgets are extraction-only).
        warm = [index for index, plan in enumerate(plans)
                if plan.budget_spec is not None
                and plan.budget_spec.share == SHARES[0]]
        reply = self.client.run([self.artifacts[i] for i in warm],
                                deadline=DEADLINE_S)
        if not self._all_match(reply["results"], warm):
            raise RuntimeError("daemon warm-up answers differ from the "
                               "in-process reference")

    def teardown(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None

    def record(self) -> Dict[str, object]:
        return {"sources": [s.record() for s in self.sources],
                "clients": CLIENTS, "plans": len(self.artifacts)}

    # -- measurement -----------------------------------------------------

    def measure(self, seconds: float, traced: bool) -> Phase:
        before = self._counters() if traced else None
        self.daemon.reset_peak_rss()
        phase = Phase()
        artifacts: List[dict] = []
        cursor = itertools.count()
        lock = threading.Lock()
        stop_at = time.perf_counter() + seconds

        def client_loop():
            while time.perf_counter() < stop_at:
                with lock:
                    index = next(cursor) % len(self.artifacts)
                start = time.perf_counter()
                try:
                    reply = self.client.run([self.artifacts[index]],
                                            deadline=DEADLINE_S,
                                            trace=traced)
                    ok = self._all_match(reply["results"], [index])
                except Exception:  # any failed request counts as failed
                    reply, ok = {}, False
                end = time.perf_counter()
                with lock:
                    phase.add(start, end, self.rows[index], ok)
                    if traced and "trace" in reply:
                        artifacts.append(reply["trace"])

        threads = [threading.Thread(target=client_loop)
                   for _ in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        phase.peak_rss_bytes = self.daemon.peak_rss_bytes()
        if traced:
            phase.layers = self._layers(phase, artifacts, before,
                                        self._counters())
            phase.zero_work = phase.layers
        return phase

    def _all_match(self, results, indexes) -> bool:
        return len(results) == len(indexes) and all(
            result.get("ok") and (result["backbone"]["m"],
                                  result["cache_key"]) ==
            self.expected[index]
            for result, index in zip(results, indexes))

    # -- per-layer readout ---------------------------------------------

    def _counters(self) -> Dict[str, float]:
        """Daemon counters and histogram sums from /v1/status and
        /v1/metrics."""
        from repro.obs.export import parse_prometheus

        status = self.client.status()
        series = parse_prometheus(self.client.metrics())
        out = {f"daemon.{k}": float(v)
               for k, v in status["daemon"].items()
               if isinstance(v, (int, float))}
        out["store.hits"] = float(status["store"]["hits"])
        out["store.misses"] = float(status["store"]["misses"])
        out["store.puts"] = float(status["store"]["puts"])
        for hist in ("queue_wait", "batch_exec", "request"):
            name = f"repro_daemon_{hist}_seconds"
            out[f"{hist}.sum"] = series[f"{name}_sum"][()]
            out[f"{hist}.count"] = series[f"{name}_count"][()]
        out["kv.retries"] = sum(
            series.get("repro_kv_retries_total", {}).values())
        return out

    def _layers(self, phase: Phase, artifacts, before, after
                ) -> Dict[str, float]:
        """Per-request layer metrics from the trace artifacts (one per
        batch; coalesced requests share theirs) and counter deltas."""
        from repro.backbones.registry import get_method

        delta = {key: after[key] - before.get(key, 0.0) for key in after}
        requests = phase.attempted
        batches = {a["trace_id"]: a["spans"] for a in artifacts}
        spans = [s for batch in batches.values() for s in batch]
        by_name: Dict[str, List[dict]] = defaultdict(list)
        for item in spans:
            by_name[item["name"]].append(item)
        children = defaultdict(list)
        for item in spans:
            children[item["parent_id"]].append(item)

        def busy(name):
            return sum(s["duration_s"] for s in by_name[name])

        parses = by_name["ingest.parse"]
        parse_s = busy("ingest.parse")
        plans = sum(s["attributes"].get("plans", 0)
                    for s in by_name["serve.batch"])
        codes = {get_method(code).name: code
                 for code in SCORED_CODES}
        score_busy = defaultdict(float)
        for item in by_name["score"]:
            lookups = [c for c in children[item["span_id"]]
                       if c["name"] == "store.get"]
            if any(c["attributes"].get("outcome") == "miss"
                   for c in lookups):
                code = codes.get(item["attributes"].get("method"), "?")
                score_busy[code] += item["duration_s"]
        lookups = delta["store.hits"] + delta["store.misses"]
        served = delta["request.count"]

        def per_request(value):
            return value / requests

        return {
            "ingest.calls": per_request(len(parses)),
            "ingest.busy_s": per_request(parse_s),
            "ingest.rows_per_s": (sum(s["attributes"].get("rows", 0)
                                      for s in parses) / parse_s
                                  if parse_s else 0.0),
            # compile's own time: in the warm daemon, source hashing
            # and cache-key derivation.
            "fingerprint.busy_s": per_request(busy("flow.compile")
                                              - parse_s),
            "compile.busy_s": per_request(busy("flow.compile")),
            "compile.parses_per_plan": len(parses) / plans if plans
            else 0.0,
            "score.calls": per_request(delta["store.misses"]),
            **{f"score.{code}.busy_s": per_request(score_busy[code])
               for code in SCORED_CODES},
            "store.get.calls": per_request(len(by_name["store.get"])),
            "store.get.busy_s": per_request(busy("store.get")),
            "store.put.calls": per_request(delta["store.puts"]),
            "store.put.busy_s": per_request(busy("store.put")),
            "store.hit_ratio": (delta["store.hits"] / lookups
                                if lookups else 0.0),
            "net.requests": per_request(len(by_name["net.request"])),
            "net.busy_s": per_request(busy("net.request")),
            "net.retries": per_request(delta["kv.retries"]),
            "extract.calls": per_request(len(by_name["plan.extract"])),
            "extract.busy_s": per_request(busy("plan.extract")),
            "admission.wait_s": delta["queue_wait.sum"] / served,
            "batch.exec_s": delta["batch_exec.sum"]
            / delta["batch_exec.count"],
            "batch.requests_per_batch": delta["daemon.requests"]
            / delta["daemon.batches"],
            "batch.coalesced_ratio": delta["daemon.coalesced_batches"]
            / delta["daemon.batches"],
            "http.overhead_s": (sum(phase.latencies) / requests
                                - delta["request.sum"] / served),
        }
