"""``stream_large``: streamed requests over the large directed source C.

Each request is NC and DF at shares 0.01 and 0.1 — four plans sharing
one stream — run with ``streaming=True`` in a fresh child process, so
the request's peak RSS is its own. The stream's block and spill-run
sizes are set small enough that C spills several sorted runs and the
external merge does real work. Every streamed backbone must be
bit-identical to the in-memory path's.
"""

from __future__ import annotations

import time
from typing import Dict

import harness
import inputs
from child import add_layers, table_digest
from phase import Phase
from probes import layer_metrics

C_NODES, C_ROWS = 15_000, 600_000
PLANS = (("NC", 0.01), ("NC", 0.1), ("DF", 0.01), ("DF", 0.1))

#: Stream geometry: C_ROWS / RUN_ROWS sorted runs to merge.
STREAM_ENV = {"REPRO_STREAM_BLOCK_ROWS": str(1 << 15),
              "REPRO_STREAM_RUN_ROWS": str(1 << 17)}


class StreamLarge:
    name = "stream_large"

    def __init__(self, ctx: harness.Context):
        self.ctx = ctx

    def setup(self) -> None:
        from repro.flow import flow, serve
        from repro.graph.ingest import read_edges
        from repro.pipeline import ScoreStore

        ctx = self.ctx
        self.source = inputs.source_directed("C", ctx.workdir, ctx.seed,
                                             C_NODES, C_ROWS)
        base = flow(self.source.path, directed=True, streaming=False)
        store = ScoreStore()
        results = serve([base.method(code).budget(share=share)
                         for code, share in PLANS], store=store)
        self.expect = [table_digest(r.backbone) for r in results]
        truth_plan = base.method("NC").budget(
            n_edges=self.source.truth_edges)
        self.precision = inputs.precision(
            truth_plan.run(store=store).backbone,
            read_edges(self.source.truth_path))

    def teardown(self) -> None:
        pass

    def record(self) -> Dict[str, object]:
        return {"sources": [self.source.record()],
                "plans": [list(plan) for plan in PLANS],
                "stream_env": STREAM_ENV}

    def measure(self, seconds: float, traced: bool) -> Phase:
        phase = Phase()
        totals: Dict[str, Dict[str, float]] = {}
        retries = 0.0
        stop_at = time.perf_counter() + seconds
        while time.perf_counter() < stop_at:
            reply = harness.run_child(self.ctx, {
                "mode": "stream", "source": self.source.path,
                "directed": True, "plans": PLANS, "env": STREAM_ENV,
                "trace": traced, "expect": self.expect,
            }, timeout=harness.CHILD_SLACK_S)
            (start, end), = reply["intervals"]
            phase.add(start, end, self.source.rows, reply["ok"][0])
            phase.peak_rss_bytes = max(phase.peak_rss_bytes,
                                       reply["peak_rss_bytes"])
            retries += reply["kv_retries"]
            add_layers(totals, reply["layers"], {})
        if traced:
            phase.layers = layer_metrics(
                {"layers": totals, "plans": len(PLANS),
                 "kv_retries": retries}, phase.attempted)
            phase.layers["stream.peak_rss_bytes"] = float(
                phase.peak_rss_bytes)
        return phase
