"""``sweep_kv``: an NC/NCp/DF share sweep over source A through
``flow.serve``, on ``ScoreStore``s backed by a ``repro net serve`` KV
server in its own process.

Each request is a pair of sweeps. The KV server is emptied first,
outside the timing. The **cold** sweep then parses, fingerprints,
scores three times, writes three entries over the socket and ranks.
The **shared** sweep opens a fresh store on the same server, as a
second replica would, and parses, reads three entries and ranks. The
two halves are also reported on their own (``cold_sweep_s``,
``shared_sweep_s``).

The sweeps run in a child process (``child.py``) whose peak RSS is
the workload's; both halves must equal an in-memory reference sweep.
"""

from __future__ import annotations

from statistics import median
from typing import Dict, Optional

import harness
import inputs
from child import SWEEP_METHODS, series_json, sweep_plans_for
from phase import Phase
from probes import layer_metrics

#: A is Fig. 4's complete noisy graph over BA(N_A, 3).
N_A = 1000

class SweepKV:
    name = "sweep_kv"

    def __init__(self, ctx: harness.Context):
        self.ctx = ctx
        self.kv: Optional[harness.Server] = None

    def setup(self) -> None:
        from repro.flow import flow, fold_sweep, serve
        from repro.graph.ingest import read_edges
        from repro.pipeline import ScoreStore

        ctx = self.ctx
        self.source = inputs.source_a(ctx.workdir, ctx.seed, N_A)
        methods, plans = sweep_plans_for(self.source.path)
        store = ScoreStore()
        self.expect = series_json(fold_sweep(methods,
                                             serve(plans, store=store)))
        truth_plan = flow(self.source.path, directed=False).method(
            "NC").budget(n_edges=self.source.truth_edges)
        self.precision = inputs.precision(
            truth_plan.run(store=store).backbone,
            read_edges(self.source.truth_path))
        self.kv = harness.start_kv(ctx)

    def teardown(self) -> None:
        if self.kv is not None:
            self.kv.stop()
            self.kv = None

    def record(self) -> Dict[str, object]:
        return {"sources": [self.source.record()],
                "methods": list(SWEEP_METHODS), "metric": "coverage"}

    def measure(self, seconds: float, traced: bool) -> Phase:
        reply = harness.run_child(self.ctx, {
            "mode": "sweep", "source": self.source.path,
            "kv": f"127.0.0.1:{self.kv.port}", "seconds": seconds,
            "trace": traced, "expect": self.expect,
        }, timeout=seconds + harness.CHILD_SLACK_S)
        phase = Phase(peak_rss_bytes=reply["peak_rss_bytes"])
        for (start, end), ok in zip(reply["intervals"], reply["ok"]):
            phase.add(start, end, 2 * self.source.rows, ok)
        phase.halves = {"cold_sweep_s": median(reply["cold_s"]),
                        "shared_sweep_s": median(reply["shared_s"])}
        if traced:
            phase.layers = layer_metrics(reply, phase.attempted)
            phase.layers.update(phase.halves)
            phase.zero_work = layer_metrics(
                dict(reply, layers=reply["shared_layers"]), phase.attempted)
        return phase
