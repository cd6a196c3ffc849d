"""Tier-2 perf smoke: batched flow requests over one source.

The service regime of ISSUE 5: eight requests for the Noise-Corrected
backbone at eight delta strictnesses over the same edge file. Served
cold one by one, every request pays hash + score + filter (the parse
only once: the compiler's table cache answers the other seven);
served as one ``run_many`` batch, the flow compiler deduplicates the
source resolution and the scoring pass, leaving only the eight
(cheap) delta filters. Asserts:

* the batch is at least 5x faster than the eight cold single runs;
* the batch performs exactly **one** scoring pass — store-verified
  (one miss, one put, one request against the shared store);
* every batched backbone is bit-identical to its cold single run and
  to the legacy ``method.extract`` path.
"""

import numpy as np
from conftest import emit, record_bench

from repro.core.noise_corrected import NoiseCorrectedBackbone
from repro.flow import flow
from repro.graph.edge_table import EdgeTable
from repro.graph.ingest import write_edges
from repro.pipeline import ScoreStore
from repro.util.tables import format_table
from repro.util.timing import time_call

#: Required batched/cold speedup for the eight-delta workload.
MIN_BATCH_SPEEDUP = 5.0

#: Eight strictness settings around the paper's defaults.
DELTAS = (0.5, 1.0, 1.28, 1.64, 2.0, 2.32, 3.0, 4.0)

#: Workload size: scoring and parsing both matter at this scale.
N_NODES, N_EDGES = 3_000, 300_000


def _write_workload(tmp_path):
    rng = np.random.default_rng(7)
    src = rng.integers(0, N_NODES, N_EDGES)
    dst = rng.integers(0, N_NODES, N_EDGES)
    weight = rng.integers(1, 500, N_EDGES).astype(float)
    table = EdgeTable(src, dst, weight, n_nodes=N_NODES, directed=False)
    path = tmp_path / "edges.csv"
    write_edges(table, path)
    return table, str(path)


def _run_both_ways(path):
    # Eight cold singles: fresh plan, no shared store — each request
    # pays hash + score + filter, the "no batching" cost.
    def cold_singles():
        return [flow(path, directed=False).method("NC", delta=delta)
                .run() for delta in DELTAS]

    cold_s, cold = time_call(cold_singles)

    # One batch: everything shared. Best of two fresh batches so a
    # scheduler hiccup can't fail the gate (each uses its own store —
    # both passes are genuinely cold).
    def batch(store):
        return flow(path, directed=False).method("NC") \
            .run_many(store=store, delta=list(DELTAS))

    store_a, store_b = ScoreStore(), ScoreStore()
    batch_a_s, served = time_call(batch, store_a)
    batch_b_s, _ = time_call(batch, store_b)
    batch_s = min(batch_a_s, batch_b_s)
    return cold_s, batch_s, cold, served, store_a


def test_flow_batch_speedup_and_identity(benchmark, tmp_path):
    table, path = _write_workload(tmp_path)
    cold_s, batch_s, cold, served, store = benchmark.pedantic(
        _run_both_ways, args=(path,), rounds=1, iterations=1)

    emit(format_table(
        ("path", "seconds", "per request"),
        [("8 cold single runs", f"{cold_s:.3f}",
          f"{cold_s / len(DELTAS):.3f}"),
         ("1 batched run_many", f"{batch_s:.3f}",
          f"{batch_s / len(DELTAS):.3f}")],
        title=f"NC at {len(DELTAS)} deltas over one "
              f"{N_EDGES}-edge file"))
    emit(store.stats.summary())

    # Store-verified single scoring pass: the whole batch resolves to
    # one score request (deltas are extraction-only).
    assert store.stats.puts == 1, "batch scored more than once"
    assert store.stats.misses == 1 and store.stats.requests == 1, \
        "batch issued more than one score request"

    # Bit identity: batched == cold singles == legacy extract.
    for delta, one, many in zip(DELTAS, cold, served):
        assert many.backbone == one.backbone, \
            f"batched delta={delta} diverged from its cold single run"
    legacy = NoiseCorrectedBackbone(delta=DELTAS[0]).extract(table)
    assert served[0].backbone == legacy, \
        "batched extraction diverged from method.extract"

    speedup = cold_s / batch_s
    record_bench("flow_batch",
                 cold_singles_s=round(cold_s, 4),
                 batched_s=round(batch_s, 4),
                 speedup_batched_over_cold=round(speedup, 2),
                 deltas=len(DELTAS), n_edges=N_EDGES,
                 scoring_passes=store.stats.puts)
    assert speedup >= MIN_BATCH_SPEEDUP, \
        f"batched run_many only {speedup:.1f}x faster than cold " \
        f"singles (need >= {MIN_BATCH_SPEEDUP}x)"
