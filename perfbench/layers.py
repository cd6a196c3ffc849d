"""Metric catalogue: every metric the benchmark prints, with its unit,
and for each per-layer metric the end-to-end metric it should move.

``BENCHMARK.json`` at the checkout root lists the same names; a later
change that claims a gain on a layer cites the prediction here.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: End-to-end metrics: name -> (unit, better). Every workload reports
#: all of them; "request" is the workload's unit of work (a daemon
#: request, a cold-then-shared pair of sweeps, or a streamed request
#: of four plans).
END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "request_p50_s": ("s", "lower"),
    "requests_per_s": ("1/s", "higher"),
    "rows_per_s": ("rows/s", "higher"),
    "peak_rss_bytes": ("B", "lower"),
    "recovery_precision": ("ratio", "higher"),
}

#: Per-layer metrics: (name, unit, better, prediction). Counts and busy
#: times are per request of the workload; the prediction names the
#: end-to-end metric the layer should move, on which workload, when
#: the layer metric moves in its better direction.
PER_LAYER: List[Tuple[str, str, str, str]] = [
    ("ingest.calls", "calls/req", "lower",
     "request_p50_s on serve_warm (every warm request re-parses); "
     "one parse per sweep on sweep_kv"),
    ("ingest.busy_s", "s/req", "lower",
     "request_p50_s on serve_warm and sweep_kv"),
    ("ingest.rows_per_s", "rows/s", "higher",
     "request_p50_s and requests_per_s on serve_warm"),
    ("fingerprint.busy_s", "s/req", "lower",
     "request_p50_s on sweep_kv (cold half) and serve_warm"),
    ("compile.busy_s", "s/req", "lower",
     "request_p50_s on serve_warm"),
    ("compile.parses_per_plan", "ratio", "lower",
     "request_p50_s on serve_warm (the parse dedupe ratio)"),
    ("score.calls", "calls/req", "lower",
     "request_p50_s on sweep_kv (cold half); predicted 0 on serve_warm "
     "and on sweep_kv's shared half"),
    ("score.NC.busy_s", "s/req", "lower",
     "request_p50_s on sweep_kv (cold half)"),
    ("score.NCp.busy_s", "s/req", "lower",
     "request_p50_s on sweep_kv (cold half)"),
    ("score.DF.busy_s", "s/req", "lower",
     "request_p50_s on sweep_kv (cold half)"),
    ("store.get.calls", "calls/req", "lower",
     "request_p50_s on sweep_kv (shared half)"),
    ("store.get.busy_s", "s/req", "lower",
     "request_p50_s on sweep_kv (shared half)"),
    ("store.put.calls", "calls/req", "lower",
     "request_p50_s on sweep_kv (cold half); predicted 0 on serve_warm "
     "and on sweep_kv's shared half"),
    ("store.put.busy_s", "s/req", "lower",
     "request_p50_s on sweep_kv (cold half)"),
    ("store.hit_ratio", "ratio", "higher",
     "request_p50_s on serve_warm and sweep_kv"),
    ("net.requests", "calls/req", "lower",
     "request_p50_s on sweep_kv (both halves)"),
    ("net.busy_s", "s/req", "lower",
     "request_p50_s on sweep_kv (both halves)"),
    ("net.retries", "calls/req", "lower",
     "request_p50_s on sweep_kv (both halves)"),
    ("extract.calls", "calls/req", "lower",
     "request_p50_s and requests_per_s on serve_warm; request_p50_s "
     "on sweep_kv"),
    ("extract.busy_s", "s/req", "lower",
     "request_p50_s and requests_per_s on serve_warm (one full "
     "ranking per request); request_p50_s on sweep_kv"),
    ("admission.wait_s", "s/req", "lower",
     "request_p50_s on serve_warm"),
    ("batch.exec_s", "s/req", "lower", "request_p50_s on serve_warm"),
    ("batch.requests_per_batch", "ratio", "higher",
     "requests_per_s on serve_warm"),
    ("batch.coalesced_ratio", "ratio", "higher",
     "requests_per_s on serve_warm"),
    ("http.overhead_s", "s/req", "lower", "request_p50_s on serve_warm"),
    ("stream.pass1_s", "s/req", "lower", "rows_per_s on stream_large"),
    ("stream.merge_s", "s/req", "lower", "rows_per_s on stream_large"),
    ("stream.pass2_s", "s/req", "lower", "rows_per_s on stream_large"),
    ("stream.peak_rss_bytes", "B", "lower",
     "peak_rss_bytes on stream_large"),
    ("cold_sweep_s", "s", "lower",
     "request_p50_s on sweep_kv: the cold half of each request"),
    ("shared_sweep_s", "s", "lower",
     "request_p50_s on sweep_kv: the shared half of each request"),
    ("tracing.overhead_s", "s", "lower",
     "none: traced minus untraced request_p50_s in one run"),
    ("predictions.failed", "count", "lower",
     "none: zero-work predictions that did not hold"),
]

#: Zero-work predictions checked in every traced run: workload ->
#: per-layer metrics that must read exactly 0 (on sweep_kv, in the
#: shared half of each request).
ZERO_WORK: Dict[str, Tuple[str, ...]] = {
    "serve_warm": ("score.calls", "store.put.calls"),
    "sweep_kv": ("score.calls", "store.put.calls"),
}
