"""Client process for the in-process workloads.

``python child.py '<json request>'`` runs one measured job in a fresh
process, so its peak RSS holds nothing from set-up, and prints one
JSON line: request intervals, answer checks, the peak RSS and, when
traced, layer totals.

Modes:

* ``sweep`` — for ``seconds``, repeat a pair of
  ``sweep_plans([NC, NCp, DF], A, "coverage")`` runs through
  ``flow.serve``: a cold one on an emptied ``kv://`` server, then a
  shared one from a fresh store on the same server.
* ``stream`` — one streamed request: every plan over one source with
  ``streaming=True``.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time

SWEEP_METHODS = ("NC", "NCp", "DF")


def table_digest(table) -> str:
    """Hex digest of an edge table's columns, node count and labels."""
    import numpy as np

    digest = hashlib.sha256()
    for array in (table.src, table.dst, table.weight):
        digest.update(np.ascontiguousarray(array).tobytes())
    digest.update(repr((table.n_nodes, table.directed,
                        None if table.labels is None
                        else list(table.labels))).encode())
    return digest.hexdigest()


def series_json(series) -> str:
    """Folded sweep series as canonical JSON (NaN-safe to compare)."""
    return json.dumps({code: [list(s.shares), list(s.values)]
                       for code, s in sorted(series.items())},
                      sort_keys=True)


def sweep_plans_for(path):
    from repro.backbones.registry import get_method
    from repro.flow import flow, sweep_plans

    methods = [get_method(code) for code in SWEEP_METHODS]
    return methods, sweep_plans(methods, flow(path, directed=False),
                                "coverage")


def kv_retries() -> float:
    from repro.obs.export import parse_prometheus, render_prometheus
    from repro.obs.metrics import get_registry

    series = parse_prometheus(render_prometheus([get_registry()]))
    return sum(series.get("repro_kv_retries_total", {}).values())


def flush(transport) -> None:
    """Delete every entry on the KV server."""
    for key in transport.request("keys"):
        transport.request("delete", key=key)


def run_sweep(request, probes, out) -> None:
    """Each request: empty the KV server (untimed), a cold sweep, then
    a shared sweep from a fresh store on the same server."""
    from repro.net import SocketKVTransport

    host, port = request["kv"].rsplit(":", 1)
    spec = f"kv://{request['kv']}"
    methods, plans = sweep_plans_for(request["source"])
    transport = SocketKVTransport(host, int(port))
    out.update(plans=len(plans), cold_s=[], shared_s=[], shared_layers={},
               store={"hits": 0, "lookups": 0})
    stop_at = time.perf_counter() + request["seconds"]
    try:
        while time.perf_counter() < stop_at:
            flush(transport)
            probes.active = True
            start = time.perf_counter()
            cold_ok = one_sweep(spec, methods, plans, request, out)
            middle = time.perf_counter()
            before = probes.snapshot()
            shared_ok = one_sweep(spec, methods, plans, request, out)
            end = time.perf_counter()
            add_layers(out["shared_layers"], probes.snapshot(), before)
            probes.active = False
            out["intervals"].append([start, end])
            out["cold_s"].append(middle - start)
            out["shared_s"].append(end - middle)
            out["ok"].append(cold_ok and shared_ok)
    finally:
        transport.close()


def one_sweep(spec, methods, plans, request, out) -> bool:
    """One sweep on a fresh store; True when it matches the reference."""
    from repro.flow import fold_sweep, serve
    from repro.pipeline import ScoreStore

    store = ScoreStore(spec)
    series = fold_sweep(methods, serve(plans, store=store))
    out["store"]["hits"] += store.stats.hits + store.stats.negative_hits
    out["store"]["lookups"] += store.stats.requests
    return series_json(series) == request["expect"]


def add_layers(into, after, before) -> None:
    """Accumulate the layer totals between two probe snapshots."""
    for layer, stats in after.items():
        into_layer = into.setdefault(layer, {})
        for field, value in stats.items():
            into_layer[field] = (into_layer.get(field, 0.0) + value
                                 - before.get(layer, {}).get(field, 0.0))


def run_stream(request, probes, out) -> None:
    from repro.flow import flow, serve

    os.environ.update(request["env"])
    base = flow(request["source"], directed=request["directed"],
                streaming=True)
    plans = [base.method(code).budget(share=share)
             for code, share in request["plans"]]
    out["plans"] = len(plans)
    probes.active = True
    start = time.perf_counter()
    results = serve(plans)
    end = time.perf_counter()
    probes.active = False
    out["intervals"].append([start, end])
    out["ok"].append([table_digest(r.backbone) for r in results]
                     == request["expect"])


def main(argv) -> int:
    request = json.loads(argv[1])
    from probes import Probes

    out = {"intervals": [], "ok": []}
    probes = Probes() if request["trace"] else Probes.disabled()
    retries = kv_retries()
    with probes:
        if request["mode"] == "sweep":
            run_sweep(request, probes, out)
        else:
            run_stream(request, probes, out)
    out["kv_retries"] = kv_retries() - retries
    out["layers"] = probes.snapshot()
    out["peak_rss_bytes"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss * 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
