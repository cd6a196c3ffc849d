"""Layer probes: timing wrappers around each layer's public entry points.

The benchmark measures layers from outside the program. A
:class:`Probes` installs wrappers on the functions (at the module
attribute each caller looks up) and methods that form a layer's
boundary, counts calls and accumulates wall time, and puts every
original back on exit. Only the outermost call of a layer counts, so
a layer entry that re-enters its own layer (``top_share_many``
calling ``top_k_by``) is timed once.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: layer -> (module, attribute[, class]) entry points.
#: ``stream.pass1`` covers ``open_stream``, which includes the merge;
#: :meth:`Probes.snapshot` subtracts ``stream.merge`` from it.
LAYER_ENTRIES: Dict[str, List[Tuple[str, ...]]] = {
    "ingest": [("repro.flow.spec", "read_edges"),
               ("repro.flow.sources", "read_edges")],
    "fingerprint": [("repro.flow.spec", "fingerprint_file"),
                    ("repro.flow.sources", "fingerprint_file"),
                    ("repro.flow.compile", "fingerprint_table"),
                    ("repro.flow.compile", "fingerprint_score_request")],
    "compile": [("repro.flow.serve", "compile_plans")],
    "store.get": [("repro.pipeline.store", "_lookup", "ScoreStore")],
    "store.put": [("repro.pipeline.store", "put", "ScoreStore")],
    "net": [("repro.net.transport", "request", "SocketKVTransport")],
    "extract": [("repro.backbones.base", "top_share_many", "ScoredEdges"),
                ("repro.backbones.base", "top_k", "ScoredEdges"),
                ("repro.backbones.base", "filter", "ScoredEdges"),
                ("repro.graph.edge_table", "top_k_by", "EdgeTable")],
    "stream.pass1": [("repro.flow.compile", "open_stream")],
    "stream.merge": [("repro.stream.pipeline", "merge_runs")],
    "stream.pass2": [("repro.stream", "stream_extract")],
}

#: Scoring methods, probed per registry code.
SCORED_CODES = ("NC", "NCp", "DF")


class Layer:
    """Calls and busy seconds of one layer."""

    def __init__(self):
        self.calls = 0
        self.busy_s = 0.0
        self.rows = 0
        self.depth = 0


class Probes:
    """Install layer wrappers for the duration of a ``with`` block.

    Wrappers count only while :attr:`active` is set, so untimed work
    between requests (emptying the KV server) stays out of the totals.
    """

    def __init__(self, install: bool = True):
        self.install = install
        self.active = False
        self.layers: Dict[str, Layer] = defaultdict(Layer)
        self._undo: List[Callable[[], None]] = []

    @classmethod
    def disabled(cls) -> "Probes":
        """Probes that install nothing (an untraced run)."""
        return cls(install=False)

    def __enter__(self) -> "Probes":
        if not self.install:
            return self
        for layer, entries in LAYER_ENTRIES.items():
            for entry in entries:
                self._wrap(layer, *entry)
        from repro.backbones.registry import get_method

        for code in SCORED_CODES:
            cls = type(get_method(code))
            self._wrap_score(cls)
        return self

    def __exit__(self, *exc_info) -> None:
        while self._undo:
            self._undo.pop()()

    # -- installation ----------------------------------------------------

    def _wrap(self, layer: str, module: str, attr: str,
              cls: Optional[str] = None) -> None:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls)
        self._install(owner, attr, self._timed(layer, vars(owner)[attr]))

    def _wrap_score(self, cls) -> None:
        original = vars(cls)["score"]
        probes = self

        @functools.wraps(original)
        def score(method, table):
            if not probes.active:
                return original(method, table)
            stats = probes.layers[f"score.{method.code}"]
            stats.depth += 1
            start = time.perf_counter()
            try:
                return original(method, table)
            finally:
                stats.depth -= 1
                if stats.depth == 0:
                    stats.calls += 1
                    stats.busy_s += time.perf_counter() - start

        self._install(cls, "score", score)

    def _timed(self, layer: str, original):
        stats = self.layers[layer]
        probes = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if stats.depth or not probes.active:
                return original(*args, **kwargs)
            stats.depth += 1
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                stats.depth -= 1
                stats.calls += 1
                stats.busy_s += time.perf_counter() - start
            if layer == "ingest":
                stats.rows += int(result.m)
            return result

        return wrapper

    def _install(self, owner, attr: str, replacement) -> None:
        previous = vars(owner)[attr]
        setattr(owner, attr, replacement)
        self._undo.append(lambda: setattr(owner, attr, previous))

    # -- readout -----------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """``{layer: {calls, busy_s, rows}}``; pass 1 net of the merge."""
        out = {name: {"calls": layer.calls, "busy_s": layer.busy_s,
                      "rows": layer.rows}
               for name, layer in self.layers.items()}
        if "stream.pass1" in out and "stream.merge" in out:
            out["stream.pass1"]["busy_s"] -= out["stream.merge"]["busy_s"]
        return out


def layer_metrics(reply, requests: int) -> Dict[str, float]:
    """Per-request layer metrics from a child's reply: its probe
    totals (``layers``), plans per request, store and KV counts."""
    layers = reply["layers"]

    def get(layer, field):
        return layers.get(layer, {}).get(field, 0.0)

    def per_request(value):
        return value / requests

    ingest_s = get("ingest", "busy_s")
    store = reply.get("store", {})
    out = {
        "ingest.calls": per_request(get("ingest", "calls")),
        "ingest.busy_s": per_request(ingest_s),
        "ingest.rows_per_s": (get("ingest", "rows") / ingest_s
                              if ingest_s else 0.0),
        "fingerprint.busy_s": per_request(get("fingerprint", "busy_s")),
        "compile.busy_s": per_request(get("compile", "busy_s")),
        "compile.parses_per_plan": (
            (get("ingest", "calls") + get("stream.pass1", "calls"))
            / (reply["plans"] * requests)),
        "score.calls": per_request(sum(
            get(f"score.{code}", "calls") for code in SCORED_CODES)),
        "store.get.calls": per_request(get("store.get", "calls")),
        "store.get.busy_s": per_request(get("store.get", "busy_s")),
        "store.put.calls": per_request(get("store.put", "calls")),
        "store.put.busy_s": per_request(get("store.put", "busy_s")),
        "store.hit_ratio": (store["hits"] / store["lookups"]
                            if store.get("lookups") else 0.0),
        "net.requests": per_request(get("net", "calls")),
        "net.busy_s": per_request(get("net", "busy_s")),
        "net.retries": per_request(reply["kv_retries"]),
        "extract.calls": per_request(get("extract", "calls")),
        "extract.busy_s": per_request(get("extract", "busy_s")),
        "stream.pass1_s": per_request(get("stream.pass1", "busy_s")),
        "stream.merge_s": per_request(get("stream.merge", "busy_s")),
        "stream.pass2_s": per_request(get("stream.pass2", "busy_s")),
    }
    for code in SCORED_CODES:
        out[f"score.{code}.busy_s"] = per_request(
            get(f"score.{code}", "busy_s"))
    return out
