"""Lowering plans onto data: tables, fingerprints, cache keys.

Compilation is the step between the declarative :class:`Plan` and
:func:`repro.flow.serve.serve`, the one engine that scores, filters
and measures plans. For a batch of plans it

1. resolves every *distinct* source exactly once — a file is hashed
   once per batch, however many plans point at it, and parsed at most
   once per *process* while its parsed table stays in the table cache
   (below); a store's source binding (``bind_source`` /
   ``resolve_source``) supplies the table fingerprint on warm runs so
   key derivation never re-hashes a parsed table;
2. builds the configured method instance and derives the score-cache
   key (:func:`~repro.pipeline.fingerprint.fingerprint_score_request`)
   — the key deliberately excludes extraction-only knobs, which is
   what lets N plans at different deltas or shares share one scoring
   pass;
3. resolves metric specs against the source table (so ``"coverage"``
   measures retention against the input).

The result, one :class:`CompiledPlan` per plan, is everything
:func:`repro.flow.serve.serve` needs to schedule scoring and apply
filters. :func:`build_method` (plan validation) and
:func:`source_key` (which plans share one source resolution) are the
two decisions ``serve`` also makes before compiling, so it can
contain a bad plan or an unreadable source to the plans it affects.

Parsed file tables are kept in a process-wide LRU keyed by the source
fingerprint — the digest of the file's bytes plus its parse options,
so a rewritten file or a changed ``directed``/delimiter/format can
never be answered with a stale table — and bounded by
:data:`TABLE_CACHE_BYTES` (the three columns plus the labels). Warm
batches, the daemon above all, therefore hash their sources but never
re-parse them. A cached table is shared by every batch that resolves
it, so the ``src``/``dst``/``weight`` arrays of every file table
compiled here (kept or over the cap) are read-only: an in-place write
raises instead of corrupting later requests. Hits,
misses, evictions and the resident bytes are exported through the
process-wide metrics registry (``repro_table_cache_*``).
:class:`~repro.flow.spec.TableSource` plans and streamed plans never
touch the cache, and a source that fails to parse caches nothing.
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict
from contextlib import suppress
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..backbones.base import BackboneMethod
from ..graph.edge_table import EdgeTable
from ..obs.metrics import get_registry
from ..obs.trace import span
from ..pipeline.fingerprint import (fingerprint_score_request,
                                    fingerprint_table)
from ..pipeline.store import ScoreStore
from ..stream import (StreamingUnsupported, auto_threshold_bytes,
                      open_stream, supports_streaming)
from ..util.validation import require
from .plan import Plan
from .spec import FilterSpec, TableSource

#: Byte cap on the process-wide parsed-table cache. A table larger
#: than the cap is served but not kept.
TABLE_CACHE_BYTES = 256 << 20

_TABLE_CACHE_LOCK = threading.Lock()
#: source fingerprint -> (table, bytes), least recently used first.
_TABLE_CACHE: "OrderedDict[str, Tuple[EdgeTable, int]]" = OrderedDict()
_TABLE_CACHE_TOTAL = 0

_REGISTRY = get_registry()
_TABLE_CACHE_HITS = _REGISTRY.counter(
    "repro_table_cache_hits_total",
    "File-source resolutions answered by the parsed-table cache.")
_TABLE_CACHE_MISSES = _REGISTRY.counter(
    "repro_table_cache_misses_total",
    "File-source resolutions that parsed their source.")
_TABLE_CACHE_EVICTIONS = _REGISTRY.counter(
    "repro_table_cache_evictions_total",
    "Parsed tables evicted by the table cache's byte cap.")
_TABLE_CACHE_RESIDENT = _REGISTRY.gauge(
    "repro_table_cache_bytes",
    "Bytes of parsed tables held by the table cache.")


@dataclass
class CompiledPlan:
    """A plan lowered onto concrete data and cache keys."""

    plan: Plan
    table: Optional[EdgeTable]  # None only in key-derivation mode
    table_fp: str
    source_fp: str
    method: BackboneMethod
    key: str  # score-cache key (table x score-relevant method config)
    budget: Optional[FilterSpec]
    metrics: Tuple
    #: The out-of-core handle when the plan compiled to the streaming
    #: path (``table`` is then ``None``; the cache key is unchanged —
    #: the stream's fingerprint equals the in-memory table's).
    stream: Optional[object] = field(default=None, repr=False)


def compile_plans(plans: Sequence[Plan], store: Optional[ScoreStore],
                  need_tables: bool = True,
                  allow_streaming: bool = True) -> List[CompiledPlan]:
    """Compile a batch, resolving each distinct source exactly once.

    ``store`` may be ``None`` (no source bindings are read or written);
    callers that want batch deduplication pass at least a memory-only
    :class:`ScoreStore`. ``need_tables=False`` is the key-derivation
    mode behind ``--explain``: when the store's source binding already
    supplies a file's table fingerprint, the file is not parsed at all
    (``table`` is ``None`` and metric specs stay unresolved).
    ``allow_streaming=False`` forces the in-memory path regardless of
    the plans' ``streaming`` setting (used by entry points that must
    materialize full score arrays, e.g. :meth:`Plan.scores`).
    """
    # source spec -> (source_fp, table, table_fp); file sources are
    # hashable frozen specs, table sources memoize by table identity.
    by_spec: Dict[object, Tuple[str, Optional[EdgeTable], str]] = {}
    streams: Dict[object, Tuple[str, object]] = {}
    compiled = []
    with span("flow.compile", plans=len(plans)):
        _compile_into(plans, store, need_tables, by_spec, streams,
                      compiled, allow_streaming)
    return compiled


def _compile_into(plans, store, need_tables, by_spec, streams, compiled,
                  allow_streaming):
    for plan in plans:
        method = build_method(plan)
        if _wants_stream(plan, method, need_tables, allow_streaming):
            source_fp, stream = _resolve_stream(plan.source, store,
                                                streams)
            key = fingerprint_score_request(
                None, method, table_fingerprint=stream.table_fp)
            metrics = tuple(spec.build(stream.summary)
                            for spec in plan.metric_specs)
            compiled.append(CompiledPlan(plan=plan, table=None,
                                         table_fp=stream.table_fp,
                                         source_fp=source_fp,
                                         method=method, key=key,
                                         budget=plan.budget_spec,
                                         metrics=metrics, stream=stream))
            continue
        memo_key = source_key(plan.source)
        found = by_spec.get(memo_key)
        if found is None:
            found = _resolve_source(plan.source, store,
                                    need_table=need_tables)
            by_spec[memo_key] = found
        source_fp, table, table_fp = found
        key = fingerprint_score_request(table, method,
                                        table_fingerprint=table_fp)
        metrics = () if table is None else tuple(
            spec.build(table) for spec in plan.metric_specs)
        compiled.append(CompiledPlan(plan=plan, table=table,
                                     table_fp=table_fp,
                                     source_fp=source_fp, method=method,
                                     key=key, budget=plan.budget_spec,
                                     metrics=metrics))


def build_method(plan) -> BackboneMethod:
    """Validate that ``plan`` is a :class:`Plan` with a method, and
    build that method."""
    if not isinstance(plan, Plan):
        raise TypeError(f"expected a Plan, got {type(plan).__name__}")
    require(plan.method_spec is not None,
            "plan has no method; call .method(code) before running")
    return plan.method_spec.build()


def source_key(source) -> object:
    """The key that decides which plans share one source resolution:
    table sources by table identity, file and remote specs by value."""
    if isinstance(source, TableSource):
        return id(source.table)
    return source


def _wants_stream(plan, method, need_tables, allow_streaming) -> bool:
    """The compile decision: does this plan run out-of-core?

    ``streaming=True`` demands it (and raises
    :class:`StreamingUnsupported` for whole-graph methods);
    ``"auto"`` streams supported methods when the source file reaches
    :func:`auto_threshold_bytes`, silently staying in memory
    otherwise. Key-derivation mode (``need_tables=False``) never
    streams — it never touches the data at all when bindings are warm.
    """
    streaming = getattr(plan, "streaming", "auto")
    if streaming is False or not allow_streaming or not need_tables:
        return False
    if isinstance(plan.source, TableSource):
        require(streaming is not True,
                "streaming=True needs a file or remote source; an "
                "in-memory EdgeTable is already materialized")
        return False
    if streaming is True:
        if not supports_streaming(method):
            raise StreamingUnsupported(method)
        return True
    if not supports_streaming(method):
        return False
    size = _source_size(plan.source)
    return size is not None and size >= auto_threshold_bytes()


def _source_size(source) -> Optional[int]:
    """Source bytes for the ``"auto"`` decision; ``None`` = unknown."""
    try:
        return _stream_path(source).stat().st_size
    except (OSError, ValueError):
        return None


def _stream_path(source) -> Path:
    """The local file behind a source spec (fetching remote bytes)."""
    local = getattr(source, "local_path", None)
    if callable(local):
        return Path(local())
    path = getattr(source, "path", None)
    require(path is not None,
            f"cannot stream from {type(source).__name__}: it exposes "
            "neither a local path nor local_path()")
    return Path(path)


def _resolve_stream(source, store: Optional[ScoreStore], streams):
    """(source fingerprint, CanonicalStream) for one source, memoized.

    Pass 1 always runs — even on a warm store — because scoring needs
    the node aggregates and metrics need the table summary; what warm
    runs skip is pass-2 scoring (the store answers by cache key, and
    the stream's fingerprint matches the in-memory table's).
    """
    try:
        found = streams.get(source)
    except TypeError:  # unhashable third-party spec: no memoization
        found = None
    if found is not None:
        return found
    source_fp = source.fingerprint()
    fmt = getattr(source, "format", None)
    formatter = getattr(source, "_format", None)
    if fmt is None and callable(formatter):
        fmt = formatter()
    with span("flow.stream", source=source.describe()):
        stream = open_stream(_stream_path(source),
                             directed=getattr(source, "directed", True),
                             delimiter=getattr(source, "delimiter", ","),
                             format=fmt)
    if store is not None and store.resolve_source(source_fp) is None:
        store.bind_source(source_fp, stream.table_fp)
    found = (source_fp, stream)
    with suppress(TypeError):
        streams[source] = found
    return found


def _resolve_source(source, store: Optional[ScoreStore],
                    need_table: bool = True):
    """(source fingerprint, table, table fingerprint) for one source.

    For table sources the source fingerprint *is* the table
    fingerprint. For file sources the store's source binding supplies
    the table fingerprint when known (warm runs never call
    :func:`fingerprint_table`, and key-only callers passing
    ``need_table=False`` skip the parse entirely); a fresh binding is
    recorded otherwise. File tables come from (and go to) the table
    cache.
    """
    if isinstance(source, TableSource):
        table = source.table
        table_fp = fingerprint_table(table)
        return table_fp, table, table_fp
    source_fp = source.fingerprint()
    table_fp = None if store is None else store.resolve_source(source_fp)
    if table_fp is not None and not need_table:
        return source_fp, None, table_fp
    table = _cached_table(source_fp)
    if table is None:
        table = _cache_table(source_fp, source.resolve())
    if table_fp is None:
        table_fp = fingerprint_table(table)
        if store is not None:
            store.bind_source(source_fp, table_fp)
    return source_fp, table, table_fp


# ----------------------------------------------------------------------
# The parsed-table cache
# ----------------------------------------------------------------------

def _table_nbytes(table: EdgeTable) -> int:
    size = table.src.nbytes + table.dst.nbytes + table.weight.nbytes
    if table.labels is not None:
        size += sum(map(sys.getsizeof, table.labels))
    return size


def _cached_table(source_fp: str) -> Optional[EdgeTable]:
    """The cached table parsed under ``source_fp`` (counted hit/miss)."""
    with _TABLE_CACHE_LOCK:
        entry = _TABLE_CACHE.get(source_fp)
        if entry is not None:
            _TABLE_CACHE.move_to_end(source_fp)
    if entry is None:
        _TABLE_CACHE_MISSES.inc()
        return None
    _TABLE_CACHE_HITS.inc()
    return entry[0]


def _cache_table(source_fp: str, table: EdgeTable) -> EdgeTable:
    """Freeze a freshly parsed table and keep it, evicting LRU entries
    over :data:`TABLE_CACHE_BYTES`.

    The parse runs before this, outside the lock, so two concurrent
    misses may both parse; the first table kept wins and is returned to
    both callers.
    """
    global _TABLE_CACHE_TOTAL
    for column in (table.src, table.dst, table.weight):
        column.flags.writeable = False
    size = _table_nbytes(table)
    if size > TABLE_CACHE_BYTES:
        return table
    with _TABLE_CACHE_LOCK:
        entry = _TABLE_CACHE.get(source_fp)
        if entry is not None:
            return entry[0]
        _TABLE_CACHE[source_fp] = (table, size)
        _TABLE_CACHE_TOTAL += size
        while _TABLE_CACHE_TOTAL > TABLE_CACHE_BYTES:
            _, (_, stale) = _TABLE_CACHE.popitem(last=False)
            _TABLE_CACHE_TOTAL -= stale
            _TABLE_CACHE_EVICTIONS.inc()
        _TABLE_CACHE_RESIDENT.set(_TABLE_CACHE_TOTAL)
    return table


def clear_table_cache() -> None:
    """Drop every cached table (the next resolution parses again)."""
    global _TABLE_CACHE_TOTAL
    with _TABLE_CACHE_LOCK:
        _TABLE_CACHE.clear()
        _TABLE_CACHE_TOTAL = 0
        _TABLE_CACHE_RESIDENT.set(0)
