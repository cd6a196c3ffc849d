"""Execution engine for sweep task graphs.

Runs the shards of a :class:`repro.pipeline.tasks.SweepGraph` either
serially or fanned out over worker processes (the same ``workers=``
knob as :mod:`repro.util.parallel`), optionally against a
:class:`repro.pipeline.store.ScoreStore` so that every
``method.score(table)`` is computed at most once per store lifetime.

Guarantees
----------
* **Bit identity.** The shard runner mirrors
  :func:`repro.evaluation.sweep.share_sweep` operation for operation,
  and scoring is deterministic, so serial, cached and sharded runs all
  return identical ``SweepSeries`` — cached/parallel execution is purely
  a wall-clock optimization.
* **Resumability.** Workers write scored tables straight into the
  disk tier. An interrupted sweep re-run against the same store finds
  its completed shards and only scores what is missing.

The :class:`Pipeline` facade packages the same machinery for
request-style use: score once, then serve many budget-matched
extractions (``extract``) and sweeps (``sweep``) from the cache.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..backbones.base import BackboneMethod, ScoredEdges
from ..backbones.doubly_stochastic import SinkhornConvergenceError
from ..evaluation.sweep import DEFAULT_SHARES, SweepSeries
from ..graph.edge_table import EdgeTable
from ..obs.trace import span
from ..util.parallel import parallel_map, resolve_workers
from .fingerprint import fingerprint_score_request, fingerprint_table
from .store import CacheStats, PathLike, ScoreStore
from .tasks import Metric, SweepGraph, SweepShard, plan_sweep


def score_with_store(method: BackboneMethod, table: EdgeTable,
                     store: Optional[ScoreStore],
                     key: Optional[str] = None) -> ScoredEdges:
    """``method.score(table)``, served from ``store`` when possible.

    ``key`` accepts a precomputed fingerprint so sweep loops hash the
    table once instead of once per method.

    The ``score`` span's ``pid`` attribute tells worker-process
    scoring apart from in-parent scoring in an exported trace.
    """
    with span("score", method=method.name, pid=os.getpid()):
        if store is None:
            return method.score(table)
        if key is None:
            key = fingerprint_score_request(table, method)
        return store.get_or_compute(key, lambda: method.score(table),
                                    label=method.name)


@dataclass
class SweepOutcome:
    """Sweep results plus the cache traffic they generated."""

    series: Dict[str, SweepSeries]
    stats: CacheStats


def execute(graph: SweepGraph, store: Optional[ScoreStore] = None,
            workers: Optional[int] = None,
            table_fingerprint: Optional[str] = None) -> SweepOutcome:
    """Run every shard of ``graph``; see the module docstring for the
    serial/cached/sharded equivalence contract.

    ``table_fingerprint`` accepts a precomputed (or source-resolved,
    see :meth:`ScoreStore.resolve_source`) table digest so file-driven
    sweeps never hash — or even need to parse — the table for key
    derivation.
    """
    keys: List[Optional[str]] = [None] * len(graph.shards)
    if store is not None:
        table_fp = table_fingerprint if table_fingerprint is not None \
            else fingerprint_table(graph.table)
        keys = [fingerprint_score_request(graph.table, shard.method,
                                          table_fingerprint=table_fp)
                for shard in graph.shards]

    count = min(resolve_workers(workers), len(graph.shards))
    if count <= 1:
        series = [_run_shard(shard, graph.table, store, key=key)
                  for shard, key in zip(graph.shards, keys)]
        stats = CacheStats() if store is None else store.stats
        return SweepOutcome(series=_by_code(graph, series), stats=stats)

    # Shards whose scores the parent store already holds run inline —
    # only actual scoring work is worth shipping to a worker (this is
    # also what lets a warm *memory-only* store serve sharded sweeps).
    series: List[Optional[SweepSeries]] = [None] * len(graph.shards)
    pending = []
    for index, shard in enumerate(graph.shards):
        if store is not None and keys[index] in store:
            series[index] = _run_shard(shard, graph.table, store,
                                       key=keys[index])
        else:
            pending.append((index, shard))

    spec = None if store is None else store.worker_spec()
    payloads = [(shard, graph.table, spec, store is not None,
                 keys[index]) for index, shard in pending]
    # retry_serial: a dead worker degrades to running the lost shards
    # in-process (identical results; scoring is deterministic) instead
    # of surfacing a raw BrokenProcessPool from a sweep.
    results = parallel_map(_run_shard_remote, payloads,
                           workers=min(count, len(pending)),
                           retry_serial=True)
    stats = CacheStats()
    for (index, _), (shard_series, worker_stats, extras) \
            in zip(pending, results):
        series[index] = shard_series
        if worker_stats is not None:
            stats.merge(worker_stats)
        if store is not None:
            for key, scored in extras:
                store.adopt(key, scored)
    if store is not None:
        store.stats.merge(stats)
        stats = store.stats
    return SweepOutcome(series=_by_code(graph, series), stats=stats)


def run_sweep(methods: Sequence[BackboneMethod], table: EdgeTable,
              metric: Metric,
              shares: Sequence[float] = DEFAULT_SHARES,
              store: Optional[ScoreStore] = None,
              cache_dir: Optional[PathLike] = None,
              workers: Optional[int] = None,
              backend=None,
              table_fingerprint: Optional[str] = None
              ) -> Dict[str, SweepSeries]:
    """Cached/sharded drop-in for
    :func:`repro.evaluation.sweep.sweep_methods`.

    ``cache_dir`` (a directory path or backend spec string such as
    ``sqlite://scores.sqlite``) and ``backend`` (an explicit
    :class:`~repro.pipeline.backends.StoreBackend`) are conveniences
    for one-shot calls: they open a fresh :class:`ScoreStore` when no
    ``store`` is passed explicitly. ``table_fingerprint`` forwards a
    precomputed table digest to :func:`execute`.
    """
    if store is None and (cache_dir is not None or backend is not None):
        store = ScoreStore(cache_dir, backend=backend)
    graph = plan_sweep(methods, table, metric, shares=shares)
    return execute(graph, store=store, workers=workers,
                   table_fingerprint=table_fingerprint).series


def _by_code(graph: SweepGraph,
             series: List[SweepSeries]) -> Dict[str, SweepSeries]:
    return {item.code: item for item in series}


def _run_shard(shard: SweepShard, table: EdgeTable,
               store: Optional[ScoreStore],
               key: Optional[str] = None) -> SweepSeries:
    """One method's series — the cached mirror of ``share_sweep``."""
    method = shard.method
    try:
        scored = score_with_store(method, table, store, key=key)
    except SinkhornConvergenceError:
        # Same "n/a" convention as sweep_methods: not balanceable.
        return SweepSeries(code=method.code, shares=[], values=[],
                           parameter_free=True)
    if method.parameter_free:
        backbone = method.extract_from_scores(scored)
        share = backbone.m / max(table.nonloop_m, 1)
        return SweepSeries(code=method.code, shares=[share],
                           values=[shard.metric(backbone)],
                           parameter_free=True)
    values = [shard.metric(backbone)
              for backbone in scored.top_share_many(shard.shares)]
    return SweepSeries(code=method.code, shares=list(shard.shares),
                       values=values, parameter_free=False)


def _run_shard_remote(
        payload: Tuple[SweepShard, EdgeTable, Optional[str], bool,
                       Optional[str]]
) -> Tuple[SweepSeries, Optional[CacheStats], tuple]:
    """Worker-side shard execution (module-level for picklability).

    Each worker reopens its own store over the parent's backend spec
    (a cache directory or SQLite file); the in-memory tiers are
    per-process but the persistent tier is common ground, which is
    what makes interrupted or repeated sweeps resumable. When the
    parent's store has no shareable persistent tier, workers ship
    their results (scored tables and negative verdicts alike) back as
    ``extras`` for the parent to adopt — a memory-only store still
    caches across a sharded sweep.
    """
    shard, table, spec, use_store, key = payload
    if not use_store:
        return _run_shard(shard, table, None), None, ()
    store = ScoreStore(spec)
    series = _run_shard(shard, table, store, key=key)
    extras = tuple(store.memory_entries()) if spec is None else ()
    return series, store.stats, extras


# ----------------------------------------------------------------------
# Request-style facade
# ----------------------------------------------------------------------

class Pipeline:
    """Score once, serve many extractions.

    Wraps a :class:`ScoreStore` and a ``workers=`` preference behind
    the library's two-phase backbone contract: :meth:`score` is cached,
    and :meth:`extract` / :meth:`sweep` reuse cached scores so repeated
    budget-matched requests over the same graph never rescore.

    Parameters
    ----------
    store:
        Explicit store to use. Defaults to a fresh in-memory store
        (or one over ``cache_dir`` / ``backend`` when given).
    cache_dir:
        Location of the persistent tier of the default store: a
        directory path or any backend spec string
        (``sqlite://scores.sqlite``, a ``.sqlite`` path, ``kv://``).
    workers:
        Default process fan-out for :meth:`sweep` and :meth:`warm`.
    backend:
        Explicit :class:`~repro.pipeline.backends.StoreBackend` for
        the default store; mutually exclusive with ``cache_dir``.
    """

    def __init__(self, store: Optional[ScoreStore] = None,
                 cache_dir: Optional[PathLike] = None,
                 workers: Optional[int] = None, backend=None):
        if store is None:
            store = ScoreStore(cache_dir, backend=backend)
        self.store = store
        self.workers = workers

    @property
    def stats(self) -> CacheStats:
        """Cache traffic of the underlying store."""
        return self.store.stats

    def score(self, method: BackboneMethod,
              table: EdgeTable) -> ScoredEdges:
        """Cached ``method.score(table)``."""
        return score_with_store(method, table, self.store)

    def extract(self, method: BackboneMethod, table: EdgeTable,
                threshold: Optional[float] = None,
                share: Optional[float] = None,
                n_edges: Optional[int] = None) -> EdgeTable:
        """Cached ``method.extract(table, ...)`` — identical output."""
        scored = self.score(method, table)
        return method.extract_from_scores(scored, threshold=threshold,
                                          share=share, n_edges=n_edges)

    def sweep(self, methods: Sequence[BackboneMethod], table: EdgeTable,
              metric: Metric,
              shares: Sequence[float] = DEFAULT_SHARES,
              workers: Optional[int] = None) -> Dict[str, SweepSeries]:
        """Cached/sharded share sweep over ``methods``."""
        graph = plan_sweep(methods, table, metric, shares=shares)
        chosen = self.workers if workers is None else workers
        return execute(graph, store=self.store, workers=chosen).series

    def warm(self, methods: Sequence[BackboneMethod], table: EdgeTable,
             workers: Optional[int] = None) -> int:
        """Pre-score ``methods`` on ``table`` into the store.

        Returns the number of scored tables now cached. Methods whose
        scoring is inapplicable (Sinkhorn non-convergence) are skipped.
        With workers and a memory-only store, workers ship their scored
        tables back to be inserted here; with a disk tier they write
        entries directly.
        """
        chosen = min(resolve_workers(self.workers if workers is None
                                     else workers), len(methods))
        table_fp = fingerprint_table(table)
        keys = [fingerprint_score_request(table, method,
                                          table_fingerprint=table_fp)
                for method in methods]
        warmed = 0
        if chosen <= 1:
            for method, key in zip(methods, keys):
                try:
                    score_with_store(method, table, self.store, key=key)
                except SinkhornConvergenceError:
                    continue
                warmed += 1
            return warmed
        payloads = []
        for method, key in zip(methods, keys):
            if key in self.store:
                warmed += 1  # already cached; nothing to ship out
                continue
            payloads.append((method, table, self.store.worker_spec(),
                             key))
        results = parallel_map(_warm_remote, payloads,
                               workers=min(chosen, len(payloads)),
                               retry_serial=True)
        for result in results:
            if result is None:
                continue
            key, scored = result
            warmed += 1
            if scored is not None and key not in self.store:
                self.store.adopt(key, scored)
        return warmed


def _warm_remote(
        payload: Tuple[BackboneMethod, EdgeTable, Optional[str], str]
) -> Optional[Tuple[str, Optional[ScoredEdges]]]:
    """Worker-side scoring for :meth:`Pipeline.warm`."""
    method, table, spec, key = payload
    try:
        if spec is None:
            return key, method.score(table)
        store = ScoreStore(spec)
        score_with_store(method, table, store, key=key)
        return key, None
    except SinkhornConvergenceError:
        return None
