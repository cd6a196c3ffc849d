"""Content-addressed score cache and the sweep metrics.

The pipeline subsystem is the storage half of "score once, filter many
ways": scored tables are fingerprinted (:mod:`repro.pipeline.
fingerprint`) and cached in a :class:`ScoreStore`, and the sweep
metrics (:mod:`repro.pipeline.tasks`) are picklable so batches can
cross process boundaries. Execution lives in one place,
:func:`repro.flow.serve`; every request is a plan::

    from repro.flow import flow
    from repro.pipeline import ScoreStore

    store = ScoreStore(".repro-cache")          # disk + LRU tiers
    plan = flow(table).method(method)
    scored = plan.scores(store=store)            # cached
    backbone = plan.budget(share=0.1).run(store=store).backbone

The persistent tier is pluggable (:mod:`repro.pipeline.backends`):
``ScoreStore("scores.sqlite")`` keeps the cache in one WAL-mode SQLite
file, ``ScoreStore(backend=KVBackend(...))`` talks to a remote-style
key-value service, and ``store.gc(max_bytes=...)`` evicts
least-recently-used entries from any of them.
"""

from .backends import (DirectoryBackend, GCPolicy, GCResult, KVBackend,
                       NegativeEntry, SQLiteBackend, StoreBackend,
                       open_backend)
from .fingerprint import (canonical_json, fingerprint_file,
                          fingerprint_method, fingerprint_score_request,
                          fingerprint_source_request, fingerprint_table,
                          method_config)
from .store import CacheStats, ScoreStore
from .tasks import (AverageDegreeMetric, CoverageMetric, DensityMetric,
                    EdgeCountMetric, METRIC_BUILDERS, StabilityMetric)

__all__ = [
    "AverageDegreeMetric",
    "CacheStats",
    "CoverageMetric",
    "DensityMetric",
    "DirectoryBackend",
    "EdgeCountMetric",
    "GCPolicy",
    "GCResult",
    "KVBackend",
    "METRIC_BUILDERS",
    "NegativeEntry",
    "SQLiteBackend",
    "ScoreStore",
    "StoreBackend",
    "StabilityMetric",
    "canonical_json",
    "fingerprint_file",
    "fingerprint_method",
    "fingerprint_score_request",
    "fingerprint_source_request",
    "fingerprint_table",
    "method_config",
    "open_backend",
]
