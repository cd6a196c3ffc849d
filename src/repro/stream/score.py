"""Pass 2 of the out-of-core pipeline: score blocks, keep survivors.

Every streamable score (NC, NCp, disparity, naive) is a *per-edge*
function of the pass-1 node aggregates: given strengths, degrees and
the grand total, row ``i``'s score never looks at any other row. That
is exactly what :class:`_StreamBlock` exploits — one canonical
loop-free block masquerades as the scoring table (its per-edge columns
are the block's, its node-level marginals are the stream's), so the
unchanged in-memory scoring code evaluates on the block and produces
bit for bit the matching slice of the full-table score array.

Extraction then runs on the fly:

* threshold budgets keep each block's strict survivors
  (``score > t``, exactly :meth:`ScoredEdges.filter`);
* share / edge-count budgets maintain a running top-``k`` under the
  total order ``(-score, -weight, row)`` — selected by the same kernel
  :meth:`EdgeTable.top_k_by` uses, so periodic truncation of the
  candidate buffer cannot change the final selection;
* NC's δ rule ranks by ``score - δ·sdev`` per block, mirroring
  :meth:`NoiseCorrectedBackbone.extract_from_scores`.

Memory stays O(nodes + block + backbone): only survivors accumulate.

Methods whose extraction is a whole-graph computation (HSS, MST,
doubly stochastic, k-core) cannot stream; they raise
:class:`StreamingUnsupported` at compile time.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..backbones.base import BackboneMethod
from ..backbones.disparity import DisparityFilter
from ..backbones.naive import NaiveThreshold
from ..core.noise_corrected import (NoiseCorrectedBackbone,
                                    NoiseCorrectedPValue)
from ..graph.edge_table import EdgeTable, _top_k_rows
from ..obs.trace import span
from ..util.validation import as_float_array, require
from .pipeline import CanonicalStream

#: Methods whose scores are per-edge functions of O(nodes) aggregates.
#: Matched by exact type: a subclass may override scoring in ways that
#: read the whole table, so it does not silently inherit streamability.
STREAMABLE_METHODS = (NoiseCorrectedBackbone, NoiseCorrectedPValue,
                      DisparityFilter, NaiveThreshold)


class StreamingUnsupported(ValueError):
    """The method needs the full graph in memory and cannot stream."""

    def __init__(self, method: BackboneMethod):
        menu = ", ".join(cls.code for cls in STREAMABLE_METHODS)
        super().__init__(
            f"{method.code} ({method.name}) cannot run out-of-core: "
            f"its extraction needs the full graph in memory; "
            f"streaming supports {menu}")
        self.method_code = method.code


def supports_streaming(method: BackboneMethod) -> bool:
    """Whether ``method`` can run through the streaming pipeline."""
    return type(method) in STREAMABLE_METHODS


class _StreamBlock(EdgeTable):
    """One loop-free canonical block posing as the full scoring table.

    Node-level queries answer from the stream's pass-1 aggregates —
    which are exactly the marginals of ``prepare_table``'s loop-free
    table — while per-edge columns are the block's rows.
    """

    __slots__ = ("_stream",)

    def __init__(self, stream: CanonicalStream, src, dst, weight):
        EdgeTable.__init__(self, src, dst, weight,
                           n_nodes=stream.n_nodes,
                           directed=stream.directed, coalesce=False)
        self._stream = stream

    def without_self_loops(self) -> "EdgeTable":
        return self  # canonical scoring blocks are loop-free

    def out_strength(self) -> np.ndarray:
        return self._stream.out_strength

    def in_strength(self) -> np.ndarray:
        return self._stream.in_strength

    def strength(self) -> np.ndarray:
        return self._stream.strength

    def out_degree(self) -> np.ndarray:
        return self._stream.out_degree

    def in_degree(self) -> np.ndarray:
        return self._stream.in_degree

    def degree(self) -> np.ndarray:
        return self._stream.degree

    @property
    def grand_total(self) -> float:
        return self._stream.grand_total

    @property
    def total_weight(self) -> float:
        return self._stream.total_weight


class _PrepareProxy:
    """Stand-in for the full table at the ``prepare_table`` gate.

    ``prepare_table`` reads exactly ``table.m`` (the non-empty check
    counts *all* rows, loops included) and ``without_self_loops()``;
    handing it the stream's full row count and the block keeps the
    empty-network diagnostics identical to the in-memory path.
    """

    __slots__ = ("m", "_block")

    def __init__(self, m: int, block: _StreamBlock):
        self.m = m
        self._block = block

    def without_self_loops(self) -> _StreamBlock:
        return self._block


# ----------------------------------------------------------------------
# Budget resolution (mirrors serve._apply_filter + extract_from_scores)
# ----------------------------------------------------------------------

def _job_mode(method: BackboneMethod, budget) -> Tuple[bool, str, float]:
    """Flatten the filter phase into ``(adjusted, kind, value)``.

    ``adjusted`` selects NC's ``score - δ·sdev`` ranking; ``kind`` is
    one of ``threshold`` / ``share`` / ``n_edges``. Raises exactly the
    diagnostics the in-memory filter phase raises for bad budgets.
    """
    if budget is None or budget.rank == "method" \
            or method.parameter_free:
        kwargs = {} if budget is None else budget.budget_kwargs()
        return _method_mode(method, kwargs)
    if budget.threshold is not None:
        return False, "threshold", float(budget.threshold)
    if budget.share is not None:
        return False, "share", float(budget.share)
    if budget.n_edges is not None:
        return False, "n_edges", int(budget.n_edges)
    return _method_mode(method, {})


def _method_mode(method: BackboneMethod, kwargs) -> Tuple[bool, str, float]:
    threshold, share, n_edges = method._resolve_budget(
        kwargs.get("threshold"), kwargs.get("share"),
        kwargs.get("n_edges"))
    if method.parameter_free:
        return False, "threshold", 0.0
    adjusted = type(method) is NoiseCorrectedBackbone
    if threshold is not None:
        return adjusted, "threshold", float(threshold)
    if share is not None:
        return adjusted, "share", float(share)
    return adjusted, "n_edges", int(n_edges)


# ----------------------------------------------------------------------
# Streaming selectors
# ----------------------------------------------------------------------

class _ThresholdSelector:
    """``ScoredEdges.filter``: keep rows scoring strictly above ``t``."""

    def __init__(self, threshold: float):
        self.threshold = float(threshold)
        self._parts: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def feed(self, values: np.ndarray, block: _StreamBlock) -> None:
        mask = values > self.threshold
        if np.any(mask):
            self._parts.append((block.src[mask], block.dst[mask],
                                block.weight[mask]))

    def parts(self) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        return self._parts


class _TopKSelector:
    """``EdgeTable.top_k_by`` as a running selection.

    Candidates are ranked under the total order
    ``(-value, -weight, global row)`` by the same kernel as
    ``top_k_by`` (:func:`~repro.graph.edge_table._top_k_rows`). Blocks
    arrive in ascending global row order and every cut keeps buffer
    order, so a candidate's buffer position ranks exactly like its
    global row and no row column is stored. The order is total, so
    cutting the buffer to the best ``k`` after any prefix of blocks
    keeps exactly the rows the full selection would keep; once ``k``
    candidates are held, rows scoring strictly below the ``k``-th
    value (the floor) are strictly worse and are dropped at feed time.
    Values must be finite, as in ``top_k_by``: a NaN or infinite score
    raises the same ``ValueError``. Buffer memory is O(k + block), and
    the final selection is already in row order, matching
    ``top_k_by``'s output.
    """

    #: Column layout of the candidate buffer.
    _VALUES, _SRC, _DST, _WEIGHT = range(4)

    def __init__(self, k: int, nonloop_m: int):
        k = int(k)
        require(0 <= k <= nonloop_m,
                f"k={k} out of range [0, {nonloop_m}]")
        self.k = k
        self._columns: List[List[np.ndarray]] = [[] for _ in range(4)]
        self._count = 0
        self._floor: Optional[float] = None

    def feed(self, values: np.ndarray, block: _StreamBlock) -> None:
        values = as_float_array(values, "values")
        if self.k == 0:
            return
        columns = (values, block.src, block.dst, block.weight)
        if self._floor is not None:
            keep = values >= self._floor
            if not keep.all():
                columns = tuple(column[keep] for column in columns)
        if not len(columns[self._VALUES]):
            return
        for buffer, column in zip(self._columns, columns):
            buffer.append(column)
        self._count += len(columns[self._VALUES])
        if self._count > self.k + max(self.k, block.m):
            self._cut()

    def _gather(self, index: int) -> np.ndarray:
        column = self._columns[index]
        return column[0] if len(column) == 1 else np.concatenate(column)

    def _cut(self) -> None:
        """Keep only the best ``k`` of the more than ``k`` candidates
        held, in buffer order; their lowest value becomes the floor."""
        values = self._gather(self._VALUES)
        weight = self._gather(self._WEIGHT)
        rows, = _top_k_rows(values, weight, [self.k])
        # Replace columns one at a time so each block's originals are
        # released before the next column concatenates.
        self._columns[self._VALUES] = [values[rows]]
        self._columns[self._WEIGHT] = [weight[rows]]
        del values, weight
        for index in (self._SRC, self._DST):
            self._columns[index] = [self._gather(index)[rows]]
        self._count = len(rows)
        self._floor = float(self._columns[self._VALUES][0].min())

    def parts(self) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        if self.k == 0 or not self._count:
            return []
        if self._count > self.k:
            self._cut()
        return [(self._gather(self._SRC), self._gather(self._DST),
                 self._gather(self._WEIGHT))]


def _make_selector(kind: str, value: float, nonloop_m: int):
    if kind == "threshold":
        return _ThresholdSelector(value)
    if kind == "share":
        require(0.0 <= value <= 1.0,
                f"share must be in [0, 1], got {value}")
        return _TopKSelector(min(int(round(value * nonloop_m)),
                                 nonloop_m), nonloop_m)
    return _TopKSelector(min(int(value), nonloop_m), nonloop_m)


def _build_backbone(parts, stream: CanonicalStream) -> EdgeTable:
    if parts:
        src = np.concatenate([part[0] for part in parts])
        dst = np.concatenate([part[1] for part in parts])
        weight = np.concatenate([part[2] for part in parts])
    else:
        src = np.empty(0, dtype=np.int64)
        dst = np.empty(0, dtype=np.int64)
        weight = np.empty(0, dtype=np.float64)
    return EdgeTable(src, dst, weight, n_nodes=stream.n_nodes,
                     directed=stream.directed, labels=stream.labels,
                     coalesce=False)


# ----------------------------------------------------------------------
# The pass-2 driver
# ----------------------------------------------------------------------

def stream_extract(stream: CanonicalStream, jobs: Sequence[Tuple]
                   ) -> Tuple[Dict[object, EdgeTable],
                              Dict[object, Exception]]:
    """Score the stream once per distinct key, extract every job.

    ``jobs`` is a sequence of ``(job_id, key, method, budget)`` tuples
    — ``key`` the score-cache key (jobs sharing it have
    score-identical methods and are scored once per block), ``budget``
    a :class:`~repro.flow.spec.FilterSpec` or ``None``. Returns
    ``(backbones, errors)`` keyed by ``job_id``; failures are isolated
    with the in-memory precedence (a scoring error beats a budget
    error, exactly as ``serve`` skips the filter phase for keys that
    failed to score).
    """
    jobs = list(jobs)
    rep: Dict[str, BackboneMethod] = {}
    groups: Dict[str, List[Tuple[object, BackboneMethod, bool,
                                 object]]] = {}
    resolve_errors: Dict[object, Exception] = {}
    for job_id, key, method, budget in jobs:
        rep.setdefault(key, method)
        groups.setdefault(key, [])
        try:
            adjusted, kind, value = _job_mode(method, budget)
            selector = _make_selector(kind, value, stream.nonloop_m)
        except Exception as error:
            resolve_errors[job_id] = error
            continue
        groups[key].append((job_id, method, adjusted, selector))

    failed: Dict[str, Exception] = {}
    job_errors: Dict[object, Exception] = {}
    with span("stream.pass2", keys=len(rep), jobs=len(jobs)):
        for src, dst, weight in _scoring_blocks(stream):
            block = _StreamBlock(stream, src, dst, weight)
            proxy = _PrepareProxy(stream.m, block)
            for key, method in rep.items():
                if key in failed:
                    continue
                try:
                    scored = method.score(proxy)
                except Exception as error:
                    failed[key] = error
                    continue
                for job_id, job_method, adjusted, selector in groups[key]:
                    if job_id in job_errors:
                        continue
                    try:
                        selector.feed(_job_values(scored, job_method,
                                                  adjusted),
                                      block)
                    except Exception as error:
                        job_errors[job_id] = error

    backbones: Dict[object, EdgeTable] = {}
    errors: Dict[object, Exception] = {}
    for job_id, key, method, budget in jobs:
        if key in failed:
            errors[job_id] = failed[key]
        elif job_id in resolve_errors:
            errors[job_id] = resolve_errors[job_id]
        elif job_id in job_errors:
            errors[job_id] = job_errors[job_id]
    for key, group in groups.items():
        if key in failed:
            continue
        for job_id, method, adjusted, selector in group:
            if job_id in errors:
                continue
            try:
                backbones[job_id] = _build_backbone(selector.parts(),
                                                    stream)
            except Exception as error:
                errors[job_id] = error
    return backbones, errors


def _scoring_blocks(stream: CanonicalStream):
    """The stream's loop-free blocks — or one empty block when there
    are none, so scoring (and its diagnostics, e.g. NC on an empty or
    loops-only network) runs exactly once as it would in memory."""
    empty = True
    for item in stream.iter_scoring_blocks():
        empty = False
        yield item
    if empty:
        yield (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
               np.empty(0, dtype=np.float64))


def _job_values(scored, method: BackboneMethod,
                adjusted: bool) -> np.ndarray:
    if not adjusted:
        return scored.score
    if scored.sdev is None:
        raise ValueError("NC extraction needs per-edge sdev; these "
                         "scores carry none")
    return scored.score - method.delta * scored.sdev
