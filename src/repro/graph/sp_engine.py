"""Batched multi-source shortest-path-tree engine.

The High-Salience Skeleton needs one shortest-path tree per root — a full
single-source problem for every node. The reference implementation
(:func:`repro.graph.paths.dijkstra_reference`) walks a binary heap arc by
arc in pure Python, which is why the paper could not push HSS past a few
thousand edges (Section V-G). This module replaces the per-arc inner loop
with C distance passes and array-native tree derivation over the CSR
adjacency:

Design
------
* **scipy's C Dijkstra for distances.** Every usable arc goes into one
  length-weighted ``scipy.sparse`` matrix, built once per engine, and
  ``scipy.sparse.csgraph.dijkstra`` computes each root chunk's distance
  rows — the same bits as the heap reference, since any exact Dijkstra
  computes the same min-over-paths float sums.
* **Many roots at once.** Roots are processed as rows of an ``(R, n)``
  distance matrix so every vector operation amortizes over the root
  batch; chunking keeps memory bounded for all-roots sweeps.
* **Predecessor arcs, post hoc.** Rather than tracking parents during
  relaxation, predecessors are derived from the final distances: the
  reference heap pops ``(dist, node)`` tuples and only overwrites on
  strict improvement, so its parent of ``v`` is exactly the arc
  ``u -> v`` with ``dist[u] + length == dist[v]`` minimizing
  ``(dist[u], u)`` lexicographically (self-arcs excluded, roots forced
  to ``-1``). Deriving that arc with two scatter-min passes reproduces
  the reference tree *exactly*, tie for tie. The one case where settle
  order is not the ``(dist, node)`` order — chains of zero-*length*
  arcs, impossible with the default ``1 / weight`` lengths — falls back
  to a per-root heap automatically (``engine.backend == "reference"``).
* **Arc indices, not tuples.** Trees are reported as predecessor *arc
  ids* into ``Graph.neighbors``; superposing trees is then a plain
  ``np.bincount`` over ``Graph.arc_row`` instead of a ``(u, v) -> row``
  dict lookup per tree edge.
* **Optional process fan-out.** Root chunks are independent, so
  ``workers=`` hands them to :func:`repro.util.parallel.parallel_map`.

The engine is exact for non-negative lengths (zero-length arcs included);
non-finite lengths mark unusable arcs, matching the reference.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence, Tuple

import numpy as np

from ..obs.trace import span
from ..util.parallel import chunked, parallel_map, resolve_workers
from .graph import Graph

_UNREACHED = -1
#: Target element count for one root chunk's working arrays; keeps the
#: (chunk x nodes) and (chunk x arcs) temporaries a few dozen MB.
_CHUNK_BUDGET = 4_000_000

# The per-chunk state handed to (possibly forked) workers: a plain tuple
# of arrays, the chosen path (``"scipy"`` or ``"reference"``), and the
# prebuilt scipy matrix (``None`` on the heap path), so it pickles
# cheaply and shares pages under fork.
_Csr = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, str, object]


def effective_lengths(weights: np.ndarray) -> np.ndarray:
    """HSS effective proximity: ``1 / weight``, ``inf`` for zero weight."""
    with np.errstate(divide="ignore"):
        return np.where(weights > 0, 1.0 / weights, np.inf)


@dataclass(frozen=True)
class ShortestPathForest:
    """One shortest-path tree per root, in array form.

    Attributes
    ----------
    roots:
        The root of each row.
    dist:
        ``(len(roots), n_nodes)`` distances (``inf`` when unreachable).
    pred:
        Predecessor *node* per ``(root, node)``; ``-1`` for roots and
        unreachable nodes. Matches the heap reference tie for tie.
    pred_arc:
        Predecessor *arc index* into ``Graph.neighbors`` (``-1`` where
        ``pred`` is ``-1``). Feed through ``Graph.arc_row`` to turn tree
        superposition into a ``bincount``.
    """

    roots: np.ndarray
    dist: np.ndarray
    pred: np.ndarray
    pred_arc: np.ndarray

    def tree_edges(self, index: int) -> list:
        """``(parent, child)`` pairs of the tree rooted at ``roots[index]``."""
        pred = self.pred[index]
        return [(int(p), int(v)) for v, p in enumerate(pred)
                if p != _UNREACHED]


class ShortestPathEngine:
    """Array-native shortest-path trees over a CSR :class:`Graph`.

    Parameters
    ----------
    graph:
        CSR adjacency (arcs already doubled for undirected tables).
    lengths:
        Optional per-arc lengths aligned with ``graph.weights``; defaults
        to the HSS effective proximity ``1 / weight``. Must be
        non-negative; non-finite entries mark unusable arcs.

    The distance pass runs on scipy's C Dijkstra. Zero-*length* arcs
    (possible only with a custom ``lengths`` array — the default
    ``1 / weight`` is always positive) send every root through the
    per-root heap instead, because predecessors derived from distances
    cannot reproduce the heap's discovery-order tie breaks across
    zero-length chains. ``backend`` reports which path was chosen
    (``"scipy"`` or ``"reference"``).
    """

    def __init__(self, graph: Graph, lengths: Optional[np.ndarray] = None):
        if lengths is None:
            lengths = effective_lengths(graph.weights)
        else:
            lengths = np.asarray(lengths, dtype=np.float64)
            if len(lengths) != graph.m:
                raise ValueError("lengths must have one entry per arc")
            if lengths.size and lengths.min() < 0:
                raise ValueError("Dijkstra requires non-negative lengths")
        self.graph = graph
        self.lengths = lengths
        usable = lengths[np.isfinite(lengths)]
        has_zero = bool(usable.size and usable.min() == 0.0)
        self.backend = "reference" if has_zero else "scipy"
        matrix = None if has_zero else _build_scipy_matrix(graph, lengths)
        self._csr: _Csr = (graph.indptr, graph.neighbors, lengths,
                           graph.arc_src, self.backend, matrix)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def distances(self, roots: Optional[Sequence[int]] = None,
                  chunk_size: Optional[int] = None,
                  workers: Optional[int] = None) -> np.ndarray:
        """``(len(roots), n_nodes)`` shortest distances (all roots default)."""
        roots = self._resolve_roots(roots)
        if roots.size == 0:
            return np.empty((0, self.graph.n_nodes), dtype=np.float64)
        chunks = chunked(
            roots, self._chunk_size(chunk_size, roots.size, workers))
        with span("sp.batch", op="distances", roots=int(roots.size),
                  chunks=len(chunks)):
            parts = parallel_map(partial(_chunk_distances, self._csr),
                                 chunks, workers=workers)
        return np.vstack(parts)

    def forest(self, roots: Optional[Sequence[int]] = None,
               chunk_size: Optional[int] = None,
               workers: Optional[int] = None) -> ShortestPathForest:
        """Distances plus predecessor nodes/arcs for every root."""
        roots = self._resolve_roots(roots)
        n = self.graph.n_nodes
        if roots.size == 0:
            empty_f = np.empty((0, n), dtype=np.float64)
            empty_i = np.empty((0, n), dtype=np.int64)
            return ShortestPathForest(roots, empty_f, empty_i, empty_i.copy())
        chunks = chunked(
            roots, self._chunk_size(chunk_size, roots.size, workers))
        with span("sp.batch", op="forest", roots=int(roots.size),
                  chunks=len(chunks)):
            parts = parallel_map(partial(_chunk_forest, self._csr),
                                 chunks, workers=workers)
        return ShortestPathForest(
            roots=roots,
            dist=np.vstack([p[0] for p in parts]),
            pred=np.vstack([p[1] for p in parts]),
            pred_arc=np.vstack([p[2] for p in parts]))

    def tree_arc_counts(self, roots: Optional[Sequence[int]] = None,
                        chunk_size: Optional[int] = None,
                        workers: Optional[int] = None) -> np.ndarray:
        """Per-arc usage counts across the roots' shortest-path trees.

        ``counts[a]`` is the number of given roots whose tree enters
        ``neighbors[a]`` through arc ``a`` — the superposition step of
        the High-Salience Skeleton, reduced chunk by chunk so the full
        ``(R, n)`` forest never has to be materialized.
        """
        roots = self._resolve_roots(roots)
        if roots.size == 0:
            return np.zeros(self.graph.m, dtype=np.int64)
        chunks = chunked(
            roots, self._chunk_size(chunk_size, roots.size, workers))
        with span("sp.batch", op="tree_arc_counts",
                  roots=int(roots.size), chunks=len(chunks)):
            parts = parallel_map(partial(_chunk_arc_counts, self._csr),
                                 chunks, workers=workers)
        return np.sum(parts, axis=0)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _resolve_roots(self, roots: Optional[Sequence[int]]) -> np.ndarray:
        if roots is None:
            return np.arange(self.graph.n_nodes, dtype=np.int64)
        roots = np.atleast_1d(np.asarray(roots, dtype=np.int64))
        if roots.size and (roots.min() < 0
                           or roots.max() >= self.graph.n_nodes):
            raise ValueError("root index out of range")
        return roots

    def _chunk_size(self, explicit: Optional[int], n_roots: int,
                    workers: Optional[int]) -> int:
        if explicit is not None:
            return max(1, int(explicit))
        widest = max(self.graph.n_nodes, self.graph.m, 1)
        size = max(1, _CHUNK_BUDGET // widest)
        # Make sure a requested fan-out actually gets one chunk per
        # worker, even when the memory budget would allow fewer, larger
        # chunks.
        count = resolve_workers(workers)
        if count > 1:
            size = min(size, -(-n_roots // count))
        return max(1, size)


# ----------------------------------------------------------------------
# Chunk kernels (module level so multiprocessing can pickle them)
# ----------------------------------------------------------------------


def _chunk_distances(csr: _Csr, roots: np.ndarray) -> np.ndarray:
    if csr[4] == "reference":
        return _reference_chunk_forest(csr, roots)[0]
    return _scipy_chunk_distances(csr, roots)


def _build_scipy_matrix(graph: Graph, lengths: np.ndarray):
    """Length-weighted sparse adjacency for scipy's Dijkstra, built once."""
    from scipy.sparse import csr_matrix

    n = graph.n_nodes
    usable = np.isfinite(lengths)
    src, dst = graph.arc_src[usable], graph.neighbors[usable]
    val = lengths[usable]
    # The COO -> CSR conversion *sums* duplicate entries; parallel arcs
    # must be pre-reduced to their minimum length instead.
    key = src * n + dst
    if key.size and len(np.unique(key)) != key.size:
        order = np.argsort(key, kind="stable")
        key, val = key[order], val[order]
        starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        val = np.minimum.reduceat(val, starts)
        key = key[starts]
        src, dst = key // n, key % n
    return csr_matrix((val, (src, dst)), shape=(n, n))


def _scipy_chunk_distances(csr: _Csr, roots: np.ndarray) -> np.ndarray:
    """Distance pass via scipy's C Dijkstra (bit-identical to the heap)."""
    from scipy.sparse import csgraph

    return csgraph.dijkstra(csr[5], directed=True, indices=roots)


def _chunk_forest(csr: _Csr, roots: np.ndarray
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    if csr[4] == "reference":
        return _reference_chunk_forest(csr, roots)
    dist = _chunk_distances(csr, roots)
    pred, pred_arc = _derive_predecessors(csr, roots, dist)
    return dist, pred, pred_arc


def _chunk_arc_counts(csr: _Csr, roots: np.ndarray) -> np.ndarray:
    _, _, pred_arc = _chunk_forest(csr, roots)
    used = pred_arc[pred_arc != _UNREACHED]
    return np.bincount(used, minlength=len(csr[1])).astype(np.int64)


def _reference_chunk_forest(csr: _Csr, roots: np.ndarray
                            ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-root binary-heap Dijkstra — the zero-length-arc fallback.

    A chain of zero-length arcs lets a larger-id node settle before a
    smaller-id one at equal distance (the latter may not be discovered
    yet), so tie-breaks follow discovery order and cannot be derived
    from distances alone. This path reproduces them the obvious way.
    """
    indptr, neighbors, lengths, arc_src = csr[:4]
    n = len(indptr) - 1
    n_roots = len(roots)
    dist = np.full((n_roots, n), np.inf)
    pred = np.full((n_roots, n), _UNREACHED, dtype=np.int64)
    for row, source in enumerate(roots):
        d, p = dist[row], pred[row]
        d[source] = 0.0
        done = np.zeros(n, dtype=bool)
        heap: list = [(0.0, int(source))]
        while heap:
            du, u = heapq.heappop(heap)
            if done[u]:
                continue
            done[u] = True
            for idx in range(indptr[u], indptr[u + 1]):
                v = neighbors[idx]
                length = lengths[idx]
                if not np.isfinite(length):
                    continue
                candidate = du + length
                if candidate < d[v]:
                    d[v] = candidate
                    p[v] = u
                    heapq.heappush(heap, (candidate, int(v)))
    # Recover the arc realizing each (pred, child) choice: the lowest
    # arc index satisfying the equality, matching heap relaxation order.
    m = len(neighbors)
    on_tree = (dist[:, arc_src] + lengths[None, :] == dist[:, neighbors])
    on_tree &= pred[:, neighbors] == arc_src[None, :]
    row_idx, arc_idx = np.nonzero(on_tree)
    pred_arc = np.full(n_roots * n, m, dtype=np.int64)
    _scatter_min(pred_arc, row_idx * n + neighbors[arc_idx], arc_idx)
    pred_arc[pred_arc == m] = _UNREACHED
    return dist, pred, pred_arc.reshape(n_roots, n)


def _derive_predecessors(csr: _Csr, roots: np.ndarray, dist: np.ndarray
                         ) -> Tuple[np.ndarray, np.ndarray]:
    """Reconstruct the reference heap's predecessor choice from distances.

    For every reached non-root node the reference parent is the arc
    ``u -> v`` satisfying ``dist[u] + length == dist[v]`` whose source
    minimizes ``(dist[u], u)`` — the heap's settle order (valid because
    with positive lengths every equal-distance node is already in the
    heap before the first of them pops; the zero-length case goes
    through the per-root heap instead). Stage 1 finds the minimal
    ``dist[u]`` per target; stage 2 resolves ``(u, arc)`` in one
    scatter-min over the packed key ``u * m + arc``.
    """
    indptr, neighbors, lengths, arc_src = csr[:4]
    n_roots, n = dist.shape
    m = len(neighbors)
    dist_src = dist[:, arc_src]
    dist_dst = dist[:, neighbors]
    on_tree = (dist_src + lengths[None, :] == dist_dst)
    on_tree &= np.isfinite(dist_dst)
    on_tree &= (arc_src != neighbors)[None, :]
    row_idx, arc_idx = np.nonzero(on_tree)
    flat_dst = row_idx * n + neighbors[arc_idx]
    src_dist = dist_src[on_tree]

    best_dist = np.full(n_roots * n, np.inf)
    _scatter_min(best_dist, flat_dst, src_dist)
    stage2 = src_dist == best_dist[flat_dst]
    flat2, arc2 = flat_dst[stage2], arc_idx[stage2]

    packed = np.full(n_roots * n, n * m + m, dtype=np.int64)
    _scatter_min(packed, flat2, arc_src[arc2] * m + arc2)

    reached = packed != n * m + m
    pred = np.full(n_roots * n, _UNREACHED, dtype=np.int64)
    pred_arc = np.full(n_roots * n, _UNREACHED, dtype=np.int64)
    pred[reached] = packed[reached] // m
    pred_arc[reached] = packed[reached] % m
    pred = pred.reshape(n_roots, n)
    pred_arc = pred_arc.reshape(n_roots, n)
    rows = np.arange(n_roots)
    pred[rows, roots] = _UNREACHED
    pred_arc[rows, roots] = _UNREACHED
    return pred, pred_arc


def _scatter_min(target: np.ndarray, index: np.ndarray,
                 values: np.ndarray) -> None:
    """``target[index] = min(target[index], values)`` with duplicates.

    Sort + ``reduceat`` beats ``np.minimum.at`` (which has no fast path)
    by a wide margin on large slabs.
    """
    if len(index) == 0:
        return
    order = np.argsort(index, kind="stable")
    idx = index[order]
    val = values[order]
    starts = np.flatnonzero(np.r_[True, idx[1:] != idx[:-1]])
    group_min = np.minimum.reduceat(val, starts)
    pos = idx[starts]
    target[pos] = np.minimum(target[pos], group_min)
