"""Seeded synthetic sources for the benchmark, each with a planted truth.

Three sources, all built with numpy and :mod:`repro.generators`:

* **A** — the paper's Fig. 4 setting: a Barabási–Albert truth buried
  in the complement-filling noise model (:func:`add_noise`). Complete
  and undirected, written as ``.npz``.
* **B** — sparse and directed, with heavy-tailed (Pareto) out and in
  propensities: interaction counts drawn degree-proportionally, plus a
  planted set of edges whose counts are boosted well above what the
  endpoints' propensities explain. Written as ``.csv``.
* **C** — the same model as B at streaming scale, written as ``.csv``.

The truth of each source is written next to it (``<name>.truth.npz``)
and its sizes and seed go into :class:`Source`, which every result
records. The same seed always yields byte-identical files.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass

import numpy as np

from repro.generators import add_noise, barabasi_albert, spawn_rngs
from repro.graph.edge_table import EdgeTable
from repro.graph.ingest import write_edges

#: Fig. 4 noise level: true weights ~ U(eta, 1), noise ~ U(0, eta),
#: both scaled by the endpoints' planted degrees.
ETA = 0.3

#: Pareto shape of the B/C node propensities (heavier tail = smaller).
PARETO_SHAPE = 2.5

#: Planted edges as a share of the B/C rows, and their count boost.
TRUTH_SHARE = 0.01
TRUTH_BOOST = 12.0


@dataclass(frozen=True)
class Source:
    """One generated source file and its planted truth."""

    name: str
    path: str
    truth_path: str
    directed: bool
    rows: int
    nodes: int
    truth_edges: int
    seed: int

    def record(self) -> dict:
        """Sizes and seed, without the local paths."""
        info = asdict(self)
        del info["path"], info["truth_path"]
        return info


def source_a(workdir: str, seed: int, n_nodes: int) -> Source:
    """Fig. 4: BA(n_nodes, m=3) truth plus noise on every non-edge."""
    rng_truth, rng_noise = spawn_rngs(seed, 2)
    truth = barabasi_albert(n_nodes, m=3, seed=rng_truth)
    noisy = add_noise(truth, ETA, seed=rng_noise)
    return _write("A", workdir, seed, noisy.observed, truth, "npz")


def source_directed(name: str, workdir: str, seed: int, n_nodes: int,
                    rows: int) -> Source:
    """Sparse directed counts with heavy-tailed node propensities.

    Interactions land on ordered pairs with probability proportional
    to ``out[i] * in[j]`` and repeated pairs add up; the first ``rows``
    distinct pairs drawn become the edges, so every seed yields the
    same row count, in draw order. A random ``TRUTH_SHARE`` of the
    edges is planted: each gains ``TRUTH_BOOST`` times its own count,
    far more weight than its endpoints' propensities predict.
    """
    rng = spawn_rngs(seed, 1)[0]
    out_p = rng.pareto(PARETO_SHAPE, n_nodes) + 1.0
    in_p = rng.pareto(PARETO_SHAPE, n_nodes) + 1.0
    draws = 2 * rows
    src = rng.choice(n_nodes, size=draws, p=out_p / out_p.sum())
    dst = rng.choice(n_nodes, size=draws, p=in_p / in_p.sum())
    keep = src != dst
    keys, first, counts = np.unique(src[keep] * n_nodes + dst[keep],
                                    return_index=True, return_counts=True)
    if len(keys) < rows:
        raise ValueError(f"source {name}: only {len(keys)} distinct "
                         f"pairs for {rows} rows; raise n_nodes")
    order = np.argsort(first)[:rows]
    keys, weight = keys[order], counts[order].astype(np.float64)
    planted = rng.random(rows) < TRUTH_SHARE
    weight[planted] *= 1.0 + TRUTH_BOOST
    observed = EdgeTable(keys // n_nodes, keys % n_nodes, weight,
                         n_nodes=n_nodes, directed=True, coalesce=False)
    truth = observed.subset(planted)
    return _write(name, workdir, seed, observed, truth, "csv")


def _write(name, workdir, seed, observed, truth, suffix) -> Source:
    path = os.path.join(workdir, f"{name}.{suffix}")
    truth_path = os.path.join(workdir, f"{name}.truth.npz")
    write_edges(observed, path)
    write_edges(truth, truth_path)
    return Source(name=name, path=path, truth_path=truth_path,
                  directed=observed.directed, rows=int(observed.m),
                  nodes=int(observed.n_nodes), truth_edges=int(truth.m),
                  seed=int(seed))


def precision(backbone: EdgeTable, truth: EdgeTable) -> float:
    """Share of backbone edges that are planted truth edges, matched
    by endpoint labels (unordered pairs when undirected)."""
    def pairs(table):
        found = zip(map(table.label_of, table.src),
                    map(table.label_of, table.dst))
        if table.directed:
            return set(found)
        return {tuple(sorted(pair)) for pair in found}

    if backbone.m == 0:
        return 0.0
    return len(pairs(backbone) & pairs(truth)) / backbone.m
