"""Section VI case study: skill relatedness and occupational labor flows.

The steps, mirroring the paper:

1. build the occupation skill co-occurrence network (synthetic O*NET);
2. extract the NC backbone (δ filter) and a DF backbone of the same
   size ("roughly the same number of connections", as in the paper;
   HSS and DS are omitted — in the paper DS was not computable on this
   network and HSS did not finish);
3. compare topology (nodes kept), community structure (Infomap map
   equation compression, modularity and NMI against the expert two-digit
   classification);
4. fit the flow model ``F_ij = b1 C_ij + b2 S_i. + b3 S_.j`` on all
   pairs and restricted to each backbone's pairs, reporting the model
   correlation sqrt(R²).

Expected orderings (paper): NC keeps ~50 more nodes than DF; Infomap
compression 15.0% vs 9.3%; modularity .192 vs .115; NMI .423 vs .401;
flow correlation .390 (full) < .431 (DF) < .454 (NC).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..backbones.disparity import DisparityFilter
from ..community.infomap import compression_gain, infomap
from ..community.modularity import modularity
from ..community.nmi import normalized_mutual_information
from ..community.partition import Partition
from ..core.noise_corrected import NoiseCorrectedBackbone
from ..generators.occupations import (OccupationStudy,
                                      generate_occupation_study)
from ..graph.edge_table import EdgeTable
from ..stats.regression import ols
from .report import PAPER_CASE_STUDY, comparison_table


@dataclass(frozen=True)
class BackboneReport:
    """Per-backbone case-study metrics."""

    n_edges: int
    nodes_kept: int
    infomap_compression: float
    modularity_two_digit: float
    nmi_infomap_two_digit: float
    flow_correlation: float


@dataclass(frozen=True)
class CaseStudyResult:
    """Full case-study comparison."""

    n_occupations: int
    flow_correlation_full: float
    nc: BackboneReport
    df: BackboneReport

    def orderings_hold(self) -> bool:
        """The paper's qualitative claims as one boolean."""
        return (self.nc.nodes_kept >= self.df.nodes_kept
                and self.nc.infomap_compression
                > self.df.infomap_compression
                and self.nc.modularity_two_digit
                > self.df.modularity_two_digit
                and self.flow_correlation_full < self.df.flow_correlation
                and self.df.flow_correlation < self.nc.flow_correlation)


def run(study: Optional[OccupationStudy] = None, delta: float = 1.64,
        seed: int = 0) -> CaseStudyResult:
    """Run the full case study."""
    if study is None:
        study = generate_occupation_study(seed=seed)
    table = study.cooccurrence
    nc_backbone = NoiseCorrectedBackbone(delta=delta).extract(table)
    # "Roughly the same number of connections" for the DF comparison.
    df_backbone = DisparityFilter().extract(table,
                                            n_edges=nc_backbone.m)

    full_correlation = _flow_model_correlation(study, None)
    nc_report = _report(study, nc_backbone, seed)
    df_report = _report(study, df_backbone, seed)
    return CaseStudyResult(n_occupations=study.n_occupations,
                           flow_correlation_full=full_correlation,
                           nc=nc_report, df=df_report)


def _report(study: OccupationStudy, backbone: EdgeTable,
            seed: int) -> BackboneReport:
    two_digit = Partition(study.two_digit)
    communities = infomap(backbone, seed=seed)
    return BackboneReport(
        n_edges=backbone.m,
        nodes_kept=backbone.non_isolated_count(),
        infomap_compression=compression_gain(backbone, communities),
        modularity_two_digit=modularity(backbone, two_digit),
        nmi_infomap_two_digit=normalized_mutual_information(communities,
                                                            two_digit),
        flow_correlation=_flow_model_correlation(study, backbone),
    )


def _flow_model_correlation(study: OccupationStudy,
                            backbone: Optional[EdgeTable]) -> float:
    """sqrt(R²) of the paper's flow model, optionally restricted."""
    src, dst = study.flow_pairs()
    flows = study.flows[src, dst]
    common_skills = study.cooccurrence.to_dense()[src, dst]
    switch_out = study.flows.sum(axis=1) - np.diag(study.flows)
    switch_in = study.flows.sum(axis=0) - np.diag(study.flows)
    X = np.column_stack([common_skills, switch_out[src], switch_in[dst]])

    if backbone is None:
        mask = np.ones(len(src), dtype=bool)
    else:
        keys = backbone.edge_key_set()
        lo = np.minimum(src, dst)
        hi = np.maximum(src, dst)
        mask = np.fromiter(((u, v) in keys
                            for u, v in zip(lo.tolist(), hi.tolist())),
                           dtype=bool, count=len(src))
    fit = ols(flows[mask], X[mask],
              names=["common_skills", "origin_size", "destination_size"])
    return float(np.sqrt(max(fit.r_squared, 0.0)))


def format_result(result: CaseStudyResult) -> str:
    """Render ours vs the paper's case-study numbers."""
    paper = PAPER_CASE_STUDY
    rows = [
        ["nodes kept", result.nc.nodes_kept, result.df.nodes_kept,
         "NC keeps ~50 more"],
        ["edges", result.nc.n_edges, result.df.n_edges, "matched"],
        ["infomap compression", result.nc.infomap_compression,
         result.df.infomap_compression,
         f"{paper['infomap_compression_nc']} vs "
         f"{paper['infomap_compression_df']}"],
        ["modularity (2-digit)", result.nc.modularity_two_digit,
         result.df.modularity_two_digit,
         f"{paper['modularity_two_digit_nc']} vs "
         f"{paper['modularity_two_digit_df']}"],
        ["NMI (infomap, 2-digit)", result.nc.nmi_infomap_two_digit,
         result.df.nmi_infomap_two_digit,
         f"{paper['nmi_two_digit_nc']} vs {paper['nmi_two_digit_df']}"],
        ["flow correlation", result.nc.flow_correlation,
         result.df.flow_correlation,
         f"{paper['flow_correlation_nc']} vs "
         f"{paper['flow_correlation_df']}"],
        ["flow correlation (full net)", result.flow_correlation_full,
         result.flow_correlation_full,
         str(paper["flow_correlation_full"])],
    ]
    title = (f"Case study — occupation skill relatedness "
             f"({result.n_occupations} occupations)")
    return comparison_table(title, rows,
                            ["metric", "NC", "DF", "paper"])
