"""Space-efficient directed reachability via balanced tree decompositions."""

from .graph import (DiGraph, GraphFormatError, VertexSet, bfs_reachable,
                    component_containing, parse_graph, undirected_components,
                    vset, write_graph)
from .decomp import (BalancedTD, TdFormatError, TreeDecomp, ValidityReport,
                     binarize_balance, parse_td, validate_td, write_td)
from .separator import SeparatorResult, is_balanced_separator, sep
from .recursive import (RDContext, RDNode, build_balanced,
                        build_hat_decomposition, hat_bag, materialize_rd,
                        rd_children)
from .sequences import (LeafSeq, dominating_subsequence, lseq_element,
                        lseq_length, useq_counts, useq_element, useq_length,
                        useq_stream)
from .engine import (AncestorOrder, GadView, ReachReport, ancestor_vertices,
                     gad_view, reach, reach_balanced)
from .gen import BenchRecord, KTreeSpec, bench, bench_csv, bench_one, gen_ktree

__all__ = [
    "DiGraph", "GraphFormatError", "VertexSet", "bfs_reachable",
    "component_containing", "parse_graph", "undirected_components", "vset",
    "write_graph",
    "BalancedTD", "TdFormatError", "TreeDecomp", "ValidityReport",
    "binarize_balance", "parse_td", "validate_td", "write_td",
    "SeparatorResult", "is_balanced_separator", "sep",
    "RDContext", "RDNode", "build_balanced", "build_hat_decomposition",
    "hat_bag", "materialize_rd", "rd_children",
    "LeafSeq", "dominating_subsequence", "lseq_element", "lseq_length",
    "useq_counts", "useq_element", "useq_length", "useq_stream",
    "AncestorOrder", "GadView", "ReachReport", "ancestor_vertices", "gad_view",
    "reach", "reach_balanced",
    "BenchRecord", "KTreeSpec", "bench", "bench_csv", "bench_one", "gen_ktree",
]
