"""From-scratch directed-graph library powering the structural analyses."""

from .clustering import (
    average_clustering,
    clustering_coefficient,
    clustering_coefficients,
    sampled_clustering,
)
from .components import (
    ComponentDecomposition,
    scc_size_ccdf_input,
    strongly_connected_components,
    UnionFind,
    weakly_connected_components,
)
from .csr import CSRGraph
from .degree import (
    ccdf,
    cdf,
    degree_distributions,
    DegreeDistributions,
    EmpiricalCCDF,
)
from .msbfs import (
    batch_eccentricities,
    batch_hop_counts,
    msbfs_distances,
)
from .parallel import BFSEngine, SharedCSR
from .paths import (
    bfs_distances,
    DIRECTED,
    estimate_diameter,
    PathLengthDistribution,
    sampled_path_lengths,
    sampled_path_lengths_sequential,
    UNDIRECTED,
)
from .powerlaw import (
    fit_powerlaw,
    fit_powerlaw_ccdf,
    PowerLawFit,
    sample_powerlaw_degrees,
)
from .reciprocity import (
    global_reciprocity,
    reciprocated_edge_mask,
    reciprocity_cdf_input,
    relation_reciprocity,
)
from .sampling import sample_edges, sample_node_pairs, sample_nodes
from .stats import GraphSummary, summarize_graph

__all__ = [
    "average_clustering",
    "batch_eccentricities",
    "batch_hop_counts",
    "bfs_distances",
    "BFSEngine",
    "ccdf",
    "cdf",
    "clustering_coefficient",
    "clustering_coefficients",
    "ComponentDecomposition",
    "CSRGraph",
    "degree_distributions",
    "DegreeDistributions",
    "DIRECTED",
    "EmpiricalCCDF",
    "estimate_diameter",
    "fit_powerlaw",
    "fit_powerlaw_ccdf",
    "global_reciprocity",
    "GraphSummary",
    "msbfs_distances",
    "PathLengthDistribution",
    "PowerLawFit",
    "reciprocated_edge_mask",
    "reciprocity_cdf_input",
    "relation_reciprocity",
    "sample_edges",
    "sample_node_pairs",
    "sample_nodes",
    "sample_powerlaw_degrees",
    "sampled_clustering",
    "sampled_path_lengths",
    "sampled_path_lengths_sequential",
    "scc_size_ccdf_input",
    "SharedCSR",
    "strongly_connected_components",
    "summarize_graph",
    "UnionFind",
    "UNDIRECTED",
    "weakly_connected_components",
]
