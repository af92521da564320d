"""Distance spectral radius toolkit for small connected graphs.

Computes distance matrices, their dominant eigenpairs, and global minimum
edge cuts; enumerates connected isomorphism classes up to order 8; and
verifies, exhaustively at small order and property-based elsewhere, that
the clique-with-attached-vertex graph kpq(n-1, r) uniquely minimizes the
distance spectral radius among connected order-n graphs of edge
connectivity r.
"""

from .cuts import CutCertificate, brute_force_min_cut, edge_connectivity, min_degree
from .enumeration import enumerate_connected
from .families import (
    BridgeFamilyParams,
    bridge_graph,
    bridge_graph_tilde,
    complete_graph,
    kpq,
    random_cross_edges,
    tilde_level_groups,
)
from .graph6 import Graph6Error, graph6_decode, graph6_encode
from .graphs import (
    DisconnectedGraphError,
    DistanceMatrix,
    Graph,
    bfs_distances,
    distance_matrix,
    from_edge_list,
    is_connected,
)
from .isomorphism import isomorphic
from .spectra import (
    ConvergenceError,
    PerronPair,
    perron,
    perron_group_pattern,
    perron_stack,
    quadratic_form,
    rayleigh_bound_check,
)
from .verify import (
    ClassTable,
    CorpusError,
    CutOrderVerdict,
    ExtremalReport,
    LemmaVerdict,
    PerronOrderVerdict,
    VerificationError,
    check_cut_order_bound,
    check_degree_r_reduction,
    check_edge_monotonicity,
    check_form_shift_identity,
    check_hub_row_identity,
    check_perron_order,
    check_transformation,
    class_table,
    extremal_search,
    graph_rho,
    run_all_suites,
)

__version__ = "0.1.0"

__all__ = [
    "BridgeFamilyParams",
    "ClassTable",
    "ConvergenceError",
    "CorpusError",
    "CutCertificate",
    "CutOrderVerdict",
    "DisconnectedGraphError",
    "DistanceMatrix",
    "ExtremalReport",
    "Graph",
    "Graph6Error",
    "LemmaVerdict",
    "PerronOrderVerdict",
    "PerronPair",
    "VerificationError",
    "bfs_distances",
    "bridge_graph",
    "bridge_graph_tilde",
    "brute_force_min_cut",
    "check_cut_order_bound",
    "check_degree_r_reduction",
    "check_edge_monotonicity",
    "check_form_shift_identity",
    "check_hub_row_identity",
    "check_perron_order",
    "check_transformation",
    "class_table",
    "complete_graph",
    "distance_matrix",
    "edge_connectivity",
    "enumerate_connected",
    "extremal_search",
    "from_edge_list",
    "graph6_decode",
    "graph6_encode",
    "graph_rho",
    "is_connected",
    "isomorphic",
    "kpq",
    "min_degree",
    "perron",
    "perron_group_pattern",
    "perron_stack",
    "quadratic_form",
    "random_cross_edges",
    "rayleigh_bound_check",
    "run_all_suites",
    "tilde_level_groups",
]
