"""Distance spectral radius toolkit for small connected graphs.

Computes distance matrices, their dominant eigenpairs, and global minimum
edge cuts; enumerates connected isomorphism classes up to order 8; and
verifies, exhaustively at small order and property-based elsewhere, that
the clique-with-attached-vertex graph kpq(n-1, r) uniquely minimizes the
distance spectral radius among connected order-n graphs of edge
connectivity r.
"""

from .cuts import brute_force_min_cut, edge_connectivity, min_cuts
from .enumeration import enumerate_connected
from .families import (
    BridgeFamilyParams,
    bridge_graph,
    bridge_graph_tilde,
    complete_graph,
    is_kpq,
    kpq,
    random_cross_edges,
    tilde_level_groups,
)
from .graph6 import Graph6Error, graph6_decode, graph6_encode
from .graphs import (
    DisconnectedGraphError,
    Graph,
    distance_matrix,
    from_edge_list,
    is_connected,
)
from .isomorphism import isomorphic
from .spectra import (
    ConvergenceError,
    PerronPair,
    perron,
    perron_stack,
)
from .verify import (
    ClassTable,
    CorpusError,
    ExtremalReport,
    LemmaVerdict,
    class_table,
    extremal_search,
    run_all_suites,
)

__version__ = "0.1.0"

__all__ = [
    "BridgeFamilyParams",
    "ClassTable",
    "ConvergenceError",
    "CorpusError",
    "DisconnectedGraphError",
    "ExtremalReport",
    "Graph",
    "Graph6Error",
    "LemmaVerdict",
    "PerronPair",
    "bridge_graph",
    "bridge_graph_tilde",
    "brute_force_min_cut",
    "class_table",
    "complete_graph",
    "distance_matrix",
    "edge_connectivity",
    "enumerate_connected",
    "extremal_search",
    "from_edge_list",
    "graph6_decode",
    "graph6_encode",
    "is_connected",
    "is_kpq",
    "isomorphic",
    "kpq",
    "min_cuts",
    "perron",
    "perron_stack",
    "random_cross_edges",
    "run_all_suites",
    "tilde_level_groups",
]
