"""Shared test helpers, including brute-force oracles kept deliberately
independent of the production code paths they check."""

from itertools import permutations

from dsr import Graph, from_edge_list
from dsr.graphs import upper_triangle_pairs


def path_graph(n: int) -> Graph:
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(n: int) -> Graph:
    return from_edge_list(n, [(0, i) for i in range(1, n)])


def random_graph(rng, n: int, p: float) -> Graph:
    """Erdos-Renyi sample G(n, p), possibly disconnected."""
    return from_edge_list(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                              if rng.random() < p])


def random_connected(rng, n: int, p: float) -> Graph:
    """G(n, p) plus a random spanning tree (vertex v joins an earlier one)."""
    tree = [(rng.randrange(v), v) for v in range(1, n)]
    return from_edge_list(n, tree + random_graph(rng, n, p).edges())


def perm_canonical(g: Graph) -> tuple:
    """Minimum adjacency bit string over all vertex permutations.

    Exponential; usable up to n ~ 6.  Two graphs are isomorphic iff their
    minima coincide, independent of the production isomorphism code.
    """
    pairs = upper_triangle_pairs(g.n)
    best = None
    for perm in permutations(range(g.n)):
        s = tuple(1 if g.has_edge(perm[i], perm[j]) else 0 for i, j in pairs)
        if best is None or s < best:
            best = s
    return best
