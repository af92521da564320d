"""Shared test helpers, including brute-force oracles kept deliberately
independent of the production code paths they check."""

from functools import lru_cache
from itertools import permutations

from dsr import Graph, from_edge_list
from dsr.graphs import upper_triangle_pairs
from dsr.isomorphism import canonical_form


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


@lru_cache(maxsize=None)
def unfiltered_classes(n: int) -> frozenset:
    """Canonical rows of the connected order-n classes, grown from the
    order-(n-1) ones by adding a vertex joined to every nonempty subset of
    the old ones and canonicalizing every candidate, with no acceptance rule.
    """
    if n == 1:
        return frozenset({(0,)})
    new_bit = 1 << (n - 1)
    classes = set()
    for prow in unfiltered_classes(n - 1):
        for sub in range(1, new_bit):
            rows = tuple(
                prow[i] | new_bit if sub >> i & 1 else prow[i] for i in range(n - 1)
            ) + (sub,)
            classes.add(canonical_form(Graph(n, rows)).rows)
    return frozenset(classes)


def count_calls(monkeypatch, module, name):
    """Replace ``module.name`` with a wrapper; returns the list of call args."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls
