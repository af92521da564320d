import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsr import complete_graph, enumerate_connected, from_edge_list, isomorphic, kpq
from dsr.graphs import upper_triangle_pairs
from dsr.isomorphism import canonical_form
from helpers import cycle_graph, path_graph, perm_canonical, random_graph, star_graph


def relabel(g, perm):
    return from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def test_relabeled_copy():
    g = kpq(3, 1)
    h = from_edge_list(4, [(1, 2), (2, 3), (3, 1), (0, 1)])  # pendant-first labeling
    assert isomorphic(g, h)


def test_degree_sequences_differ():
    assert not isomorphic(path_graph(4), star_graph(4))


def test_connectivity_differs():
    two_triangles = from_edge_list(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert not isomorphic(cycle_graph(6), two_triangles)


def test_order_mismatch():
    assert not isomorphic(path_graph(3), path_graph(4))


def test_equivalence_relation_spot_checks():
    rng = random.Random(7)
    sample = list(enumerate_connected(5))
    for g in sample:
        assert isomorphic(g, g)  # reflexive
    for g in sample[:8]:
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = relabel(g, perm)
        assert isomorphic(g, h) and isomorphic(h, g)  # symmetric
        perm2 = list(range(g.n))
        rng.shuffle(perm2)
        k = relabel(h, perm2)
        # transitive: g ~ h and h ~ k force g ~ k
        assert isomorphic(h, k) and isomorphic(g, k)


@pytest.mark.parametrize("n", [4, 5])
def test_against_permutation_oracle(n):
    rng = random.Random(n)
    classes = list(enumerate_connected(n))
    for _ in range(60):
        g = rng.choice(classes)
        h = rng.choice(classes)
        perm = list(range(n))
        rng.shuffle(perm)
        h = relabel(h, perm)
        assert isomorphic(g, h) == (perm_canonical(g) == perm_canonical(h))


def test_cospectral_degree_twins_distinguished():
    # same degree sequence [1,1,2,2,3,3], different structure
    g = from_edge_list(6, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (2, 5)])
    h = from_edge_list(6, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (3, 5)])
    assert sorted(g.degree(v) for v in range(6)) == sorted(h.degree(v) for v in range(6))
    assert isomorphic(g, h) == (perm_canonical(g) == perm_canonical(h))


def hypercube(d):
    return from_edge_list(1 << d, [(v, v | 1 << i) for v in range(1 << d)
                                   for i in range(d) if not v >> i & 1])


def paley(q):
    squares = {x * x % q for x in range(1, q)}
    return from_edge_list(q, [(u, v) for u in range(q) for v in range(u + 1, q)
                              if (v - u) % q in squares])


def shuffled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return relabel(g, perm)


def test_canonical_form_matches_permutation_oracle_n5():
    """Over all 1024 labeled order-5 graphs, disconnected ones included, the
    canonical form splits them exactly as the permutation minimum does."""
    pairs = upper_triangle_pairs(5)
    form_of = {}
    for mask in range(1 << len(pairs)):
        g = from_edge_list(5, [pair for idx, pair in enumerate(pairs) if mask >> idx & 1])
        form = canonical_form(g)
        assert isomorphic(form, g)
        assert form_of.setdefault(perm_canonical(g), form) == form
    assert len(form_of) == len(set(form_of.values())) == 34


@settings(max_examples=60, deadline=None, database=None)
@given(n=st.integers(1, 64), p=st.floats(0.0, 1.0), seed=st.integers(0, 2**32))
def test_canonical_form_invariant_under_relabeling(n, p, seed):
    rng = random.Random(seed)
    g = random_graph(rng, n, p)
    assert canonical_form(shuffled(g, rng)) == canonical_form(g)


@pytest.mark.parametrize("g", [
    hypercube(6),
    cycle_graph(64),
    paley(61),
    from_edge_list(64, [(2 * i, 2 * i + 1) for i in range(32)]),  # perfect matching
], ids=["Q6", "C64", "Paley61", "32K2"])
def test_symmetric_graphs_against_relabeled_copies(g):
    """Large automorphism groups stay fast only through the search pruning."""
    rng = random.Random(g.n)
    start = time.perf_counter()
    assert isomorphic(g, shuffled(g, rng))
    assert time.perf_counter() - start < 10.0


def test_symmetric_non_isomorphic_pair():
    # both vertex-transitive and 6-regular on 64 vertices, so no degree or
    # edge count tells them apart
    circulant = from_edge_list(64, [(v, (v + j) % 64) for v in range(64) for j in (1, 2, 3)])
    start = time.perf_counter()
    assert not isomorphic(hypercube(6), circulant)
    assert time.perf_counter() - start < 10.0


def test_against_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randint(1, 12)
        g = random_graph(rng, n, rng.random())
        h = shuffled(random_graph(rng, n, rng.random()) if rng.random() < 0.3 else g, rng)
        if rng.random() < 0.3 and n > 1:
            u, v = rng.sample(range(n), 2)
            h = h.without_edge(u, v) if h.has_edge(u, v) else h.with_edge(u, v)
        gx, hx = nx.Graph(g.edges()), nx.Graph(h.edges())
        gx.add_nodes_from(range(n))
        hx.add_nodes_from(range(n))
        assert isomorphic(g, h) == nx.is_isomorphic(gx, hx)
