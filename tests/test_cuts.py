import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsr import (
    BridgeFamilyParams,
    DisconnectedGraphError,
    Graph,
    bridge_graph,
    brute_force_min_cut,
    complete_graph,
    edge_connectivity,
    from_edge_list,
    is_connected,
    kpq,
    min_degree,
    enumerate_connected,
)
from helpers import cycle_graph, path_graph, random_connected


def assert_valid_certificate(g, cert):
    """Certificate invariants: sides partition V, cut edges are exactly the
    crossing edges, and removing them leaves the two sides as components."""
    assert set(cert.side_a) | set(cert.side_b) == set(range(g.n))
    assert not set(cert.side_a) & set(cert.side_b)
    assert cert.side_a and cert.side_b
    in_a = set(cert.side_a)
    crossing = sorted(
        (u, v) for u, v in g.edges() if (u in in_a) != (v in in_a)
    )
    assert sorted(cert.cut_edges) == crossing
    assert cert.size == len(crossing)
    stripped = g
    for u, v in cert.cut_edges:
        stripped = stripped.without_edge(u, v)
    assert not is_connected(stripped)
    # each side is one whole component of the stripped graph
    for side in (cert.side_a, cert.side_b):
        reach = {side[0]}
        frontier = [side[0]]
        while frontier:
            u = frontier.pop()
            for w in stripped.neighbors(u):
                if w not in reach:
                    reach.add(w)
                    frontier.append(w)
        assert reach == set(side)


class TestEdgeConnectivity:
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_complete(self, n):
        assert edge_connectivity(complete_graph(n)).size == n - 1

    def test_kpq_isolates_added_vertex(self):
        cert = edge_connectivity(kpq(4, 2))
        assert cert.size == 2
        assert cert.side_b == (4,)
        assert cert.cut_edges == ((0, 4), (1, 4))

    def test_c5(self):
        assert edge_connectivity(cycle_graph(5)).size == 2

    def test_single_vertex_rejected(self):
        with pytest.raises(ValueError):
            edge_connectivity(Graph(1, (0,)))

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            edge_connectivity(from_edge_list(4, [(0, 1), (2, 3)]))

    def test_k2(self):
        cert = edge_connectivity(complete_graph(2))
        assert cert.size == 1 and cert.cut_edges == ((0, 1),)


class TestBruteForceMinCut:
    def test_p4_bridge(self):
        assert brute_force_min_cut(path_graph(4)).size == 1

    def test_k4(self):
        assert brute_force_min_cut(complete_graph(4)).size == 3

    def test_bridge_graph_sides_are_cliques(self):
        cert = brute_force_min_cut(bridge_graph(BridgeFamilyParams(4, 4, 2, 2)))
        assert cert.size == 2
        assert cert.side_a == (0, 1, 2, 3)
        assert cert.side_b == (4, 5, 6, 7)

    def test_size_cap(self):
        with pytest.raises(ValueError, match="n <= 12"):
            brute_force_min_cut(complete_graph(13))


class TestMinDegree:
    def test_examples(self):
        assert min_degree(complete_graph(5)) == 4
        assert min_degree(kpq(4, 2)) == 2
        assert min_degree(path_graph(3)) == 1


@pytest.mark.parametrize("n", range(2, 7))
def test_phase_contraction_matches_brute_force(n):
    for g in enumerate_connected(n):
        fast = edge_connectivity(g)
        slow = brute_force_min_cut(g)
        assert fast.size == slow.size
        assert fast.size <= min_degree(g)
        assert_valid_certificate(g, fast)
        assert_valid_certificate(g, slow)


@settings(max_examples=40, deadline=None, database=None)
@given(n=st.integers(2, 12), p=st.floats(0.0, 1.0), seed=st.integers(0, 2**32))
def test_phase_contraction_matches_brute_force_random(n, p, seed):
    g = random_connected(random.Random(seed), n, p)
    cert = edge_connectivity(g)
    assert cert.size == brute_force_min_cut(g).size
    assert_valid_certificate(g, cert)
