import logging
import random
import re
from itertools import combinations

import numpy as np
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
    distance_matrix,
    min_cuts,
    enumerate_connected,
)
import dsr.graphs
from dsr.cuts import _diameter_at_most_2
from dsr.graphs import adjacency_stack
from dsr.verify import bridge_grid
from helpers import (count_calls, crossing_edges, cycle_graph, path_graph, random_connected,
                     reference_min_cut)


def assert_valid_certificate(g, cut):
    """Certificate invariants of a ``(size, side mask)`` pair: the side is a
    nonempty proper vertex set, the size counts the edges leaving it, and
    removing those leaves the side and the rest as components."""
    size, side = cut
    full = (1 << g.n) - 1
    assert 0 < side < full
    crossing = crossing_edges(g, side)
    assert size == len(crossing)
    stripped = g
    for u, v in crossing:
        stripped = stripped.without_edge(u, v)
    assert not is_connected(stripped)
    # each side is one whole component of the stripped graph
    for mask in (side, full ^ side):
        members = {v for v in range(g.n) if mask >> v & 1}
        start = min(members)
        reach = {start}
        frontier = [start]
        while frontier:
            u = frontier.pop()
            for w in range(g.n):
                if stripped.has_edge(u, w) and w not in reach:
                    reach.add(w)
                    frontier.append(w)
        assert reach == members


def min_degree(g):
    """The least degree of g, from its bit rows."""
    return min(map(g.degree, range(g.n)))


def scan(n, graphs):
    """The bipartition scan's cut sizes of order-n graphs, as a list."""
    return brute_force_min_cut(adjacency_stack(n, graphs)).tolist()


class TestEdgeConnectivity:
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_complete(self, n):
        assert edge_connectivity(complete_graph(n))[0] == n - 1

    def test_kpq_isolates_added_vertex(self):
        g = kpq(4, 2)
        size, side = edge_connectivity(g)
        assert (size, side) == (2, 1 << 4)
        assert crossing_edges(g, side) == [(0, 4), (1, 4)]

    def test_c5(self):
        assert edge_connectivity(cycle_graph(5))[0] == 2

    def test_single_vertex_rejected(self):
        with pytest.raises(ValueError):
            edge_connectivity(Graph(1, (0,)))

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            edge_connectivity(from_edge_list(4, [(0, 1), (2, 3)]))

    def test_k2(self):
        assert edge_connectivity(complete_graph(2)) == (1, 1 << 0)


class TestBruteForceMinCut:
    def test_p4_bridge(self):
        assert scan(4, [path_graph(4)]) == [1]

    def test_k4(self):
        assert scan(4, [complete_graph(4)]) == [3]

    def test_bridge_graph_sides_are_cliques(self):
        g = bridge_graph(BridgeFamilyParams(4, 4, 2, 2))
        assert scan(8, [g]) == [2]
        # the least side of minimum cut, by the per-mask loop, is one clique
        assert reference_min_cut(g) == (2, 0b00001111)

    def test_size_cap(self):
        with pytest.raises(ValueError, match="n <= 12"):
            scan(13, [complete_graph(13)])

    def test_single_vertex_rejected(self):
        with pytest.raises(ValueError, match="2 <= n"):
            scan(1, [Graph(1, (0,))])

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            scan(4, [complete_graph(4), from_edge_list(4, [(0, 1), (2, 3)])])

    def test_empty_stack(self):
        sizes = brute_force_min_cut(adjacency_stack(5, []))
        assert sizes.shape == (0,) and sizes.dtype == np.int64

    @pytest.mark.parametrize("g", [
        from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 0)]),  # vertex 4 alone
        from_edge_list(5, [(1, 2), (2, 3), (3, 4), (4, 1)]),  # vertex 0 alone
        from_edge_list(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]),  # two triangles
    ], ids=["last-isolated", "first-isolated", "two-triangles"])
    def test_zero_cut_names_the_graph(self, g):
        stack = [complete_graph(g.n), g]
        with pytest.raises(DisconnectedGraphError, match="stack graph 1 is disconnected"):
            scan(g.n, stack)

    def test_zero_cut_in_a_later_chunk(self, monkeypatch):
        monkeypatch.setattr(dsr.graphs, "STACK_ENTRIES", 2 * 15 * 5)  # two a chunk
        stack = [complete_graph(5)] * 3 + [from_edge_list(5, [(0, 1), (2, 3), (3, 4)])]
        with pytest.raises(DisconnectedGraphError, match="stack graph 3 is disconnected"):
            scan(5, stack)

    def test_chunks_match_one_graph_scans(self, monkeypatch):
        # one product per chunk: the default chunk holds 88 order-6 graphs,
        # so the 112 classes take two; a chunk of two graphs takes 56
        graphs = list(enumerate_connected(6))
        scans = count_calls(monkeypatch, np, "einsum")
        whole = scan(6, graphs)
        assert len(scans) == 2
        monkeypatch.setattr(dsr.graphs, "STACK_ENTRIES", 2 * 31 * 6)
        assert scan(6, graphs) == whole
        assert len(scans) == 2 + 56
        assert whole == [scan(6, [g])[0] for g in graphs]


@pytest.mark.parametrize("n", range(2, 9))
def test_phase_contraction_matches_brute_force(n):
    graphs = list(enumerate_connected(n))
    for g, slow in zip(graphs, scan(n, graphs), strict=True):
        fast = edge_connectivity(g)
        assert fast[0] == slow
        assert fast[0] <= min_degree(g)
        assert_valid_certificate(g, fast)


@settings(max_examples=40, deadline=None, database=None)
@given(n=st.integers(2, 12), p=st.floats(0.0, 1.0), seed=st.integers(0, 2**32))
def test_phase_contraction_matches_brute_force_random(n, p, seed):
    g = random_connected(random.Random(seed), n, p)
    cert = edge_connectivity(g)
    assert cert[0] == scan(n, [g])[0]
    assert_valid_certificate(g, cert)


@pytest.mark.parametrize("n", range(2, 8))
def test_bipartition_scan_matches_per_mask_loop(n):
    # oracle: the least mask of minimum cut, one mask and one row at a time,
    # whose sides are the two components left when its cut edges go
    graphs = list(enumerate_connected(n))
    refs = [reference_min_cut(g) for g in graphs]
    assert scan(n, graphs) == [size for size, _ in refs]
    for g, ref in zip(graphs, refs):
        assert_valid_certificate(g, ref)


@pytest.mark.parametrize("n", range(2, 6))
def test_zero_cut_exactly_on_disconnected_labelled_graphs(n):
    # every labelled order-n graph: the scan raises on each disconnected one
    # alone, and sizes the connected ones as the per-mask loop does
    pairs = list(combinations(range(n), 2))
    graphs = [from_edge_list(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
              for mask in range(1 << len(pairs))]
    connected = [g for g in graphs if is_connected(g)]
    assert scan(n, connected) == [reference_min_cut(g)[0] for g in connected]
    for g in graphs:
        if not is_connected(g):
            with pytest.raises(DisconnectedGraphError):
                scan(n, [g])


@settings(max_examples=40, deadline=None, database=None)
@given(n=st.integers(2, 12), p=st.floats(0.0, 1.0), seed=st.integers(0, 2**32))
def test_bipartition_scan_matches_per_mask_loop_random(n, p, seed):
    rng = random.Random(seed)
    graphs = [random_connected(rng, n, p) for _ in range(3)]
    assert scan(n, graphs) == [reference_min_cut(g)[0] for g in graphs]


@pytest.mark.parametrize("p", [0.3, 0.7])
def test_matches_networkx_on_larger_random_graphs(p):
    nx = pytest.importorskip("networkx")
    rng = random.Random(int(p * 10))
    for _ in range(20):
        g = random_connected(rng, rng.randint(13, 40), p)
        cert = edge_connectivity(g)
        ref = nx.Graph(g.edges())
        assert cert[0] == nx.edge_connectivity(ref)
        assert_valid_certificate(g, cert)


def two_blobs(rng, n: int) -> Graph:
    """Two dense random blobs joined by one to three random edges."""
    a = rng.randint(6, n - 6)
    left, right = random_connected(rng, a, 0.8), random_connected(rng, n - a, 0.8)
    joins = [(rng.randrange(a), a + rng.randrange(n - a)) for _ in range(rng.randint(1, 3))]
    return from_edge_list(n, left.edges() + [(u + a, v + a) for u, v in right.edges()] + joins)


@pytest.mark.parametrize("regime", ["diameter <= 2", "diameter >= 3"])
def test_matches_networkx_in_both_diameter_regimes(regime):
    nx = pytest.importorskip("networkx")
    rng = random.Random(13 if regime == "diameter <= 2" else 31)
    checked = below_degree = 0
    while checked < 30:
        n = rng.randint(13, 40)
        if rng.random() < 0.3:
            g = two_blobs(rng, n)
        else:
            g = random_connected(rng, n, rng.choice([0.05, 0.15, 0.3, 0.6]))
        short = int(distance_matrix(g).max()) <= 2
        assert _diameter_at_most_2(g.rows) == short
        if short != (regime == "diameter <= 2"):
            continue
        cert = edge_connectivity(g)
        assert cert[0] == nx.edge_connectivity(nx.Graph(g.edges()))
        assert_valid_certificate(g, cert)
        checked += 1
        below_degree += cert[0] < min_degree(g)
    if regime == "diameter <= 2":
        assert below_degree == 0  # Plesnik: lambda = delta
    else:
        assert below_degree > 0  # the phases, not the star, found these cuts


def test_bridge_graph_sides_are_the_two_cliques():
    # every grid instance has diameter 3 and all degrees above r, so the r
    # bridge edges are the unique minimum cut and no star certifies it: a
    # minimum-degree shortcut taken at diameter 3 would get all of them wrong
    for params in bridge_grid(0, 4):
        g = bridge_graph(params)
        assert distance_matrix(g).max() == 3
        assert min_degree(g) > params.r
        cert = edge_connectivity(g)
        first, full = (1 << params.n1) - 1, (1 << params.order) - 1
        assert cert[0] == params.r
        assert cert[1] in (first, full ^ first)
        assert_valid_certificate(g, cert)


def test_log_counts_phases(caplog):
    # Triangles 012 and 345 joined by edge 2-3: U starts at the minimum degree 2.
    # Phase 1 adds 0 1 2 3 4 5 with attachments 0 1 2 1 1 2; the last cut, 2,
    #   is not below U, so the pairs (1, 2) and (4, 5) with attachment 2 merge.
    # Phase 2 adds 0 {1,2} 3 {4,5} with attachments 0 2 1 2; cut 2 again, and
    #   the pairs with attachment 2 merge into {0,1,2} and {3,4,5}.
    # Phase 3 adds {0,1,2} {3,4,5} with attachments 0 1: U drops to 1.
    g = from_edge_list(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)])
    with caplog.at_level(logging.DEBUG, logger="dsr.cuts"):
        cert = edge_connectivity(g)
    assert caplog.messages == ["min cut order 6: 3 phases, size 1"]
    assert cert == (1, 0b111000) and crossing_edges(g, cert[1]) == [(2, 3)]
    assert_valid_certificate(g, cert)


def test_log_reports_diameter_shortcut(caplog):
    with caplog.at_level(logging.DEBUG, logger="dsr.cuts"):
        cert = edge_connectivity(kpq(4, 2))
    assert caplog.messages == ["min cut order 5: diameter <= 2, 0 phases, size 2"]
    assert cert == (2, 1 << 4)


def cut_of_mask(g, mask: int) -> int:
    """The edges leaving a vertex mask, counted from g's bit rows."""
    return sum((g.rows[v] & ~mask).bit_count() for v in range(g.n) if mask >> v & 1)


def kernel(n, graphs):
    """The Stoer-Wagner kernel's sizes and side masks of order-n graphs, as lists."""
    sizes, sides = min_cuts(adjacency_stack(n, graphs))
    assert sizes.dtype == np.int64 and sides.dtype == np.uint64
    return sizes.tolist(), sides.tolist()


def assert_certified_sides(graphs, sizes, sides):
    """Every side mask is a nonempty proper vertex set whose cut, counted
    from the bit rows, is the reported size."""
    for g, size, side in zip(graphs, sizes, sides, strict=True):
        assert 0 < side < (1 << g.n) - 1, (g, side)
        assert cut_of_mask(g, side) == size, (g, side)


class TestMinCuts:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_every_class_matches_both_per_graph_paths(self, n):
        graphs = list(enumerate_connected(n))
        sizes, sides = kernel(n, graphs)
        assert sizes == [edge_connectivity(g)[0] for g in graphs]
        assert sizes == scan(n, graphs)
        assert_certified_sides(graphs, sizes, sides)

    @pytest.mark.parametrize("regime", ["diameter <= 2", "diameter >= 3"])
    def test_matches_networkx_in_both_diameter_regimes(self, regime):
        nx = pytest.importorskip("networkx")
        rng = random.Random(17 if regime == "diameter <= 2" else 37)
        by_order = {}
        while sum(map(len, by_order.values())) < 30:
            n = rng.randint(9, 40)
            g = two_blobs(rng, n) if n >= 12 and rng.random() < 0.3 else random_connected(
                rng, n, rng.choice([0.05, 0.15, 0.3, 0.6]))
            if (distance_matrix(g).max() <= 2) == (regime == "diameter <= 2"):
                by_order.setdefault(n, []).append(g)
        below_degree = 0
        for n, graphs in by_order.items():
            sizes, sides = kernel(n, graphs)
            assert sizes == [nx.edge_connectivity(nx.Graph(g.edges())) for g in graphs]
            assert_certified_sides(graphs, sizes, sides)
            below_degree += sum(size < min_degree(g) for g, size in zip(graphs, sizes))
        assert (below_degree > 0) == (regime == "diameter >= 3")

    def test_chunks_give_identical_output(self, monkeypatch):
        graphs = list(enumerate_connected(7))
        whole = kernel(7, graphs)
        monkeypatch.setattr(dsr.graphs, "STACK_ENTRIES", 3 * 7 * 7)  # three a chunk
        assert kernel(7, graphs) == whole

    @pytest.mark.parametrize("position", ["first", "last"])
    def test_zero_cut_names_the_graph(self, position):
        split = from_edge_list(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        stack = [complete_graph(6)] * 3
        stack.insert(0 if position == "first" else 3, split)
        index = 0 if position == "first" else 3
        with pytest.raises(DisconnectedGraphError, match=f"stack graph {index} is disconnected"):
            kernel(6, stack)

    def test_zero_cut_in_a_later_chunk(self, monkeypatch):
        monkeypatch.setattr(dsr.graphs, "STACK_ENTRIES", 2 * 5 * 5)  # two a chunk
        stack = [complete_graph(5)] * 4 + [from_edge_list(5, [(0, 1), (2, 3), (3, 4)])]
        with pytest.raises(DisconnectedGraphError, match="stack graph 4 is disconnected"):
            kernel(5, stack)

    @pytest.mark.parametrize("r", [1, 2, 5])
    def test_order_64_side_holds_the_top_bit(self, r):
        # kpq(63, r): the last vertex, of degree r, is the one side of least cut
        g = kpq(63, r)
        sizes, sides = kernel(64, [complete_graph(64), g])
        assert sizes == [63, r]
        assert sides[1] == 1 << 63
        assert_certified_sides([complete_graph(64), g], sizes, sides)

    @pytest.mark.parametrize("n", [0, 1, 65])
    def test_order_outside_2_to_64_rejected(self, n):
        with pytest.raises(ValueError, match="2 <= n <= 64"):
            min_cuts(np.zeros((1, n, n), dtype=bool))

    def test_empty_stack(self):
        sizes, sides = min_cuts(adjacency_stack(5, []))
        assert sizes.shape == sides.shape == (0,)

    def test_log_line_per_call(self, caplog, monkeypatch):
        monkeypatch.setattr(dsr.graphs, "STACK_ENTRIES", 2 * 6 * 6)  # two a chunk
        with caplog.at_level(logging.DEBUG, logger="dsr.cuts"):
            kernel(6, [complete_graph(6), path_graph(6), cycle_graph(6)])
        [message] = caplog.messages
        assert re.fullmatch(r"min cuts order 6: 3 graphs, 2 chunks, 5 phases each, "
                            r"\d+\.\d{3} s", message), message


@settings(max_examples=60, deadline=None, database=None)
@given(n=st.integers(2, 10), p=st.floats(0.0, 1.0), seed=st.integers(0, 2**32))
def test_min_cuts_match_per_mask_loop_random(n, p, seed):
    rng = random.Random(seed)
    graphs = [random_connected(rng, n, p) for _ in range(3)]
    sizes, sides = kernel(n, graphs)
    assert sizes == [reference_min_cut(g)[0] for g in graphs]
    assert_certified_sides(graphs, sizes, sides)
