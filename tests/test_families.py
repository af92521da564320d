import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsr import (
    BridgeFamilyParams,
    bridge_graph,
    bridge_graph_tilde,
    brute_force_min_cut,
    complete_graph,
    distance_matrix,
    edge_connectivity,
    enumerate_connected,
    from_edge_list,
    is_connected,
    is_kpq,
    isomorphic,
    kpq,
    random_cross_edges,
    tilde_level_groups,
)
from dsr.graphs import MAX_VERTICES, adjacency_stack
from dsr.isomorphism import canonical_form
from helpers import crossing_edges


class TestCompleteGraph:
    def test_k1(self):
        assert complete_graph(1).num_edges() == 0

    def test_k4(self):
        assert complete_graph(4).num_edges() == 6

    def test_k5_degrees(self):
        g = complete_graph(5)
        assert all(g.degree(v) == 4 for v in range(5))

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            complete_graph(0)


class TestKpq:
    def test_triangle_plus_pendant(self):
        g = kpq(3, 1)
        assert sorted(g.degree(v) for v in range(4)) == [1, 2, 2, 3]

    def test_k43_degrees(self):
        g = kpq(4, 3)
        degs = sorted(g.degree(v) for v in range(5))
        assert degs[0] == 3
        assert all(d >= 3 for d in degs)

    def test_q_equals_p_is_complete(self):
        assert isomorphic(kpq(3, 3), complete_graph(4))

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            kpq(3, 4)
        with pytest.raises(ValueError):
            kpq(3, 0)

    @pytest.mark.parametrize("n", range(4, 9))
    def test_edge_connectivity_sweep(self, n):
        for r in range(1, n - 1):
            assert edge_connectivity(kpq(n - 1, r))[0] == r


class TestIsKpq:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_exactly_one_class_per_q_agrees_with_canonical_form(self, n):
        classes = list(enumerate_connected(n))
        for q in range(1, n):
            passing = [g for g in classes if is_kpq(g, q)]
            assert len(passing) == 1
            assert canonical_form(passing[0]) == canonical_form(kpq(n - 1, q))
        assert not any(is_kpq(g, q) for g in classes for q in (0, n))

    def test_q_zero_is_false_even_when_the_counts_fit(self):
        # K4 plus an isolated vertex: C(4, 2) + 0 edges and a vertex of degree 0
        g = from_edge_list(5, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        assert not is_kpq(g, 0)


@settings(max_examples=80, deadline=None, database=None)
@given(p=st.integers(1, MAX_VERTICES - 1), data=st.data())
def test_is_kpq_on_relabelings_and_one_edge_perturbations(p, data):
    n = p + 1
    q = data.draw(st.integers(1, p))
    perm = data.draw(st.permutations(range(n)))
    g = from_edge_list(n, [(perm[u], perm[v]) for u, v in kpq(p, q).edges()])
    assert [k for k in range(-1, n + 2) if is_kpq(g, k)] == [q]
    u, v = data.draw(st.lists(st.integers(0, p), min_size=2, max_size=2, unique=True))
    flipped = g.without_edge(u, v) if g.has_edge(u, v) else g.with_edge(u, v)
    assert not is_kpq(flipped, q)
    # moving one edge keeps the counts; canonical forms decide the answer
    non_edges = [(a, b) for a in range(n) for b in range(a + 1, n) if not g.has_edge(a, b)]
    if non_edges:
        moved = g.without_edge(*data.draw(st.sampled_from(g.edges())))
        moved = moved.with_edge(*data.draw(st.sampled_from(non_edges)))
        assert is_kpq(moved, q) == isomorphic(moved, kpq(p, q))


class TestBridgeFamilyParams:
    def test_smallest_hub_only_instance_is_valid(self):
        # min(3,3) = 3 = r+2, inside the allowed regime
        g = bridge_graph(BridgeFamilyParams(3, 3, 1, 1))
        assert g.num_edges() == 7
        assert edge_connectivity(g)[0] == 1

    def test_rejects_small_cliques(self):
        with pytest.raises(ValueError, match="r\\+2"):
            BridgeFamilyParams(3, 3, 2, 2)

    def test_rejects_bad_t(self):
        with pytest.raises(ValueError):
            BridgeFamilyParams(4, 4, 2, 0)
        with pytest.raises(ValueError):
            BridgeFamilyParams(4, 4, 2, 3)

    def test_rejects_bad_r(self):
        with pytest.raises(ValueError):
            BridgeFamilyParams(4, 4, 0, 0)

    def test_cross_edge_count_enforced(self):
        with pytest.raises(ValueError, match="cross edges"):
            BridgeFamilyParams(4, 4, 2, 1)  # needs exactly one cross edge
        with pytest.raises(ValueError, match="cross edges"):
            BridgeFamilyParams(4, 4, 2, 2, ((2, 1),))

    def test_cross_edge_cannot_touch_hub(self):
        with pytest.raises(ValueError, match="first endpoint"):
            BridgeFamilyParams(4, 4, 2, 1, ((1, 1),))

    def test_cross_edge_range_checks(self):
        with pytest.raises(ValueError):
            BridgeFamilyParams(4, 4, 2, 1, ((5, 1),))
        with pytest.raises(ValueError):
            BridgeFamilyParams(4, 4, 2, 1, ((2, 5),))

    def test_duplicate_cross_edges_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            BridgeFamilyParams(5, 5, 3, 1, ((2, 1), (2, 1)))

    def test_order_bounded_by_max_vertices(self):
        assert bridge_graph(BridgeFamilyParams(32, 32, 1, 1)).n == MAX_VERTICES
        with pytest.raises(ValueError, match="n1 \\+ n2 <= 64, got 65"):
            BridgeFamilyParams(33, 32, 1, 1)
        with pytest.raises(ValueError, match="n1 \\+ n2 <= 64, got 80"):
            BridgeFamilyParams(40, 40, 2, 1, ((2, 1),))


class TestBridgeGraph:
    def test_4422_shape(self):
        p = BridgeFamilyParams(4, 4, 2, 2)
        g = bridge_graph(p)
        assert g.n == 8
        assert g.num_edges() == 14
        assert int(distance_matrix(g).max()) == 3
        assert brute_force_min_cut(adjacency_stack(8, [g])).tolist() == [2]
        size, side = edge_connectivity(g)
        assert size == 2
        assert side in (0b00001111, 0b11110000)

    def test_mixed_bridge_accepted(self):
        # one hub edge and one non-hub edge, as in the two-level construction
        p = BridgeFamilyParams(4, 4, 2, 1, ((2, 1),))
        g = bridge_graph(p)
        assert g.has_edge(0, 4)  # hub edge u1-v1
        assert g.has_edge(1, 4)  # cross edge u2-v1
        assert edge_connectivity(g)[0] == 2

    def test_removing_bridge_edges_leaves_two_cliques(self):
        p = BridgeFamilyParams(5, 4, 2, 1, ((3, 2),))
        g = bridge_graph(p)
        size, side = edge_connectivity(g)
        crossing = crossing_edges(g, side)
        assert size == len(crossing) == p.r
        stripped = g
        for u, v in crossing:
            stripped = stripped.without_edge(u, v)
        # the two sides are the two cliques, and no edge is left between them
        # the side holding vertex 0 first
        bit = side & 1
        sides = [[v for v in range(p.order) if (side >> v & 1) == b] for b in (bit, 1 - bit)]
        assert (len(sides[0]), len(sides[1])) == (p.n1, p.n2)
        assert stripped == from_edge_list(p.order, [
            pair for members in sides for pair in combinations(members, 2)
        ])

    @pytest.mark.parametrize(
        "params",
        [
            BridgeFamilyParams(3, 3, 1, 1),
            BridgeFamilyParams(4, 4, 2, 2),
            BridgeFamilyParams(4, 5, 2, 1, ((3, 4),)),
            BridgeFamilyParams(6, 5, 3, 2, ((4, 2),)),
            BridgeFamilyParams(6, 6, 4, 1, ((2, 1), (3, 3), (6, 6))),
        ],
    )
    def test_connectivity_equals_r(self, params):
        g = bridge_graph(params)
        assert is_connected(g)
        assert edge_connectivity(g)[0] == params.r


class TestBridgeGraphTilde:
    def test_hub_only_case(self):
        p = BridgeFamilyParams(4, 4, 2, 2)
        t = bridge_graph_tilde(p)
        assert isomorphic(t, kpq(7, 2))
        assert t.degree(0) == 2
        assert [v for v in range(t.n) if t.has_edge(0, v)] == [4, 5]  # the bridge targets

    def test_mixed_case(self):
        p = BridgeFamilyParams(4, 4, 2, 1, ((3, 2),))
        t = bridge_graph_tilde(p)
        assert isomorphic(t, kpq(7, 2))
        assert t.degree(0) == 2
        # one surviving clique neighbor (the last index) plus the hub target
        assert [v for v in range(t.n) if t.has_edge(0, v)] == [3, 4]

    def test_independent_of_cross_placement(self):
        rng = random.Random(5)
        p_base = None
        for _ in range(6):
            cross = random_cross_edges(6, 5, 3, 1, rng)
            p = BridgeFamilyParams(6, 5, 3, 1, cross)
            t = bridge_graph_tilde(p)
            assert t.degree(0) == 3
            assert isomorphic(t, kpq(10, 3))
            if p_base is None:
                p_base = t
            else:
                assert t == p_base  # literally identical, cross edges absorbed

    def test_level_groups_partition(self):
        p = BridgeFamilyParams(5, 4, 2, 1, ((4, 3),))
        hub, mid, near = tilde_level_groups(p)
        assert hub == (0,)
        assert sorted(hub + mid + near) == list(range(p.order))
        # near = surviving clique neighbor(s) of the hub plus its bridge targets
        assert near == (4, 5)


def test_random_cross_edges_seeded():
    a = random_cross_edges(6, 5, 3, 1, random.Random(42))
    b = random_cross_edges(6, 5, 3, 1, random.Random(42))
    assert a == b
    assert len(a) == 2
    assert all(2 <= i <= 6 and 1 <= j <= 5 for i, j in a)


@pytest.mark.parametrize("seed", range(3))
def test_random_cross_edges_match_a_sample_of_the_pair_list(seed):
    # same draws as sampling the explicit list of pairs, which the bridge
    # grid and `dsr check` placements were pinned with
    for n1, n2, r, t in [(3, 3, 1, 1), (4, 4, 2, 1), (6, 5, 3, 1), (10, 8, 6, 1), (30, 34, 9, 2)]:
        pairs = [(i, j) for i in range(2, n1 + 1) for j in range(1, n2 + 1)]
        expected = tuple(sorted(random.Random(seed).sample(pairs, r - t)))
        assert random_cross_edges(n1, n2, r, t, random.Random(seed)) == expected
