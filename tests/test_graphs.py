import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import dsr.graphs
from dsr import (
    DisconnectedGraphError,
    Graph,
    complete_graph,
    distance_matrix,
    enumerate_connected,
    from_edge_list,
    is_connected,
    kpq,
)
from dsr.graphs import (_reach, adjacency_stack, bit_transpose, distance_stack, matrix_width,
                        stack_chunks)
from helpers import (
    count_calls,
    cycle_graph,
    path_graph,
    random_connected,
    random_graph,
    reference_row_fault,
    reference_transpose,
)


class TestFromEdgeList:
    def test_p3(self):
        g = from_edge_list(3, [(0, 1), (1, 2)])
        assert g.edges() == [(0, 1), (1, 2)]
        assert [g.degree(v) for v in range(3)] == [1, 2, 1]

    def test_k4(self):
        g = from_edge_list(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        assert g.num_edges() == 6
        assert g == complete_graph(4)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            from_edge_list(2, [(0, 0)])

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            from_edge_list(3, [(0, 3)])

    def test_duplicates_idempotent(self):
        g = from_edge_list(3, [(0, 1), (1, 0), (0, 1)])
        assert g.num_edges() == 1

    def test_order_bounds(self):
        with pytest.raises(ValueError):
            Graph(0, ())
        with pytest.raises(ValueError):
            Graph(65, (0,) * 65)

    def test_row_count_must_match_order(self):
        with pytest.raises(ValueError, match="row count does not match vertex count"):
            Graph(2, (1,))

    def test_asymmetric_rows_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            Graph(2, (0b10, 0b00))

    def test_diagonal_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(2, (0b01, 0b00))


@pytest.mark.parametrize("n, w", [(1, 8), (8, 8), (9, 16), (16, 16), (17, 32), (32, 32),
                                  (33, 64), (64, 64)])
def test_matrix_width(n, w):
    assert matrix_width(n) == w


@settings(max_examples=40, deadline=None, database=None)
@given(n=st.integers(1, 64), seed=st.integers(0, 2**32))
@example(n=1, seed=0)
@example(n=16, seed=1)
@example(n=32, seed=2)
@example(n=64, seed=3)
def test_bit_transpose_matches_per_bit_reference(n, seed):
    w = matrix_width(n)
    packed = random.Random(seed).getrandbits(w * w)
    assert bit_transpose(packed, w) == reference_transpose(packed, w)


@settings(max_examples=6, deadline=None, database=None)
@given(n=st.integers(2, 64), p=st.floats(0.0, 1.0), seed=st.integers(0, 2**32))
def test_every_single_bit_flip_names_the_reference_pair(n, p, seed):
    g = random_graph(random.Random(seed), n, p)
    for i in range(n):
        for j in range(n):
            if i != j:
                rows = list(g.rows)
                rows[i] ^= 1 << j
                expected = reference_row_fault(n, rows)
                assert expected.startswith("adjacency not symmetric")
                with pytest.raises(ValueError) as exc:
                    Graph(n, tuple(rows))
                assert str(exc.value) == expected


@settings(max_examples=150, deadline=None, database=None)
@given(n=st.integers(1, 10), data=st.data())
def test_first_fault_matches_row_by_row_scan(n, data):
    # a few random edits of a random graph: asymmetric pairs, self-loops and
    # out-of-range bits in any mix, so which fault comes first is exercised
    rows = list(random_graph(random.Random(data.draw(st.integers(0, 2**32))), n, 0.5).rows)
    for _ in range(data.draw(st.integers(0, 3))):
        v = data.draw(st.integers(0, n - 1))
        rows[v] ^= 1 << data.draw(st.integers(0, n + 1))
    expected = reference_row_fault(n, rows)
    if expected is None:
        assert Graph(n, tuple(rows)).rows == tuple(rows)
    else:
        with pytest.raises(ValueError) as exc:
            Graph(n, tuple(rows))
        assert str(exc.value) == expected


class TestBfsDistances:
    """Single rows of the distance matrix: hop counts from one source."""

    def test_p3_middle(self):
        assert distance_matrix(path_graph(3))[1].tolist() == [1, 0, 1]

    def test_k4_any_vertex(self):
        d = distance_matrix(complete_graph(4))
        for v in range(4):
            assert d[v, v] == 0
            assert all(d[v, u] == 1 for u in range(4) if u != v)

    def test_kpq_pendant(self):
        # pendant is the added vertex, index 3; the two far clique vertices sit at 2
        assert distance_matrix(kpq(3, 1))[3].tolist() == [1, 2, 2, 0]

    def test_disconnected_names_vertex(self):
        g = from_edge_list(4, [(0, 1), (1, 2)])
        with pytest.raises(DisconnectedGraphError, match="vertex 3 unreachable from 0"):
            distance_matrix(g)


class TestDistanceMatrix:
    def test_p3(self):
        assert distance_matrix(path_graph(3)).tolist() == [
            [0, 1, 2],
            [1, 0, 1],
            [2, 1, 0],
        ]

    def test_complete(self):
        for n in (2, 4, 7):
            d = distance_matrix(complete_graph(n))
            assert (d == 1 - np.eye(n, dtype=np.int64)).all()

    def test_c5_rows_are_rotations(self):
        d = distance_matrix(cycle_graph(5))
        base = [0, 1, 2, 2, 1]
        for v in range(5):
            assert d[v].tolist() == [base[(u - v) % 5] for u in range(5)]

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError, match="vertex 2 unreachable from 0"):
            distance_matrix(from_edge_list(4, [(0, 1), (2, 3)]))

    def test_readonly(self):
        d = distance_matrix(path_graph(3))
        assert d.dtype == np.int64
        with pytest.raises(ValueError):
            d[0, 1] = 5


class TestIsConnected:
    def test_examples(self):
        assert is_connected(path_graph(3))
        assert not is_connected(from_edge_list(4, [(0, 1), (2, 3)]))
        assert is_connected(Graph(1, (0,)))


@pytest.mark.parametrize("n", range(2, 6))
def test_distance_invariants_over_stream(n):
    for g in enumerate_connected(n):
        d = distance_matrix(g)
        assert (np.diag(d) == 0).all()
        assert (d == d.T).all()
        off = ~np.eye(n, dtype=bool)
        assert (d[off] >= 1).all()
        assert (d <= n - 1).all()
        # triangle inequality d[u,w] <= d[u,v] + d[v,w], all triples at once
        assert (d[:, None, :] <= d[:, :, None] + d[None, :, :]).all()
        for u in range(n):
            for v in range(n):
                if u != v:
                    assert (d[u, v] == 1) == g.has_edge(u, v)


def floyd_warshall(g: Graph) -> np.ndarray:
    """All-pairs hop counts by min-plus relaxation through each vertex."""
    d = np.full((g.n, g.n), np.inf)
    np.fill_diagonal(d, 0)
    for u, v in g.edges():
        d[u, v] = d[v, u] = 1
    for k in range(g.n):
        d = np.minimum(d, d[:, k, None] + d[None, k, :])
    return d


@settings(max_examples=30, deadline=None, database=None)
@given(n=st.integers(1, 64), p=st.floats(0.0, 1.0), seed=st.integers(0, 2**32))
def test_distance_matrix_matches_floyd_warshall(n, p, seed):
    g = random_connected(random.Random(seed), n, p)
    d = distance_matrix(g)
    assert d.dtype == np.int64
    assert (d == floyd_warshall(g)).all()


@settings(max_examples=30, deadline=None, database=None)
@given(n=st.integers(2, 64), p=st.floats(0.0, 0.2), seed=st.integers(0, 2**32))
def test_distance_matrix_names_first_vertex_unreachable_from_0(n, p, seed):
    g = random_graph(random.Random(seed), n, p)
    assume(not is_connected(g))
    far = floyd_warshall(g)[0]
    first = int(np.flatnonzero(np.isinf(far))[0])
    with pytest.raises(DisconnectedGraphError, match=f"vertex {first} unreachable from 0;"):
        distance_matrix(g)


@settings(max_examples=30, deadline=None, database=None)
@given(n=st.integers(1, 64), k=st.integers(2, 6), seed=st.integers(0, 2**32))
@example(n=1, k=3, seed=0)
@example(n=8, k=6, seed=1)
@example(n=64, k=2, seed=2)
def test_distance_stack_matches_floyd_warshall_row_by_row(n, k, seed):
    # each graph of the stack gets its own edge density, so rows mixed up
    # across the batch would show
    rng = random.Random(seed)
    graphs = [random_connected(rng, n, rng.random()) for _ in range(k)]
    d = distance_stack(adjacency_stack(n, graphs))
    assert d.dtype == np.int8 and d.shape == (k, n, n)
    for g, di in zip(graphs, d):
        assert (di == floyd_warshall(g)).all()


@pytest.mark.parametrize("n", [1, 2, 8, 9, 64])
def test_distance_stack_of_no_graphs(n):
    d = distance_stack(np.zeros((0, n, n), dtype=bool))
    assert d.shape == (0, n, n) and d.dtype == np.int8


def test_distance_stack_of_one_vertex():
    assert distance_stack(adjacency_stack(1, [Graph(1, (0,))])).tolist() == [[[0]]]


def test_distance_stack_names_the_disconnected_graph_vertex():
    graphs = [path_graph(4), from_edge_list(4, [(0, 1), (1, 2)]), complete_graph(4)]
    with pytest.raises(DisconnectedGraphError,
                       match="^vertex 3 unreachable from 0; graph is disconnected$"):
        distance_stack(adjacency_stack(4, graphs))


def test_distance_stack_peak_memory():
    # chunks bound the order-8 stack: one float32 pass over all 11,117
    # graphs peaks near 10 MB, one boolean pass near 2.9 MB; the input
    # stack is built before tracing starts, as the class table builds it
    adj = adjacency_stack(8, list(enumerate_connected(8)))
    tracemalloc.start()
    try:
        distance_stack(adj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5e6


def test_stack_chunks_cover_the_stack_in_order(monkeypatch):
    monkeypatch.setattr(dsr.graphs, "STACK_ENTRIES", 12)
    rows = list(range(7))
    assert [rows[c] for c in stack_chunks(7, 4)] == [[0, 1, 2], [3, 4, 5], [6]]
    assert [rows[c] for c in stack_chunks(2, 13)] == [[0], [1]]  # one row at least
    assert list(stack_chunks(0, 4)) == []


@pytest.mark.parametrize("n", [1, 2, 8, 9, 64])
def test_adjacency_stack_matches_edge_tests(n):
    rng = random.Random(n)
    graphs = [random_graph(rng, n, rng.random()) for _ in range(3)]
    adj = adjacency_stack(n, graphs)
    assert adj.dtype == bool and adj.shape == (3, n, n)
    for g, a in zip(graphs, adj):
        assert a.tolist() == [[g.has_edge(u, v) for v in range(n)] for u in range(n)]
    assert adjacency_stack(n, []).shape == (0, n, n)


class TestChunkedDistanceStack:
    """``distance_stack`` with ``STACK_ENTRIES`` patched to three graphs per
    chunk, each chunk's searches counted by the identity that starts them."""

    @pytest.fixture
    def chunks(self, monkeypatch):
        def patch(n):
            monkeypatch.setattr(dsr.graphs, "STACK_ENTRIES", 3 * n * n)
            return count_calls(monkeypatch, np, "eye")
        return patch

    @pytest.mark.parametrize("n, k", [(5, 21), (9, 7), (40, 4)])
    def test_rows_match_floyd_warshall(self, chunks, n, k):
        rng = random.Random(n)
        graphs = [random_connected(rng, n, rng.random()) for _ in range(k)]
        adj = adjacency_stack(n, graphs)
        calls = chunks(n)
        d = distance_stack(adj)
        assert len(calls) == -(-k // 3)
        assert d.dtype == np.int8 and d.shape == (k, n, n)
        for g, di in zip(graphs, d):
            assert (di == floyd_warshall(g)).all()

    def test_disconnected_graph_in_second_chunk(self, chunks):
        graphs = [path_graph(5), cycle_graph(5), complete_graph(5), kpq(4, 2),
                  from_edge_list(5, [(0, 1), (1, 2), (3, 4)]), path_graph(5)]
        adj = adjacency_stack(5, graphs)
        with pytest.raises(DisconnectedGraphError) as whole:
            distance_stack(adj)
        calls = chunks(5)
        with pytest.raises(DisconnectedGraphError) as chunked:
            distance_stack(adj)
        assert len(calls) == 2
        assert str(chunked.value) == str(whole.value) == (
            "vertex 3 unreachable from 0; graph is disconnected")


@settings(max_examples=40, deadline=None, database=None)
@given(n=st.integers(1, 64), p=st.floats(0.0, 0.3), seed=st.integers(0, 2**32))
def test_reach_matches_networkx_components(n, p, seed):
    nx = pytest.importorskip("networkx")
    rng = random.Random(seed)
    g = random_graph(rng, n, p)
    alive = rng.getrandbits(n)
    assume(alive)
    members = [v for v in range(n) if alive >> v & 1]
    seeds = rng.sample(members, rng.randint(1, min(3, len(members))))
    sub = nx.Graph()
    sub.add_nodes_from(members)
    sub.add_edges_from((u, v) for u, v in g.edges() if alive >> u & 1 and alive >> v & 1)
    expected = set().union(*(nx.node_connected_component(sub, s) for s in seeds))
    reached = _reach(g.rows, sum(1 << s for s in seeds), alive)
    assert reached == sum(1 << v for v in expected)
