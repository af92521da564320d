import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsr import (
    ConvergenceError,
    complete_graph,
    distance_matrix,
    enumerate_connected,
    kpq,
    perron,
    perron_stack,
)
from dsr.graphs import adjacency_stack, distance_stack
from dsr.verify import _stacked_solve
from helpers import cycle_graph, count_calls, path_graph, random_connected, reference_perron


class TestPerron:
    @pytest.mark.parametrize("n", range(2, 13))
    def test_complete_graph_radius(self, n):
        pp = perron(distance_matrix(complete_graph(n)))
        assert abs(pp.rho - (n - 1)) <= 1e-10
        assert np.allclose(pp.x, pp.x[0])  # uniform by symmetry

    def test_p3_closed_form(self):
        pp = perron(distance_matrix(path_graph(3)))
        assert abs(pp.rho - (1 + math.sqrt(3))) <= 1e-9

    def test_p4_closed_form(self):
        pp = perron(distance_matrix(path_graph(4)))
        assert abs(pp.rho - (2 + math.sqrt(10))) <= 1e-9

    def test_pendant_triangle_cubic_root(self):
        # the 4x4 distance matrix factors through a cubic; its largest root
        # is the radius
        expected = max(np.roots([1.0, -1.0, -11.0, -7.0]).real)
        pp = perron(distance_matrix(kpq(3, 1)))
        assert abs(pp.rho - expected) <= 1e-9

    def test_single_vertex(self):
        pp = perron(distance_matrix(complete_graph(1)))
        assert pp.rho == 0.0 and pp.x.tolist() == [1.0]

    def test_rotation_never_converges(self):
        # a quarter turn has no real dominant eigenvector: the iterate keeps
        # turning and the residual never falls, so the iteration cap raises
        with pytest.raises(ConvergenceError, match="no convergence after 5387 iterations"):
            perron(np.array([[0.0, 1.0], [-1.0, 0.0]]))

    @pytest.mark.parametrize("n", range(2, 6))
    def test_pair_invariants_over_stream(self, n):
        for g in enumerate_connected(n):
            pp = perron(distance_matrix(g))
            assert abs(np.linalg.norm(pp.x) - 1.0) <= 1e-12
            assert (pp.x > 0).all()
            assert pp.residual <= 1e-12 * n
            assert pp.residual <= 1e-10 * max(pp.rho, 1.0)
            assert pp.rho >= n - 1 - 1e-10
            if g.num_edges() < n * (n - 1) // 2:
                assert pp.rho > n - 1 + 1e-6  # only the complete graph sits at n-1

    def test_bit_identical_to_reference_loop(self):
        # every class of order <= 7, then seeded random graphs of orders 2..64
        rng = random.Random(20)
        graphs = [g for n in range(1, 8) for g in enumerate_connected(n)]
        graphs += [random_connected(rng, n, p) for n in range(2, 65) for p in (0.3, 0.5, 0.7)]
        for g in graphs:
            d = distance_matrix(g)
            pp, ref = perron(d), reference_perron(d)
            assert (pp.rho, pp.residual, pp.iterations) == (ref.rho, ref.residual,
                                                           ref.iterations), g
            assert np.array_equal(pp.x, ref.x), g

    @pytest.mark.parametrize("n", range(2, 6))
    def test_matches_dense_oracle(self, n):
        for g in enumerate_connected(n):
            d = distance_matrix(g)
            rho = perron(d).rho
            dense = np.linalg.eigvalsh(d.astype(float))[-1]
            assert abs(rho - dense) <= 1e-8 * max(1.0, dense)


def assert_pairs_match_oracles(graphs, rho, x):
    """Stacked Perron pairs of ``graphs``, one radius ``rho[i]`` and one
    order-long vector ``x[i]`` each, against eigvalsh and power iteration,
    graph by graph, each with its eigen-residual recomputed."""
    assert len(rho) == len(x) == len(graphs)
    for g, rho_i, x_i in zip(graphs, rho, x):
        n = g.n
        d = distance_matrix(g)
        dense = float(np.linalg.eigvalsh(d.astype(float))[-1])
        power = perron(d)
        assert x_i.shape == (n,)
        assert abs(rho_i - dense) <= 1e-8 * max(1.0, dense)
        assert abs(rho_i - power.rho) <= 1e-8 * max(1.0, dense)
        assert np.abs(x_i - power.x).max() <= 1e-8
        assert (x_i > 0).all()
        assert abs(np.linalg.norm(x_i) - 1.0) <= 1e-12
        assert np.abs(d @ x_i - rho_i * x_i).max() <= 1e-12 * n


class TestPerronStack:
    def test_one_order_stack(self):
        graphs = list(enumerate_connected(6))
        assert_pairs_match_oracles(graphs, *perron_stack(distance_stack(adjacency_stack(6, graphs))))

    def test_single_vertex_and_empty(self):
        rho, x = perron_stack(np.zeros((1, 1, 1)))
        assert rho.tolist() == [0.0] and x.tolist() == [[1.0]]
        rho, x = perron_stack(np.zeros((0, 3, 3)))
        assert rho.shape == (0,) and x.shape == (0, 3)
        assert _stacked_solve([]) == []

    def test_chunked_stack(self, monkeypatch):
        import dsr.graphs

        stack = distance_stack(adjacency_stack(5, list(enumerate_connected(5))))  # 21 matrices
        monkeypatch.setattr(dsr.graphs, "STACK_ENTRIES", 3 * 25)  # three per chunk
        solves = count_calls(monkeypatch, np.linalg, "eigh")
        rho, x = perron_stack(stack)
        assert len(solves) == 7
        monkeypatch.undo()
        whole_rho, whole_x = perron_stack(stack)
        assert np.abs(rho - whole_rho).max() <= 1e-12
        assert np.abs(x - whole_x).max() <= 1e-12

    @pytest.mark.parametrize("bad", [
        # two vertices joined, one isolated: the top eigenvector has a zero
        np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]]),
        # eigh reads one triangle only; the full product exposes the asymmetry
        np.array([[0, 2, 1], [1, 0, 1], [1, 1, 0]]),
    ], ids=["zero-entry", "asymmetric"])
    def test_uncertified_row_raises(self, bad):
        good = distance_matrix(complete_graph(3))
        with pytest.raises(ConvergenceError, match="matrix 1 .order 3. not certified"):
            perron_stack(np.stack([good, bad, good]))


@settings(max_examples=15, deadline=None, database=None)
@given(
    orders=st.lists(st.integers(2, 40), min_size=1, max_size=6),
    p=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32),
)
def test_stacked_solve_mixed_orders_match_oracles(orders, p, seed):
    rng = random.Random(seed)
    graphs = [random_connected(rng, n, p) for n in orders]
    records = _stacked_solve(graphs)
    for g, (d, rho, _) in zip(graphs, records, strict=True):
        assert (d == distance_matrix(g)).all() and type(rho) is float
    _, rho, x = zip(*records)
    assert_pairs_match_oracles(graphs, rho, x)


@settings(max_examples=25, deadline=None, database=None)
@given(n=st.integers(1, 64), p=st.floats(0.0, 1.0), seed=st.integers(0, 2**32))
def test_perron_matches_eigvalsh(n, p, seed):
    d = distance_matrix(random_connected(random.Random(seed), n, p))
    pp = perron(d)
    dense = float(np.linalg.eigvalsh(d.astype(float))[-1])
    assert abs(pp.rho - dense) <= 1e-8 * max(1.0, dense)
    assert (pp.x > 0).all() and pp.residual <= 1e-12 * n


class TestQuadraticForm:
    """The Rayleigh quotient x D x that the bridge identities rest on."""

    def test_k3_uniform(self):
        d = distance_matrix(complete_graph(3))
        x = np.full(3, 1 / math.sqrt(3))
        assert abs(x @ d @ x - 2.0) <= 1e-12

    def test_zero_vector(self):
        d = distance_matrix(path_graph(4))
        x = np.zeros(4)
        assert x @ d @ x == 0.0

    def test_perron_vector_gives_radius(self):
        d = distance_matrix(path_graph(3))
        pp = perron(d)
        assert abs(pp.x @ d @ pp.x - pp.rho) <= 1e-10

    def test_rayleigh_scale_invariance(self):
        rng = np.random.default_rng(3)
        d = distance_matrix(kpq(5, 2))
        x = rng.random(6) + 0.1
        base = (x @ d @ x) / float(x @ x)
        for c in (2.0, 0.5, -1.5, 7.3):
            y = c * x
            val = (y @ d @ y) / float(y @ y)
            assert abs(val - base) <= 1e-12 * abs(base)

    # Rayleigh bound: x^T D x <= rho for every unit x, with equality at the
    # Perron vector
    def test_rayleigh_bound_tight_at_perron_vector(self):
        d = distance_matrix(kpq(4, 2))
        pp = perron(d)
        assert abs(pp.x @ d @ pp.x - pp.rho) <= 1e-9

    def test_rayleigh_bound_basis_vector_on_k4(self):
        # a unit basis vector sees only the zero diagonal: slack rho = 3
        d = distance_matrix(complete_graph(4))
        x = np.array([1.0, 0.0, 0.0, 0.0])
        assert x @ d @ x == 0.0
        assert abs(perron(d).rho - 3.0) <= 1e-10

    def test_rayleigh_bound_foreign_perron_vector_has_slack(self):
        x = perron(distance_matrix(path_graph(4))).x
        d = distance_matrix(cycle_graph(4))
        assert perron(d).rho - x @ d @ x > 1e-3

    @pytest.mark.parametrize("seed", range(5))
    def test_rayleigh_bound_on_random_unit_vectors(self, seed):
        rng = random.Random(seed)
        d = distance_matrix(random_connected(rng, rng.randint(2, 12), 0.3))
        rho = perron(d).rho
        for _ in range(20):
            x = np.array([rng.gauss(0.0, 1.0) for _ in range(len(d))])
            x /= np.linalg.norm(x)
            assert x @ d @ x <= rho * (1 + 1e-12)

