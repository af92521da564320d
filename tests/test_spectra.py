import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsr import (
    BridgeFamilyParams,
    ConvergenceError,
    bridge_graph_tilde,
    complete_graph,
    distance_matrix,
    enumerate_connected,
    kpq,
    perron,
    perron_group_pattern,
    perron_stack,
    quadratic_form,
    rayleigh_bound_check,
    tilde_level_groups,
)
from helpers import cycle_graph, path_graph, random_connected


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

    @pytest.mark.parametrize("n", range(2, 6))
    def test_pair_invariants_over_stream(self, n):
        for g in enumerate_connected(n):
            dm = distance_matrix(g)
            pp = perron(dm)
            assert abs(np.linalg.norm(pp.x) - 1.0) <= 1e-12
            assert (pp.x > 0).all()
            assert pp.residual <= 1e-12 * n
            assert pp.residual <= 1e-10 * max(pp.rho, 1.0)
            assert pp.rho >= n - 1 - 1e-10
            if g.num_edges() < n * (n - 1) // 2:
                assert pp.rho > n - 1 + 1e-6  # only the complete graph sits at n-1

    @pytest.mark.parametrize("n", range(2, 6))
    def test_matches_dense_oracle(self, n):
        for g in enumerate_connected(n):
            dm = distance_matrix(g)
            rho = perron(dm).rho
            dense = np.linalg.eigvalsh(dm.d.astype(float))[-1]
            assert abs(rho - dense) <= 1e-8 * max(1.0, dense)


def assert_stack_matches_oracles(graphs):
    """perron_stack against eigvalsh and power iteration, row by row."""
    dms = [distance_matrix(g) for g in graphs]
    rho, x, residual = perron_stack([dm.d for dm in dms])
    width = max(g.n for g in graphs)
    assert rho.shape == residual.shape == (len(graphs),)
    assert x.shape == (len(graphs), width)
    for i, dm in enumerate(dms):
        n = dm.n
        dense = float(np.linalg.eigvalsh(dm.d.astype(float))[-1])
        power = perron(dm)
        assert abs(rho[i] - dense) <= 1e-8 * max(1.0, dense)
        assert abs(rho[i] - power.rho) <= 1e-8 * max(1.0, dense)
        assert np.abs(x[i, :n] - power.x).max() <= 1e-8
        assert (x[i, :n] > 0).all() and not x[i, n:].any()
        assert abs(np.linalg.norm(x[i]) - 1.0) <= 1e-12
        assert residual[i] <= 1e-12 * n


class TestPerronStack:
    def test_one_order_stack(self):
        assert_stack_matches_oracles(list(enumerate_connected(6)))

    def test_single_vertex_and_empty(self):
        rho, x, residual = perron_stack([np.zeros((1, 1))])
        assert rho.tolist() == [0.0] and x.tolist() == [[1.0]]
        assert residual.tolist() == [0.0]
        rho, x, residual = perron_stack([])
        assert rho.shape == residual.shape == (0,) and x.shape == (0, 0)

    def test_chunked_stack(self, monkeypatch):
        import dsr.spectra

        monkeypatch.setattr(dsr.spectra, "STACK_ENTRIES", 3 * 25)  # three per chunk
        graphs = list(enumerate_connected(5))
        rho, x, _ = perron_stack([distance_matrix(g).d for g in graphs])
        monkeypatch.undo()
        whole_rho, whole_x, _ = perron_stack([distance_matrix(g).d for g in graphs])
        assert np.abs(rho - whole_rho).max() <= 1e-12
        assert np.abs(x - whole_x).max() <= 1e-12

    @pytest.mark.parametrize("bad", [
        # two vertices joined, one isolated: the top eigenvector has a zero
        np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]]),
        # eigh reads one triangle only; the full product exposes the asymmetry
        np.array([[0, 2, 1], [1, 0, 1], [1, 1, 0]]),
    ], ids=["zero-entry", "asymmetric"])
    def test_uncertified_row_raises(self, bad):
        good = distance_matrix(complete_graph(3)).d
        with pytest.raises(ConvergenceError, match="matrix 1 .order 3. not certified"):
            perron_stack([good, bad, good])


@settings(max_examples=15, deadline=None, database=None)
@given(
    orders=st.lists(st.integers(2, 40), min_size=1, max_size=6),
    p=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32),
)
def test_perron_stack_mixed_orders_match_oracles(orders, p, seed):
    rng = random.Random(seed)
    assert_stack_matches_oracles([random_connected(rng, n, p) for n in orders])


class TestQuadraticForm:
    def test_k3_uniform(self):
        dm = distance_matrix(complete_graph(3))
        x = np.full(3, 1 / math.sqrt(3))
        assert abs(quadratic_form(dm, x) - 2.0) <= 1e-12

    def test_zero_vector(self):
        dm = distance_matrix(path_graph(4))
        assert quadratic_form(dm, np.zeros(4)) == 0.0

    def test_perron_vector_gives_radius(self):
        dm = distance_matrix(path_graph(3))
        pp = perron(dm)
        assert abs(quadratic_form(dm, pp.x) - pp.rho) <= 1e-10

    def test_dimension_mismatch(self):
        dm = distance_matrix(path_graph(3))
        with pytest.raises(ValueError, match="length"):
            quadratic_form(dm, np.ones(4))

    def test_rayleigh_scale_invariance(self):
        rng = np.random.default_rng(3)
        dm = distance_matrix(kpq(5, 2))
        x = rng.random(6) + 0.1
        base = quadratic_form(dm, x) / float(x @ x)
        for c in (2.0, 0.5, -1.5, 7.3):
            y = c * x
            val = quadratic_form(dm, y) / float(y @ y)
            assert abs(val - base) <= 1e-12 * abs(base)


class TestRayleighBound:
    def test_perron_vector_slack_zero(self):
        dm = distance_matrix(kpq(4, 2))
        pp = perron(dm)
        value, slack = rayleigh_bound_check(dm, pp.x)
        assert abs(value - pp.rho) <= 1e-9
        assert abs(slack) <= 1e-9

    def test_basis_vector_on_k4(self):
        dm = distance_matrix(complete_graph(4))
        e0 = np.array([1.0, 0.0, 0.0, 0.0])
        value, slack = rayleigh_bound_check(dm, e0)
        assert value == 0.0
        assert abs(slack - 3.0) <= 1e-10

    def test_foreign_perron_vector_has_positive_slack(self):
        x = perron(distance_matrix(path_graph(4))).x
        _, slack = rayleigh_bound_check(distance_matrix(cycle_graph(4)), x)
        assert slack > 1e-3

    def test_requires_unit_vector(self):
        dm = distance_matrix(path_graph(3))
        with pytest.raises(ValueError, match="unit"):
            rayleigh_bound_check(dm, np.ones(3))


class TestGroupPattern:
    def test_complete_graph_single_group(self):
        pp = perron(distance_matrix(complete_graph(5)))
        [(mean, dev)] = perron_group_pattern(pp, [range(5)])
        assert dev <= 1e-15  # exact symmetry up to one rounding ulp in the mean
        assert abs(mean - pp.x[0]) <= 1e-15

    def test_three_levels_hub_only(self):
        p = BridgeFamilyParams(4, 4, 2, 2)
        tilde = bridge_graph_tilde(p)
        pp = perron(distance_matrix(tilde))
        (m1, d1), (m2, d2), (m3, d3) = perron_group_pattern(
            pp, tilde_level_groups(p)
        )
        assert max(d1, d2, d3) < 1e-9
        assert m3 < m2 < m1

    def test_three_levels_mixed(self):
        p = BridgeFamilyParams(5, 5, 2, 1, ((4, 3),))
        pp = perron(distance_matrix(bridge_graph_tilde(p)))
        (m1, _), (m2, d2), (m3, d3) = perron_group_pattern(pp, tilde_level_groups(p))
        assert max(d2, d3) < 1e-9
        assert m3 < m2 < m1

    def test_rejects_non_partition(self):
        pp = perron(distance_matrix(complete_graph(4)))
        with pytest.raises(ValueError):
            perron_group_pattern(pp, [(0, 1), (1, 2, 3)])  # overlap
        with pytest.raises(ValueError):
            perron_group_pattern(pp, [(0, 1)])  # missing vertices
        with pytest.raises(ValueError):
            perron_group_pattern(pp, [(0, 1, 2, 3), ()])  # empty group
