import dataclasses
import math
import random
from itertools import permutations

import pytest

from dsr import (
    BridgeFamilyParams,
    CorpusError,
    check_cut_order_bound,
    check_degree_r_reduction,
    check_edge_monotonicity,
    check_form_shift_identity,
    check_hub_row_identity,
    check_perron_order,
    check_transformation,
    bridge_graph,
    class_table,
    complete_graph,
    edge_connectivity,
    enumerate_connected,
    extremal_search,
    from_edge_list,
    graph6_decode,
    graph6_encode,
    graph_rho,
    is_connected,
    isomorphic,
    kpq,
    min_degree,
    random_cross_edges,
)
import dsr.verify
from dsr.verify import (
    bridge_grid,
    random_connected_graph,
    suite_cut_sides,
    suite_theorem,
)
from helpers import cycle_graph, path_graph


class TestEdgeMonotonicity:
    def test_p3_endpoint_addition(self):
        v = check_edge_monotonicity(path_graph(3), 0, 2)
        assert v.holds
        assert abs(v.lhs_rho - (1 + math.sqrt(3))) < 1e-9
        assert abs(v.rhs_rho - 2.0) < 1e-9

    def test_k4_edge_deletion(self):
        v = check_edge_monotonicity(complete_graph(4), 0, 1)
        assert v.holds
        assert v.rhs_rho == pytest.approx(3.0)
        assert v.lhs_rho > 3.0

    def test_bridge_deletion_inapplicable(self):
        v = check_edge_monotonicity(path_graph(4), 1, 2)
        assert not v.applicable
        assert v.margin is None


class TestPerronOrder:
    def test_pendant_strictly_larger(self):
        v = check_perron_order(kpq(3, 1), 3, 0)
        assert v.relation == "nested"
        assert v.larger == 3  # the pendant
        assert v.holds and v.x_u > v.x_v

    def test_complete_graph_equal(self):
        v = check_perron_order(complete_graph(5), 1, 3)
        assert v.relation == "equal"
        assert v.holds

    def test_c5_incomparable(self):
        v = check_perron_order(cycle_graph(5), 0, 2)
        assert v.relation == "incomparable"
        assert v.holds

    def test_rejects_bad_pair(self):
        with pytest.raises(ValueError):
            check_perron_order(cycle_graph(5), 2, 2)


class TestDegreeReduction:
    def test_already_extremal_equality(self):
        v = check_degree_r_reduction(kpq(4, 2), 4)
        assert v.holds
        assert v.margin == 0.0

    def test_c5_strict(self):
        v = check_degree_r_reduction(cycle_graph(5), 0)
        assert v.holds
        assert v.margin > 1e-3
        assert v.rhs_rho == pytest.approx(graph_rho(kpq(4, 2)))

    def test_p4_leaf(self):
        v = check_degree_r_reduction(path_graph(4), 0)
        assert v.holds
        assert v.lhs_rho == pytest.approx(2 + math.sqrt(10))
        assert v.rhs_rho == pytest.approx(graph_rho(kpq(3, 1)))

    def test_wrong_degree_rejected(self):
        with pytest.raises(ValueError, match="degree"):
            check_degree_r_reduction(kpq(4, 2), 0)  # clique vertex, degree 4 != 2


class TestTransformation:
    def test_hub_only(self):
        v = check_transformation(BridgeFamilyParams(4, 4, 2, 2))
        assert v.holds
        assert v.margin > 1e-3

    def test_mixed_every_placement(self):
        for seed in range(5):
            cross = random_cross_edges(5, 4, 2, 1, seed)
            v = check_transformation(BridgeFamilyParams(5, 4, 2, 1, cross))
            assert v.holds, cross

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            check_transformation(BridgeFamilyParams(3, 3, 2, 1, ((2, 1),)))


class TestIdentities:
    def test_form_shift_small(self):
        assert check_form_shift_identity(BridgeFamilyParams(4, 4, 2, 2)) < 1e-8

    def test_form_shift_larger(self):
        assert check_form_shift_identity(BridgeFamilyParams(6, 5, 3, 3)) < 1e-8

    def test_form_shift_requires_hub_only(self):
        with pytest.raises(ValueError, match="t == r"):
            check_form_shift_identity(BridgeFamilyParams(4, 4, 2, 1, ((2, 1),)))

    def test_hub_row_hub_only(self):
        assert check_hub_row_identity(BridgeFamilyParams(4, 4, 2, 2)) < 1e-8

    def test_hub_row_mixed(self):
        p = BridgeFamilyParams(5, 5, 2, 1, ((3, 2),))
        assert check_hub_row_identity(p) < 1e-8


class TestCutOrderBound:
    def test_bridge_instance(self):
        v = check_cut_order_bound(bridge_graph(BridgeFamilyParams(4, 4, 2, 2)))
        assert v.applicable
        assert v.side_sizes == (4, 4)
        assert v.holds

    def test_kpq_hypothesis_fails(self):
        v = check_cut_order_bound(kpq(4, 2))
        assert not v.applicable  # has a vertex of degree exactly r
        assert v.holds

    def test_c5_hypothesis_fails(self):
        v = check_cut_order_bound(cycle_graph(5))
        assert not v.applicable


class TestExtremalSearch:
    def test_n4_r1(self):
        rep = extremal_search(4, 1)
        assert rep.class_size == 3
        assert rep.matches_kpq
        assert rep.min_rho == pytest.approx(4.099647729675863, abs=1e-9)
        assert rep.uniqueness_gap > 1e-6
        assert isomorphic(graph6_decode(rep.minimizer_graph6), kpq(3, 1))

    def test_n5_r2(self):
        rep = extremal_search(5, 2)
        assert rep.matches_kpq
        assert rep.unique()

    def test_r_range_enforced(self):
        with pytest.raises(ValueError):
            extremal_search(4, 3)  # r = n-1 excluded
        with pytest.raises(ValueError):
            extremal_search(4, 0)

    def test_corpus_input(self):
        corpus = [graph6_encode(g) for g in enumerate_connected(5)]
        corpus.insert(0, b"")  # blank lines are skipped
        rep = extremal_search(5, 1, corpus=corpus)
        assert rep.matches_kpq

    def test_corpus_order_mismatch(self):
        with pytest.raises(CorpusError, match="order"):
            extremal_search(5, 1, corpus=[graph6_encode(complete_graph(4))])

    def test_corpus_without_connectivity_r(self):
        with pytest.raises(CorpusError, match="edge connectivity 3"):
            extremal_search(5, 3, corpus=[graph6_encode(path_graph(5))])

    def test_duplicate_class_in_corpus_is_not_a_tie(self):
        classes = [graph6_encode(g) for g in enumerate_connected(6)]
        relabelings = (
            graph6_encode(from_edge_list(6, [(p[u], p[v]) for u, v in kpq(5, 2).edges()]))
            for p in permutations(range(6))
        )
        duplicate = next(code for code in relabelings if code not in classes)
        plain = extremal_search(6, 2, corpus=classes)
        rep = extremal_search(6, 2, corpus=classes + [duplicate])
        assert rep.unique() and rep.matches_kpq
        assert rep.class_size == plain.class_size + 1
        assert rep.uniqueness_gap == pytest.approx(plain.uniqueness_gap, abs=1e-12)
        assert rep.uniqueness_gap == pytest.approx(0.2593, abs=1e-4)

    def test_single_class_has_no_runner_up(self):
        rep = extremal_search(3, 1)
        assert rep.class_size == 1
        assert rep.runner_up_rho is None and rep.uniqueness_gap is None
        assert rep.unique()


def test_random_connected_graph_seeded():
    rng1 = random.Random(11)
    rng2 = random.Random(11)
    for _ in range(10):
        g1 = random_connected_graph(rng1, 4, 12)
        g2 = random_connected_graph(rng2, 4, 12)
        assert g1 == g2
        assert is_connected(g1)
        assert 4 <= g1.n <= 12


def test_bridge_grid_deterministic():
    a = list(bridge_grid(3, (1, 2)))
    b = list(bridge_grid(3, (1, 2)))
    assert a == b
    # hub-only cells yield one instance, mixed cells five
    assert len(a) == 25 + 25 + 125


class TestClassTable:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_columns_match_per_graph_paths(self, n):
        table = class_table(n)
        assert table.graphs == tuple(enumerate_connected(n))
        k = len(table.graphs)
        assert table.lam.shape == table.rho.shape == table.residual.shape == (k,)
        assert table.x.shape == (k, n)
        for g, lam, rho, x, res in zip(
            table.graphs, table.lam, table.rho, table.x, table.residual
        ):
            assert lam == (edge_connectivity(g).size if n >= 2 else 0)
            assert rho == pytest.approx(graph_rho(g), abs=1e-9)
            assert (x > 0).all() and res <= 1e-12 * n

    def test_built_once_per_order_and_read_only(self):
        table = class_table(5)
        assert class_table(5) is table
        with pytest.raises(ValueError):
            table.x[0, 0] = 0.0


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestSuiteTheorem:
    def test_one_cut_and_one_stack_per_order_no_decodes(self, monkeypatch):
        class_table.cache_clear()
        cuts = _count_calls(monkeypatch, dsr.verify, "edge_connectivity")
        decodes = _count_calls(monkeypatch, dsr.verify, "graph6_decode")
        stacks = _count_calls(monkeypatch, dsr.verify, "perron_stack")
        result = suite_theorem(6)
        assert result.ok and result.instances == 2 + 3 + 4
        assert len(cuts) == 6 + 21 + 112  # one per class of orders 4..6
        assert not decodes
        assert len(stacks) == 3

    def test_notes_lead_with_smallest_gap(self):
        result = suite_theorem(8)
        assert result.ok
        assert result.notes.startswith("min uniqueness gap 1.9148")
        gaps = [extremal_search(n, r).uniqueness_gap
                for n in range(4, 9) for r in range(1, n - 1)]
        assert result.notes == f"min uniqueness gap {min(gaps):.6e} at n=8 r=2"

    def test_failures_follow_the_gap(self, monkeypatch):
        search = dsr.verify.extremal_search

        def fake(n, r, corpus=None):
            rep = search(n, r, corpus)
            matches = rep.matches_kpq and (n, r) != (5, 2)
            return dataclasses.replace(rep, matches_kpq=matches)

        monkeypatch.setattr(dsr.verify, "extremal_search", fake)
        result = suite_theorem(5)
        minimizer = extremal_search(5, 2).minimizer_graph6
        assert result.failures == 1
        head, tail = result.notes.split("; ")
        assert head.startswith("min uniqueness gap ")
        assert tail == f"n=5 r=2: minimizer {minimizer}"


def test_cut_sides_certifies_only_where_degree_exceeds_connectivity(monkeypatch):
    tables = [class_table(n) for n in range(2, 9)]
    eligible = [
        sum(1 for g, lam in zip(t.graphs, t.lam) if min_degree(g) > lam) for t in tables
    ]
    assert eligible[-1] == 44  # of the 11,117 order-8 classes
    cuts = _count_calls(monkeypatch, dsr.verify, "edge_connectivity")
    result = suite_cut_sides(max_n=8, r_max=1)
    grid = len(list(bridge_grid(0, (1,))))  # one cut per grid instance
    assert result.ok
    assert result.instances == sum(len(t.graphs) for t in tables) + grid
    assert len(cuts) == sum(eligible) + grid
