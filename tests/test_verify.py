import dataclasses
import importlib
import json
import math
import random
from itertools import combinations, permutations, product
from pathlib import Path

import numpy as np
import pytest

from dsr import (
    BridgeFamilyParams,
    CorpusError,
    bridge_graph,
    bridge_graph_tilde,
    brute_force_min_cut,
    class_table,
    complete_graph,
    distance_matrix,
    edge_connectivity,
    enumerate_connected,
    extremal_search,
    from_edge_list,
    graph6_decode,
    graph6_encode,
    is_connected,
    is_kpq,
    isomorphic,
    kpq,
    perron,
    random_cross_edges,
    tilde_level_groups,
)
import dsr.cuts
import dsr.graphs
import dsr.verify
from dsr.cli import main
from dsr.graphs import adjacency_stack
from dsr.isomorphism import canonical_form
from dsr.verify import (
    ENTRY_EQ_TOL,
    GROUP_DEV_TOL,
    IDENTITY_TOL,
    PLACEMENTS,
    STRICT_MARGIN,
    UNIQUENESS_GAP,
    _entry_order,
    _shortest_paths,
    bridge_claims,
    bridge_grid,
    random_connected_graph,
    run_all_suites,
    suite_bridge_grid,
    suite_cut_sides,
    suite_edge_monotonicity,
    suite_perron_order,
    suite_spectra_oracle,
    suite_theorem,
)
from helpers import (
    adjacency,
    count_calls,
    count_slow_paths,
    cycle_graph,
    path_graph,
    reference_bridge_grid,
    reference_order_holds,
    reference_shortest_paths,
)

ROOT = Path(__file__).resolve().parent.parent


def entry_order(g, x) -> np.ndarray:
    """``_entry_order``'s (n, n) verdicts for one graph and vector."""
    return _entry_order(adjacency(g)[None], np.asarray(x)[None])[0]


class TestShortestPaths:
    """The level-set certificate that the spectra suite puts on the distance
    stack it solves against."""

    def test_holds_on_every_class_in_chunks(self, monkeypatch):
        monkeypatch.setattr(dsr.graphs, "STACK_ENTRIES", 2 * 7 * 7)  # 2 order-7 graphs a chunk
        for n in range(1, 8):
            graphs = list(enumerate_connected(n))
            d = np.array([distance_matrix(g) for g in graphs], dtype=np.int8)
            adj = np.array([adjacency(g) for g in graphs]).reshape(-1, n, n)
            assert _shortest_paths(adj, d).all()

    def test_every_one_entry_step_fails(self):
        steps = list(product(range(5), range(5), (1, -1)))
        for g in enumerate_connected(5):
            d = np.repeat(distance_matrix(g).astype(np.int8)[None], len(steps), axis=0)
            for faulty, (u, v, step) in zip(d, steps):
                faulty[u, v] += step
            adj = np.repeat(adjacency(g)[None], len(steps), axis=0)
            assert not _shortest_paths(adj, d).any()

    def test_matches_the_bellman_form_on_every_small_fault(self):
        # oracle: Bellman's equations, one (n, n, n) temporary per graph.
        # Every entry, and every symmetric pair of entries, of every class of
        # orders 2..5 moved by +-1, +-2 and +-3: diagonal steps below 0 need
        # the sign test, and no fault may pass either form
        faults = 0
        for n in range(2, 6):
            entries = [((u, v),) for u in range(n) for v in range(n)]
            entries += [((u, v), (v, u)) for u, v in combinations(range(n), 2)]
            moves = list(product(entries, (1, -1, 2, -2, 3, -3)))
            for g in enumerate_connected(n):
                d = np.repeat(distance_matrix(g).astype(np.int8)[None], len(moves) + 1, axis=0)
                for faulty, (cells, step) in zip(d[1:], moves):
                    for cell in cells:
                        faulty[cell] += step
                adj = np.repeat(adjacency(g)[None], len(d), axis=0)
                verdicts = _shortest_paths(adj, d)
                assert verdicts.tolist() == reference_shortest_paths(adj, d).tolist()
                assert verdicts[0] and not verdicts[1:].any()
                faults += len(moves)
        assert faults == 5376


class TestOrderHolds:
    """The Perron-entry relation that ``suite_perron_order`` asserts for
    each vertex pair, as ``_entry_order`` computes it for a stack."""

    def test_nested_needs_a_strictly_larger_entry(self):
        g = kpq(3, 1)
        x = perron(distance_matrix(g)).x
        # the pendant's entry is the larger, whichever of the pair comes first
        holds = entry_order(g, x)
        assert holds[3, 0] and holds[0, 3]
        for y in (x[[3, 1, 2, 0]], np.ones(4)):  # swapped entries, then a tie
            holds = entry_order(g, y)
            assert not holds[3, 0] and not holds[0, 3]

    def test_equal_needs_entries_within_tolerance(self):
        g = complete_graph(5)
        x = perron(distance_matrix(g)).x.copy()
        assert entry_order(g, x)[1, 3]
        x[1] += 1e-6
        assert not entry_order(g, x)[1, 3]

    def test_incomparable_claims_nothing(self):
        g = cycle_graph(5)
        x = perron(distance_matrix(g)).x
        for y in (x, x[::-1], np.arange(5.0), -np.arange(5.0)):
            assert entry_order(g, y)[0, 2]

    def test_matches_the_per_pair_reference_on_every_class(self):
        # oracle: the bitset rows, one pair at a time, on each class's own
        # Perron vector and on that vector reversed and rounded, whose ties
        # and swaps reach every branch
        seen = set()
        for n in range(2, 9):
            table = class_table(n)
            adj = np.array([adjacency(g) for g in table.graphs])
            for x in (table.x, np.round(table.x[:, ::-1], 2)):
                for g, y, holds in zip(table.graphs, x, _entry_order(adj, x).tolist()):
                    for u, v in combinations(range(n), 2):
                        expected = reference_order_holds(g, y, u, v, ENTRY_EQ_TOL)
                        assert holds[u][v] == holds[v][u] == expected, (g, u, v)
                        seen.add(expected)
        assert seen == {True, False}

    def test_suite_counts_each_violated_pair(self, monkeypatch):
        real = dsr.verify.class_table

        def flat(n):
            # one entry for every vertex: every strictly nested pair fails
            table = real(n)
            return dataclasses.replace(table, x=np.ones_like(table.x))

        monkeypatch.setattr(dsr.verify, "class_table", flat)
        result = suite_perron_order(5)

        def neighbours(g, u, v):
            return {w for w in range(g.n) if g.has_edge(u, w)} - {v}

        nested = [
            (g, u, v) for n in range(2, 6) for g in enumerate_connected(n)
            for u, v in combinations(range(n), 2)
            if neighbours(g, u, v) < neighbours(g, v, u)
            or neighbours(g, v, u) < neighbours(g, u, v)
        ]
        assert result.instances == sum(c * math.comb(n, 2) for n, c in CLASS_COUNTS.items()
                                       if 2 <= n <= 5)
        assert result.failures == len(nested) > 0


def identity_residuals(params: BridgeFamilyParams) -> dict[str, float | None]:
    """Each identity's residual on one bridge instance, by claim name."""
    return {c.claim: c.residual for c in bridge_claims([params])[0][1:]}


class TestTransformation:
    def test_hub_only(self):
        [[v, *identities]] = bridge_claims([BridgeFamilyParams(4, 4, 2, 2)])
        assert v.claim == "bridge_flattening_decreases_radius"
        assert v.holds and v.residual is None
        assert v.margin > 1e-3
        for c in identities:  # an identity fills its residual and nothing else
            assert c.params == v.params
            assert (c.lhs_rho, c.rhs_rho, c.margin) == (None, None, None)

    def test_mixed_every_placement(self):
        grid = [BridgeFamilyParams(5, 4, 2, 1,
                                   random_cross_edges(5, 4, 2, 1, random.Random(seed)))
                for seed in range(5)]
        for p, (v, *_) in zip(grid, bridge_claims(grid)):
            assert v.holds, p.cross_edges

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            bridge_claims([BridgeFamilyParams(3, 3, 2, 1, ((2, 1),))])

    @pytest.mark.parametrize("p", [
        BridgeFamilyParams(4, 4, 2, 2),
        BridgeFamilyParams(5, 5, 2, 1, ((4, 3),)),
    ], ids=["hub-only", "mixed"])
    def test_three_levels(self, p):
        # oracle: the flattened graph's Perron vector from a dense
        # eigensolver, split by hand into the hub (vertex 0), its
        # non-neighbours and its neighbours
        g = bridge_graph_tilde(p)
        values, vectors = np.linalg.eigh(distance_matrix(g).astype(float))
        rho, x = values[-1], np.abs(vectors[:, -1])
        near = [v for v in range(g.n) if g.has_edge(0, v)]
        mid = [v for v in range(1, g.n) if not g.has_edge(0, v)]
        assert tilde_level_groups(p) == ((0,), tuple(mid), tuple(near))
        assert max(np.ptp(x[mid]), np.ptp(x[near])) < 1e-9
        m1, m2, m3 = x[0], x[mid].mean(), x[near].mean()
        assert m3 < m2 < m1
        hub = abs(rho * m1 - (p.r * m3 + 2.0 * (p.order - p.r - 1) * m2))
        [verdict, hub_row, *_] = bridge_claims([p])[0]
        assert verdict.holds and hub_row.holds
        assert hub_row.residual == pytest.approx(hub, abs=1e-12)


class TestIdentities:
    def test_form_shift_small(self):
        assert identity_residuals(BridgeFamilyParams(4, 4, 2, 2))["form_shift_identity"] < 1e-8

    def test_form_shift_larger(self):
        assert identity_residuals(BridgeFamilyParams(6, 5, 3, 3))["form_shift_identity"] < 1e-8

    def test_form_shift_requires_hub_only(self):
        # with t < r only the hub row is claimed
        assert list(identity_residuals(BridgeFamilyParams(4, 4, 2, 1, ((2, 1),)))) == [
            "hub_row_identity"
        ]

    def test_hub_row_hub_only(self):
        assert identity_residuals(BridgeFamilyParams(4, 4, 2, 2))["hub_row_identity"] < 1e-8

    def test_hub_row_mixed(self):
        p = BridgeFamilyParams(5, 5, 2, 1, ((3, 2),))
        assert identity_residuals(p)["hub_row_identity"] < 1e-8


class TestCutSideLemma:
    """The general cut-side lemma that ``suite_cut_sides`` checks: when
    every degree exceeds the edge connectivity r, each side of a minimum cut
    has at least r+2 vertices."""

    @staticmethod
    def eligible(n: int) -> list:
        """(graph, edge connectivity) of each order-n class with min degree
        above its edge connectivity."""
        table = class_table(n)
        return [(g, int(lam)) for g, lam in zip(table.graphs, table.lam)
                if min(g.degree(v) for v in range(n)) > lam]

    def test_every_minimum_cut_of_the_bipartition_scan(self):
        # oracle: every bipartition at the minimum cut size, not only the one
        # the certificate names
        counts = []
        for n in range(2, 9):
            eligible = self.eligible(n)
            counts.append(len(eligible))
            scan = brute_force_min_cut(adjacency_stack(n, [g for g, _ in eligible]))
            for (g, lam), size in zip(eligible, scan, strict=True):
                assert size == lam
                minimum = [
                    mask for mask in range(1, 1 << (n - 1))
                    if sum(1 for u, v in g.edges() if (mask >> u ^ mask >> v) & 1) == lam
                ]
                assert minimum
                for mask in minimum:
                    a = mask.bit_count()
                    assert min(a, n - a) >= lam + 2, (g, mask)
        assert counts == [0, 0, 0, 0, 1, 5, 44]

    def fails_once_with_side(self, monkeypatch, side_of) -> None:
        """With the kernel's side mask of one eligible order-8 class replaced
        by ``side_of(lam)`` at the right size, the suite fails exactly once."""
        def two_cliques(g, side):
            inside = [v for v in range(g.n) if side >> v & 1]
            rest = [v for v in range(g.n) if not side >> v & 1]
            return all(g.has_edge(u, v) for part in (inside, rest)
                       for u, v in combinations(part, 2))

        table = class_table(8)
        sides = dict(zip(table.graphs, table.side.tolist()))
        target, lam = next((g, lam) for g, lam in self.eligible(8)
                           if not two_cliques(g, sides[g]))

        def bad(real):
            def fault(adj):
                sizes, masks = real(adj)
                return sizes, np.where(rows_of(target, adj), np.uint64(side_of(lam)), masks)
            return fault

        monkeypatch.setattr(dsr.verify, "min_cuts", bad(dsr.verify.min_cuts))
        class_table.cache_clear()
        result = suite_cut_sides(8, list(bridge_grid(0, 1)))
        assert result.failures == 1

    def test_suite_fails_on_a_one_vertex_side(self, monkeypatch, cold_class_tables):
        self.fails_once_with_side(monkeypatch, lambda lam: 1)

    def test_suite_fails_on_a_side_one_vertex_short(self, monkeypatch, cold_class_tables):
        # r+1 vertices: one short of the lemma's r+2
        self.fails_once_with_side(monkeypatch, lambda lam: (1 << (lam + 1)) - 1)


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
        assert rep.holds()

    def test_r_range_enforced(self):
        with pytest.raises(ValueError):
            extremal_search(4, 3)  # r = n-1 excluded
        with pytest.raises(ValueError):
            extremal_search(4, 0)

    def test_corpus_input(self):
        rep = extremal_search(5, 1, list(enumerate_connected(5)))
        assert rep.matches_kpq

    def test_corpus_order_mismatch(self):
        with pytest.raises(CorpusError, match="order"):
            extremal_search(5, 1, [complete_graph(4)])

    def test_corpus_without_connectivity_r(self):
        with pytest.raises(CorpusError, match="edge connectivity 3"):
            extremal_search(5, 3, [path_graph(5)])

    def test_duplicate_class_in_corpus_is_not_a_tie(self):
        classes = list(enumerate_connected(6))
        relabelings = (
            from_edge_list(6, [(p[u], p[v]) for u, v in kpq(5, 2).edges()])
            for p in permutations(range(6))
        )
        duplicate = next(g for g in relabelings if g not in classes)
        plain = extremal_search(6, 2, classes)
        rep = extremal_search(6, 2, classes + [duplicate])
        assert rep.holds()
        assert rep.class_size == plain.class_size + 1
        assert rep.uniqueness_gap == pytest.approx(plain.uniqueness_gap, abs=1e-12)
        assert rep.uniqueness_gap == pytest.approx(0.2593, abs=1e-4)

    @pytest.mark.parametrize("n", range(4, 9))
    def test_kpq_representative_is_canonical(self, n):
        # enumeration keeps kpq(n-1, r)'s rows as built, as its top-key
        # vertices are twins (its r hubs for r >= 2, its clique vertices for
        # r = 1, whose hub is a cut vertex), so the built-in search names its
        # minimizer by the canonical form
        graphs = class_table(n).graphs
        for r in range(1, n - 1):
            assert sum(is_kpq(g, r) for g in graphs) == 1, (n, r)
            form = canonical_form(kpq(n - 1, r))
            assert extremal_search(n, r).minimizer_graph6 == graph6_encode(form).decode()

    def test_corpus_minimizer_keeps_its_line(self):
        # a corpus search names its minimizer by the graph it was given, not
        # by the canonical form the built-in search names it by
        given = kpq(5, 2)
        assert given != canonical_form(given)
        corpus = [g for g in enumerate_connected(6) if not is_kpq(g, 2)] + [given]
        rep = extremal_search(6, 2, corpus)
        assert rep.holds() and rep.minimizer_graph6 == graph6_encode(given).decode()

    def test_single_class_has_no_runner_up(self):
        rep = extremal_search(3, 1)
        assert rep.class_size == 1
        assert rep.runner_up_rho is None and rep.uniqueness_gap is None
        assert rep.holds()
        # a corpus of copies of one class has none either, and still holds:
        # only the theorem suite, over the built-in classes, fails the gap
        rep = extremal_search(6, 2, [kpq(5, 2)] * 2)
        assert rep.class_size == 2 and rep.uniqueness_gap is None
        assert rep.holds()

    def test_holds_needs_kpq_and_a_gap_above_the_band(self):
        rep = extremal_search(5, 2)
        assert rep.holds()
        assert not dataclasses.replace(rep, matches_kpq=False).holds()
        assert not dataclasses.replace(rep, uniqueness_gap=UNIQUENESS_GAP).holds()
        assert dataclasses.replace(rep, uniqueness_gap=2 * UNIQUENESS_GAP).holds()


def test_random_connected_graph_seeded():
    rng1 = random.Random(11)
    rng2 = random.Random(11)
    for _ in range(10):
        g1 = random_connected_graph(rng1)
        g2 = random_connected_graph(rng2)
        assert g1 == g2
        assert is_connected(g1)
        assert 4 <= g1.n <= 20


def test_bridge_grid_deterministic():
    a = list(bridge_grid(3, 2))
    b = list(bridge_grid(3, 2))
    assert a == b
    # hub-only cells yield one instance, mixed cells five
    assert len(a) == 25 + 25 + 125


@pytest.mark.parametrize("seed", [0, 5])
def test_bridge_grid_draws_every_placement_from_one_stream(seed):
    assert list(bridge_grid(seed, 4)) == list(reference_bridge_grid(seed, 4))


class TestClassTable:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_columns_match_per_graph_paths(self, n):
        table = class_table(n)
        assert table.graphs == tuple(enumerate_connected(n))
        k = len(table.graphs)
        assert table.lam.shape == table.rho.shape == (k,)
        assert table.x.shape == (k, n)
        for g, lam, rho, x in zip(table.graphs, table.lam, table.rho, table.x):
            d = distance_matrix(g)
            assert lam == (edge_connectivity(g)[0] if n >= 2 else 0)
            assert rho == pytest.approx(perron(d).rho, abs=1e-9)
            assert (x > 0).all() and np.abs(d @ x - rho * x).max() <= 1e-12 * n

    @pytest.mark.parametrize("n", range(1, 9))
    def test_cut_columns_are_certified_minimum_cuts(self, n):
        # every class of orders 2..8: lam is the per-graph maximum-adjacency
        # cut size, and side a nonempty proper vertex set whose cut, counted
        # from the bit rows, is lam
        table = class_table(n)
        assert table.side.dtype == np.uint64
        full = (1 << n) - 1
        for g, lam, side in zip(table.graphs, table.lam.tolist(), table.side.tolist()):
            if n == 1:
                assert lam == side == 0
                continue
            assert lam == edge_connectivity(g)[0]
            assert 0 < side < full
            assert sum((g.rows[v] & ~side).bit_count()
                       for v in range(n) if side >> v & 1) == lam
        with pytest.raises(ValueError):
            table.side[0] = 0

    def test_adjacency_unpacked_once_per_order_read(self, monkeypatch, cold_class_tables):
        # each order's stack is unpacked once, when its table is built, and
        # the cut kernel, the spectra oracle and the entry-order suite all
        # read that same array
        unpacks = count_calls(monkeypatch, dsr.verify, "adjacency_stack")
        kernel = count_calls(monkeypatch, dsr.verify, "min_cuts")
        scans = count_calls(monkeypatch, dsr.verify, "brute_force_min_cut")
        orders = count_calls(monkeypatch, dsr.verify, "_entry_order")
        class_table(8)
        assert suite_spectra_oracle(7).ok and suite_perron_order(7).ok
        assert [n for n, _ in unpacks] == [8, *range(1, 8)]
        stacks = {n: class_table(n).adjacency for n in range(1, 9)}
        assert all(adj is stacks[n] for (adj,), n in zip(kernel, (8, *range(2, 8)), strict=True))
        assert all(adj is stacks[n] for (adj,), n in zip(scans, range(2, 8), strict=True))
        assert all(adj is stacks[n] for (adj, _), n in zip(orders, range(2, 8), strict=True))
        assert len(unpacks) == 8  # no later reader unpacked its own
        table = class_table(7)
        assert np.array_equal(table.adjacency, [adjacency(g) for g in table.graphs])
        with pytest.raises(ValueError):
            table.adjacency[0, 0, 1] = False

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_each_order_unpacked_once(self, monkeypatch, cold_class_tables, n):
        # building an order's table unpacks its bit rows once, and the cut
        # kernel and the distance stack both receive that one array
        unpacks = count_calls(monkeypatch, np, "unpackbits")
        stacks = count_calls(monkeypatch, dsr.verify, "adjacency_stack")
        kernel = count_calls(monkeypatch, dsr.verify, "min_cuts")
        distances = count_calls(monkeypatch, dsr.verify, "distance_stack")
        table = class_table(n)
        assert len(unpacks) == len(stacks) == 1
        [(cut_adj,)], [(distance_adj,)] = kernel, distances
        assert cut_adj is distance_adj is table.adjacency

    def test_built_once_per_order_and_read_only(self):
        table = class_table(5)
        assert class_table(5) is table
        with pytest.raises(ValueError):
            table.x[0, 0] = 0.0


class TestSuiteTheorem:
    def test_one_cut_and_one_stack_per_order_no_decodes(self, monkeypatch):
        class_table.cache_clear()
        assert not hasattr(dsr.verify, "edge_connectivity")
        per_graph = count_calls(monkeypatch, dsr.cuts, "edge_connectivity")
        cuts = count_calls(monkeypatch, dsr.verify, "min_cuts")
        decodes = count_calls(monkeypatch, dsr.verify, "graph6_decode")
        stacks = count_calls(monkeypatch, dsr.verify, "perron_stack")
        distances = count_calls(monkeypatch, dsr.verify, "distance_stack")
        result = suite_theorem(6)
        assert result.ok and result.instances == 2 + 3 + 4
        # one kernel call per order 4..6, over all of its classes
        assert [adj.shape for adj, in cuts] == [(6, 4, 4), (21, 5, 5), (112, 6, 6)]
        assert not per_graph
        assert not decodes
        assert len(stacks) == 3
        assert [adj.shape[1] for adj, in distances] == [4, 5, 6]

    def test_notes_lead_with_smallest_gap(self):
        result = suite_theorem(8)
        assert result.ok
        assert result.notes.startswith("min uniqueness gap 1.9148")
        gaps = [extremal_search(n, r).uniqueness_gap
                for n in range(4, 9) for r in range(1, n - 1)]
        assert None not in gaps  # every (n, r) up to 8 has a runner-up
        assert result.notes == f"min uniqueness gap {min(gaps):.6e} at n=8 r=2"

    def test_failures_follow_the_gap(self, monkeypatch):
        search = dsr.verify.extremal_search

        def fake(n, r, graphs=None):
            rep = search(n, r, graphs)
            matches = rep.matches_kpq and (n, r) != (5, 2)
            return dataclasses.replace(rep, matches_kpq=matches)

        monkeypatch.setattr(dsr.verify, "extremal_search", fake)
        result = suite_theorem(5)
        minimizer = extremal_search(5, 2).minimizer_graph6
        assert result.failures == 1
        head, tail = result.notes.split("; ")
        assert head.startswith("min uniqueness gap ")
        assert tail == f"n=5 r=2: minimizer {minimizer}"

    def test_missing_runner_up_fails(self, monkeypatch):
        # every class the same canonical form: no search finds a runner-up
        monkeypatch.setattr(dsr.verify, "canonical_form", lambda g: complete_graph(1))
        result = suite_theorem(5)
        cases = [(n, r) for n in (4, 5) for r in range(1, n - 1)]
        sizes = [extremal_search(n, r).class_size for n, r in cases]
        assert min(sizes) >= 2 and result.failures == result.instances == len(cases)
        assert result.notes.split("; ") == [
            f"n={n} r={r}: no runner-up among {size} classes"
            for (n, r), size in zip(cases, sizes)
        ]


def test_cut_sides_certifies_only_where_degree_exceeds_connectivity(monkeypatch):
    tables = [class_table(n) for n in range(2, 9)]
    eligible = [
        sum(1 for g, lam in zip(t.graphs, t.lam) if min(map(g.degree, range(g.n))) > lam)
        for t in tables
    ]
    assert eligible[-1] == 44  # of the 11,117 order-8 classes
    grid = list(bridge_grid(0, 1))
    per_graph = count_calls(monkeypatch, dsr.cuts, "edge_connectivity")
    cuts = count_calls(monkeypatch, dsr.verify, "min_cuts")
    result = suite_cut_sides(8, grid)
    bridges = [bridge_graph(p) for p in grid]
    assert result.ok
    assert result.instances == sum(len(t.graphs) for t in tables) + len(grid)
    # the classes' cuts come from the tables; one kernel call per grid
    # order holds that order's bridge graphs in grid order
    orders = sorted({g.n for g in bridges})
    assert len(cuts) == len(orders) and not per_graph
    for (adj,), n in zip(cuts, orders):
        assert np.array_equal(adj, adjacency_stack(n, [g for g in bridges if g.n == n]))


def test_bridge_grid_solves_each_flattened_pair_once(monkeypatch):
    grid = list(bridge_grid(0, 2))
    claims = bridge_claims(grid)
    worst = max(c.residual for instance in claims for c in instance[1:])
    assert all(c.holds for instance in claims for c in instance)
    stacks = count_calls(monkeypatch, dsr.verify, "perron_stack")
    distances = count_calls(monkeypatch, dsr.verify, "distance_stack")
    slow = count_slow_paths(monkeypatch)
    result = suite_bridge_grid(grid)
    assert result.ok and result.instances == len(grid)
    assert result.notes == f"max identity residual {worst:.3e}"
    # the bridge and flattened graph of every instance in one stacked solve:
    # one distance stack and one Perron stack per order
    orders = sorted({p.order for p in grid})
    assert [len(mats) for mats, in stacks] == [2 * sum(p.order == n for p in grid)
                                               for n in orders]
    assert [adj.shape[1] for adj, in distances] == orders
    assert not any(slow)


@pytest.mark.parametrize("t", [1, 2], ids=["mixed", "hub-only"])
def test_bridge_claims_builds_each_distance_matrix_once(monkeypatch, t):
    grid = [p for p in bridge_grid(0, 2) if (p.r, p.t) == (2, t)]
    distances = count_calls(monkeypatch, dsr.verify, "distance_stack")
    slow = count_slow_paths(monkeypatch)
    bridge_claims(grid)
    # one stack per order, holding the bridge graph and the flattened graph
    # of each instance of that order
    assert [(adj.shape[1], len(adj)) for adj, in distances] == [
        (n, 2 * sum(p.order == n for p in grid)) for n in sorted({p.order for p in grid})
    ]
    assert not any(slow)


def test_bridge_claims_match_power_iteration():
    # oracle: each graph alone by power iteration, kpq by canonical forms
    grid = list(bridge_grid(0, 2))
    for p, (verdict, *identities) in zip(grid, bridge_claims(grid)):
        lhs = perron(distance_matrix(bridge_graph(p))).rho
        pp = perron(distance_matrix(bridge_graph_tilde(p)))
        assert verdict.lhs_rho == pytest.approx(lhs, rel=1e-10, abs=0)
        assert verdict.rhs_rho == pytest.approx(pp.rho, rel=1e-10, abs=0)
        _, mid, near = map(list, tilde_level_groups(p))
        m1, m2, m3 = pp.x[0], pp.x[mid].mean(), pp.x[near].mean()
        d2, d3 = np.abs(pp.x[mid] - m2).max(), np.abs(pp.x[near] - m3).max()
        assert verdict.holds == (
            lhs - pp.rho > STRICT_MARGIN * max(lhs, pp.rho)
            and max(d2, d3) < GROUP_DEV_TOL and m3 < m2 < m1
            and isomorphic(bridge_graph_tilde(p), kpq(p.order - 1, p.r))
        )
        hub = abs(pp.rho * m1 - (p.r * m3 + 2.0 * (p.order - p.r - 1) * m2))
        assert identities[0].claim == "hub_row_identity"
        assert identities[0].holds == (hub < IDENTITY_TOL)


def test_edge_monotonicity_matches_power_iteration(monkeypatch):
    strictly_above = dsr.verify._strictly_above
    seen = []

    def recorded(lhs, rhs):
        seen.append((lhs, rhs, strictly_above(lhs, rhs)))
        return seen[-1][2]

    monkeypatch.setattr(dsr.verify, "_strictly_above", recorded)
    monkeypatch.setattr(dsr.verify, "MONOTONICITY_CASES", 50)
    result = suite_edge_monotonicity(0)
    # oracle: the suite's random stream replayed with per-graph paths
    rng = random.Random(0)
    pairs = []
    for _ in range(50):
        g = random_connected_graph(rng)
        non_edges = [(u, v) for u, v in combinations(range(g.n), 2) if not g.has_edge(u, v)]
        deletable = [(u, v) for u, v in g.edges() if is_connected(g.without_edge(u, v))]
        if non_edges:
            pairs.append((g, g.with_edge(*rng.choice(non_edges))))
        if deletable:
            pairs.append((g.without_edge(*rng.choice(deletable)), g))
    assert result.instances == len(pairs) == len(seen)
    for (lhs, rhs, holds), pair in zip(seen, pairs):
        big, small = (perron(distance_matrix(h)).rho for h in pair)
        assert lhs == pytest.approx(big, rel=1e-10, abs=0)
        assert rhs == pytest.approx(small, rel=1e-10, abs=0)
        assert holds == (big - small > STRICT_MARGIN * max(big, small))


@pytest.mark.parametrize("seed, solved, instances", [(0, 586, 386), (5, 589, 389)])
def test_edge_monotonicity_solves_each_drawn_graph_once(monkeypatch, seed, solved, instances):
    # a base graph with both a non-edge and a deletable edge is one side of
    # two pairs, and is still solved once
    calls = count_calls(monkeypatch, dsr.verify, "_stacked_solve")
    result = suite_edge_monotonicity(seed)
    [(graphs,)] = calls
    assert result.ok and result.instances == instances
    assert len(graphs) == len({id(g) for g in graphs}) == solved


def test_failed_strict_consequence_is_a_none_residual(monkeypatch, capsys):
    solve = dsr.verify._stacked_solve

    def hub_above_bound(graphs):
        records = solve(graphs)
        for _, _, x in records[1::2]:
            x[0] += 10.0  # each flattened hub: x1 now exceeds r*x3 + 2(n2-r)*x2
        return records

    monkeypatch.setattr(dsr.verify, "_stacked_solve", hub_above_bound)
    p = BridgeFamilyParams(4, 4, 2, 2)
    [[_, hub, _]] = bridge_claims([p])  # flattening, hub row, form shift
    assert (hub.claim, hub.residual, hub.holds) == ("hub_row_identity", None, False)
    assert main(["check", "--n1", "4", "--n2", "4", "--r", "2", "--t", "2"]) == 3
    out = capsys.readouterr().out
    assert '"residual": null' in out
    hub = [rec for rec in json.loads(out) if rec["claim"] == "hub_row_identity"]
    assert [(rec["residual"], rec["holds"]) for rec in hub] == [(None, False)]
    grid = list(bridge_grid(0, 2))
    result = suite_bridge_grid(grid)
    assert result.instances == len(grid)
    assert result.failures == result.instances
    assert result.notes == "max identity residual inf"


# published counts of connected graphs on 1..6 vertices (OEIS A001349)
CLASS_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}


def expected_tally_at_6() -> list[tuple[str, int, int]]:
    """(name, instances, failures) of run_all_suites(seed=0, max_n=6)."""
    # grid rule at max_n 6: r in 1..2, 5 x 5 clique orders, 5 placements when t < r
    grid = sum(25 * (1 if t == r else 5) for r in (1, 2) for t in range(1, r + 1))
    classes = sum(CLASS_COUNTS.values())
    return [
        ("closed_forms", 11 + 3, 0),  # K2..K12 plus three polynomial roots
        ("graph6_roundtrip", classes, 0),
        ("spectra_and_cut_oracle", classes, 0),
        ("extremal_theorem", sum(n - 2 for n in range(4, 7)), 0),
        ("edge_monotonicity", 386, 0),
        ("perron_entry_order", sum(c * math.comb(n, 2) for n, c in CLASS_COUNTS.items()), 0),
        ("bridge_grid_and_identities", grid, 0),
        ("cut_side_orders", classes - CLASS_COUNTS[1] + grid, 0),
    ]


def tally(results) -> list[tuple[str, int, int]]:
    return [(r.name, r.instances, r.failures) for r in results]


def test_suite_tally_at_max_n_6(monkeypatch):
    draws = count_calls(monkeypatch, dsr.verify, "random_cross_edges")
    assert tally(run_all_suites(seed=0, max_n=6)) == expected_tally_at_6()
    # the grid is drawn once: one draw per placement of the 25 r=2, t=1 cells
    assert len(draws) == 25 * PLACEMENTS


@pytest.mark.parametrize("max_n", [1, 2, 3])
def test_smallest_caps_run_every_suite(max_n):
    # orders below 2 have no vertex pair and no cut, so some stacks are empty
    results = run_all_suites(seed=0, max_n=max_n)
    assert all(r.ok for r in results), results
    instances = {r.name: r.instances for r in results}
    assert instances["spectra_and_cut_oracle"] == sum(CLASS_COUNTS[n] for n in range(1, max_n + 1))
    assert instances["perron_entry_order"] == sum(
        CLASS_COUNTS[n] * math.comb(n, 2) for n in range(1, max_n + 1))


def test_suite_tally_counts_one_failing_claim(monkeypatch):
    # the strict-margin verdict is first read by the edge-monotonicity suite
    strictly_above = dsr.verify._strictly_above
    calls = []

    def first_fails(lhs, rhs):
        calls.append((lhs, rhs))
        return len(calls) > 1 and strictly_above(lhs, rhs)

    monkeypatch.setattr(dsr.verify, "_strictly_above", first_fails)
    expected = [
        (name, instances, int(name == "edge_monotonicity"))
        for name, instances, _ in expected_tally_at_6()
    ]
    assert tally(run_all_suites(seed=0, max_n=6)) == expected


# Fault injection: each case replaces one function at its ``dsr.verify``
# binding with a faulty version, and exactly the named suites must report
# failures in a run of every suite, rather than raise.


def scale_one_rho(real):
    def fault(stack):  # the first row's radius, 1e-7 relative too high
        rho, x = real(stack)
        return rho * np.r_[1 + 1e-7, np.ones(len(rho) - 1)], x
    return fault


def rows_of(g, adj: np.ndarray) -> np.ndarray:
    """Which graphs of an adjacency stack are g, as labelled."""
    if adj.shape[1:] != (g.n, g.n):
        return np.zeros(len(adj), dtype=bool)
    return (adj == adjacency(g)).all(axis=(1, 2))


def raise_cut_of(g):
    """A ``min_cuts`` fault: g's cut size, one edge too large."""
    def wrap(real):
        def fault(adj):
            sizes, sides = real(adj)
            return sizes + rows_of(g, adj), sides
        return fault
    return wrap


def raise_k4_connectivity(real):
    return raise_cut_of(complete_graph(4))(real)


def reverse_nesting(real):
    # negated entries: a strictly smaller neighbourhood now needs a smaller entry
    return lambda adj, x: real(adj, -x)


def perturb_one_vector(real):
    def fault(stack):  # the last row's first entry, 1e-6 relative too high
        rho, x = real(stack)
        x[-1, 0] *= 1 + 1e-6
        return rho, x
    return fault


def one_hop_too_many(real):
    def fault(adj):  # in each stack of >= 100 graphs, the last one's d_00
        d = real(adj)
        if len(d) >= 100:
            d[-1, 0, 0] += 1
        return d
    return fault


def drop_last_edge(real):
    def fault(data):
        g = real(data)
        return g.without_edge(*g.edges()[-1]) if g.num_edges() else g
    return fault


def add_hub_edge(real):
    def fault(params):  # the hub of the flattened graph gets r + 1 neighbours
        h = real(params)
        return h.with_edge(0, next(v for v in range(1, h.n) if not h.has_edge(0, v)))
    return fault


def never_kpq(real):
    return lambda g, q: False


def swap_arguments(real):
    return lambda lhs, rhs: real(rhs, lhs)


def raise_min_degree(real):
    return lambda adj: real(adj) + 1


def constant_canonical_form(real):
    return lambda g: complete_graph(1)


def fault_case(name, fault, *failing):
    """One matrix case: the binding, its fault, and every suite that must
    fail, led by the one the fault aims at, which names the case."""
    return pytest.param(name, fault, set(failing), id=f"{name}-{fault.__name__}-{failing[0]}")


@pytest.fixture
def cold_class_tables():
    """No class table built under an injected fault outlives its case."""
    class_table.cache_clear()
    yield
    class_table.cache_clear()


@pytest.mark.parametrize("name, fault, failing", [
    fault_case("perron_stack", scale_one_rho, "spectra_and_cut_oracle", "closed_forms"),
    fault_case("perron_stack", perturb_one_vector, "spectra_and_cut_oracle",
               "perron_entry_order", "bridge_grid_and_identities"),
    fault_case("distance_stack", one_hop_too_many,
               "spectra_and_cut_oracle", "perron_entry_order"),
    fault_case("min_cuts", raise_k4_connectivity,
               "spectra_and_cut_oracle", "cut_side_orders"),
    fault_case("_entry_order", reverse_nesting, "perron_entry_order"),
    fault_case("graph6_decode", drop_last_edge, "graph6_roundtrip"),
    fault_case("bridge_graph_tilde", add_hub_edge, "bridge_grid_and_identities"),
    fault_case("is_kpq", never_kpq, "extremal_theorem", "bridge_grid_and_identities"),
    fault_case("_strictly_above", swap_arguments,
               "edge_monotonicity", "bridge_grid_and_identities"),
    fault_case("_min_degree", raise_min_degree, "cut_side_orders"),
    fault_case("canonical_form", constant_canonical_form, "extremal_theorem"),
])
def test_injected_fault_fails_its_suite(monkeypatch, cold_class_tables, name, fault, failing):
    monkeypatch.setattr(dsr.verify, name, fault(getattr(dsr.verify, name)))
    failures = {r.name: r.failures for r in run_all_suites(seed=0, max_n=6)}
    assert {suite for suite, count in failures.items() if count} == failing, failures


def test_cut_sides_fails_a_table_connectivity_above_min_degree(monkeypatch, cold_class_tables):
    # the order-8 r = 1 runner-up has minimum degree 1; a table edge
    # connectivity of 2 for it is impossible, and only this suite reads both
    search = extremal_search(8, 1)
    table = class_table(8)
    [target] = [g for g, lam, rho in zip(table.graphs, table.lam, table.rho)
                if lam == 1 and rho == search.runner_up_rho]
    assert min(map(target.degree, range(target.n))) == 1
    monkeypatch.setattr(dsr.verify, "min_cuts", raise_cut_of(target)(dsr.verify.min_cuts))
    class_table.cache_clear()
    result = suite_cut_sides(8, [])
    assert result.instances == sum(len(class_table(n).graphs) for n in range(2, 9))
    assert result.failures == 1


def test_report_shape_matches_the_benchmark_reference(monkeypatch):
    # the benchmark pins each suite's name and instance count at max_n 8, so
    # a change to the report's shape fails here first
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    oracles = importlib.import_module("oracles")
    results = run_all_suites(seed=0, max_n=8)
    assert [(r.name, r.instances) for r in results] == oracles.verify_reference(0)
    assert all(r.ok for r in results), results
