import logging

import pytest

import dsr.enumeration
from dsr import (
    complete_graph,
    enumerate_connected,
    from_edge_list,
    graph6_encode,
    is_connected,
    isomorphic,
    kpq,
)
from dsr.enumeration import _last_is_chosen
from dsr.graphs import Graph
from helpers import (
    cycle_graph,
    path_graph,
    perm_canonical,
    star_graph,
    unfiltered_classes,
    upper_triangle_pairs,
)

# connected graphs per isomorphism class, a classic sequence
EXPECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}


@pytest.mark.parametrize("n", range(1, 9))
def test_class_counts(n):
    assert sum(1 for _ in enumerate_connected(n)) == EXPECTED_COUNTS[n]


def test_n3_classes():
    got = list(enumerate_connected(3))
    assert len(got) == 2
    assert any(isomorphic(g, path_graph(3)) for g in got)
    assert any(isomorphic(g, complete_graph(3)) for g in got)


def test_n4_classes():
    got = list(enumerate_connected(4))
    expected = [
        path_graph(4),
        star_graph(4),
        kpq(3, 1),  # triangle with a pendant
        cycle_graph(4),
        kpq(3, 2),  # K4 minus an edge
        complete_graph(4),
    ]
    for target in expected:
        assert sum(1 for g in got if isomorphic(g, target)) == 1


def test_out_of_range():
    with pytest.raises(ValueError):
        list(enumerate_connected(0))
    with pytest.raises(ValueError):
        list(enumerate_connected(9))


def test_deterministic_order():
    first = [graph6_encode(g) for g in enumerate_connected(5)]
    second = [graph6_encode(g) for g in enumerate_connected(5)]
    assert first == second


@pytest.mark.parametrize("n", [4, 5])
def test_completeness_against_labeled_brute_force(n):
    """Every labeled connected graph must land in exactly one emitted class."""
    pairs = upper_triangle_pairs(n)
    brute = set()
    for mask in range(1 << len(pairs)):
        rows = [0] * n
        for idx, (i, j) in enumerate(pairs):
            if mask >> idx & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        g = Graph(n, tuple(rows))
        if is_connected(g):
            brute.add(perm_canonical(g))
    emitted = [perm_canonical(g) for g in enumerate_connected(n)]
    assert len(emitted) == len(set(emitted))  # one representative per class
    assert set(emitted) == brute  # nothing missing, nothing extra


def test_pairwise_non_isomorphic_n5():
    reps = list(enumerate_connected(5))
    for i, g in enumerate(reps):
        for h in reps[i + 1:]:
            assert not isomorphic(g, h)


def test_all_emitted_connected():
    for n in (2, 5, 6):
        assert all(is_connected(g) for g in enumerate_connected(n))


def test_each_candidate_validated_once(monkeypatch):
    """Order 5 grows each of the 6 order-4 classes by 15 attachment sets; the
    34 of those 90 candidates whose new vertex is a chosen removal each build
    exactly one Graph, its canonical form, and the others build none."""
    expected = tuple(enumerate_connected(5))  # fills the cache up to order 5
    built = []

    class CountingGraph(Graph):
        def __post_init__(self):
            built.append(self.rows)
            super().__post_init__()

    monkeypatch.setattr(dsr.enumeration, "Graph", CountingGraph)
    classes = dsr.enumeration._classes.__wrapped__(5)  # order 4 comes from the cache
    assert len(built) == 34
    assert [g.rows for g in classes] == [g.rows for g in expected]


def test_log_counts_candidates_and_canonical_forms(caplog):
    tuple(enumerate_connected(4))  # order 4 comes from the cache
    with caplog.at_level(logging.INFO, logger="dsr.enumeration"):
        dsr.enumeration._classes.__wrapped__(5)
    assert caplog.messages == [
        "enumerated 21 connected classes of order 5 (90 candidates, 34 canonicalized)"
    ]


def test_emitted_sorted_by_canonical_rows():
    rows = [g.rows for g in enumerate_connected(6)]
    assert rows == sorted(rows)


@pytest.mark.parametrize("n", range(1, 8))
def test_same_classes_as_unfiltered_augmentation(n):
    assert {g.rows for g in enumerate_connected(n)} == unfiltered_classes(n)


def _last_swapped(g: Graph, w: int) -> tuple[int, ...]:
    """Rows of g relabeled by the transposition of w and the last vertex."""
    last = g.n - 1
    perm = list(range(g.n))
    perm[w], perm[last] = last, w
    rows = [0] * g.n
    for v in range(g.n):
        for u in range(g.n):
            if g.rows[v] >> u & 1:
                rows[perm[v]] |= 1 << perm[u]
    return tuple(rows)


def _connected_without(g: Graph, w: int) -> bool:
    keep = [v for v in range(g.n) if v != w]
    index = {v: i for i, v in enumerate(keep)}
    edges = [(index[u], index[v]) for u, v in g.edges() if w not in (u, v)]
    return is_connected(from_edge_list(g.n - 1, edges))


@pytest.mark.parametrize("n", range(2, 9))
def test_every_class_has_a_chosen_removal(n):
    """The rule's completeness invariant: some non-cut vertex of every class
    passes the rule once relabeled last, so growing the class without it
    back by that vertex yields a canonicalized candidate."""
    for g in enumerate_connected(n):
        assert any(
            _last_is_chosen(n, _last_swapped(g, w)) and _connected_without(g, w)
            for w in range(n)
        ), graph6_encode(g)
