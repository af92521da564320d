import pytest

from dsr import (
    complete_graph,
    enumerate_connected,
    graph6_encode,
    is_connected,
    isomorphic,
    kpq,
)
from dsr.graphs import Graph, upper_triangle_pairs
from helpers import cycle_graph, path_graph, perm_canonical, star_graph

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
