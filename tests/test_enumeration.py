import logging
import re
import tracemalloc
from functools import lru_cache
from itertools import permutations
from math import comb, factorial

import numpy as np
import pytest

import dsr.enumeration
import dsr.graphs
from dsr import (
    complete_graph,
    enumerate_connected,
    graph6_encode,
    is_connected,
    isomorphic,
    kpq,
)
from dsr.enumeration import (_CANONICAL, _KEPT, _REJECTED, _classes, _judge, _keys,
                             _orbit_representatives, _parent_tables, _root_colours,
                             _vertex_features)
from dsr.graphs import Graph, adjacency_stack, stack_chunks
from dsr.isomorphism import _canonical_search, canonical_form
from helpers import (
    automorphism_count,
    count_calls,
    cycle_graph,
    path_graph,
    perm_canonical,
    reference_refine,
    relabel,
    root_colors,
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
    """Order 5 grows each of the 6 order-4 classes by 15 attachment sets; of
    those 90, the 44 least members of their parent's automorphism orbits are
    tried, and the 21 whose new vertex is a chosen removal are kept.  The
    canonical search runs once per parent, for its generators, and for no
    candidate: the 4 that the root colouring leaves open have 4 distinct
    invariant keys, so they are 4 classes kept as built.
    Only the 21 classes build a Graph, and the others build none."""
    expected = tuple(enumerate_connected(5))  # fills the cache up to order 5
    built = []

    class CountingGraph(Graph):
        def __post_init__(self):
            built.append(self.rows)
            super().__post_init__()

    monkeypatch.setattr(dsr.enumeration, "Graph", CountingGraph)
    canonicalized = count_calls(monkeypatch, dsr.enumeration, "_canonical_search")
    judged = count_calls(monkeypatch, dsr.enumeration, "_judge")
    classes = _classes.__wrapped__(5)  # order 4 comes from the cache
    assert [(m, rows) for m, rows in canonicalized] == [
        (4, g.rows) for g in enumerate_connected(4)]
    [(rows, verdict, features, _)] = [_judge(*args) for args in judged]
    open_rows = [tuple(r) for r in rows[verdict == _CANONICAL].tolist()]
    assert len({tuple(key) for key in _keys(features).tolist()}) == len(open_rows) == 4
    assert set(open_rows) <= {g.rows for g in classes}
    assert len({_canonical_search(5, rows)[0] for rows in open_rows}) == 4
    assert len(built) == 21
    assert [g.rows for g in classes] == [g.rows for g in expected]


# the seconds spent in parent searches, the stacked pass, tied searches and
# class construction, which go to the log only
TIMES = (r"in \d+\.\d{3} s \(parent searches \d+\.\d{3} s, stacked pass \d+\.\d{3} s, "
         r"tied searches \d+\.\d{3} s, classes \d+\.\d{3} s\)")


def test_log_counts_candidates_and_canonical_forms(caplog):
    tuple(enumerate_connected(4))  # order 4 comes from the cache
    with caplog.at_level(logging.INFO, logger="dsr.enumeration"):
        _classes.__wrapped__(5)
    [message] = caplog.messages
    assert re.fullmatch(
        r"enumerated 21 connected classes of order 5 \(90 candidates, "
        r"44 orbit representatives, 20 coloured degree ties, 21 chosen, 4 tied by colour, "
        r"0 searched\) " + TIMES,
        message,
    ), message


def test_log_counts_order_8_ties(caplog):
    """Of the 67,141 order-8 orbit representatives, 11,072 have another
    non-cut vertex of the new vertex's degree and are coloured; 11,141 are
    chosen, the root colouring leaves 1,105 of them open, and the invariant
    keys settle all but 43 of those."""
    tuple(enumerate_connected(7))  # order 7 comes from the cache
    with caplog.at_level(logging.INFO, logger="dsr.enumeration"):
        _classes.__wrapped__(8)
    [message] = caplog.messages
    assert re.fullmatch(
        r"enumerated 11117 connected classes of order 8 \(108331 candidates, "
        r"67141 orbit representatives, 11072 coloured degree ties, 11141 chosen, "
        r"1105 tied by colour, 43 searched\) " + TIMES,
        message,
    ), message


def test_emitted_sorted_by_rows():
    rows = [g.rows for g in enumerate_connected(6)]
    assert rows == sorted(rows)


@pytest.mark.parametrize("n", range(1, 8))
def test_same_classes_as_unfiltered_augmentation(n):
    classes = list(enumerate_connected(n))
    forms = {canonical_form(g).rows for g in classes}
    assert forms == unfiltered_classes(n)
    assert len(classes) == len(forms)


def _distinct_forms(classes) -> int:
    return len({canonical_form(g).rows for g in classes})


@pytest.mark.parametrize("n", [7, 8])
def test_no_class_emitted_twice(n):
    """Candidates kept as built skip canonicalization, so only the parents' full
    automorphism groups keep one class from being emitted twice: the
    emitted classes' canonical forms are pairwise distinct."""
    classes = list(enumerate_connected(n))
    assert _distinct_forms(classes) == len(classes) == EXPECTED_COUNTS[n]


def test_dropped_parent_generators_emit_a_class_twice(monkeypatch):
    """The duplicate guard above catches a parent whose search loses its
    generators: the first order-7 class with a nontrivial automorphism group,
    grown with every attachment set, yields some class twice."""
    victim = next(g for g in _classes(7) if automorphism_count(g) > 1)

    def search(n, rows):
        code, generators = _canonical_search(n, rows)
        return code, () if rows == victim.rows else generators

    monkeypatch.setattr(dsr.enumeration, "_canonical_search", search)
    classes = _classes.__wrapped__(8)  # order 7 comes from the cache
    assert _distinct_forms(classes) == EXPECTED_COUNTS[8] < len(classes)


def _without(g: Graph, w: int) -> tuple[tuple[int, ...], int]:
    """Rows of g - w, the vertices after w shifted down by one, and w's
    neighbours as a mask on the same labels."""
    def drop(mask: int) -> int:
        return mask & ((1 << w) - 1) | mask >> (w + 1) << w
    return tuple(drop(row) for v, row in enumerate(g.rows) if v != w), drop(g.rows[w])


def _grown(prow: tuple[int, ...], sub: int) -> tuple[int, ...]:
    """Rows of P + v, with v joined to the mask ``sub``."""
    new_bit = 1 << len(prow)
    return tuple(row | new_bit if sub >> i & 1 else row for i, row in enumerate(prow)) + (sub,)


def _judged(parents: list[Graph], subs: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The stacked pass on the candidates parents[i] + v, v joined to
    subs[i], one ``stack_chunks`` chunk at a time."""
    n = parents[0].n + 1
    rows, verdicts = [], []
    for chunk in stack_chunks(len(parents), n * n):
        tables = _parent_tables(parents[chunk])
        got = _judge(tables, np.arange(len(tables.rows)), np.array(subs[chunk]))[:2]
        rows.append(got[0])
        verdicts.append(got[1])
    return np.concatenate(rows), np.concatenate(verdicts)


@pytest.mark.parametrize("n", range(2, 9))
def test_every_class_has_a_chosen_removal(n):
    """The rule's completeness invariant: every class has a non-cut vertex w
    that passes the whole rule, degree and root colour, as the new vertex
    of (g - w) + w, so growing the class without w back by w's neighbours
    yields a candidate kept as built or left open."""
    owners, parents, subs = [], [], []
    classes = list(enumerate_connected(n))
    for index, g in enumerate(classes):
        for w in range(n):
            prow, sub = _without(g, w)
            if is_connected(parent := Graph(n - 1, prow)):
                owners.append(index)
                parents.append(parent)
                subs.append(sub)
    _, verdict = _judged(parents, subs)
    kept = set(np.array(owners)[verdict != _REJECTED].tolist())
    assert [graph6_encode(g) for i, g in enumerate(classes) if i not in kept] == []


def _noncut(rows: tuple[int, ...]) -> list[int]:
    """The old vertices of a candidate whose deletion leaves it connected,
    by one connectivity test each."""
    n = len(rows)
    return [w for w in range(n - 1) if is_connected(Graph(n - 1, _without(Graph(n, rows), w)[0]))]


def _chosen_removal_oracle(n: int, rows: tuple[int, ...]) -> int:
    """The rule on a whole candidate: the reference refinement's root
    colours, rejected if a non-cut vertex has a larger one than the new
    vertex v, else kept as built if every non-cut vertex of v's colour is a
    twin of v by neighbour sets, else open."""
    nbrs = [{u for u in range(n) if row >> u & 1} for row in rows]
    v = n - 1
    colors = reference_refine(Graph(n, rows), [0] * n)
    noncut = _noncut(rows)
    if any(colors[w] > colors[v] for w in noncut):
        return _REJECTED
    alike = [w for w in noncut if colors[w] == colors[v]]
    return _KEPT if all(nbrs[w] - {v} == nbrs[v] - {w} for w in alike) else _CANONICAL


@pytest.mark.parametrize("n", range(2, 8))
def test_chosen_removal_test_matches_whole_graph_rule(n):
    """The stacked pass builds each candidate's rows and gives it the
    whole-graph rule's verdict, on every attachment set of every parent, not
    only on orbit representatives.  Orders 2 and 3 keep every candidate as
    built; rejections and open candidates occur from order 4 on."""
    parents = list(enumerate_connected(n - 1))
    subs = range(1, 1 << (n - 1))
    rows, verdict = _judged([p for p in parents for _ in subs], [s for _ in parents for s in subs])
    grown = [_grown(p.rows, s) for p in parents for s in subs]
    assert list(map(tuple, rows.tolist())) == grown
    expected = [_chosen_removal_oracle(n, r) for r in grown]
    assert verdict.tolist() == expected
    assert set(expected) == ({_KEPT} if n < 4 else {_REJECTED, _KEPT, _CANONICAL})


def test_degree_round_is_exact():
    """The pass rejects on a non-cut vertex of larger degree before any
    colouring: on every candidate of orders 2..7, a vertex of larger degree
    has a larger reference root colour."""
    for n in range(2, 8):
        for p in enumerate_connected(n - 1):
            for sub in range(1, 1 << (n - 1)):
                g = Graph(n, _grown(p.rows, sub))
                colors = reference_refine(g, [0] * n)
                degree = [row.bit_count() for row in g.rows]
                assert all(colors[u] > colors[w] for u in range(n) for w in range(n)
                           if degree[u] > degree[w])


def _keep_every_tie(rows, verdict):
    """The colouring ignored: every candidate that no non-cut vertex of
    larger degree rejects is kept as built."""
    for i in np.flatnonzero(verdict != _KEPT):
        candidate = tuple(rows[i].tolist())
        degree = [row.bit_count() for row in candidate]
        if all(degree[w] <= degree[-1] for w in _noncut(candidate)):
            verdict[i] = _KEPT
    return verdict


def _reject_on_equal_colour(rows, verdict):
    """A candidate is rejected when any non-cut vertex has v's colour, not
    only a larger one."""
    for i in np.flatnonzero(verdict != _REJECTED):
        candidate = tuple(rows[i].tolist())
        colors = root_colors(candidate)
        if any(colors[w] >= colors[-1] for w in _noncut(candidate)):
            verdict[i] = _REJECTED
    return verdict


def _skip_twins_of_equal_colour(rows, verdict):
    """A candidate is kept as built whatever the non-cut vertices of v's
    colour, twins of v or not."""
    verdict[verdict == _CANONICAL] = _KEPT
    return verdict


@pytest.mark.parametrize("mutant, n, emitted", [
    (_keep_every_tie, 6, 134),
    (_reject_on_equal_colour, 6, 37),
    (_skip_twins_of_equal_colour, 7, 854),
], ids=["keep-every-tie", "reject-on-equal-colour", "skip-twins-of-equal-colour"])
def test_faulty_tie_rule_is_caught(monkeypatch, mutant, n, emitted):
    """Each fault in the rule, applied to the stacked pass's verdicts on one
    order grown from the correct classes below it, fails the class-count or
    distinct-forms check: kept candidates emit a class twice, a rejected one
    drops a class."""
    def judge(tables, parent, subs):
        rows, verdict, features, coloured = _judge(tables, parent, subs)
        was_open = verdict == _CANONICAL
        verdict = mutant(rows, verdict)
        return rows, verdict, features[verdict[was_open] == _CANONICAL], coloured

    _classes(n - 1)
    monkeypatch.setattr(dsr.enumeration, "_judge", judge)
    classes = _classes.__wrapped__(n)  # order n - 1 comes from the cache
    assert len(classes) == emitted != EXPECTED_COUNTS[n]
    assert _distinct_forms(classes) == min(emitted, EXPECTED_COUNTS[n])


def _colour_counts(adj):
    """A naive stacked root colouring: each vertex's signature is its colour
    followed by its count of neighbours of each colour, the lowest colour
    first, which ranks vertices of equal colour in the reverse of the sorted
    neighbour colours' order."""
    k, n = adj.shape[:2]
    colours = np.zeros((k, n), dtype=np.int64)
    while True:
        counts = (adj[:, :, :, None] & (colours[:, None, :, None] == np.arange(n))).sum(2)
        sigs = colours * 16 ** n + counts @ 16 ** np.arange(n - 1, -1, -1)
        ranks = (sigs[:, None, :] < sigs[:, :, None]).sum(2)
        if (ranks == colours).all():
            used = (colours[:, :, None] == np.arange(n)).any(1)
            return np.take_along_axis(np.cumsum(used, 1) - used, colours, 1)
        colours = ranks


def _colour_order_8(monkeypatch, colouring):
    """The order-8 classes grown with ``colouring`` as the stacked root
    colouring, the number of candidates it coloured, and how many of those
    it coloured unlike the search's own refinement."""
    coloured = []

    def recorded(adj):
        colours = colouring(adj)
        coloured.extend(zip((adj @ (1 << np.arange(8))).tolist(), colours.tolist()))
        return colours

    _classes(7)
    monkeypatch.setattr(dsr.enumeration, "_root_colours", recorded)
    classes = _classes.__wrapped__(8)  # order 7 comes from the cache
    return classes, len(coloured), sum(root_colors(rows) != got for rows, got in coloured)


def test_root_colours_match_the_search_on_order_8(monkeypatch):
    """The stacked root colouring equals ``isomorphism._refine``'s, colour
    for colour, on each of the 11,072 order-8 candidates it colours: every
    one in which another non-cut vertex ties the new vertex's degree."""
    assert _colour_order_8(monkeypatch, _root_colours)[1:] == (11072, 0)


def test_naive_colour_counts_are_caught(monkeypatch):
    """Ranking the neighbour colours by their counts is caught by the
    reference colouring, not by the class checks: the counts are an
    isomorphism invariant too, so the rule stays exact and emits every
    order-8 class once, only some of them with other rows."""
    classes, coloured, unlike = _colour_order_8(monkeypatch, _colour_counts)
    assert unlike > 0
    assert len(classes) == _distinct_forms(classes) == EXPECTED_COUNTS[8]
    assert [g.rows for g in classes] != [g.rows for g in _classes(8)]


def _counts_from_one_colour(adj):
    """The stacked kernel's count rounds started from one colour, without
    its degree round: the first round then ranks the degrees in reverse."""
    k, n = adj.shape[:2]
    colours = np.zeros((k, n), dtype=np.int64)
    while True:
        sigs = colours * (n + 1) ** n - (adj * (n + 1) ** (n - 1 - colours[:, None, :])).sum(2)
        ranks = (sigs[:, None, :] < sigs[:, :, None]).sum(2)
        if (ranks == colours).all():
            used = (colours[:, :, None] == np.arange(n)).any(1)
            return np.take_along_axis(np.cumsum(used, 1) - used, colours, 1)
        colours = ranks


def test_count_rounds_without_the_degree_round_are_caught(monkeypatch):
    """The count signature orders the sorted neighbour colours only among
    vertices of one degree, so started from one colour it ranks the degrees
    in reverse.  The reference colouring catches that, and so do the class
    counts: a non-cut vertex of smaller degree now outranks the new vertex,
    so the rule drops classes."""
    classes, _, unlike = _colour_order_8(monkeypatch, _counts_from_one_colour)
    assert unlike > 0
    assert len(classes) < EXPECTED_COUNTS[8]


def _logged_step(caplog, n: int) -> tuple[tuple[Graph, ...], str]:
    """The order-n classes, order n - 1 from the cache, and the counts of
    the step's log line."""
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="dsr.enumeration"):
        classes = _classes.__wrapped__(n)
    [message] = caplog.messages
    return classes, message[:message.index(") in ")]


def test_small_chunks_give_the_same_classes_and_counts(monkeypatch, caplog):
    """Neither one parent a chunk nor one chunk for the whole order changes
    the order-7 classes or a count in the log line, the searched count
    among them: the open ties' keys are grouped over the whole order, not
    chunk by chunk, and the 2 open ties whose keys collide lie in different
    chunks of the default size."""
    _classes(6)
    expected = _logged_step(caplog, 7)
    for entries in (1, 1 << 30):
        monkeypatch.setattr(dsr.graphs, "STACK_ENTRIES", entries)
        assert _logged_step(caplog, 7) == expected


def _open_ties(monkeypatch, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows and vertex features of the order-n candidates that the
    stacked pass leaves open, as the order's step meets them."""
    seen = []

    def judge(*args):
        rows, verdict, features, coloured = _judge(*args)
        seen.append((rows[verdict == _CANONICAL], features))
        return rows, verdict, features, coloured

    _classes(n - 1)
    with monkeypatch.context() as patch:
        patch.setattr(dsr.enumeration, "_judge", judge)
        _classes.__wrapped__(n)
    rows, features = zip(*seen)
    return np.concatenate(rows), np.concatenate(features)


@pytest.mark.parametrize("n", range(5, 9))
def test_keys_are_label_invariant(monkeypatch, n):
    """A seeded relabelling of every open tie moves each vertex's features,
    root colour and walk counts, with the vertex, so the open tie and its
    relabelling get the same key when ranked together."""
    rows, features = _open_ties(monkeypatch, n)
    rng = np.random.default_rng(n)
    perms = [tuple(rng.permutation(n).tolist()) for _ in rows]
    moved = np.array([_relabeled(tuple(r), p) for r, p in zip(rows.tolist(), perms)])
    adj = adjacency_stack(n, moved)
    got = _vertex_features(adj, _root_colours(adj))
    assert (got != features).any()
    assert (np.take_along_axis(got, np.array(perms)[:, :, None], 1) == features).all()
    keys = _keys(np.concatenate([features, got]))
    assert (keys[:len(rows)] == keys[len(rows):]).all()


@pytest.mark.parametrize("n, tied, searched", [(7, 120, 2), (8, 1105, 43)])
def test_constant_key_searches_every_open_tie(monkeypatch, caplog, n, tied, searched):
    """With one key for every open tie, each is searched, as before the keys
    were: the counts but the searched one stay, and the classes differ from
    the keyed ones only in the open ties of unique key, whose built rows
    give way to their canonical forms."""
    _classes(n - 1)
    classes, message = _logged_step(caplog, n)
    assert message.endswith(f"{tied} tied by colour, {searched} searched")
    monkeypatch.setattr(dsr.enumeration, "_keys",
                        lambda features: np.zeros(features.shape[:2], dtype=np.int64))
    constant_classes, constant_message = _logged_step(caplog, n)
    assert constant_message == message.replace(f"{searched} searched", f"{tied} searched")
    keyed, constant = {g.rows for g in classes}, {g.rows for g in constant_classes}
    assert len(constant) == len(keyed) == EXPECTED_COUNTS[n]
    assert {canonical_form(Graph(n, rows)).rows for rows in keyed - constant} == constant - keyed
    assert len(keyed - constant) <= tied - searched


def test_order_8_step_peak_memory():
    # chunks of parents bound the order-8 step: about 3 MB at its peak, of
    # which the 11,117 classes' rows and Graphs hold about 1.7 MB; one chunk
    # for the whole order peaks near 31 MB
    tuple(enumerate_connected(7))
    tracemalloc.start()
    try:
        _classes.__wrapped__(8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5e6


def _relabeled(rows: tuple[int, ...], perm: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(rows)
    for v, row in enumerate(rows):
        out[perm[v]] = sum(1 << perm[u] for u in range(len(rows)) if row >> u & 1)
    return tuple(out)


@pytest.mark.parametrize("n", range(1, 7))
def test_orbit_representatives_match_full_automorphism_group(n):
    """For every class, the orbits its search's generators give equal the
    orbits of attachment sets under every automorphism found by brute force."""
    classes = list(enumerate_connected(n))
    generators = [_canonical_search(n, g.rows)[1] for g in classes]
    parent, subs = _orbit_representatives(np.array([g.rows for g in classes]), generators)
    for index, g in enumerate(classes):
        group = [p for p in permutations(range(n)) if _relabeled(g.rows, p) == g.rows]
        brute = [
            s for s in range(1, 1 << n)
            if all(sum(1 << p[i] for i in range(n) if s >> i & 1) >= s for p in group)
        ]
        assert subs[parent == index].tolist() == brute, g.rows


def test_bogus_generator_raises(monkeypatch):
    """A permutation passed in as a generator that is no automorphism of its
    class is refused before it prunes anything."""
    [path] = [g for g in _classes(4) if g.num_edges() == 3 and max(
        row.bit_count() for row in g.rows) == 2]  # P4, automorphism group of order 2
    assert _canonical_search(4, path.rows)[1]
    bogus = (1, 0, 2, 3)  # swaps an end with a middle vertex
    assert _relabeled(path.rows, bogus) != path.rows

    def search(n, rows):
        code, generators = _canonical_search(n, rows)
        return code, (bogus,) if rows == path.rows else generators

    monkeypatch.setattr(dsr.enumeration, "_canonical_search", search)
    with pytest.raises(RuntimeError, match="not an automorphism"):
        _classes.__wrapped__(5)


# labeled connected graphs on 1..8 vertices (OEIS A001187)
LABELED_CONNECTED = {1: 1, 2: 1, 3: 4, 4: 38, 5: 728, 6: 26704, 7: 1866256, 8: 251548592}


def poly_mul(a, b) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@lru_cache(maxsize=None)
def labeled_connected_by_edges(n: int) -> tuple[int, ...]:
    """Coefficient m: the labeled connected order-n graphs with m edges, from
    c_n(y) = (1+y)^C(n,2) - sum_{k<n} C(n-1, k-1) c_k(y) (1+y)^C(n-k,2)
    (Harary & Palmer, Graphical Enumeration, 1973), in exact ints."""
    c = [comb(comb(n, 2), m) for m in range(comb(n, 2) + 1)]
    for k in range(1, n):
        rest = [comb(comb(n - k, 2), m) for m in range(comb(n - k, 2) + 1)]
        for m, coef in enumerate(poly_mul(labeled_connected_by_edges(k), rest)):
            c[m] -= comb(n - 1, k - 1) * coef
    return tuple(c)


def labeled_sums(n: int, classes) -> tuple[int, ...]:
    """Per edge count, the labeled graphs the classes stand for: n!/|Aut G|
    each, by orbit-stabilizer."""
    sums = [0] * (comb(n, 2) + 1)
    for g in classes:
        sums[g.num_edges()] += factorial(n) // automorphism_count(g)
    return tuple(sums)


@pytest.mark.parametrize("g, expected", [
    (complete_graph(5), 120), (cycle_graph(6), 12), (path_graph(5), 2),
    (star_graph(5), 24), (kpq(4, 2), 4),
], ids=["K5", "C6", "P5", "star5", "kpq(4,2)"])
def test_automorphism_count_known_groups(g, expected):
    assert automorphism_count(g) == expected


@pytest.mark.parametrize("n", range(1, 9))
def test_class_list_complete_by_edge_count(n):
    expected = labeled_connected_by_edges(n)
    assert sum(expected) == LABELED_CONNECTED[n]
    assert labeled_sums(n, enumerate_connected(n)) == expected


@pytest.mark.parametrize("mutation", ["drop", "duplicate", "swap"])
def test_class_list_check_catches_a_faulty_list(mutation):
    n = 6
    classes = list(enumerate_connected(n))
    victim = classes[40]
    twist = list(reversed(range(n)))
    if mutation == "drop":
        classes.remove(victim)
    elif mutation == "duplicate":
        classes.append(relabel(victim, twist))
    else:  # one class replaced by a relabeled copy of one with another |Aut|
        other = next(g for g in classes
                     if automorphism_count(g) != automorphism_count(victim))
        classes[classes.index(victim)] = relabel(other, twist)
    assert labeled_sums(n, classes) != labeled_connected_by_edges(n)
