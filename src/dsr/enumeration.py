"""Exhaustive streams of connected graphs, one representative per
isomorphism class.

Order n is grown from the connected order-(n-1) classes by adding a vertex
v joined to a nonempty attachment set S of the old ones.  A candidate is
kept only if v is a chosen removal: no vertex whose deletion leaves the
graph connected, a non-cut vertex, has a larger root colour than v, the
colour of the equitable colouring that the canonical search starts from.
The colouring is an isomorphism invariant, so every class is still
reached: deleting its non-cut vertex w of largest colour leaves a
connected order-(n-1) class P, and growing P back by w's neighbours gives
a candidate that passes (McKay, *Isomorph-free exhaustive generation*, J.
Algorithms 26, 1998).  The colouring's first round ranks the degrees, so a
non-cut vertex of larger degree than v rejects before any colouring.

Each parent P tries only the least attachment set of each orbit under the
group generated by the automorphisms that its own canonical search meets,
on P's rows; none outlives the order's step.  For any automorphism gamma of
P, P + S and P + gamma(S) are isomorphic by gamma extended to fix v, so v
passes the rule in one iff it passes in the other.

A chosen candidate is kept as built if every other non-cut vertex of v's
colour is a twin of v (the two have the same neighbours apart from each
other), and left open otherwise.  Twins share a colour, as swapping them is
an automorphism, and twins of one vertex are twins of one another, so
whether the non-cut vertices of the top colour are all twins is an
invariant: no open candidate is isomorphic to one kept as built.  An
isomorphism between two kept as built maps v to v' or to a twin of v';
composed with the transposition of those twins, it maps v to v', so it is
an automorphism of their common parent P mapping S to S', and S = S' as
both are least in their orbit.  This needs generators of all of Aut(P): a
missing one emits a class twice, and a bogus one could drop a class, so
each is checked to map P's rows onto themselves before it prunes anything.

An open candidate is canonicalized only if its invariant key collides with
that of another open candidate of the whole order.  Each vertex's type is
its root colour and its closed-walk counts diag(A^k), k = 2..n-1, ranked
among the types of every vertex of the order's open candidates; the key is
the candidate's sorted types.  The key is a function of the isomorphism
class, so an open candidate whose key no other has is isomorphic to no
other open candidate, nor to one kept as built: it is kept as built.  The
open candidates whose keys collide are canonicalized, and a set of
canonical rows removes the duplicates; a key that merges classes only
costs searches.  The classes are emitted sorted by rows, the
canonicalized ones' rows canonical.

Apart from the canonical searches, one per parent for its generators and
one per open candidate whose key collides, an order's step is stacked
NumPy, run one ``graphs.stack_chunks`` chunk of parents at a time.  The
orbit representatives come from min-label propagation under the parents'
subset image tables.  The chunk's candidates then take their verdicts in
one pass: degrees first; the non-cut test from the components of each P -
w; the root colours, only where a non-cut vertex ties v's degree, from a
sort-free stacked refinement that ranks vertices in the search's order;
twins from the rows; and the open candidates' walk counts from powers of
their adjacency stack.
"""

from __future__ import annotations

import logging
import time
from functools import lru_cache
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .graphs import Graph, adjacency_stack, stack_chunks
from .isomorphism import _canonical_search

logger = logging.getLogger(__name__)

MAX_BUILTIN_ORDER = 8

Perm = tuple[int, ...]

# a candidate's verdict: rejected, kept as built, or left open to be settled
# by its invariant key
_REJECTED, _KEPT, _CANONICAL = range(3)


class _Parents(NamedTuple):
    """What the stacked pass reads of P order-m parents."""

    rows: np.ndarray  # (P, m) int64 bit rows
    degrees: np.ndarray  # (P, m) int64
    # (P, m, m) int16: entry (w, u) the mask of u's component of the parent
    # minus w, and entry (w, w) the full mask
    components: np.ndarray


def _parent_tables(parents: Sequence[Graph]) -> _Parents:
    """The rows, degrees and components of the order-m ``parents``.  P + v
    - w is connected iff v's attachment set meets every component of P - w,
    which holds iff it meets every mask of row w of the components: the
    component of each other vertex, and the full mask in w's own place."""
    m = parents[0].n
    adj = adjacency_stack(m, parents)
    others = ~np.eye(m, dtype=bool)
    # paths in P - w, and w alone, by squaring the reach along one edge
    reach = (adj[:, None] & others[:, :, None] & others[:, None, :]
             | np.eye(m, dtype=bool)).astype(np.float32)
    for _ in range(max(m - 2, 0).bit_length()):  # paths of up to m - 2 edges
        reach = np.minimum(reach @ reach, 1)
    components = (reach @ (1 << np.arange(m))).astype(np.int16)
    components[:, range(m), range(m)] = (1 << m) - 1
    rows = np.array([p.rows for p in parents], dtype=np.int64)
    return _Parents(rows, adj.sum(2, dtype=np.int64), components)


def _orbit_representatives(
    prows: np.ndarray, generators: Sequence[Sequence[Perm]]
) -> tuple[np.ndarray, np.ndarray]:
    """The least member of each orbit of the nonempty vertex subsets of
    every parent of the (P, m) rows ``prows``, under the group that parent's
    permutations in ``generators`` generate, as (parent index, mask) arrays
    sorted by parent, then mask.  Each generator's image table maps every
    subset at once, and must map every row onto the row of the image vertex,
    or RuntimeError is raised: a permutation that is no automorphism could
    merge orbits and so drop a class.  Then each subset's label, at first
    the subset, takes the least label among its images and jumps to its
    label's label until no label moves."""
    count, m = prows.shape
    full = 1 << m
    # the identity first, so that every parent has a generator
    gammas = np.array([gamma for gens in generators for gamma in (range(m), *gens)],
                      dtype=np.int64).reshape(-1, m)
    owner = np.repeat(np.arange(count), [len(gens) + 1 for gens in generators])
    members = np.arange(full)[:, None] >> np.arange(m) & 1
    images = (1 << gammas) @ members.T  # (generators, subsets)
    rows = prows[owner]
    bogus = (np.take_along_axis(images, rows, 1) != np.take_along_axis(rows, gammas, 1)).any(1)
    if bogus.any():
        t = bogus.argmax()
        raise RuntimeError(f"{tuple(gammas[t].tolist())} is not an automorphism of the graph "
                           f"with rows {tuple(rows[t].tolist())}")
    # a label is the index of a subset among the (P, 2^m) subsets of all parents
    index = labels = np.arange(count * full).reshape(count, full)
    targets = images + owner[:, None] * full
    starts = np.flatnonzero(np.diff(owner, prepend=-1))
    while True:
        moved = np.minimum.reduceat(labels.ravel()[targets], starts)
        moved = moved.ravel()[moved]
        if (moved == labels).all():
            break
        labels = moved
    parent, sub = np.nonzero(labels[:, 1:] == index[:, 1:])
    return parent, sub + 1


def _root_colours(adj: np.ndarray) -> np.ndarray:
    """(k, n) int8 root equitable colourings of a (k, n, n) boolean
    adjacency stack, the colourings ``isomorphism._refine`` gives from one
    colour, for n <= 12.  Each round gives each vertex the number of its
    graph's vertices ranked below it.  The first ranks the degrees, as
    ``_refine``'s first round does, so from then on vertices of one colour
    have one degree, and their sorted neighbour colours, lists of one
    length, are in the reverse order of their counts of neighbours of each
    colour read from the lowest.  Each later round therefore ranks colour *
    (n+1)^n minus the sum of (n+1)^(n-1-c) over the vertex's neighbours of
    colour c, one float64 product exact below 2^53.  The rounds stop when
    none moves a colour, and the colours are renumbered densely, as
    ``_refine`` numbers them."""
    n = adj.shape[1]
    deg = adj.sum(2, dtype=np.int8)
    colours = (deg[:, None, :] < deg[:, :, None]).sum(2, dtype=np.int8)
    weights = (n + 1.0) ** np.arange(n - 1, -1, -1)
    a = adj.astype(np.float64)
    while True:
        sigs = colours * (n + 1.0) ** n - (a @ weights[colours, None])[..., 0]
        ranks = (sigs[:, None, :] < sigs[:, :, None]).sum(2, dtype=np.int8)
        if (ranks == colours).all():
            break
        colours = ranks
    used = (colours[:, :, None] == np.arange(n)).any(1)
    return np.take_along_axis(np.cumsum(used, 1, dtype=np.int8) - used, colours, 1)


def _vertex_features(adj: np.ndarray, colours: np.ndarray) -> np.ndarray:
    """(k, n, n - 1) int32 feature rows of the vertices of a (k, n, n)
    boolean adjacency stack: each vertex's colour in ``colours``, then its
    closed-walk counts diag(A^j) for j = 2..n-1.  A count is at most
    (n-1)^(j-1), so float32 products are exact for n <= 8."""
    a = walks = adj.astype(np.float32)
    features = [colours]
    for _ in range(adj.shape[1] - 2):
        walks = walks @ a
        features.append(np.diagonal(walks, axis1=1, axis2=2))
    return np.stack(features, 2).astype(np.int32)


def _keys(features: np.ndarray) -> np.ndarray:
    """(k, n) invariant keys of k candidates from their (k, n, f) vertex
    feature rows: each vertex's dense rank among all k * n rows, sorted
    within its candidate, so that candidates compare only by keys computed
    together."""
    k, n, f = features.shape
    types = np.unique(features.reshape(-1, f), axis=0, return_inverse=True)[1]
    return np.sort(types.reshape(k, n), axis=1)


def _judge(parents: _Parents, parent: np.ndarray,
           subs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The stacked pass: for the candidates P + v, v joined to the mask
    ``subs[i]`` of the parent ``parent[i]`` of ``parents``, their (k, n)
    int64 rows, v last, each one's verdict, the ``_vertex_features`` of the
    candidates left open, in candidate order, and how many were coloured.
    A non-cut vertex of larger degree than v rejects, as degree is the
    colouring's first round; only the candidates in which another non-cut
    vertex ties v's degree are coloured.  Of those, a non-cut vertex of
    larger colour rejects, and one of v's colour leaves the candidate open
    unless it is a twin of v, its row agreeing with v's off the pair."""
    m = parents.rows.shape[1]
    n = m + 1
    own = parents.rows[parent]
    joined = subs[:, None] >> np.arange(m) & 1
    rows = np.concatenate([own | joined << m, subs[:, None]], axis=1)
    deg, v_deg = parents.degrees[parent] + joined, joined.sum(1, keepdims=True)
    noncut = (subs.astype(np.int16)[:, None, None] & parents.components[parent] != 0).all(2)
    verdict = np.where((noncut & (deg > v_deg)).any(1), _REJECTED, _KEPT)
    tie = np.flatnonzero((verdict == _KEPT) & (noncut & (deg == v_deg)).any(1))
    adj = adjacency_stack(n, rows[tie])
    colours = _root_colours(adj)
    noncut, colour, v_colour = noncut[tie], colours[:, :m], colours[:, m:]
    twins = own[tie] == (subs[tie, None] & ~(1 << np.arange(m)))
    above = (noncut & (colour > v_colour)).any(1)
    open_ = ~above & (noncut & (colour == v_colour) & ~twins).any(1)
    verdict[tie] = np.where(above, _REJECTED, np.where(open_, _CANONICAL, _KEPT))
    return rows, verdict, _vertex_features(adj[open_], colours[open_]), len(tie)


@lru_cache(maxsize=None)
def _classes(n: int) -> tuple[Graph, ...]:
    """The order-n classes sorted by rows."""
    if n == 1:
        return (Graph(1, (0,)),)
    parents = _classes(n - 1)
    m = n - 1
    spent = np.zeros(4)  # parent searches, stacked pass, tied searches, classes
    counts = np.zeros(3, dtype=np.int64)
    coloured = 0
    classes: set[tuple[int, ...]] = set()
    open_rows, open_features = [], []
    # n entries for each of a parent's 2^m attachment sets
    for chunk in stack_chunks(len(parents), n << m):
        start = time.perf_counter()
        generators = [_canonical_search(m, parent.rows)[1] for parent in parents[chunk]]
        searched = time.perf_counter()
        tables = _parent_tables(parents[chunk])
        candidates = _orbit_representatives(tables.rows, generators)
        rows, verdict, features, ties = _judge(tables, *candidates)
        judged = time.perf_counter()
        open_rows.append(rows[verdict == _CANONICAL])
        open_features.append(features)
        classes.update(map(tuple, rows[verdict == _KEPT].tolist()))
        spent[[0, 1, 3]] += np.diff([start, searched, judged, time.perf_counter()])
        counts += np.bincount(verdict, minlength=3)
        coloured += ties
    start = time.perf_counter()
    # the keys of the whole order's open candidates, grouped: only those
    # that share a key are searched
    open_rows = np.concatenate(open_rows)
    _, group, size = np.unique(_keys(np.concatenate(open_features)), axis=0,
                               return_inverse=True, return_counts=True)
    collides = size[group.reshape(-1)] > 1
    classes.update(map(tuple, open_rows[~collides].tolist()))
    classes.update(_canonical_search(n, tuple(r))[0] for r in open_rows[collides].tolist())
    tied_searched = time.perf_counter()
    # relabeling keeps any asymmetry, so validating a canonicalized class's
    # rows checks its candidate too
    out = tuple(Graph(n, rows) for rows in sorted(classes))
    spent[2:] += np.diff([start, tied_searched, time.perf_counter()])
    logger.info(
        "enumerated %d connected classes of order %d (%d candidates, "
        "%d orbit representatives, %d coloured degree ties, %d chosen, %d tied by colour, "
        "%d searched) in %.3f s (parent searches %.3f s, stacked pass %.3f s, "
        "tied searches %.3f s, classes %.3f s)",
        len(out), n, len(parents) * ((1 << m) - 1), counts.sum(), coloured,
        counts[_KEPT] + counts[_CANONICAL], counts[_CANONICAL], collides.sum(),
        spent.sum(), *spent,
    )
    return out


def enumerate_connected(n: int) -> Iterator[Graph]:
    """Connected graphs of order n, one representative per isomorphism
    class, sorted by rows.  Only the classes whose candidate the root
    colouring leaves open, and whose invariant key another open candidate
    shares, carry canonical rows; the rest keep the rows they were built
    with."""
    if not 1 <= n <= MAX_BUILTIN_ORDER:
        raise ValueError(
            f"built-in enumeration supports 1 <= n <= {MAX_BUILTIN_ORDER}, got {n}"
        )
    yield from _classes(n)
