"""Exhaustive streams of connected graphs, one representative per
isomorphism class.

Order n is grown from the connected order-(n-1) classes by adding a vertex
v joined to a nonempty attachment set S of the old ones.  A candidate is
kept only if v is a chosen removal: no vertex whose deletion leaves the
graph connected has a larger key (degree, sorted neighbour degrees) than v.
The key is an isomorphism invariant, so every class is still reached:
deleting its non-cut vertex w of largest key leaves a connected order-(n-1)
class P, and growing P back by w's neighbours gives a candidate that passes
(McKay, *Isomorph-free exhaustive generation*, J. Algorithms 26, 1998).

Each parent P tries only the least attachment set of each orbit under the
group generated by the automorphisms that its own canonical search meets,
on P's rows; none outlives the order's step.  For any automorphism gamma of
P, P + S and P + gamma(S) are isomorphic by gamma extended to fix v, so v
passes the rule in one iff it passes in the other.

A kept candidate is unique when v is the only non-cut vertex of the top
key, and tied when other non-cut vertices, its rivals, share v's key.  A
unique candidate is a new class as built: an isomorphism between two of
them maps v to v', so it is an automorphism of their common parent P
mapping S to S', and S = S' as both are least in their orbit.  This needs
generators of all of Aut(P): a missing one emits a class twice, and a bogus
one could drop a class, so each is checked to map P's rows onto themselves
before it prunes anything.

Most ties are settled without a canonical search.  If every rival is a
twin of v (the two have the same neighbours apart from each other), the
candidate is kept as built.  Otherwise G's root equitable colouring, the
canonical search's own first step, breaks the tie: a rival of larger colour
rejects the candidate; if every rival of v's colour, if any, is a twin of
v, it is kept as built; else the tie stays open.  This is exact.  The
colours, whether the top-key vertices are twins, and whether those of the
top colour among them are, are isomorphism invariants, so candidates
settled by different clauses are never isomorphic.  An isomorphism between
two candidates kept as built by one clause maps v to a twin of v'; composed
with the transposition of those twins it maps v to v', so S = S' as above.
Every class is still reached, through a non-cut vertex of the top key and,
unless those are all twins, of the top colour among them.

An open tie is canonicalized only if its invariant key collides with that
of another open tie of the whole order.  Each vertex's type is its root
colour and its closed-walk counts diag(A^k), k = 2..n-1, ranked among the
types of every vertex of the order's open ties; the key is the candidate's
sorted types.  The key is a function of the isomorphism class, so an open
tie whose key no other has is isomorphic to no other open tie, nor, by the
clause argument, to any candidate settled otherwise: it is kept as built.
The open ties whose keys collide are canonicalized, and a set of canonical
rows removes the duplicates; a key that merges classes only costs searches.
The classes are emitted sorted by rows, the canonicalized ones' rows
canonical.

Apart from the canonical searches, one per parent for its generators and
one per open tie whose key collides, an order's step is stacked NumPy, run
one ``graphs.stack_chunks`` chunk of parents at a time.  The orbit
representatives come from min-label propagation under the parents' subset
image tables.  The chunk's candidates then take their verdicts in one pass:
degrees first, so that a non-cut vertex of larger degree rejects most
candidates before any neighbour key is packed; the non-cut test from the
components of each P - w; twins from the rows; the root colours from a
stacked refinement that ranks the same signatures as the search's; and the
open ties' walk counts from powers of their adjacency stack.
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

# a candidate's verdict: rejected by a larger key; kept as built as the only
# vertex of the top key, or because its rivals are its twins; rejected or
# kept as built by root colour; or left open, to be settled by its key
_REJECTED, _UNIQUE, _TWINS, _OUTCOLOURED, _COLOUR_KEPT, _CANONICAL = range(6)
_KEPT_AS_BUILT = np.array([v in (_UNIQUE, _TWINS, _COLOUR_KEPT) for v in range(6)])


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


def _pack(values: np.ndarray, n: int) -> np.ndarray:
    """Rows of int8 values below n along the last axis, sorted ascending
    with n padding the end, as one float64 each: a digit of n.bit_length()
    bits per entry, the value plus one or 0 for a pad, the first most
    significant, so that the order of the numbers is the order of the rows
    as lists, a proper prefix first.  Exact below 2^53, so for n <= 12."""
    return (values + 1) % (n + 1) @ 2.0 ** (n.bit_length() * np.arange(n - 1, -1, -1))


def _root_colours(adj: np.ndarray) -> np.ndarray:
    """(k, n) int8 root equitable colourings of a (k, n, n) boolean
    adjacency stack, the colourings ``isomorphism._refine`` gives from one
    colour.  Each round gives each vertex the number of its graph's
    signatures below its own, a signature being the vertex's colour followed
    by its sorted neighbour colours as packed by ``_pack``; the rounds stop
    when none moves a colour, so no partition was refined.  The colours are
    then renumbered densely, as ``_refine`` numbers them."""
    k, n = adj.shape[:2]
    colour_digit = 2.0 ** (n.bit_length() * n)
    colours = np.zeros((k, n), dtype=np.int8)
    while True:
        sigs = colours * colour_digit + _pack(np.sort(np.where(adj, colours[:, None, :], np.int8(n)), 2), n)
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
           subs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stacked pass: for the candidates P + v, v joined to the mask
    ``subs[i]`` of the parent ``parent[i]`` of ``parents``, their (k, n)
    int64 rows, v last, each one's verdict, and the ``_vertex_features`` of
    the candidates left open, in candidate order.  A non-cut vertex of
    larger degree than v rejects; the sorted neighbour degrees, packed,
    order the non-cut vertices of v's degree; v's rivals, those of its key,
    are twins of v when their rows agree off the pair; and the root colours
    settle the rest or leave them open."""
    m = parents.rows.shape[1]
    n = m + 1
    own = parents.rows[parent]
    joined = subs[:, None] >> np.arange(m) & 1
    rows = np.concatenate([own | joined << m, subs[:, None]], axis=1)
    deg = np.concatenate([parents.degrees[parent] + joined, joined.sum(1, keepdims=True)], 1)
    noncut = (subs.astype(np.int16)[:, None, None] & parents.components[parent] != 0).all(2)
    level = noncut & (deg[:, :m] == deg[:, m:])
    verdict = np.where((noncut & (deg[:, :m] > deg[:, m:])).any(1), _REJECTED, _UNIQUE)
    tie = np.flatnonzero((verdict == _UNIQUE) & level.any(1))
    adj, deg = adjacency_stack(n, rows[tie]), deg[tie].astype(np.int8)
    # the keys of v and of each non-cut vertex w of v's degree
    i, w = np.nonzero(level[tie])
    key = _pack(np.sort(np.where(adj[:, m], deg, np.int8(n)), axis=1), n)[i]
    key_w = _pack(np.sort(np.where(adj[i, w], deg[i], np.int8(n)), axis=1), n)
    rejected = np.bincount(i, key_w > key, len(tie)) > 0
    rivals = np.zeros((len(tie), m), dtype=bool)
    rivals[i, w] = (key_w == key) & ~rejected[i]
    others = rivals & (own[tie] != (subs[tie, None] & ~(1 << np.arange(m))))
    verdict[tie[rejected]] = _REJECTED
    verdict[tie[rivals.any(1)]] = _TWINS
    coloured = np.flatnonzero(others.any(1))
    colours = _root_colours(adj[coloured])
    above, alike = colours[:, :m] > colours[:, m:], colours[:, :m] == colours[:, m:]
    settled = np.where((rivals[coloured] & above).any(1), _OUTCOLOURED,
                       np.where((others[coloured] & alike).any(1), _CANONICAL, _COLOUR_KEPT))
    verdict[tie[coloured]] = settled
    open_ = settled == _CANONICAL
    return rows, verdict, _vertex_features(adj[coloured[open_]], colours[open_])


@lru_cache(maxsize=None)
def _classes(n: int) -> tuple[Graph, ...]:
    """The order-n classes sorted by rows."""
    if n == 1:
        return (Graph(1, (0,)),)
    parents = _classes(n - 1)
    m = n - 1
    spent = np.zeros(4)  # parent searches, stacked pass, tied searches, classes
    counts = np.zeros(6, dtype=np.int64)
    tried = 0
    classes: set[tuple[int, ...]] = set()
    open_rows, open_features = [], []
    # n entries for each of a parent's 2^m attachment sets
    for chunk in stack_chunks(len(parents), n << m):
        start = time.perf_counter()
        generators = [_canonical_search(m, parent.rows)[1] for parent in parents[chunk]]
        searched = time.perf_counter()
        tables = _parent_tables(parents[chunk])
        rows, verdict, features = _judge(tables, *_orbit_representatives(tables.rows, generators))
        judged = time.perf_counter()
        open_rows.append(rows[verdict == _CANONICAL])
        open_features.append(features)
        classes.update(map(tuple, rows[_KEPT_AS_BUILT[verdict]].tolist()))
        spent[[0, 1, 3]] += np.diff([start, searched, judged, time.perf_counter()])
        counts += np.bincount(verdict, minlength=6)
        tried += len(verdict)
    start = time.perf_counter()
    # the keys of the whole order's open ties, grouped: only those that
    # share a key are searched
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
        "%d orbit representatives, %d chosen, %d kept as twins, %d rejected by colour, "
        "%d kept by colour, %d tied by colour, %d searched) in %.3f s (parent searches "
        "%.3f s, stacked pass %.3f s, tied searches %.3f s, classes %.3f s)",
        len(out), n, len(parents) * ((1 << m) - 1), tried, tried - counts[_REJECTED],
        *counts[[_TWINS, _OUTCOLOURED, _COLOUR_KEPT, _CANONICAL]], collides.sum(),
        spent.sum(), *spent,
    )
    return out


def enumerate_connected(n: int) -> Iterator[Graph]:
    """Connected graphs of order n, one representative per isomorphism
    class, sorted by rows.  Only the classes whose key tie the root colouring
    leaves open, and whose invariant key another such tie shares, carry
    canonical rows; the rest keep the rows they were built with."""
    if not 1 <= n <= MAX_BUILTIN_ORDER:
        raise ValueError(
            f"built-in enumeration supports 1 <= n <= {MAX_BUILTIN_ORDER}, got {n}"
        )
    yield from _classes(n)
