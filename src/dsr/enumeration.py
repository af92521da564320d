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
on P's rows; none outlives the loop over parents.  For any automorphism
gamma of P, P + S and P + gamma(S) are isomorphic by gamma extended to fix
v, so v passes the rule in one iff it passes in the other.

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
v, it is kept as built; else it is canonicalized, and a set of canonical
rows removes the duplicates.  This is exact.  The colours, whether the
top-key vertices are twins, and whether those of the top colour among them
are, are isomorphism invariants, so candidates settled by different
clauses are never isomorphic.  An isomorphism between two candidates kept
as built by one clause maps v to a twin of v'; composed with the
transposition of those twins it maps v to v', so S = S' as above.  Every
class is still reached, through a non-cut vertex of the top key and, unless
those are all twins, of the top colour among them.  The classes are emitted
sorted by rows, the canonicalized ones' rows canonical.
"""

from __future__ import annotations

import logging
import time
from functools import lru_cache
from typing import Callable, Iterator, Sequence

from .graphs import Graph, _bits, _reach
from .isomorphism import _canonical_search, _orbit, _root_colors

logger = logging.getLogger(__name__)

MAX_BUILTIN_ORDER = 8

Perm = tuple[int, ...]


# how a tied candidate is settled: kept as built because its top-key
# vertices are twins, rejected or kept as built by root colour, or
# canonicalized
_TWINS, _OUTCOLOURED, _COLOUR_KEPT, _CANONICAL = (
    "twins", "outcoloured", "colour-kept", "canonical")


def _chosen_removal_test(prow: Sequence[int]) -> Callable[[int], int | None]:
    """For a connected parent P with rows ``prow``, a test of attachment sets
    that judges the new vertex v of P + v, joined to the mask ``sub``,
    against the vertices whose deletion leaves P + v connected: None if one
    of them has a larger key than v, else the mask of those that share v's
    key, v's rivals.  Degrees are compared first; neighbour degrees
    only on a tie.  P + v - w is connected iff ``sub`` meets every component
    of P - w, which are found once per parent."""
    m = len(prow)
    deg = [row.bit_count() for row in prow]
    # rivals by falling degree, so the scan stops at the first one that v
    # outranks whether or not it joins v
    by_degree = sorted(range(m), key=deg.__getitem__, reverse=True)
    nbrs = [list(_bits(row)) for row in prow]
    components = []
    for w in range(m):
        alive = rest = ((1 << m) - 1) ^ (1 << w)
        comps = []
        while rest:
            comp = _reach(prow, rest & -rest, alive)
            comps.append(comp)
            rest ^= comp
        components.append(comps)

    def verdict(sub: int) -> int | None:
        dv = sub.bit_count()
        v_nbr_degs = None
        rivals = 0
        for w in by_degree:
            if deg[w] + 1 < dv:
                break
            joined = sub >> w & 1
            dw = deg[w] + joined
            if dw < dv:
                continue
            larger = dw > dv
            if not larger:
                if v_nbr_degs is None:
                    v_nbr_degs = sorted([deg[u] + 1 for u in _bits(sub)])
                w_nbr_degs = [deg[u] + (sub >> u & 1) for u in nbrs[w]]
                if joined:
                    w_nbr_degs.append(dv)
                w_nbr_degs.sort()
                if w_nbr_degs < v_nbr_degs:
                    continue
                larger = w_nbr_degs > v_nbr_degs
            if all(sub & comp for comp in components[w]):
                if larger:
                    return None
                rivals |= 1 << w
        return rivals

    return verdict


def _settle_tie(rows: tuple[int, ...], rivals: int) -> str:
    """How a candidate with rows ``rows``, whose new vertex v is the last,
    is settled when the non-cut vertices of the mask ``rivals`` share v's
    top key: _TWINS if all are twins of v; else, by the root colouring,
    _OUTCOLOURED if one has a larger colour than v, _COLOUR_KEPT if none of
    v's colour is other than a twin of v, and _CANONICAL otherwise."""
    v = len(rows) - 1
    others = [w for w in _bits(rivals) if rows[w] & ~(1 << v) != rows[v] & ~(1 << w)]
    if not others:
        return _TWINS
    colours = _root_colors(rows)
    if any(colours[w] > colours[v] for w in _bits(rivals)):
        return _OUTCOLOURED
    if colours[v] not in {colours[w] for w in others}:
        return _COLOUR_KEPT
    return _CANONICAL


def _orbit_representatives(prow: Sequence[int], generators: Sequence[Perm]) -> Sequence[int]:
    """The least member of each orbit of the nonempty vertex subsets of the
    graph with rows ``prow``, as masks in increasing order, under the group
    the permutations generate.  Each generator's image table takes one step
    per subset, and must map every row onto the row of the image vertex, or
    RuntimeError is raised: a permutation that is no automorphism could merge
    orbits and so drop a class."""
    m = len(prow)
    full = 1 << m
    if not generators:
        return range(1, full)
    tables = []
    for gamma in generators:
        image = [0] * full
        for s in range(1, full):
            low = s & -s
            image[s] = image[s ^ low] | 1 << gamma[low.bit_length() - 1]
        if any(image[row] != prow[gamma[v]] for v, row in enumerate(prow)):
            raise RuntimeError(f"{gamma} is not an automorphism of the graph with rows {prow}")
        tables.append(image)
    reps = []
    seen: set[int] = set()
    for s in range(1, full):
        if s not in seen:
            reps.append(s)
            seen |= _orbit(s, tables)
    return reps


@lru_cache(maxsize=None)
def _classes(n: int) -> tuple[Graph, ...]:
    """The order-n classes sorted by rows."""
    if n == 1:
        return (Graph(1, (0,)),)
    parents = _classes(n - 1)
    start = time.perf_counter()
    new_bit = 1 << (n - 1)
    classes: set[tuple[int, ...]] = set()
    tried = chosen = 0
    settled = dict.fromkeys((_TWINS, _OUTCOLOURED, _COLOUR_KEPT, _CANONICAL), 0)
    for parent in parents:
        prow = parent.rows
        judge = _chosen_removal_test(prow)
        subs = _orbit_representatives(prow, _canonical_search(n - 1, prow)[1])
        tried += len(subs)
        for sub in subs:
            rivals = judge(sub)
            if rivals is None:
                continue
            chosen += 1
            rows = tuple(
                prow[i] | new_bit if sub >> i & 1 else prow[i] for i in range(n - 1)
            ) + (sub,)
            if rivals:
                how = _settle_tie(rows, rivals)
                settled[how] += 1
                if how == _OUTCOLOURED:
                    continue
                if how == _CANONICAL:
                    rows = _canonical_search(n, rows)[0]
            classes.add(rows)
    logger.info(
        "enumerated %d connected classes of order %d (%d candidates, "
        "%d orbit representatives, %d chosen, %d kept as twins, %d rejected by colour, "
        "%d kept by colour, %d canonicalized) in %.3f s",
        len(classes), n, len(parents) * (new_bit - 1), tried, chosen, *settled.values(),
        time.perf_counter() - start,
    )
    # relabeling keeps any asymmetry, so validating a canonicalized class's
    # rows checks its candidate too
    return tuple(Graph(n, rows) for rows in sorted(classes))


def enumerate_connected(n: int) -> Iterator[Graph]:
    """Connected graphs of order n, one representative per isomorphism
    class, sorted by rows.  Only the classes whose key tie the root colouring
    leaves open carry canonical rows; the rest keep the rows they were
    built with."""
    if not 1 <= n <= MAX_BUILTIN_ORDER:
        raise ValueError(
            f"built-in enumeration supports 1 <= n <= {MAX_BUILTIN_ORDER}, got {n}"
        )
    yield from _classes(n)
